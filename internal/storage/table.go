package storage

import (
	"fmt"
	"slices"

	"tintin/internal/sqltypes"
)

// Table is a tombstoned in-memory row store with hash indexes.
//
// Rows keep their slot for their lifetime; deletion marks a tombstone and
// recycles the slot on a free list. Indexes are maintained eagerly on both
// insert and delete — lookups never write, which is what makes concurrent
// reading sound.
//
// Concurrency: a Table holds no scratch state, so any number of goroutines
// may read concurrently (Scan, Rows, Len, Index.ScanIdentical) as long as
// nothing mutates the table — an immutable snapshot view, which is exactly
// the state safeCommit's parallel check phase runs in. Mutations (Insert,
// Delete*, Truncate, index construction) require exclusive access.
type Table struct {
	schema *Schema

	rows  []sqltypes.Row
	alive []bool
	free  []int
	live  int

	// indexes holds every hash index of the table, pk included.
	indexes []*index
	// pk indexes the primary key (nil when none is declared). It is also
	// the table's row identity: DeleteRow and ContainsRow probe it.
	pk *index
	// allCols is [0..len(columns)). On a table without a primary key (the
	// event tables) idIx, built on first use, indexes all of them for row
	// identity.
	allCols []int
	idIx    *index
}

// index is a hash index without per-row allocation. Rows whose indexed
// columns hash alike form one chain, linked through the per-slot next and
// prev arrays in insertion order; chains maps each hash to its chain's
// ends. Distinct keys may share a chain, so every probe verifies each
// candidate's columns against the probe values: by their sqltypes Words,
// kept per slot in words so the row itself is rarely loaded, and by
// sqltypes.Identical on the row for values without a word. The hash
// narrows, the comparison decides.
type index struct {
	cols []int
	// valCols is [0..len(cols)), the offsets of a probe's values.
	valCols    []int
	chains     map[uint64]chain
	next, prev []int32
	words      []uint64 // len(cols) per slot
}

type chain struct{ first, last int32 }

// noSlot ends a chain.
const noSlot = -1

// hashValue hashes one key value into the running hash h. It is a variable
// so tests can make every key collide and show that verification, not the
// hash, decides each match.
var hashValue = sqltypes.Value.Hash

// ForceHashCollisions makes every index key hash alike, so each index is a
// single chain, until the returned restore func runs. It is a seam for
// tests showing that candidate verification, not the hash, decides every
// match; tables must be built and used under one setting.
func ForceHashCollisions() (restore func()) {
	saved := hashValue
	hashValue = func(sqltypes.Value, uint64) uint64 { return 0 }
	return func() { hashValue = saved }
}

// hashOn hashes the values of r at cols.
func hashOn(r sqltypes.Row, cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = hashValue(r[c], h)
	}
	return h
}

// link appends slot s, holding r, to the end of its chain.
func (ix *index) link(s int32, r sqltypes.Row) {
	n := len(ix.cols)
	for i, c := range ix.cols {
		ix.words[int(s)*n+i] = r[c].Word()
	}
	h := hashOn(r, ix.cols)
	ix.next[s] = noSlot
	c, ok := ix.chains[h]
	if !ok {
		ix.prev[s] = noSlot
		ix.chains[h] = chain{first: s, last: s}
		return
	}
	ix.prev[s] = c.last
	ix.next[c.last] = s
	c.last = s
	ix.chains[h] = c
}

// unlink removes slot s, holding r, from its chain.
func (ix *index) unlink(s int32, r sqltypes.Row) {
	h := hashOn(r, ix.cols)
	p, n := ix.prev[s], ix.next[s]
	c := ix.chains[h]
	if p == noSlot {
		c.first = n
	} else {
		ix.next[p] = n
	}
	if n == noSlot {
		c.last = p
	} else {
		ix.prev[n] = p
	}
	if c.first == noSlot {
		delete(ix.chains, h)
	} else {
		ix.chains[h] = c
	}
}

// first returns the first live slot, in chain order, whose indexed columns
// are Identical to key's columns at keyCols, or noSlot.
func (t *Table) first(ix *index, key sqltypes.Row, keyCols []int) int32 {
	c, ok := ix.chains[hashOn(key, keyCols)]
	if !ok {
		return noSlot
	}
	return t.match(ix, c.first, key, keyCols)
}

// after continues first past slot s.
func (t *Table) after(ix *index, s int32, key sqltypes.Row, keyCols []int) int32 {
	return t.match(ix, ix.next[s], key, keyCols)
}

func (t *Table) match(ix *index, s int32, key sqltypes.Row, keyCols []int) int32 {
	n := len(ix.cols)
next:
	for ; s != noSlot; s = ix.next[s] {
		words := ix.words[int(s)*n : int(s)*n+n]
		for i, c := range ix.cols {
			v := key[keyCols[i]]
			w := v.Word()
			if w != words[i] || w == sqltypes.NoWord && !sqltypes.Identical(t.rows[s][c], v) {
				continue next
			}
		}
		return s
	}
	return noSlot
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		allCols: make([]int, len(schema.Columns)),
	}
	for i := range t.allCols {
		t.allCols[i] = i
	}
	if pk := schema.PrimaryKeyOffsets(); pk != nil {
		t.pk = t.ensureIndexOffsets(pk)
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// EnsureIndex builds a hash index over the named columns if one does not
// already exist.
func (t *Table) EnsureIndex(cols ...string) error {
	offs := make([]int, len(cols))
	for i, c := range cols {
		off := t.schema.ColumnIndex(c)
		if off < 0 {
			return fmt.Errorf("storage: table %s: no column %s to index", t.Name(), c)
		}
		offs[i] = off
	}
	t.ensureIndexOffsets(offs)
	return nil
}

func (t *Table) ensureIndexOffsets(offs []int) *index {
	if ix := t.indexOn(offs); ix != nil {
		return ix
	}
	ix := &index{
		cols:    append([]int(nil), offs...),
		valCols: make([]int, len(offs)),
		chains:  make(map[uint64]chain, t.live),
		next:    make([]int32, len(t.rows)),
		prev:    make([]int32, len(t.rows)),
		words:   make([]uint64, len(t.rows)*len(offs)),
	}
	for i := range ix.valCols {
		ix.valCols[i] = i
	}
	for slot, r := range t.rows {
		if t.alive[slot] {
			ix.link(int32(slot), r)
		}
	}
	t.indexes = append(t.indexes, ix)
	return ix
}

func (t *Table) indexOn(offs []int) *index {
	for _, ix := range t.indexes {
		if slices.Equal(ix.cols, offs) {
			return ix
		}
	}
	return nil
}

// HasIndexOn reports whether an index over exactly these column offsets exists.
func (t *Table) HasIndexOn(offs []int) bool { return t.indexOn(offs) != nil }

// Insert validates and stores a row. With a declared primary key, duplicate
// keys are rejected.
func (t *Table) Insert(r sqltypes.Row) error {
	r, err := t.schema.CheckRow(r)
	if err != nil {
		return err
	}
	if t.pk != nil && t.first(t.pk, r, t.pk.cols) != noSlot {
		return fmt.Errorf("storage: table %s: duplicate primary key %s", t.Name(), r)
	}
	t.insertRaw(r)
	return nil
}

func (t *Table) insertRaw(r sqltypes.Row) {
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = r
		t.alive[slot] = true
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, r)
		t.alive = append(t.alive, true)
		for _, ix := range t.indexes {
			ix.next = append(ix.next, noSlot)
			ix.prev = append(ix.prev, noSlot)
			for range ix.cols {
				ix.words = append(ix.words, 0)
			}
		}
	}
	t.live++
	for _, ix := range t.indexes {
		ix.link(int32(slot), r)
	}
}

// Scan calls yield for every live row; returning false stops the scan.
// The yielded row must not be mutated.
func (t *Table) Scan(yield func(sqltypes.Row) bool) {
	for slot, r := range t.rows {
		if t.alive[slot] {
			if !yield(r) {
				return
			}
		}
	}
}

// Rows returns a snapshot copy of all live rows.
func (t *Table) Rows() []sqltypes.Row {
	out := make([]sqltypes.Row, 0, t.live)
	t.Scan(func(r sqltypes.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// scanEqual resolves (building if needed) the index on offs and probes it
// under SQL equality: a NULL value matches nothing. Building is a mutation;
// this path is for cold callers with exclusive access (the hot path holds
// an Index handle).
func (t *Table) scanEqual(offs []int, vals []sqltypes.Value, yield func(sqltypes.Row) bool) {
	x := Index{t: t, ix: t.ensureIndexOffsets(offs)}
	x.ScanEqual(vals, yield)
}

// LookupEqual returns the live rows whose columns at offs equal vals,
// using (and if needed building) a hash index.
func (t *Table) LookupEqual(offs []int, vals []sqltypes.Value) []sqltypes.Row {
	var out []sqltypes.Row
	t.scanEqual(offs, vals, func(r sqltypes.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Index is a stable handle on one hash index, letting compiled query plans
// probe repeatedly without re-resolving the column set. The handle stays
// valid for the lifetime of the table: Truncate and row churn update the
// underlying chains in place.
//
// The handle holds no state of its own, so one Index may be shared by any
// number of concurrent readers while the table is quiescent.
type Index struct {
	t  *Table
	ix *index
}

// IndexOn builds (if needed) the index over the columns at offs and
// returns a handle on it.
func (t *Table) IndexOn(offs []int) (*Index, error) {
	for _, o := range offs {
		if o < 0 || o >= len(t.schema.Columns) {
			return nil, fmt.Errorf("storage: table %s: column offset %d out of range", t.Name(), o)
		}
	}
	return &Index{t: t, ix: t.ensureIndexOffsets(offs)}, nil
}

// ScanEqual probes the index for vals under SQL equality and yields each
// matching live row without materializing a result slice; returning false
// stops the scan. A NULL value matches nothing. yield must not mutate the
// table.
func (x *Index) ScanEqual(vals []sqltypes.Value, yield func(sqltypes.Row) bool) {
	if anyNull(vals) {
		return
	}
	x.ScanIdentical(vals, yield)
}

// ScanIdentical yields, in insertion order, each live row whose indexed
// columns are identical to vals (sqltypes.Identical: NULL matches NULL);
// returning false stops the scan. It is the query engine's probe, which
// applies SQL equality's NULL rule itself. It allocates nothing and is
// strictly read-only: concurrent callers are safe over a quiescent table.
func (x *Index) ScanIdentical(vals []sqltypes.Value, yield func(sqltypes.Row) bool) {
	t, ix := x.t, x.ix
	for s := t.first(ix, vals, ix.valCols); s != noSlot; s = t.after(ix, s, vals, ix.valCols) {
		if !yield(t.rows[s]) {
			return
		}
	}
}

// ContainsEqual reports whether any live row matches vals at offs.
func (t *Table) ContainsEqual(offs []int, vals []sqltypes.Value) bool {
	found := false
	t.scanEqual(offs, vals, func(sqltypes.Row) bool {
		found = true
		return false
	})
	return found
}

func anyNull(vals []sqltypes.Value) bool {
	for _, v := range vals {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// findRow returns the slot of a live row identical to r (tuple identity:
// NULL matches NULL), or noSlot. With a primary key it probes the key and
// confirms the whole row; without one it probes the all-columns index,
// built on first use. Either way the cost is independent of table size.
func (t *Table) findRow(r sqltypes.Row) int32 {
	if len(r) != len(t.schema.Columns) {
		return noSlot
	}
	ix := t.pk
	if ix == nil {
		if t.idIx == nil {
			t.idIx = t.ensureIndexOffsets(t.allCols)
		}
		ix = t.idIx
	}
	for s := t.first(ix, r, ix.cols); s != noSlot; s = t.after(ix, s, r, ix.cols) {
		if sqltypes.IdenticalRows(t.rows[s], r) {
			return s
		}
	}
	return noSlot
}

// ContainsRow reports whether an identical row exists. It may build the
// identity index: requires exclusive access.
func (t *Table) ContainsRow(r sqltypes.Row) bool { return t.findRow(r) != noSlot }

// Delete removes every live row for which match returns true and reports
// how many were removed.
func (t *Table) Delete(match func(sqltypes.Row) bool) int {
	n := 0
	for slot, r := range t.rows {
		if t.alive[slot] && match(r) {
			t.deleteSlot(slot)
			n++
		}
	}
	return n
}

// DeleteRow removes one row identical to r, reporting whether one was
// found. It probes like ContainsRow, so bulk event application stays
// linear in the update size rather than the table size.
func (t *Table) DeleteRow(r sqltypes.Row) bool {
	s := t.findRow(r)
	if s == noSlot {
		return false
	}
	t.deleteSlot(int(s))
	return true
}

func (t *Table) deleteSlot(slot int) {
	r := t.rows[slot]
	for _, ix := range t.indexes {
		ix.unlink(int32(slot), r)
	}
	t.alive[slot] = false
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
}

// Truncate removes all rows. Rows and indexes are cleared in place and keep
// their capacity, so an event table refilled to its previous size on every
// commit allocates nothing.
func (t *Table) Truncate() {
	t.rows = t.rows[:0]
	t.alive = t.alive[:0]
	t.free = t.free[:0]
	t.live = 0
	for _, ix := range t.indexes {
		clear(ix.chains)
		ix.next = ix.next[:0]
		ix.prev = ix.prev[:0]
		ix.words = ix.words[:0]
	}
}
