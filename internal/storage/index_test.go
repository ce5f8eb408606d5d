package storage

import (
	"math"
	"sort"
	"strings"
	"testing"

	"tintin/internal/sqltypes"
)

// TestIndexTestsCollidingHash reruns the index tests with every key hashing
// alike, so each index is one chain and every match rests on candidate
// verification alone.
func TestIndexTestsCollidingHash(t *testing.T) {
	defer ForceHashCollisions()()
	tb := newIndexTestTable(t)
	for i := int64(0); i < 5; i++ {
		if err := tb.Insert(sqltypes.Row{iv(i), iv(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.EnsureIndex("a"); err != nil {
		t.Fatal(err)
	}
	if n := len(tb.indexOn([]int{0}).chains); n != 1 {
		t.Fatalf("colliding hash left %d chains, want 1", n)
	}
	for _, test := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"IndexAfterDeleteRowSlotSwap", TestIndexAfterDeleteRowSlotSwap},
		{"IndexAfterTruncate", TestIndexAfterTruncate},
		{"ScanEqualEarlyStopAndNull", TestScanEqualEarlyStopAndNull},
		{"LookupEqualAfterChurn", TestLookupEqualAfterChurn},
		{"ContainsRowWithNulls", TestContainsRowWithNulls},
		{"DeleteAndReuse", TestDeleteAndReuse},
		{"InsertValidation", TestInsertValidation},
		{"NormalizeEvents", TestNormalizeEvents},
		{"ApplyEventsOrder", TestApplyEventsOrder},
		{"ApplyEventsAtomic", TestApplyEventsAtomic},
		{"IndexScanAgreementProperty", TestIndexScanAgreementProperty},
		{"PrimaryKeyBeyondFloatPrecision", TestPrimaryKeyBeyondFloatPrecision},
	} {
		t.Run(test.name, test.fn)
	}
}

// TestPrimaryKeyBeyondFloatPrecision: float64 rounds 2^53+1 onto 2^53, but
// as primary keys they are distinct, on direct insert and on event replay.
func TestPrimaryKeyBeyondFloatPrecision(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Insert(row(1<<53, 1, 0.0)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(row(1<<53+1, 2, 0.0)); err != nil {
		t.Fatalf("key 2^53+1 after 2^53: %v", err)
	}
	if err := tb.Insert(row(1<<53+1, 3, 0.0)); err == nil {
		t.Fatal("duplicate key 2^53+1 accepted")
	}
	if !tb.DeleteRow(row(1<<53, 1, 0.0)) || !tb.ContainsRow(row(1<<53+1, 2, 0.0)) || tb.Len() != 1 {
		t.Fatal("DeleteRow(2^53) did not remove exactly that row")
	}

	db := NewDB("d")
	if _, err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(1<<53, 1, 0.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(1<<53+1, 2, 0.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatalf("replaying key 2^53+1 onto 2^53: %v", err)
	}
	if n := db.MustTable("orders").Len(); n != 2 {
		t.Fatalf("orders has %d rows after replay, want 2", n)
	}
}

// TestDeleteReinsertAllocatesNothing: with hash chains threaded through
// per-slot arrays, deleting a row from a keyed table with a secondary index
// and inserting it again reuses the slot and every index entry.
func TestDeleteReinsertAllocatesNothing(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.EnsureIndex("o_custkey"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tb.Insert(row(i, i%7, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	r := row(500, 500%7, 500.0)
	allocs := testing.AllocsPerRun(100, func() {
		if !tb.DeleteRow(r) {
			t.Fatal("DeleteRow missed")
		}
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DeleteRow + Insert allocated %v times, want 0", allocs)
	}
}

// TestTruncateRefillAllocatesNothing: Truncate clears an event table's rows
// and indexes in place, so refilling it to its previous size, with the
// identity probes capture and normalization make, allocates nothing.
func TestTruncateRefillAllocatesNothing(t *testing.T) {
	db := NewDB("d")
	if _, err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	ins := db.MustTable(InsTable("orders"))
	if err := ins.EnsureIndex("o_custkey"); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 500)
	for i := range rows {
		rows[i] = row(i, i%7, float64(i))
	}
	refill := func() {
		ins.Truncate()
		for _, r := range rows {
			if ins.ContainsRow(r) {
				t.Fatal("row present before insert")
			}
			if err := ins.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Errorf("Truncate + refill allocated %v times, want 0", allocs)
	}
}

// TestApplyEventsProbesPrimaryKey: replaying deletions onto a keyed table
// finds rows through its key index, which also serves probes on the key
// columns; only the keyless event tables carry an all-columns identity
// index.
func TestApplyEventsProbesPrimaryKey(t *testing.T) {
	db := NewDB("d")
	if _, err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("orders", row(i, i%3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() < 5 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(3, 9, 9.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	base := db.MustTable("orders")
	if base.Len() != 16 || !base.ContainsRow(row(3, 9, 9.0)) || base.ContainsRow(row(4, 1, 4.0)) {
		t.Fatalf("orders after replay: %v", base.Rows())
	}
	if _, err := base.IndexOn([]int{0}); err != nil {
		t.Fatal(err)
	}
	if base.HasIndexOn(base.allCols) || len(base.indexes) != 1 {
		t.Errorf("keyed table carries %d indexes, want only its key, which a probe on the key reuses", len(base.indexes))
	}
	if del := db.MustTable(DelTable("orders")); !del.HasIndexOn(del.allCols) {
		t.Error("keyless event table has no identity index")
	}
}

// Value pools for FuzzTableIndex, one per column of its table (a INTEGER,
// b REAL, c VARCHAR). Each mixes kinds, so inserts coerce or fail and probes
// cross kinds, and holds integers past 2^53 that float64 rounds together.
var (
	fuzzA = []sqltypes.Value{
		sqltypes.Null, iv(0), iv(1), iv(2), iv(1 << 53), iv(1<<53 + 1), iv(-(1 << 53) - 1),
		iv(math.MaxInt64), iv(math.MinInt64), sqltypes.NewFloat(2), sqltypes.NewFloat(0.5),
		sqltypes.NewFloat(math.Copysign(0, -1)),
	}
	fuzzB = []sqltypes.Value{
		sqltypes.Null, sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(1.5), sqltypes.NewFloat(0x1p53), iv(2), iv(1<<53 + 1), iv(7),
	}
	fuzzC = []sqltypes.Value{
		sqltypes.Null, sqltypes.NewString(""), sqltypes.NewString("a"),
		sqltypes.NewString("b"), sqltypes.NewString("ab"),
	}
	fuzzCols = [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {2, 0}, {0, 1, 2}}
)

// bag renders rows as a sorted list of identity keys.
func bag(rows []sqltypes.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// matching returns the model rows whose columns at offs match vals under eq.
func matching(model []sqltypes.Row, offs []int, vals []sqltypes.Value, eq func(a, b sqltypes.Value) bool) []sqltypes.Row {
	var out []sqltypes.Row
next:
	for _, r := range model {
		for i, o := range offs {
			if !eq(r[o], vals[i]) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// FuzzTableIndex runs random operation sequences against a table and a
// naive slice model: inserts, DeleteRow, Delete(match), Truncate and
// EnsureIndex at any point, each followed by the checks its op calls for,
// with index probes (ScanIdentical, LookupEqual, ContainsEqual, ContainsRow)
// compared to filtering the model. The first byte picks whether column a
// is the primary key and whether every key hashes alike (one chain per
// index); every further four bytes are one op and the pool picks for a, b
// and c.
func FuzzTableIndex(f *testing.F) {
	f.Add([]byte{1, 0, 4, 1, 1, 0, 5, 1, 1, 6, 0, 1, 1})
	f.Add([]byte{0, 5, 3, 0, 0, 0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 2, 3, 6, 6, 2, 3, 4, 0, 0, 0, 6, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		var pk []string
		if ops[0]&1 == 1 {
			pk = []string{"a"}
		}
		if ops[0]&2 == 2 {
			defer ForceHashCollisions()()
		}
		s, err := NewSchema("f", []Column{
			{Name: "a", Type: sqltypes.KindInt},
			{Name: "b", Type: sqltypes.KindFloat},
			{Name: "c", Type: sqltypes.KindString},
		}, pk, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb := NewTable(s)
		var model []sqltypes.Row
		for i := 1; i+3 < len(ops); i += 4 {
			x, y, z := int(ops[i+1]), int(ops[i+2]), int(ops[i+3])
			r := sqltypes.Row{fuzzA[x%len(fuzzA)], fuzzB[y%len(fuzzB)], fuzzC[z%len(fuzzC)]}
			switch ops[i] % 7 {
			case 0, 1:
				checked, cerr := s.CheckRow(r)
				wantErr := cerr != nil || pk != nil && len(matching(model, []int{0}, checked[:1], sqltypes.Identical)) > 0
				if err := tb.Insert(r); (err != nil) != wantErr {
					t.Fatalf("op %d: Insert%v error = %v, want error %v", i, r, err, wantErr)
				}
				if !wantErr {
					model = append(model, checked)
				}
			case 2:
				at := -1
				for j, m := range model {
					if sqltypes.IdenticalRows(m, r) {
						at = j
						break
					}
				}
				if got := tb.DeleteRow(r); got != (at >= 0) {
					t.Fatalf("op %d: DeleteRow%v = %v, model holds it: %v", i, r, got, at >= 0)
				}
				if at >= 0 {
					model = append(model[:at], model[at+1:]...)
				}
			case 3:
				kept := model[:0]
				for _, m := range model {
					if !sqltypes.Identical(m[0], r[0]) {
						kept = append(kept, m)
					}
				}
				want := len(model) - len(kept)
				model = kept
				if got := tb.Delete(func(m sqltypes.Row) bool { return sqltypes.Identical(m[0], r[0]) }); got != want {
					t.Fatalf("op %d: Delete(a = %v) removed %d rows, want %d", i, r[0], got, want)
				}
			case 4:
				tb.Truncate()
				model = model[:0]
			case 5:
				cols := fuzzCols[x%len(fuzzCols)]
				names := make([]string, len(cols))
				for j, c := range cols {
					names[j] = s.Columns[c].Name
				}
				if err := tb.EnsureIndex(names...); err != nil {
					t.Fatal(err)
				}
			case 6:
				offs := fuzzCols[(x+y+z)%len(fuzzCols)]
				vals := make([]sqltypes.Value, len(offs))
				for j, o := range offs {
					vals[j] = r[o]
				}
				idx, err := tb.IndexOn(offs)
				if err != nil {
					t.Fatal(err)
				}
				var got []sqltypes.Row
				idx.ScanIdentical(vals, func(m sqltypes.Row) bool {
					got = append(got, m)
					return true
				})
				if want := matching(model, offs, vals, sqltypes.Identical); bag(got) != bag(want) {
					t.Fatalf("op %d: ScanIdentical(%v at %v) = %v, want %v", i, vals, offs, got, want)
				}
				equal := matching(model, offs, vals, sqltypes.Equal)
				if got := tb.LookupEqual(offs, vals); bag(got) != bag(equal) {
					t.Fatalf("op %d: LookupEqual(%v at %v) = %v, want %v", i, vals, offs, got, equal)
				}
				if got := tb.ContainsEqual(offs, vals); got != (len(equal) > 0) {
					t.Fatalf("op %d: ContainsEqual(%v at %v) = %v", i, vals, offs, got)
				}
				held := len(matching(model, tb.allCols, r, sqltypes.Identical)) > 0
				if got := tb.ContainsRow(r); got != held {
					t.Fatalf("op %d: ContainsRow%v = %v, want %v", i, r, got, held)
				}
			}
			if tb.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i, tb.Len(), len(model))
			}
		}
		if got, want := bag(tb.Rows()), bag(model); got != want {
			t.Fatalf("rows %s, model %s", got, want)
		}
	})
}
