package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// poisonOrders is the number of line-item-less orders a poisoned batch
// adds; each one is a violation of atLeastOneLineItem.
const poisonOrders = 3

// Stream is the benchmark's seeded update generator. Unlike
// tpch.Generator.CleanUpdate, which only ever grows orders and lineitem, it
// balances every batch's new orders against deleted ones and tops lineitem
// up with extra line items, so a run measures a database of steady size.
//
// The stream keeps its own model of the live orders and their line items,
// built once from the initial database; batches are a pure function of the
// seed, that model and the committed batches (Commit), never of timing.
type Stream struct {
	rng         *rand.Rand
	scale       tpch.Scale
	rows        int // rows per batch
	poisonEvery int // every poisonEvery-th batch is poisoned; 0 = never

	orders       []*liveOrder
	pos          map[int64]int // orderkey -> index in orders
	lines        int           // live line items in the model
	targetOrders int
	targetLines  int
	nextKey      int64
	batches      int
}

type liveOrder struct {
	row      sqltypes.Row
	lines    []sqltypes.Row
	nextLine int64
}

// Batch is one generated update plus what the model needs to apply it once
// it commits and what the correctness gate needs to judge its verdict.
type Batch struct {
	*tpch.Update
	// Poisoned holds the order keys inserted without line items; a batch
	// with any must be rejected with exactly these violations.
	Poisoned []int64

	added   []*liveOrder
	deleted []int64
	extra   []sqltypes.Row
}

// NewStream models the orders and line items of db (a freshly generated
// TPC-H database at scale) and returns a generator of rows-row batches.
func NewStream(db *storage.DB, scale tpch.Scale, seed int64, rows, poisonEvery int) (*Stream, error) {
	s := &Stream{
		rng:         rand.New(rand.NewSource(seed ^ 0x5eed_57ea)),
		scale:       scale,
		rows:        rows,
		poisonEvery: poisonEvery,
		pos:         make(map[int64]int),
	}
	byKey := map[int64]*liveOrder{}
	var keys []int64
	db.MustTable("orders").Scan(func(r sqltypes.Row) bool {
		k := r[0].Int()
		byKey[k] = &liveOrder{row: r, nextLine: 1}
		keys = append(keys, k)
		return true
	})
	var bad error
	db.MustTable("lineitem").Scan(func(r sqltypes.Row) bool {
		o := byKey[r[0].Int()]
		if o == nil {
			bad = fmt.Errorf("perfbench: line item %v has no order", r)
			return false
		}
		o.lines = append(o.lines, r)
		if ln := r[1].Int(); ln >= o.nextLine {
			o.nextLine = ln + 1
		}
		return true
	})
	if bad != nil {
		return nil, bad
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		o := byKey[k]
		sort.Slice(o.lines, func(i, j int) bool { return o.lines[i][1].Int() < o.lines[j][1].Int() })
		s.pos[k] = len(s.orders)
		s.orders = append(s.orders, o)
		s.lines += len(o.lines)
		if k >= s.nextKey {
			s.nextKey = k + 1
		}
	}
	s.targetOrders, s.targetLines = len(s.orders), s.lines
	return s, nil
}

// Orders and Lines report the model's live table sizes.
func (s *Stream) Orders() int { return len(s.orders) }
func (s *Stream) Lines() int  { return s.lines }

// Next generates the next batch: exactly s.rows rows of new orders with one
// to three line items, deletions of whole live orders with all their line
// items, and extra line items for live orders. Deletions match insertions
// one for one, and extra line items are added only while the model has
// fewer line items than at the start (plus a few to fill the batch to size),
// so orders stays constant and lineitem within a few rows of its start.
func (s *Stream) Next() *Batch {
	s.batches++
	b := &Batch{Update: tpch.NewUpdate(fmt.Sprintf("batch%d", s.batches))}
	target := s.rows
	if s.poisonEvery > 0 && s.batches%s.poisonEvery == 0 {
		target -= poisonOrders
	}
	touched := map[int64]bool{} // deleted or extended in this batch
	rows, ordersDelta, linesDelta := 0, 0, 0
	for rows < target {
		switch {
		case len(s.orders)+ordersDelta > s.targetOrders:
			o := s.pick(touched)
			if rows+1+len(o.lines) > target {
				rows += s.fill(b, touched, target-rows)
				continue
			}
			touched[o.row[0].Int()] = true
			b.deleted = append(b.deleted, o.row[0].Int())
			b.Deletes["orders"] = append(b.Deletes["orders"], o.row)
			b.Deletes["lineitem"] = append(b.Deletes["lineitem"], o.lines...)
			rows += 1 + len(o.lines)
			ordersDelta--
			linesDelta -= len(o.lines)
		case s.lines+linesDelta < s.targetLines:
			rows += s.fill(b, touched, 1)
			linesDelta++
		default:
			n := 1 + s.rng.Intn(3)
			if rows+1+n > target {
				rows += s.fill(b, touched, target-rows)
				continue
			}
			o := s.newOrder(n)
			b.added = append(b.added, o)
			b.Inserts["orders"] = append(b.Inserts["orders"], o.row)
			b.Inserts["lineitem"] = append(b.Inserts["lineitem"], o.lines...)
			rows += 1 + n
			ordersDelta++
			linesDelta += n
		}
	}
	if target < s.rows {
		for i := 0; i < poisonOrders; i++ {
			k := s.nextKey
			s.nextKey++
			b.Poisoned = append(b.Poisoned, k)
			b.Inserts["orders"] = append(b.Inserts["orders"], sqltypes.Row{
				sqltypes.NewInt(k), sqltypes.NewInt(int64(s.rng.Intn(s.scale.Customers))), sqltypes.NewFloat(0)})
		}
	}
	return b
}

// fill adds n extra line items to live orders not deleted in this batch.
func (s *Stream) fill(b *Batch, touched map[int64]bool, n int) int {
	for i := 0; i < n; i++ {
		o := s.pick(touched)
		touched[o.row[0].Int()] = true
		r := s.lineItem(o.row[0].Int(), o.nextLine)
		o.nextLine++
		b.extra = append(b.extra, r)
		b.Inserts["lineitem"] = append(b.Inserts["lineitem"], r)
	}
	return n
}

// pick returns a random live order this batch has not touched yet.
func (s *Stream) pick(touched map[int64]bool) *liveOrder {
	for {
		o := s.orders[s.rng.Intn(len(s.orders))]
		if !touched[o.row[0].Int()] {
			return o
		}
	}
}

func (s *Stream) newOrder(lines int) *liveOrder {
	k := s.nextKey
	s.nextKey++
	o := &liveOrder{nextLine: int64(lines) + 1}
	price := 0.0
	for ln := 1; ln <= lines; ln++ {
		r := s.lineItem(k, int64(ln))
		price += float64(r[4].Int()) * 10
		o.lines = append(o.lines, r)
	}
	o.row = sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(int64(s.rng.Intn(s.scale.Customers))), sqltypes.NewFloat(price)}
	return o
}

func (s *Stream) lineItem(order, line int64) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(order),
		sqltypes.NewInt(line),
		sqltypes.NewInt(int64(s.rng.Intn(s.scale.Parts))),
		sqltypes.NewInt(int64(s.rng.Intn(s.scale.Suppliers))),
		sqltypes.NewInt(int64(1 + s.rng.Intn(50))),
	}
}

// Commit folds a committed batch into the model. Rejected batches are
// simply not committed: they change nothing.
func (s *Stream) Commit(b *Batch) {
	for _, k := range b.deleted {
		i := s.pos[k]
		o := s.orders[i]
		last := len(s.orders) - 1
		s.orders[i] = s.orders[last]
		s.pos[s.orders[i].row[0].Int()] = i
		s.orders = s.orders[:last]
		delete(s.pos, k)
		s.lines -= len(o.lines)
	}
	for _, o := range b.added {
		s.pos[o.row[0].Int()] = len(s.orders)
		s.orders = append(s.orders, o)
		s.lines += len(o.lines)
	}
	for _, r := range b.extra {
		o := s.orders[s.pos[r[0].Int()]]
		o.lines = append(o.lines, r)
		s.lines++
	}
}

// Stage loads the batch into the event tables through storage.DB.Insert,
// the path a captured INSERT/DELETE takes.
func (b *Batch) Stage(db *storage.DB) error {
	for _, table := range []string{"orders", "lineitem"} {
		for _, r := range b.Inserts[table] {
			if err := db.Insert(storage.InsTable(table), r); err != nil {
				return err
			}
		}
		for _, r := range b.Deletes[table] {
			if err := db.Insert(storage.DelTable(table), r); err != nil {
				return err
			}
		}
	}
	return nil
}
