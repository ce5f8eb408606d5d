package main

import (
	"reflect"
	"testing"

	"tintin/internal/core"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

const testOrders = 2000

// newTool builds a small TPC-H database with all seven complexity
// assertions installed.
func newTool(t *testing.T, seed int64) (*core.Tool, *tpch.Generator) {
	t.Helper()
	db, gen, err := tpch.NewDatabase("t", tpch.ScaleOrders("t", testOrders), seed)
	if err != nil {
		t.Fatal(err)
	}
	tool := core.New(db, core.DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range tpch.ComplexityAssertions() {
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Fatal(err)
		}
	}
	return tool, gen
}

func newStream(t *testing.T, db *storage.DB, gen *tpch.Generator, seed int64, poisonEvery int) *Stream {
	t.Helper()
	s, err := NewStream(db, gen.Scale(), seed, rowsAtRatio(testOrders, 1), poisonEvery)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBatchSizesFollowPaperRatio(t *testing.T) {
	for _, c := range []struct{ orders, mb, want int }{{20000, 1, 667}, {20000, 5, 3333}, {150000, 1, 5000}} {
		if got := rowsAtRatio(c.orders, c.mb); got != c.want {
			t.Errorf("rowsAtRatio(%d, %d) = %d, want %d", c.orders, c.mb, got, c.want)
		}
	}
}

func TestStreamSameSeedSameBatches(t *testing.T) {
	streams := make([]*Stream, 2)
	for i := range streams {
		tool, gen := newTool(t, 7)
		streams[i] = newStream(t, tool.DB(), gen, 7, 10)
	}
	for n := 0; n < 30; n++ {
		a, b := streams[0].Next(), streams[1].Next()
		if !reflect.DeepEqual(a.Update, b.Update) || !reflect.DeepEqual(a.Poisoned, b.Poisoned) {
			t.Fatalf("batch %d differs between two streams with the same seed", n+1)
		}
		if a.Rows() != rowsAtRatio(testOrders, 1) {
			t.Fatalf("batch %d has %d rows, want %d", n+1, a.Rows(), rowsAtRatio(testOrders, 1))
		}
		if len(a.Poisoned) == 0 {
			streams[0].Commit(a)
			streams[1].Commit(b)
		}
	}
	tool, gen := newTool(t, 7)
	other := newStream(t, tool.DB(), gen, 8, 10)
	if reflect.DeepEqual(other.Next().Update, newStream(t, tool.DB(), gen, 7, 10).Next().Update) {
		t.Error("seeds 7 and 8 generate the same first batch")
	}
}

// TestStreamCommitsWithSteadySizes drives 100 batches through SafeCommit:
// every verdict must pass the gate, and orders must stay within 2 rows and
// lineitem within 1% of their starting sizes (tpch.CleanUpdate inserts
// three new orders for every one it deletes).
func TestStreamCommitsWithSteadySizes(t *testing.T) {
	tool, gen := newTool(t, 3)
	db := tool.DB()
	s := newStream(t, db, gen, 3, 10)
	orders0, lines0 := db.MustTable("orders").Len(), db.MustTable("lineitem").Len()
	for n := 0; n < 100; n++ {
		b := s.Next()
		if err := b.Stage(db); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkVerdict(b, res); err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			s.Commit(b)
		}
		orders, lines := db.MustTable("orders").Len(), db.MustTable("lineitem").Len()
		if orders != s.Orders() || lines != s.Lines() {
			t.Fatalf("batch %d: tables hold %d orders / %d line items, stream model %d / %d",
				n+1, orders, lines, s.Orders(), s.Lines())
		}
		if d := orders - orders0; d < -2 || d > 2 {
			t.Fatalf("batch %d: orders %d drifted from %d", n+1, orders, orders0)
		}
		if d := lines - lines0; d*100 < -lines0 || d*100 > lines0 {
			t.Fatalf("batch %d: lineitem %d drifted more than 1%% from %d", n+1, lines, lines0)
		}
	}
}

func TestPoisonedBatchViolatesOnlyAtLeastOneLineItem(t *testing.T) {
	tool, gen := newTool(t, 5)
	s := newStream(t, tool.DB(), gen, 5, 1)
	b := s.Next()
	if len(b.Poisoned) != poisonOrders || b.Rows() != rowsAtRatio(testOrders, 1) {
		t.Fatalf("poisoned batch: %d injected orders, %d rows", len(b.Poisoned), b.Rows())
	}
	if err := b.Stage(tool.DB()); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("poisoned batch committed")
	}
	tuples := 0
	for _, v := range res.Violations {
		if v.Assertion != "atleastonelineitem" {
			t.Errorf("violation of %s", v.Assertion)
		}
		tuples += len(v.Rows)
	}
	if tuples != poisonOrders {
		t.Errorf("%d violating tuples, want %d", tuples, poisonOrders)
	}
	if err := checkVerdict(b, res); err != nil {
		t.Error(err)
	}
}
