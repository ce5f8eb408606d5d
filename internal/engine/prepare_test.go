package engine

import (
	"reflect"
	"sort"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// prepDB builds a two-table database with a join view and a subquery view.
func prepDB(t *testing.T) (*storage.DB, *Engine) {
	t.Helper()
	db := storage.NewDB("prep")
	eng := New(db)
	stmts := []string{
		`CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER)`,
		`CREATE TABLE lineitem (l_orderkey INTEGER, l_linenumber INTEGER, l_quantity INTEGER)`,
	}
	for _, s := range stmts {
		if _, err := eng.ExecSQL(s); err != nil {
			t.Fatal(err)
		}
	}
	ins := func(table string, rows ...sqltypes.Row) {
		for _, r := range rows {
			if err := db.Insert(table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	ins("orders", sqltypes.Row{iv(1), iv(10)}, sqltypes.Row{iv(2), iv(20)}, sqltypes.Row{iv(3), iv(30)})
	ins("lineitem",
		sqltypes.Row{iv(1), iv(1), iv(5)},
		sqltypes.Row{iv(1), iv(2), iv(7)},
		sqltypes.Row{iv(2), iv(1), iv(9)})
	return db, eng
}

func createView(t *testing.T, db *storage.DB, name, sql string) *sqlparser.Select {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(name, sel); err != nil {
		t.Fatal(err)
	}
	return sel
}

func sortedRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestPreparedMatchesUnprepared runs the same view prepared and unprepared,
// before and after data changes, and demands identical results.
func TestPreparedMatchesUnprepared(t *testing.T) {
	db, eng := prepDB(t)
	sel := createView(t, db, "noline",
		`SELECT o.o_orderkey FROM orders AS o WHERE NOT EXISTS (
		   SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)`)

	check := func(label string) {
		t.Helper()
		fresh, err := eng.Query(sel) // plans from scratch
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.QueryView("noline") // cached plan
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(fresh.Rows), sortedRows(prep.Rows)) {
			t.Fatalf("%s: prepared %v != unprepared %v", label, sortedRows(prep.Rows), sortedRows(fresh.Rows))
		}
		if !reflect.DeepEqual(fresh.Columns, prep.Columns) {
			t.Fatalf("%s: prepared columns %v != unprepared %v", label, prep.Columns, fresh.Columns)
		}
	}

	check("initial") // order 3 has no line items
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("lineitem", sqltypes.Row{iv(3), iv(1), iv(2)}); err != nil {
		t.Fatal(err)
	}
	check("after insert") // now every order has line items
	db.MustTable("lineitem").DeleteRow(sqltypes.Row{iv(2), iv(1), iv(9)})
	check("after delete") // order 2 lost its only line item
	db.MustTable("lineitem").Truncate()
	check("after truncate") // all orders bare
}

// TestPlanCacheReuse verifies that repeated executions hit the cache and
// reuse the same compiled plan object.
func TestPlanCacheReuse(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o, lineitem AS l WHERE l.l_orderkey = o.o_orderkey`)

	p1, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Cacheable() {
		t.Fatal("base-table view should be cacheable")
	}
	st := eng.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first prepare: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.QueryView("v"); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache returned a different plan object")
	}
	st = eng.PlanCacheStats()
	if st.Misses != 1 {
		t.Fatalf("executions recompiled the plan: %+v", st)
	}
	if st.Hits != 4 {
		t.Fatalf("hits = %d, want 4 (3 queries + 1 prepare)", st.Hits)
	}
}

// TestPlanCacheInvalidation covers the three invalidation triggers: table-set
// change, view redefinition, and the index-probe toggle.
func TestPlanCacheInvalidation(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v", `SELECT o.o_orderkey FROM orders AS o`)

	p1, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}

	// Schema change: creating a table bumps the schema version.
	if _, err := eng.ExecSQL(`CREATE TABLE extra (x INTEGER)`); err != nil {
		t.Fatal(err)
	}
	p2, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("plan survived a schema change")
	}
	if st := eng.PlanCacheStats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// View redefinition: plans are keyed by definition identity.
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	eng.ForgetPlan("v")
	createView(t, db, "v", `SELECT o.o_custkey FROM orders AS o`)
	p3, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Fatal("plan survived a view redefinition")
	}
	res, err := p3.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "o_custkey" {
		t.Fatalf("redefined view returned columns %v", res.Columns)
	}

	// Probe toggle: the plan shape depends on DisableIndexProbes.
	eng.DisableIndexProbes = true
	p4, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p3 {
		t.Fatal("plan survived an index-probe toggle")
	}
}

// TestPreparedViewOnView verifies the fallback: a view reading another view
// is not plan-cached but still evaluates correctly against fresh data.
func TestPreparedViewOnView(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "base_v", `SELECT o.o_orderkey FROM orders AS o WHERE o.o_custkey > 15`)
	createView(t, db, "outer_v", `SELECT v.o_orderkey FROM base_v AS v WHERE v.o_orderkey > 2`)

	p, err := eng.PrepareView("outer_v")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cacheable() {
		t.Fatal("view-on-view should not be plan-cached")
	}
	res, err := eng.QueryView("outer_v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want one (order 3)", res.Rows)
	}
	// The fallback must observe data changes (no stale materialization).
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("orders", sqltypes.Row{iv(9), iv(90)}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.QueryView("outer_v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows after insert = %v, want two", res.Rows)
	}
	// Executions of the fallback plan are Fallbacks, not Hits: they re-plan
	// every time and must not look like cached work in the stats.
	st := eng.PlanCacheStats()
	if st.Fallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", st.Fallbacks)
	}
	if st.Hits != 0 {
		t.Fatalf("hits = %d, want 0 (only non-cacheable views were executed)", st.Hits)
	}
}

// TestPreparedNonEmpty exercises the early-exit path of a cached plan.
func TestPreparedNonEmpty(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o WHERE NOT EXISTS (
		   SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)`)
	ne, err := eng.ViewNonEmpty("v")
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("order 3 has no line items; view should be non-empty")
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("lineitem", sqltypes.Row{iv(3), iv(1), iv(1)}); err != nil {
		t.Fatal(err)
	}
	ne, err = eng.ViewNonEmpty("v")
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("all orders have line items; view should be empty")
	}
}

// TestPreparedInSubqueryMemoReset guards the subtlest piece of plan reuse:
// the uncorrelated-IN memo must be dropped between executions so a cached
// plan sees current data.
func TestPreparedInSubqueryMemoReset(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o WHERE o.o_orderkey NOT IN (
		   SELECT l.l_orderkey FROM lineitem AS l)`)
	res, err := eng.QueryView("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res.Rows); !reflect.DeepEqual(got, []string{"(3)"}) {
		t.Fatalf("rows = %v, want [(3)]", got)
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("lineitem", sqltypes.Row{iv(3), iv(1), iv(1)}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.QueryView("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none (memo not reset?)", res.Rows)
	}
}

// TestPlanCacheStatsConcurrentReads pins the satellite fix for the latent
// data race: stats readers polling PlanCacheStats from other goroutines
// while the coordinator drives the prepare path. Run under -race.
func TestPlanCacheStatsConcurrentReads(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o, lineitem AS l WHERE l.l_orderkey = o.o_orderkey`)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.PlanCacheStats()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := eng.PrepareView("v"); err != nil {
			t.Fatal(err)
		}
	}
	eng.InvalidatePlans()
	if _, err := eng.PrepareView("v"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	st := eng.PlanCacheStats()
	if st.Hits != 199 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats after concurrent reads: %+v", st)
	}
}

// TestQueryLimitInto: the row cap stops execution early and returns exactly
// the first limit rows of the uncapped result.
func TestQueryLimitInto(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "lim",
		`SELECT l.l_quantity FROM lineitem AS l, orders AS o WHERE o.o_orderkey = l.l_orderkey`)
	p, err := eng.PrepareView("lim")
	if err != nil {
		t.Fatal(err)
	}
	var whole Result
	if err := p.QueryInto(&whole); err != nil {
		t.Fatal(err)
	}
	if len(whole.Rows) < 2 {
		t.Fatalf("fixture yields %d rows; the cap would be vacuous", len(whole.Rows))
	}
	for _, limit := range []int{1, 2, len(whole.Rows), len(whole.Rows) + 5} {
		var got Result
		if err := p.QueryLimitInto(limit, &got); err != nil {
			t.Fatal(err)
		}
		want := whole.Rows
		if limit < len(want) {
			want = want[:limit]
		}
		if !reflect.DeepEqual(got.Rows, want) {
			t.Fatalf("limit %d: got %v want %v", limit, got.Rows, want)
		}
	}
}
