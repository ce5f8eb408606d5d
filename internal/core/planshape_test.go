package core

import (
	"fmt"
	"strings"
	"testing"

	"tintin/internal/engine"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// The plan-shape gate: TINTIN's promise is that a check costs time in
// proportion to the update, not the database. In plan terms, the compiled
// incremental views may scan only the event table that drives a top-level
// branch; every base table and every table read inside a per-row subquery
// must be reached by an index probe. A single scan of a base table, or of an
// event table inside a subplan, turns the check into O(|DB|) or
// O(|Δ|²) work.

// scanViolations walks one compiled view plan and reports every scan the
// gate forbids: any scan except source 0 of a top-level branch, and a
// source-0 scan of a non-event (base) table.
func scanViolations(p *engine.ExplainPlan) []string {
	var out []string
	var walk func(br engine.ExplainBranch, path string, top bool)
	walk = func(br engine.ExplainBranch, path string, top bool) {
		for k, s := range br.Sources {
			if s.Access != "scan" {
				continue
			}
			_, _, isEvt := storage.IsEventTable(s.Table)
			if !top || k != 0 || !isEvt {
				out = append(out, fmt.Sprintf("%s: %s scans %s at join position %d", p.View, path, s.Table, k))
			}
		}
		for i, sq := range br.Subplans {
			for j, sub := range sq.Branches {
				walk(sub, fmt.Sprintf("%s/%s#%d.%d", path, sq.Kind, i, j), false)
			}
		}
	}
	for i, br := range p.Branches {
		walk(br, fmt.Sprintf("branch %d", i), true)
	}
	return out
}

func planShapeViolations(t *testing.T, tool *Tool) []string {
	t.Helper()
	var out []string
	for _, a := range tool.Assertions() {
		ex, err := tool.Explain(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ex.Views {
			if !p.Cacheable {
				t.Fatalf("%s: view %s is not cacheable, so its plan cannot be checked", a.Name, p.View)
			}
			out = append(out, scanViolations(p)...)
		}
	}
	return out
}

// TestPlanShapeComplexityAssertions gates every view of the E2 assertion
// suite plus the everyOrderHasLines fixture of the shell's \explain golden.
func TestPlanShapeComplexityAssertions(t *testing.T) {
	db, _, err := tpch.NewDatabase("planshape", tpch.ScaleOrders("tiny", 50), 1)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(db, DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range tpch.ComplexityAssertions() {
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Fatal(err)
		}
	}
	if v := planShapeViolations(t, tool); len(v) > 0 {
		t.Errorf("complexity assertions compile to non-delta-proportional plans:\n  %s", strings.Join(v, "\n  "))
	}

	// The fixture behind cmd/tintin/testdata/explain.golden.
	fx := storage.NewDB("explainfixture")
	if _, err := engine.New(fx).ExecSQL(`CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, l_linenumber INTEGER NOT NULL, PRIMARY KEY (l_orderkey, l_linenumber));`); err != nil {
		t.Fatal(err)
	}
	ftool := New(fx, DefaultOptions())
	if err := ftool.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := ftool.AddAssertion(`CREATE ASSERTION everyOrderHasLines CHECK(NOT EXISTS(
  SELECT * FROM orders AS o WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))`); err != nil {
		t.Fatal(err)
	}
	if v := planShapeViolations(t, ftool); len(v) > 0 {
		t.Errorf("explain fixture compiles to non-delta-proportional plans:\n  %s", strings.Join(v, "\n  "))
	}
}
