package difftest

import (
	"fmt"
	"strings"
	"testing"

	"tintin/internal/core"
	"tintin/internal/engine"
	"tintin/internal/storage"
)

// TestPlanShapeTemplates is the plan-shape gate over the oracle's schema
// space: every assertion template under every caseShape flag combination.
// No del_ table may be scanned inside a row-matching subplan — a per-row
// [NOT] EXISTS or IN subquery that scans the deletion delta costs O(|Δ|)
// per outer row. The broader rule, no base-table scans at all, is gated on
// the TPC-H suite in core; it cannot hold here, because templates 6–7 are
// whole-table aggregates (their scalar COUNT/SUM subplans read p, ins_p and
// del_p whole, and are left out of this walk) and template 4 with a
// nullable foreign key keeps a legitimate NULL-case scan.
func TestPlanShapeTemplates(t *testing.T) {
	for flags := 0; flags < 16; flags++ {
		shape := caseShape{
			declareFK: flags&1 != 0,
			aNotNull:  flags&2 != 0,
			fkNotNull: flags&4 != 0,
			sNotNull:  flags&8 != 0,
		}
		db := storage.NewDB("planshape")
		if _, err := engine.New(db).ExecSQL(shape.ddl()); err != nil {
			t.Fatal(err)
		}
		tool := core.New(db, core.DefaultOptions())
		if err := tool.Install(); err != nil {
			t.Fatal(err)
		}
		for tmpl := 0; tmpl < 10; tmpl++ {
			r := &rdr{data: []byte{byte(tmpl)}}
			name := fmt.Sprintf("t%d", tmpl)
			_, err := tool.AddAssertion(r.assertionSQL(name))
			if tmpl == 8 && shape.sNotNull {
				// p.s IS NULL on a NOT NULL column: never violated.
				if err == nil || !strings.Contains(err.Error(), "tautology") {
					t.Fatalf("flags %04b template 8: got %v, want a tautology rejection", flags, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("flags %04b template %d: %v", flags, tmpl, err)
			}
			ex, err := tool.Explain(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ex.Views {
				if bad := subplanDelScans(p); len(bad) > 0 {
					t.Errorf("flags %04b template %d: %s", flags, tmpl, strings.Join(bad, "; "))
				}
			}
		}
	}
}

// subplanDelScans lists the del_ tables a view plan scans inside
// row-matching subplans; scalar aggregate subplans are not walked.
func subplanDelScans(p *engine.ExplainPlan) []string {
	var out []string
	var walk func(br engine.ExplainBranch, inSub bool)
	walk = func(br engine.ExplainBranch, inSub bool) {
		for _, s := range br.Sources {
			if _, isIns, isEvt := storage.IsEventTable(s.Table); inSub && isEvt && !isIns && s.Access == "scan" {
				out = append(out, fmt.Sprintf("%s scans %s in a subplan", p.View, s.Table))
			}
		}
		for _, sq := range br.Subplans {
			if sq.Kind == "scalar" {
				continue
			}
			for _, sub := range sq.Branches {
				walk(sub, true)
			}
		}
	}
	for _, br := range p.Branches {
		walk(br, false)
	}
	return out
}
