package main

import (
	"encoding/json"
	"os"
	"testing"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/sqltypes"
	"tintin/internal/tpch"
)

// Each test feeds a gate a deliberately wrong expectation (or a wrong
// program output) and requires it to fire, besides passing the right one.

func commitOne(t *testing.T, tool *core.Tool, b *Batch) *core.CommitResult {
	t.Helper()
	if err := b.Stage(tool.DB()); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerdictGateFires(t *testing.T) {
	tool, gen := newTool(t, 11)
	s := newStream(t, tool.DB(), gen, 11, 2)

	clean := s.Next()
	res := commitOne(t, tool, clean)
	if err := checkVerdict(clean, res); err != nil {
		t.Fatalf("clean batch: %v", err)
	}
	s.Commit(clean)
	clean.Poisoned = []int64{1, 2, 3}
	if checkVerdict(clean, res) == nil {
		t.Error("gate passed a committed batch expected to be rejected")
	}

	poisoned := s.Next()
	res = commitOne(t, tool, poisoned)
	if err := checkVerdict(poisoned, res); err != nil {
		t.Fatalf("poisoned batch: %v", err)
	}
	injected := poisoned.Poisoned
	poisoned.Poisoned = nil
	if checkVerdict(poisoned, res) == nil {
		t.Error("gate passed a rejected batch expected to commit")
	}
	poisoned.Poisoned = append([]int64{injected[0] + 1000000}, injected[1:]...)
	if checkVerdict(poisoned, res) == nil {
		t.Error("gate passed violations on orders other than the injected ones")
	}
	poisoned.Poisoned = injected[:2]
	if checkVerdict(poisoned, res) == nil {
		t.Error("gate passed more violations than injected")
	}
}

func TestRecheckGateFires(t *testing.T) {
	tool, _ := newTool(t, 12)
	c, err := baseline.New(tool.DB(), tpch.ComplexityAssertions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecheck(res); err != nil {
		t.Fatalf("generated database: %v", err)
	}
	// An order without line items, written straight into the base table.
	orphan := sqltypes.Row{sqltypes.NewInt(9999999), sqltypes.NewInt(1), sqltypes.NewFloat(0)}
	if err := tool.DB().MustTable("orders").Insert(orphan); err != nil {
		t.Fatal(err)
	}
	if res, err = c.Check(); err != nil {
		t.Fatal(err)
	}
	if checkRecheck(res) == nil {
		t.Error("gate passed a database that violates atLeastOneLineItem")
	}
}

func TestPlanCacheGateFires(t *testing.T) {
	tool, _ := newTool(t, 13)
	eng := tool.Engine()
	view := tool.Assertions()[0].Views[0]
	before := eng.PlanCacheStats()
	if _, err := eng.PrepareView(view); err != nil {
		t.Fatal(err)
	}
	if err := checkPlanCache(before, eng.PlanCacheStats()); err != nil {
		t.Fatalf("cached plan: %v", err)
	}
	eng.ForgetPlan(view)
	if _, err := eng.PrepareView(view); err != nil {
		t.Fatal(err)
	}
	if checkPlanCache(before, eng.PlanCacheStats()) == nil {
		t.Error("gate passed a plan compiled during the loop")
	}
}

func TestSameStateGateFires(t *testing.T) {
	tool, _ := newTool(t, 14)
	live := fingerprint(tool.DB())
	copyDB := tool.DB().Clone()
	if err := checkSameState("clone", live, fingerprint(copyDB)); err != nil {
		t.Fatalf("identical copy: %v", err)
	}
	li := copyDB.MustTable("lineitem")
	if !li.DeleteRow(li.Rows()[0]) {
		t.Fatal("no row deleted")
	}
	if checkSameState("clone", live, fingerprint(copyDB)) == nil {
		t.Error("gate passed a copy missing a line item")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
