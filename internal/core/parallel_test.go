package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"tintin/internal/core"
	"tintin/internal/core/coretest"
	"tintin/internal/sqltypes"
)

// bankUpdates is a deterministic mixed workload over the coretest banking
// schema: clean commits, violations of each assertion, and a
// multi-statement update.
var bankUpdates = []string{
	`INSERT INTO transfer VALUES (1001, 100, 200, 10.0)`,
	`INSERT INTO transfer VALUES (1002, 100, 300, 5.0)`, // closed endpoint
	`INSERT INTO transfer VALUES (1003, 100, 200, 0.0)`, // non-positive amount
	`INSERT INTO account VALUES (400, 99, FALSE)`,       // unknown customer
	`INSERT INTO customer VALUES (3, 'Edsger');
	 INSERT INTO account VALUES (400, 3, FALSE);
	 INSERT INTO transfer VALUES (1004, 200, 400, 12.5)`,
	`DELETE FROM account WHERE a_id = 100;
	 INSERT INTO account VALUES (100, 1, TRUE);
	 INSERT INTO transfer VALUES (1005, 100, 200, 1.0)`, // 100 closed + used
}

// runBankWorkload executes the update sequence, collecting the
// CommitResult of each safeCommit with timing fields zeroed (they are the
// only legitimately nondeterministic part). ViewDurations keeps its view
// names and order — those must match across paths — with the measured
// times zeroed.
func runBankWorkload(t testing.TB, tool *core.Tool) []*core.CommitResult {
	t.Helper()
	var out []*core.CommitResult
	for _, sql := range bankUpdates {
		if _, err := tool.Engine().ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(res)
		out = append(out, res)
	}
	return out
}

// zeroDurations strips the legitimately nondeterministic timing fields,
// keeping the view names and their order comparable.
func zeroDurations(res *core.CommitResult) {
	res.Duration = 0
	res.NormalizeDuration = 0
	for i := range res.ViewDurations {
		res.ViewDurations[i].Duration = 0
	}
}

// stageTransfers stages n transfers through the capture layer, every 7th
// one violating positiveAmount (amount 0) and every 11th one referencing
// the closed account 300, so violating rows sit at ragged positions of the
// ins_transfer scan.
func stageTransfers(t testing.TB, tool *core.Tool, n int) {
	t.Helper()
	iv := sqltypes.NewInt
	fv := sqltypes.NewFloat
	for i := 0; i < n; i++ {
		amount := 1.5
		if i%7 == 0 {
			amount = 0
		}
		to := int64(200)
		if i%11 == 0 {
			to = 300
		}
		row := sqltypes.Row{iv(int64(5000 + i)), iv(100), iv(to), fv(amount)}
		if err := tool.DB().Insert("transfer", row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelCheckParity is the scheduler's core contract: the parallel
// path produces CommitResults identical to the serial path — same
// verdicts, same violations in the same deterministic order, same
// skip/check accounting — for every update in a mixed workload.
func TestParallelCheckParity(t *testing.T) {
	serial := runBankWorkload(t, coretest.NewBankTool(t, 1))
	for _, workers := range []int{2, 4, 8} {
		parallel := runBankWorkload(t, coretest.NewBankTool(t, workers))
		if len(serial) != len(parallel) {
			t.Fatalf("workers=%d: %d results vs %d serial", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("workers=%d update %d: parallel result diverges\nserial:   %+v\nparallel: %+v",
					workers, i, serial[i], parallel[i])
			}
		}
	}
}

// TestPartitionedCheckParity checks one large staged delta at k workers:
// Check() results — violations, their row order, the evaluated-view list
// and the skip accounting — are identical to the serial path over repeated
// rounds, with violating rows at ragged positions of the event scans, and
// the checks compile no plans. (The name dates from when views were also
// cut into row partitions; each view is now one task.)
func TestPartitionedCheckParity(t *testing.T) {
	const rounds = 3
	serialTool := coretest.NewBankTool(t, 1)
	var serial []*core.CommitResult
	stageTransfers(t, serialTool, 100)
	for r := 0; r < rounds; r++ {
		res, err := serialTool.Check()
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(res)
		serial = append(serial, res)
	}
	if len(serial[rounds-1].Violations) == 0 {
		t.Fatal("fixture staged no violations; parity test would be vacuous")
	}

	for _, k := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			tool := coretest.NewBankTool(t, k)
			stageTransfers(t, tool, 100)
			warm := tool.Engine().PlanCacheStats()
			for r := 0; r < rounds; r++ {
				res, err := tool.Check()
				if err != nil {
					t.Fatal(err)
				}
				zeroDurations(res)
				if !reflect.DeepEqual(res, serial[r]) {
					t.Fatalf("round %d: parallel result diverges\nserial:   %+v\nparallel: %+v", r, serial[r], res)
				}
			}
			after := tool.Engine().PlanCacheStats()
			if after.Misses != warm.Misses {
				t.Fatalf("parallel checking compiled plans: misses %d -> %d", warm.Misses, after.Misses)
			}
			if after.Fallbacks != warm.Fallbacks {
				t.Fatalf("parallel checking re-planned non-cacheable views: %d -> %d", warm.Fallbacks, after.Fallbacks)
			}
		})
	}
}

// TestPartitionedWorkloadParity runs the full mixed bank workload (commits,
// rejections, multi-statement updates) at 2, 3 and 8 workers and demands
// results identical to the serial path — the safeCommit-level extension of
// TestPartitionedCheckParity.
func TestPartitionedWorkloadParity(t *testing.T) {
	serial := runBankWorkload(t, coretest.NewBankTool(t, 1))
	for _, k := range []int{2, 3, 8} {
		parallel := runBankWorkload(t, coretest.NewBankTool(t, k))
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("k=%d update %d: parallel result diverges\nserial:   %+v\nparallel: %+v",
					k, i, serial[i], parallel[i])
			}
		}
	}
}

// TestParallelCheckDeterministic re-runs the same violating workload and
// requires identical violation ordering every time: the merge is by
// assertion order, not completion order.
func TestParallelCheckDeterministic(t *testing.T) {
	var first []*core.CommitResult
	for run := 0; run < 5; run++ {
		got := runBankWorkload(t, coretest.NewBankTool(t, 4))
		if first == nil {
			first = got
			continue
		}
		for i := range first {
			if !reflect.DeepEqual(first[i], got[i]) {
				t.Fatalf("run %d update %d: nondeterministic result\nfirst: %+v\ngot:   %+v",
					run, i, first[i], got[i])
			}
		}
	}
}

// TestParallelSafeCommitUsesPlanCache extends the plan-cache contract to
// the parallel path: commit-time checking with workers compiles zero plans
// (worker clones don't count as compilations) and never falls back to
// per-execution planning.
func TestParallelSafeCommitUsesPlanCache(t *testing.T) {
	tool := coretest.NewBankTool(t, 4)
	install := tool.Engine().PlanCacheStats()
	if install.Misses == 0 {
		t.Fatal("installation compiled no plans")
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	fv := func(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }
	for round := int64(0); round < 5; round++ {
		if err := tool.DB().Insert("transfer", sqltypes.Row{iv(2000 + round), iv(100), iv(200), fv(3.5)}); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("round %d: clean transfer rejected: %v", round, res.Violations)
		}
	}
	after := tool.Engine().PlanCacheStats()
	if after.Misses != install.Misses {
		t.Fatalf("parallel safeCommit compiled plans: misses %d -> %d", install.Misses, after.Misses)
	}
	if after.Fallbacks != install.Fallbacks {
		t.Fatalf("parallel safeCommit re-planned non-cacheable views: %d -> %d", install.Fallbacks, after.Fallbacks)
	}
	if after.Invalidations != install.Invalidations {
		t.Fatalf("parallel safeCommit invalidated plans: %d -> %d", install.Invalidations, after.Invalidations)
	}
}

// TestParallelCheckFreezesDB: during a parallel fan-out the database is an
// immutable snapshot; a write attempted while frozen fails loudly rather
// than racing the workers. (Freeze is lifted again by the time SafeCommit
// applies events, so the commit itself must succeed.)
func TestParallelCheckFreezesDB(t *testing.T) {
	tool := coretest.NewBankTool(t, 4)
	db := tool.DB()
	db.Freeze()
	if err := db.Insert("customer", sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewString("X")}); err == nil {
		t.Fatal("insert on frozen database succeeded")
	}
	db.Thaw()
	if _, err := tool.Engine().ExecSQL(`INSERT INTO transfer VALUES (3000, 100, 200, 2.0)`); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("clean transfer rejected: %v", res.Violations)
	}
	if db.Frozen() {
		t.Fatal("database left frozen after safeCommit")
	}
}

// TestFailFast: with FailFast every violated view reports exactly one
// witness row — the first the serial check would find — on both the serial
// and the parallel path, and clean updates still commit.
func TestFailFast(t *testing.T) {
	ffOpts := core.DefaultOptions()
	ffOpts.FailFast = true

	full := coretest.NewBankTool(t, 1)
	stageTransfers(t, full, 100)
	want, err := full.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) == 0 {
		t.Fatal("fixture staged no violations")
	}

	check := func(name string, tool *core.Tool) {
		t.Helper()
		stageTransfers(t, tool, 100)
		got, err := tool.Check()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s: %d violated views, full check found %d", name, len(got.Violations), len(want.Violations))
		}
		for i, v := range got.Violations {
			if v.View != want.Violations[i].View {
				t.Fatalf("%s: violation %d is view %s, full check has %s", name, i, v.View, want.Violations[i].View)
			}
			if len(v.Rows) != 1 {
				t.Fatalf("%s: view %s returned %d rows under FailFast", name, v.View, len(v.Rows))
			}
			if !reflect.DeepEqual(v.Rows[0], want.Violations[i].Rows[0]) {
				t.Fatalf("%s: view %s witness %v, serial first row %v", name, v.View, v.Rows[0], want.Violations[i].Rows[0])
			}
		}
	}

	check("serial", coretest.NewBankToolOpts(t, ffOpts))

	ffParallel := ffOpts
	ffParallel.Workers = 4
	check("parallel", coretest.NewBankToolOpts(t, ffParallel))

	// A clean update still commits under FailFast.
	ff := coretest.NewBankToolOpts(t, ffOpts)
	if err := ff.DB().Insert("transfer", sqltypes.Row{
		sqltypes.NewInt(9000), sqltypes.NewInt(100), sqltypes.NewInt(200), sqltypes.NewFloat(3.0)}); err != nil {
		t.Fatal(err)
	}
	res, err := ff.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("clean transfer rejected under FailFast: %v", res.Violations)
	}
}

// TestViewDurationsRecorded: both check paths record one duration per
// evaluated view, in check order, with non-negative values.
func TestViewDurationsRecorded(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tool := coretest.NewBankTool(t, workers)
		stageTransfers(t, tool, 10)
		res, err := tool.Check()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ViewDurations) != res.ViewsChecked {
			t.Fatalf("workers=%d: %d durations for %d checked views", workers, len(res.ViewDurations), res.ViewsChecked)
		}
		for _, vd := range res.ViewDurations {
			if vd.View == "" || vd.Duration < 0 {
				t.Fatalf("workers=%d: bad view duration %+v", workers, vd)
			}
		}
		tool.DB().TruncateEvents()
	}
}
