// Race test for the whole parallel commit-check stack: concurrent sessions
// drive safeCommit checks through the group committer over the banking
// example schema, with the parallel scheduler fanning each check across
// workers. Run under -race (make test-race) this exercises every layer the
// refactor made concurrency-safe: per-worker plan clones, per-exec key
// scratch, read-only index probing over the frozen snapshot.
package sched_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tintin/internal/core/coretest"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
)

func iv(n int64) sqltypes.Value   { return sqltypes.NewInt(n) }
func fv(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }

// concurrentInput is one workload driveConcurrent pushes through the
// group committer: delta builds session s's i-th update and says whether
// it violates an assertion.
type concurrentInput struct {
	sessions, perSession int64
	delta                func(s, i int64) (d sched.Delta, dirty bool)
}

// driveConcurrent runs in's sessions concurrently through the group
// committer of a bank tool with the given worker count: every clean delta
// must commit (even when it shared a rejected batch with a violating one),
// every violating delta must be rejected with its own verdict, the final
// table state must account for exactly the committed set, and that state
// must be assertion-clean.
func driveConcurrent(t *testing.T, workers int, in concurrentInput) {
	t.Helper()
	tool := coretest.NewBankTool(t, workers)
	committer := tool.NewCommitter()
	seeded := tool.DB().MustTable("transfer").Len()

	var acked, committedRows atomic.Int64
	var wg sync.WaitGroup
	for s := int64(0); s < in.sessions; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			for i := int64(0); i < in.perSession; i++ {
				d, dirty := in.delta(s, i)
				res, err := committer.Commit(d)
				if err != nil {
					t.Errorf("session %d commit %d: %v", s, i, err)
					return
				}
				acked.Add(1)
				if res.Committed == dirty {
					t.Errorf("session %d commit %d: dirty=%v but committed=%v (violations %v)",
						s, i, dirty, res.Committed, res.Violations)
				}
				if dirty && len(res.Violations) == 0 {
					t.Errorf("session %d commit %d: rejected without a verdict", s, i)
				}
				if res.Committed {
					committedRows.Add(int64(len(d.Ops)))
				}
			}
		}(s)
	}
	wg.Wait()

	if got := acked.Load(); got != in.sessions*in.perSession {
		t.Fatalf("acked %d commits, want %d", got, in.sessions*in.perSession)
	}
	wantRows := seeded + int(committedRows.Load())
	if got := tool.DB().MustTable("transfer").Len(); got != wantRows {
		t.Fatalf("transfer table has %d rows, want %d (seeded %d + committed)", got, wantRows, seeded)
	}
	// The committed state must be assertion-clean: a full re-check of a
	// trivial clean update flags nothing.
	if err := tool.DB().Insert("transfer", sqltypes.Row{iv(99999), iv(100), iv(200), fv(1.0)}); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("final state dirty: %v", res.Violations)
	}
}

// TestConcurrentSafeCommit drives single-transfer deltas, violating each
// transfer assertion in turn, from concurrent sessions through a 4-worker
// tool's group committer.
func TestConcurrentSafeCommit(t *testing.T) {
	driveConcurrent(t, 4, concurrentInput{
		sessions: 8, perSession: 15,
		delta: func(s, i int64) (sched.Delta, bool) {
			id := 10000 + s*1000 + i
			amount := 1.0 + float64(i)
			to := int64(200)
			if i%5 == 4 {
				amount = 0 // violates positiveAmount
			}
			if i%7 == 6 {
				to = 300 // violates transferEndpointsOpen (closed account)
			}
			return sched.Delta{Ops: []sched.Op{{
				Table: "transfer",
				Row:   sqltypes.Row{iv(id), iv(100), iv(to), fv(amount)},
			}}}, amount <= 0 || to == 300
		},
	})
}

// TestConcurrentPartitionedSafeCommit drives multi-op deltas through a
// 4-worker tool's group committer: wider event tables, so every view task
// scans several staged rows and a violating row sits among clean ones.
// (The name dates from when views were also cut into row partitions; each
// view is now one task.)
func TestConcurrentPartitionedSafeCommit(t *testing.T) {
	driveConcurrent(t, 4, concurrentInput{
		sessions: 6, perSession: 10,
		delta: func(s, i int64) (sched.Delta, bool) {
			base := 40000 + s*1000 + i*10
			amount := 2.0
			dirty := i%3 == 2
			if dirty {
				amount = -1.0 // violates positiveAmount
			}
			return sched.Delta{Ops: []sched.Op{
				{Table: "transfer", Row: sqltypes.Row{iv(base), iv(100), iv(200), fv(amount)}},
				{Table: "transfer", Row: sqltypes.Row{iv(base + 1), iv(200), iv(100), fv(3.0)}},
				{Table: "transfer", Row: sqltypes.Row{iv(base + 2), iv(100), iv(200), fv(4.0)}},
			}}, dirty
		},
	})
}

// TestConcurrentSafeCommitSerialBackend is the same workload with a
// single-worker tool behind the committer: group commit must be correct
// independent of the check fan-out.
func TestConcurrentSafeCommitSerialBackend(t *testing.T) {
	tool := coretest.NewBankTool(t, 1)
	committer := tool.NewCommitter()
	seeded := tool.DB().MustTable("transfer").Len()
	var wg sync.WaitGroup
	var committed atomic.Int64
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			for i := int64(0); i < 10; i++ {
				id := 20000 + s*1000 + i
				res, err := committer.Commit(sched.Delta{Ops: []sched.Op{{
					Table: "transfer",
					Row:   sqltypes.Row{iv(id), iv(100), iv(200), fv(2.0)},
				}}})
				if err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
				if !res.Committed {
					t.Errorf("session %d commit %d: clean transfer rejected: %v", s, i, res.Violations)
				} else {
					committed.Add(1)
				}
			}
		}(int64(s))
	}
	wg.Wait()
	if got := tool.DB().MustTable("transfer").Len(); got != seeded+int(committed.Load()) {
		t.Fatalf("transfer table has %d rows, want %d", got, seeded+int(committed.Load()))
	}
}
