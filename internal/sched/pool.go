// Package sched is the parallel commit-check scheduler: it fans the
// compiled per-assertion check plans of a safeCommit out across a pool of
// workers with private executor state, and provides a group-commit front
// door (Committer) through which concurrent sessions submit update deltas.
//
// The concurrency model is strict: the database is an immutable snapshot
// for the duration of a fan-out (the caller freezes it), every worker owns
// clones of the compiled plans plus its own scratch buffers, and each task
// writes its outcome to its own slot of the result, so results are
// deterministic regardless of which worker ran what when.
//
// The unit of scheduled work is one view: a task is one compiled view
// plan, run whole by one worker. Views are not cut into row ranges; with
// delta-proportional checks no single view is worth splitting.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tintin/internal/engine"
	"tintin/internal/obs"
	"tintin/internal/sqltypes"
)

// Task is one independent commit-check unit: a compiled incremental-view
// plan to execute against the pending events.
type Task struct {
	// Plan is the cached prototype plan (owned by the engine's plan cache);
	// workers execute private clones of it.
	Plan *engine.PreparedQuery
	// Serial routes the task to the coordinator's serial lane. Callers set
	// it for plans that are not cacheable: those re-plan per execution and
	// may build indexes on demand, which mutates shared table state.
	Serial bool
	// Limit caps the rows collected for this task (0 = unlimited): the
	// FailFast accept/reject path.
	Limit int
}

// Outcome is the result of one task: the rows the view returned (copied out
// of worker scratch, so they stay valid after the next fan-out) or the
// execution error. Outcomes are positionally aligned with the task list,
// so their order never depends on scheduling.
type Outcome struct {
	Columns []string
	Rows    []sqltypes.Row
	Err     error
	// Duration is the execution time spent on this task. It feeds the
	// caller's per-view check durations and latency histograms.
	Duration time.Duration
}

// Pool runs check tasks across a fixed set of workers. Each worker owns
// persistent executor state — plan clones and a reusable result buffer —
// that survives across Run calls, so steady-state commits allocate no
// per-worker state at all. A Pool must not be shared by concurrent Run
// calls; the committer (or the tool) serializes commits in front of it.
type Pool struct {
	workers int
	// states[0:workers] belong to the worker goroutines; the extra last
	// slot is the coordinator's serial lane for non-cloneable plans.
	states []*workerState
	// par is the parallel lane's task-index scratch, reused across Run
	// calls so steady-state commits don't allocate it.
	par []int
	// spans is the per-task span scratch for traced runs, same reuse
	// discipline as par. Only populated when RunSpan gets a parent.
	spans []*obs.Span

	metrics PoolMetrics
}

// PoolMetrics are the scheduler counters a pool maintains. Every field is
// optional (obs primitives are nil-receiver-safe), so the zero value is a
// fully unwired pool that pays only predictable branches.
type PoolMetrics struct {
	// Tasks counts tasks scheduled across all Run calls.
	Tasks *obs.Counter
	// QueueDepth tracks parallel tasks published but not yet claimed by a
	// worker; it spikes to the fan-out width at the start of each Run and
	// drains to zero as workers pull.
	QueueDepth *obs.Gauge
	// BusyNS accumulates worker execution time (the sum over tasks, not
	// wall time), the numerator of pool utilization.
	BusyNS *obs.Counter
}

// SetMetrics wires the pool's scheduler metrics. Call before Run; the zero
// value unwires.
func (p *Pool) SetMetrics(m PoolMetrics) { p.metrics = m }

type workerState struct {
	clones map[*engine.PreparedQuery]*engine.PreparedQuery
	res    engine.Result
}

// clonesCap bounds the per-worker clone cache; re-prepared views leave
// stale prototype keys behind, so a long-lived pool over a schema-churning
// tool resets the cache rather than growing without bound.
const clonesCap = 256

// NewPool creates a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, states: make([]*workerState, workers+1)}
	for i := range p.states {
		p.states[i] = &workerState{clones: make(map[*engine.PreparedQuery]*engine.PreparedQuery)}
	}
	return p
}

// run executes one task and returns its outcome. serial routes around the
// clone cache (the coordinator runs the shared plan directly, for plans
// that cannot be cloned).
func (st *workerState) run(t Task, serial bool) (out Outcome) {
	// A panic on a pool goroutine would kill the process (nothing above a
	// worker recovers); surface it as this task's error instead, matching
	// the serial path where the committer's leader recovers.
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Err: fmt.Errorf("sched: check task panicked: %v", r), Duration: out.Duration}
		}
	}()
	plan := t.Plan
	if !serial {
		clone, ok := st.clones[plan]
		if !ok {
			if len(st.clones) >= clonesCap {
				st.clones = make(map[*engine.PreparedQuery]*engine.PreparedQuery)
			}
			clone = plan.Clone()
			st.clones[plan] = clone
		}
		plan = clone
	}
	start := time.Now()
	err := plan.QueryLimitInto(t.Limit, &st.res)
	out.Duration = time.Since(start)
	if err != nil {
		out.Err = err
		return out
	}
	if len(st.res.Rows) == 0 {
		return out
	}
	// Violations are rare; copy them out of the reusable buffer only then.
	out.Columns = st.res.Columns
	out.Rows = append([]sqltypes.Row(nil), st.res.Rows...)
	return out
}

// Run executes every task and returns their outcomes in task order. Tasks
// marked Serial run first, on the coordinator goroutine, BEFORE the
// workers start: a serial task re-plans per execution and may build an
// index on demand — a table mutation that must not overlap the workers'
// reads. The parallel tasks are then pulled off a shared counter by the
// workers. The caller must guarantee the database is quiescent for the
// duration.
func (p *Pool) Run(tasks []Task) []Outcome { return p.RunSpan(tasks, nil) }

// RunSpan is Run with trace instrumentation: when parent is non-nil, the
// pool records one child span per task (view, lane, worker id, row count).
// Parallel task spans are pre-created here on the coordinator, in task
// order, before any worker starts; each worker then fills only its own
// spans, so the span tree needs no locking and its shape does not depend
// on scheduling. A nil parent (the Run path) skips all span work.
func (p *Pool) RunSpan(tasks []Task, parent *obs.Span) []Outcome {
	outs := make([]Outcome, len(tasks))
	p.metrics.Tasks.Add(int64(len(tasks)))

	coord := p.states[p.workers]
	par := p.par[:0]
	for i, t := range tasks {
		// Non-cacheable plans are forced onto the serial lane regardless of
		// what the caller set: Clone returns the shared receiver for them,
		// so two workers would race on the same plan (and on the engine's
		// plan cache through its per-execution re-planning).
		if !t.Serial && t.Plan.Cacheable() {
			par = append(par, i)
			continue
		}
		sp := parent.Child("task")
		sp.SetAttr("view", t.Plan.Name())
		sp.SetAttr("lane", "serial")
		outs[i] = coord.run(t, true)
		p.metrics.BusyNS.Add(int64(outs[i].Duration))
		sp.SetAttrInt("rows", int64(len(outs[i].Rows)))
		sp.End()
	}
	p.par = par

	var spans []*obs.Span
	if parent != nil {
		if cap(p.spans) < len(par) {
			p.spans = make([]*obs.Span, len(par))
		}
		spans = p.spans[:len(par)]
		for j, ti := range par {
			sp := parent.Child("task")
			sp.SetAttr("view", tasks[ti].Plan.Name())
			sp.SetAttr("lane", "parallel")
			spans[j] = sp
		}
		p.spans = spans
	}

	p.metrics.QueueDepth.Set(int64(len(par)))
	runOne := func(st *workerState, w, j int) {
		ti := par[j]
		p.metrics.QueueDepth.Add(-1)
		var sp *obs.Span
		if spans != nil {
			sp = spans[j]
			sp.Begin()
		}
		outs[ti] = st.run(tasks[ti], false)
		p.metrics.BusyNS.Add(int64(outs[ti].Duration))
		sp.SetAttrInt("worker", int64(w))
		sp.SetAttrInt("rows", int64(len(outs[ti].Rows)))
		sp.End()
	}

	nw := p.workers
	if nw > len(par) {
		nw = len(par)
	}
	if nw <= 1 {
		// Nothing to fan out (or a single worker): run everything here and
		// skip the goroutine machinery.
		for j := range par {
			runOne(p.states[0], 0, j)
		}
		return outs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(st *workerState, w int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(par) {
					return
				}
				runOne(st, w, j)
			}
		}(p.states[w], w)
	}
	wg.Wait()
	return outs
}
