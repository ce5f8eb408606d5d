package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// workload is one closed-loop configuration: a single client stages a
// batch into the event tables and calls Tool.SafeCommit, back to back.
type workload struct {
	name        string
	orders      int
	rows        int // rows per batch
	assertions  []string
	workers     int
	durable     bool
	poisonEvery int
	// recheckEach runs the full non-incremental recheck after every commit
	// (outside the transaction time) instead of once every recheckPeriod.
	recheckEach bool
	setupReps   int
}

// rowsAtRatio sizes a batch of mb "megabytes" at the paper's update:data
// ratio of 5000 rows per 150000 orders (tpch.RowsPerMB per 1 GB).
func rowsAtRatio(orders, mb int) int {
	const ordersPerGB = 150000
	return (orders*tpch.RowsPerMB*mb + ordersPerGB/2) / ordersPerGB
}

// The workloads stress different layers, so that an optimization of one
// layer shows on one workload and reads unchanged on another.
var workloads = []*workload{
	// Check-heavy: most of a transaction is the 19-view check; the WAL and
	// the sched pool are off. Poisoned batches exercise the reject path.
	{
		name: "commit_mix", orders: 20000, rows: rowsAtRatio(20000, 1),
		assertions: tpch.ComplexityAssertions(), workers: 1, poisonEvery: 10, setupReps: 7,
	},
	// Write-heavy: two cheap assertions, 5x larger batches, fsync=always
	// WAL with periodic checkpoints, then an unclean stop and recovery.
	{
		name: "durable_bulk", orders: 20000, rows: rowsAtRatio(20000, 5),
		assertions: []string{tpch.AssertionPositiveQuantity, tpch.AssertionOrderHasCustomer},
		workers:    1, durable: true, setupReps: 7,
	},
	// commit_mix's delta on 4x the data: incremental check against the
	// full recheck (the paper's E1/E2), and the only user of the sched pool.
	{
		name: "recheck_4x", orders: 80000, rows: rowsAtRatio(20000, 1),
		assertions: tpch.ComplexityAssertions(), workers: 2, recheckEach: true, setupReps: 5,
	},
}

const (
	warmupBatches = 3
	// recoveryTail is the number of batches committed after an explicit
	// checkpoint before the durable tool is abandoned: the unclean stop
	// lands an eighth of the way into a 256-batch checkpoint period.
	recoveryTail = 32
	recoveryReps = 7
	// recheckPeriod spaces the in-loop full rechecks of workloads that do
	// not recheck after every commit; recheckReps is the number of
	// per-assertion rechecks a traced run of those workloads makes at the end.
	recheckPeriod = time.Second
	recheckReps   = 9
)

// env is one set-up tool over a generated database.
type env struct {
	db   *storage.DB
	gen  *tpch.Generator
	tool *core.Tool
	opts core.Options
}

// setup builds the workload's database and tool: data generation, Install,
// AddAssertion for each assertion, index prewarm and, when durable,
// EnableDurability's first checkpoint. rec (may be nil) gets one span per
// step under a "setup" root.
func setup(w *workload, seed int64, walDir string, rec *recorder, txn int) (*env, time.Duration, error) {
	start := time.Now()
	root := rec.begin("setup", -1, txn)
	sp := rec.begin("tpch.datagen", root, txn)
	db, gen, err := tpch.NewDatabase("tpch", tpch.ScaleOrders(w.name, w.orders), seed)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	opts := core.DefaultOptions()
	opts.Workers = w.workers
	if w.durable {
		opts.WALDir = walDir
	}
	tool := core.New(db, opts)
	sp = rec.begin("core.install", root, txn)
	err = tool.Install()
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	for _, sql := range w.assertions {
		sp = rec.begin("core.add_assertion", root, txn)
		_, err := tool.AddAssertion(sql)
		rec.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	sp = rec.begin("tpch.prewarm", root, txn)
	err = gen.PrewarmIndexes()
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	if w.durable {
		sp = rec.begin("core.enable_durability", root, txn)
		err = tool.EnableDurability()
		rec.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	rec.end(root)
	return &env{db: db, gen: gen, tool: tool, opts: opts}, time.Since(start), nil
}

// phase collects the samples of one timed loop.
type phase struct {
	txn, check, recheck []float64 // ns per transaction / recheck
	rows                int       // committed event rows
	busy                time.Duration
	// plan-cache misses and fallbacks over the loop
	misses, fallbacks int
}

// runner drives one benchmark run of one workload.
type runner struct {
	w       *workload
	seed    int64
	dir     string
	env     *env
	stream  *Stream
	checker *baseline.Checker

	attempted, failed int
	txnID             int

	// traced-run state (nil / empty when untraced)
	rec   *recorder
	trace *traceState
}

// fail counts one failed operation and reports it on stderr.
func (r *runner) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %v\n", r.w.name, err)
	}
}

// setupAll runs the set-up w.setupReps times, keeping the last tool, and
// returns every set-up duration.
func (r *runner) setupAll() ([]float64, error) {
	var times []float64
	for i := 0; i < r.w.setupReps; i++ {
		if r.env != nil {
			if err := r.env.tool.Close(); err != nil {
				return nil, err
			}
			r.env = nil
		}
		runtime.GC()
		walDir := filepath.Join(r.dir, fmt.Sprintf("wal%d", i))
		e, d, err := setup(r.w, r.seed, walDir, r.rec, txnSetup-i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.env = e
		times = append(times, d.Seconds())
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("wal%d", i-1))); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

// prepare builds the stream and the recheck oracle over the set-up tool
// and commits a few warm-up batches.
func (r *runner) prepare() error {
	s, err := NewStream(r.env.db, r.env.gen.Scale(), r.seed, r.w.rows, r.w.poisonEvery)
	if err != nil {
		return err
	}
	r.stream = s
	r.checker, err = baseline.New(r.env.db, tpch.ComplexityAssertions())
	if err != nil {
		return err
	}
	for i := 0; i < warmupBatches; i++ {
		r.txn(r.stream.Next())
	}
	return nil
}

// txn runs one batch: stage + SafeCommit, timed together, then the verdict
// gate. It returns the transaction time and the result (nil on error).
func (r *runner) txn(b *Batch) (time.Duration, *core.CommitResult) {
	r.attempted++
	r.txnID++
	db, tool := r.env.db, r.env.tool
	start := time.Now()
	err := b.Stage(db)
	var res *core.CommitResult
	if err == nil {
		res, err = tool.SafeCommit()
	}
	d := time.Since(start)
	return d, r.judge(b, res, err)
}

// judge applies the verdict gate and advances the stream model.
func (r *runner) judge(b *Batch, res *core.CommitResult, err error) *core.CommitResult {
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", b.Label, err))
		r.env.db.TruncateEvents()
		return nil
	}
	if err := checkVerdict(b, res); err != nil {
		r.fail(err)
	}
	if res.Committed {
		r.stream.Commit(b)
	}
	return res
}

// recheckOnce runs the full non-incremental recheck of all seven
// complexity assertions and gates it.
func (r *runner) recheckOnce() time.Duration {
	start := time.Now()
	res, err := r.checker.Check()
	d := time.Since(start)
	if err == nil {
		err = checkRecheck(res)
	}
	if err != nil {
		r.fail(err)
	}
	return d
}

// loop runs the closed loop for d and returns its samples. The full
// recheck runs after every commit on recheckEach workloads; on the others
// (untraced) it runs after the first commit of every recheckPeriod, so its
// samples spread over the whole loop like the transactions' do.
func (r *runner) loop(d time.Duration) *phase {
	p := &phase{}
	eng := r.env.tool.Engine()
	before := eng.PlanCacheStats()
	lastRecheck := time.Now()
	deadline := lastRecheck.Add(d)
	for time.Now().Before(deadline) {
		b := r.stream.Next()
		var dt time.Duration
		var res *core.CommitResult
		if r.trace != nil {
			dt, res = r.tracedTxn(b)
		} else {
			dt, res = r.txn(b)
		}
		p.busy += dt
		p.txn = append(p.txn, float64(dt))
		if res == nil {
			continue
		}
		p.check = append(p.check, float64(res.Duration))
		if !res.Committed {
			continue
		}
		p.rows += b.Rows()
		switch {
		case r.trace != nil && r.w.recheckEach:
			p.recheck = append(p.recheck, float64(r.tracedRecheck()))
		case r.trace == nil && (r.w.recheckEach || time.Since(lastRecheck) >= recheckPeriod):
			p.recheck = append(p.recheck, float64(r.recheckOnce()))
			lastRecheck = time.Now()
		}
	}
	after := eng.PlanCacheStats()
	p.misses, p.fallbacks = after.Misses-before.Misses, after.Fallbacks-before.Fallbacks
	if err := checkPlanCache(before, after); err != nil {
		r.fail(err)
	}
	return p
}

// recover measures bringing the tool back from disk after it stops, and
// gates that the recovered base tables equal the live ones. A durable tool
// is checkpointed, runs recoveryTail more batches and is abandoned without
// Close (an unclean stop); each copy of its WAL directory is then opened
// with core.OpenDurable. An in-memory tool has only its saved state to
// restart from: it is written with Tool.Save and read back with
// core.LoadTool.
func (r *runner) recover() ([]float64, error) {
	e := r.env
	var open func(i int) (*core.Tool, time.Duration, error)
	if r.w.durable {
		if err := e.tool.Checkpoint(); err != nil {
			return nil, err
		}
		for i := 0; i < recoveryTail; i++ {
			r.txn(r.stream.Next())
		}
		open = func(i int) (*core.Tool, time.Duration, error) {
			dst := filepath.Join(r.dir, fmt.Sprintf("recover%d", i))
			if err := copyDir(e.opts.WALDir, dst); err != nil {
				return nil, 0, err
			}
			opts := e.opts
			opts.WALDir = dst
			runtime.GC()
			start := time.Now()
			t, err := core.OpenDurable(opts, func() (*core.Tool, error) {
				return nil, errors.New("perfbench: no durable state to recover")
			})
			return t, time.Since(start), err
		}
	} else {
		path := filepath.Join(r.dir, "tool.snapshot")
		if err := saveTool(e.tool, path); err != nil {
			return nil, err
		}
		open = func(int) (*core.Tool, time.Duration, error) {
			runtime.GC()
			start := time.Now()
			f, err := os.Open(path)
			if err != nil {
				return nil, 0, err
			}
			defer f.Close()
			t, err := core.LoadTool(bufio.NewReader(f), e.opts)
			return t, time.Since(start), err
		}
	}
	live := fingerprint(e.db)
	var times []float64
	for i := 0; i < recoveryReps; i++ {
		r.attempted++
		t, d, err := open(i)
		if err != nil {
			r.fail(fmt.Errorf("recovery: %w", err))
			continue
		}
		times = append(times, d.Seconds())
		if err := checkSameState("recovery", live, fingerprint(t.DB())); err != nil {
			r.fail(err)
		}
		if err := t.Close(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

func saveTool(t *core.Tool, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.Save(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// heapMB forces a collection and returns the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
