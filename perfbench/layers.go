package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/edc"
	"tintin/internal/engine"
	"tintin/internal/logic"
	"tintin/internal/sqlgen"
	"tintin/internal/sqlparser"
	"tintin/internal/storage"
	"tintin/internal/tpch"
	"tintin/internal/wal"
)

// The traced run times the calls into each module from the benchmark's
// side. Span transaction ids partition the work: set-up repetition i is
// txnSetup-i, install-replay repetition i is txnInstall-i, timed
// transactions are positive, and post-loop work is 0.
const (
	txnSetup   = -100
	txnInstall = -200
	// installReps repeats the install-pipeline replay; the first
	// repetition also builds the indexes (engine.ensure_indexes).
	installReps = 5
	// benchCheckpointEvery mirrors core's default checkpoint period for the
	// benchmark-owned WAL store.
	benchCheckpointEvery = 256
	// Names of the files of a wal.Store directory (see internal/wal).
	walLogFile      = "wal.log"
	walSnapshotFile = "snapshot"
)

// traceState holds what the traced loop measures beyond spans.
type traceState struct {
	store    *wal.Store
	storeDir string
	buf      bytes.Buffer
	res      engine.Result

	perAssert []*baseline.Checker
	names     []string // assertion names of perAssert

	firstTxn      int
	appends       int
	rows          int
	walBytes      int64
	snapshotBytes int64
	tailRecords   int
	replay        time.Duration

	cancelled, viewsChecked, viewsSkipped []float64
	viewSum, viewMax, gain, apply, txn    []float64
	encodeBytesPerRow, checkpoint         []float64
	edcs, discarded                       int
}

// catalog adapts storage.DB to the logic/edc catalog interfaces, resolving
// event tables to their base table the way core does.
type catalog struct{ db *storage.DB }

func (c catalog) TableColumns(name string) ([]string, bool) {
	if b, _, isEvt := storage.IsEventTable(name); isEvt {
		name = b
	}
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema().ColumnNames(), true
}

func (c catalog) PrimaryKey(name string) []string {
	if t := c.db.Table(name); t != nil {
		return t.Schema().PrimaryKey
	}
	return nil
}

func (c catalog) ForeignKeys(name string) []edc.FK {
	t := c.db.Table(name)
	if t == nil {
		return nil
	}
	var out []edc.FK
	for _, fk := range t.Schema().ForeignKeys {
		out = append(out, edc.FK{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns})
	}
	return out
}

// replayInstall times the install pipeline stage by stage — parse,
// translate, EDC generation, SQL generation, plan preparation and index
// builds — on a second database generated from the same seed, so the real
// install stays undisturbed.
func (r *runner) replayInstall() error {
	ts, rec := r.trace, r.rec
	db, _, err := tpch.NewDatabase("replay", tpch.ScaleOrders(r.w.name, r.w.orders), r.seed)
	if err != nil {
		return err
	}
	if err := db.InstallEventTables(); err != nil {
		return err
	}
	info := catalog{db}
	eng := engine.New(db)
	for rep := 0; rep < installReps; rep++ {
		txn := txnInstall - rep
		root := rec.begin("install", -1, txn)
		for _, src := range r.w.assertions {
			sp := rec.begin("sqlparser.parse", root, txn)
			st, err := sqlparser.Parse(src)
			rec.end(sp)
			if err != nil {
				return err
			}
			ca, ok := st.(*sqlparser.CreateAssertion)
			if !ok {
				return fmt.Errorf("perfbench: not a CREATE ASSERTION: %T", st)
			}
			name := strings.ToLower(ca.Name)
			sp = rec.begin("logic.translate", root, txn)
			tr, err := logic.Translate(name, ca.Check, info)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin("edc.generate", root, txn)
			set, err := edc.Generate(tr, info, edc.DefaultOptions())
			rec.end(sp)
			if err != nil {
				return err
			}
			if rep == 0 {
				ts.edcs += len(set.EDCs)
				ts.discarded += len(set.Discarded)
			}
			sp = rec.begin("sqlgen.select", root, txn)
			gen := sqlgen.New(info, set.Rules)
			sels := make([]*sqlparser.Select, len(set.EDCs))
			for i, e := range set.EDCs {
				if sels[i], err = gen.Select(e); err != nil {
					break
				}
			}
			rec.end(sp)
			if err != nil {
				return err
			}
			for i, sel := range sels {
				vname := sqlgen.ViewName(name, i)
				if rep == 0 {
					if err := db.CreateView(vname, sel); err != nil {
						return err
					}
				}
				eng.ForgetPlan(vname)
				sp = rec.begin("engine.prepare", root, txn)
				p, err := eng.PrepareView(vname)
				rec.end(sp)
				if err != nil {
					return err
				}
				if rep == 0 {
					sp = rec.begin("engine.ensure_indexes", root, txn)
					err := p.EnsureIndexes()
					rec.end(sp)
					if err != nil {
						return err
					}
				}
			}
		}
		rec.end(root)
	}
	return nil
}

// startTrace opens the benchmark-owned WAL store with the tool's default
// fsync policy and checkpoints the current state into it, so the traced
// loop can time the durable path (validate, encode, append, checkpoint,
// replay) on every workload's batches.
func (r *runner) startTrace() error {
	ts := r.trace
	ts.storeDir = filepath.Join(r.dir, "benchwal")
	st, err := wal.OpenStore(ts.storeDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	ts.store = st
	if err := st.Checkpoint(r.env.tool.Save); err != nil {
		return err
	}
	for _, src := range tpch.ComplexityAssertions() {
		c, err := baseline.New(r.env.db, []string{src})
		if err != nil {
			return err
		}
		ts.perAssert = append(ts.perAssert, c)
		st, err := sqlparser.Parse(src)
		if err != nil {
			return err
		}
		ts.names = append(ts.names, strings.ToLower(st.(*sqlparser.CreateAssertion).Name))
	}
	ts.firstTxn = r.txnID + 1
	return nil
}

// triggeredViews lists the views the check's pre-pass evaluates for the
// staged events: those with a non-empty event table among their triggers.
func triggeredViews(tool *core.Tool, db *storage.DB) []string {
	nonEmpty := map[string]bool{}
	withIns, withDel := db.PendingEvents()
	for _, n := range withIns {
		nonEmpty[storage.InsTable(n)] = true
	}
	for _, n := range withDel {
		nonEmpty[storage.DelTable(n)] = true
	}
	hit := func(ts []string) bool {
		for _, t := range ts {
			if nonEmpty[t] {
				return true
			}
		}
		return false
	}
	var out []string
	for _, a := range tool.Assertions() {
		if !hit(a.Triggers) {
			continue
		}
		for i, e := range a.EDCs.EDCs {
			if hit(e.Triggers) {
				out = append(out, a.Views[i])
			}
		}
	}
	return out
}

// tracedTxn runs one transaction with every layer call timed: stage,
// normalize, an extra Tool.Check, each triggered view serially, validate,
// encode and append to the benchmark-owned store (clean batches only,
// as the durable commit path would), then the real SafeCommit. The
// transaction time is stage + SafeCommit, as in the untraced loop.
func (r *runner) tracedTxn(b *Batch) (time.Duration, *core.CommitResult) {
	r.attempted++
	r.txnID++
	id, rec, ts := r.txnID, r.rec, r.trace
	db, tool := r.env.db, r.env.tool
	root := rec.begin("txn", -1, id)
	defer rec.end(root)

	sp := rec.begin("storage.stage", root, id)
	err := b.Stage(db)
	stage := rec.end(sp)
	if err != nil {
		return stage, r.judge(b, nil, err)
	}
	sp = rec.begin("storage.normalize", root, id)
	ts.cancelled = append(ts.cancelled, float64(db.NormalizeEvents()))
	rec.end(sp)

	sp = rec.begin("core.check", root, id)
	cres, err := tool.Check()
	check := rec.end(sp)
	if err != nil {
		return stage, r.judge(b, nil, err)
	}
	ts.viewsChecked = append(ts.viewsChecked, float64(cres.ViewsChecked))
	ts.viewsSkipped = append(ts.viewsSkipped, float64(cres.ViewsSkipped))

	var sum, max time.Duration
	eng := tool.Engine()
	for _, v := range triggeredViews(tool, db) {
		sp := rec.begin("engine.view."+v, root, id)
		p, err := eng.PrepareView(v)
		if err == nil {
			err = p.QueryLimitInto(0, &ts.res)
		}
		d := rec.end(sp)
		if err != nil {
			return stage, r.judge(b, nil, err)
		}
		sum += d
		if d > max {
			max = d
		}
	}
	ts.viewSum = append(ts.viewSum, float64(sum))
	ts.viewMax = append(ts.viewMax, float64(max))
	if check > 0 {
		ts.gain = append(ts.gain, float64(sum)/float64(check))
	}

	clean := len(b.Poisoned) == 0
	var durable time.Duration
	if clean {
		sp = rec.begin("storage.validate", root, id)
		err := db.ValidateEvents()
		durable += rec.end(sp)
		if err == nil {
			sp = rec.begin("storage.encode", root, id)
			ts.buf.Reset()
			err = db.EncodeEvents(&ts.buf)
			durable += rec.end(sp)
			ts.encodeBytesPerRow = append(ts.encodeBytesPerRow, float64(ts.buf.Len())/float64(b.Rows()))
		}
		if err == nil {
			sp = rec.begin("wal.append", root, id)
			_, err = ts.store.Append(ts.buf.Bytes())
			durable += rec.end(sp)
		}
		if err != nil {
			return stage, r.judge(b, nil, err)
		}
	}

	sp = rec.begin("core.safecommit", root, id)
	res, err := tool.SafeCommit()
	commit := rec.end(sp)
	txn := stage + commit
	ts.txn = append(ts.txn, float64(txn))
	res = r.judge(b, res, err)
	if res == nil {
		return txn, nil
	}
	if !res.Committed {
		return txn, res
	}
	apply := commit - res.Duration - res.NormalizeDuration
	if r.w.durable {
		apply -= durable
	}
	ts.apply = append(ts.apply, float64(apply))
	if clean {
		ts.appends++
		ts.rows += b.Rows()
		if ts.appends%benchCheckpointEvery == 0 {
			r.benchCheckpoint(id)
		}
	}
	return txn, res
}

// benchCheckpoint checkpoints the benchmark-owned store and accounts the
// bytes written to it since the previous checkpoint: the log, then the new
// snapshot.
func (r *runner) benchCheckpoint(txn int) {
	ts := r.trace
	logBytes, err := fileSize(filepath.Join(ts.storeDir, walLogFile))
	if err == nil {
		sp := r.rec.begin("wal.checkpoint", -1, txn)
		err = ts.store.Checkpoint(r.env.tool.Save)
		ts.checkpoint = append(ts.checkpoint, float64(r.rec.end(sp)))
	}
	if err == nil {
		ts.snapshotBytes, err = fileSize(filepath.Join(ts.storeDir, walSnapshotFile))
	}
	if err != nil {
		r.fail(fmt.Errorf("checkpoint: %w", err))
		return
	}
	ts.walBytes += logBytes + ts.snapshotBytes
}

func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// tracedRecheck runs the full recheck one assertion at a time, each timed.
func (r *runner) tracedRecheck() time.Duration {
	var total time.Duration
	for i, c := range r.trace.perAssert {
		sp := r.rec.begin("baseline.recheck."+r.trace.names[i], -1, r.txnID)
		res, err := c.Check()
		total += r.rec.end(sp)
		if err == nil {
			err = checkRecheck(res)
		}
		if err != nil {
			r.fail(err)
		}
	}
	return total
}

// finishTrace measures what follows the traced loop: the per-assertion
// recheck (for workloads that did not recheck in the loop), WAL replay of a
// copy of the benchmark-owned store into a tool loaded from its snapshot
// (gated against the live tables), and a final checkpoint.
func (r *runner) finishTrace() error {
	ts := r.trace
	if !r.w.recheckEach {
		for i := 0; i < recheckReps; i++ {
			r.tracedRecheck()
		}
	}
	cp := filepath.Join(r.dir, "benchwal-replay")
	if err := copyDir(ts.storeDir, cp); err != nil {
		return err
	}
	r.attempted++
	if err := r.replay(cp); err != nil {
		r.fail(fmt.Errorf("wal replay: %w", err))
	}
	r.benchCheckpoint(0)
	return ts.store.Close()
}

func (r *runner) replay(dir string) error {
	ts := r.trace
	start := time.Now()
	st, err := wal.OpenStore(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	open := time.Since(start)
	snap, ok := st.Snapshot()
	if !ok {
		return fmt.Errorf("no snapshot in %s", dir)
	}
	tool, err := core.LoadTool(bytes.NewReader(snap), core.DefaultOptions())
	if err != nil {
		return err
	}
	db := tool.DB()
	start = time.Now()
	n, err := st.Replay(func(_ uint64, payload []byte) error {
		db.TruncateEvents()
		if err := db.DecodeEvents(bytes.NewReader(payload)); err != nil {
			return err
		}
		return db.ApplyEvents()
	})
	ts.replay = open + time.Since(start)
	r.rec.add("wal.replay", -1, 0, ts.replay)
	ts.tailRecords = n
	if err != nil {
		return err
	}
	return checkSameState("wal replay", fingerprint(r.env.db), fingerprint(db))
}

// viewTable returns, per view evaluated in the traced loop, its median
// time in microseconds and its evaluation count.
func (r *runner) viewTable() []string {
	byView := map[string][]float64{}
	for _, s := range r.rec.spans {
		if v, ok := strings.CutPrefix(s.Name, "engine.view."); ok {
			byView[v] = append(byView[v], float64(s.End-s.Start))
		}
	}
	names := make([]string, 0, len(byView))
	for v := range byView {
		names = append(names, v)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, v := range names {
		out[i] = fmt.Sprintf("  engine.view_us.%-28s %10.1f us  (n=%d)", v, median(byView[v])/1e3, len(byView[v]))
	}
	return out
}
