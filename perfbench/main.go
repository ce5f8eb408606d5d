// Command perfbench is the repository's benchmark: three single-client,
// closed-loop workloads over the TPC-H schema that stage a batch into the
// event tables and call Tool.SafeCommit, back to back.
//
//	perfbench --workload commit_mix|durable_bulk|recheck_4x --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced, timing every call into each
// module from the benchmark's side, and prints the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any wrong verdict, failed recheck,
// recovery mismatch or plan-cache miss fails the run (exit status 1).
//
// Scratch files live under .bench_build/ in the working directory and are
// removed on exit; traced runs leave their spans in .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported metric: its name, unit and which direction is
// better.
type metric struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"txn_p50_ms", "ms", "lower"},
	{"check_p50_ms", "ms", "lower"},
	{"recheck_p50_ms", "ms", "lower"},
	{"rows_per_s", "1/s", "higher"},
	{"recovery_s", "s", "lower"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metric{
	{"tpch.datagen_s", "s", "lower"},
	{"tpch.prewarm_ms", "ms", "lower"},
	{"sqlparser.parse_us", "us", "lower"},
	{"logic.translate_us", "us", "lower"},
	{"edc.generate_us", "us", "lower"},
	{"edc.edcs", "count", "lower"},
	{"edc.discarded", "count", "higher"},
	{"sqlgen.select_us", "us", "lower"},
	{"engine.prepare_us", "us", "lower"},
	{"engine.ensure_indexes_us", "us", "lower"},
	{"core.add_assertion_us", "us", "lower"},
	{"storage.stage_us", "us", "lower"},
	{"storage.normalize_us", "us", "lower"},
	{"storage.cancelled", "count", "lower"},
	{"core.check_us", "us", "lower"},
	{"core.views_checked", "count", "lower"},
	{"core.views_skipped", "count", "higher"},
	{"engine.view_sum_us", "us", "lower"},
	{"engine.view_max_us", "us", "lower"},
	{"engine.plan_misses", "count", "lower"},
	{"engine.plan_fallbacks", "count", "lower"},
	{"sched.parallel_gain", "x", "higher"},
	{"storage.validate_us", "us", "lower"},
	{"storage.encode_us", "us", "lower"},
	{"storage.encode_bytes_per_row", "B/row", "lower"},
	{"wal.append_us", "us", "lower"},
	{"core.safecommit_us", "us", "lower"},
	{"storage.apply_us", "us", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.snapshot_bytes", "B", "lower"},
	{"wal.bytes_per_row", "B/row", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"wal.tail_records", "count", "lower"},
	{"baseline.recheck_ms.positivequantity", "ms", "lower"},
	{"baseline.recheck_ms.positiveavailqty", "ms", "lower"},
	{"baseline.recheck_ms.orderhascustomer", "ms", "lower"},
	{"baseline.recheck_ms.lineitemhasorder", "ms", "lower"},
	{"baseline.recheck_ms.atleastonelineitem", "ms", "lower"},
	{"baseline.recheck_ms.suppliersellssomething", "ms", "lower"},
	{"baseline.recheck_ms.customernationinregion", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: commit_mix, durable_bulk or recheck_4x")
	seed := fs.Int64("seed", 1, "seed for the generated database and update stream")
	seconds := fs.Float64("seconds", 10, "measured seconds of the closed loop")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload commit_mix|durable_bulk|recheck_4x, --seconds > 0, --trace 0|1\n")
		return 2
	}
	dir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &runner{w: w, seed: *seed, dir: dir}
	d := time.Duration(*seconds * float64(time.Second))
	var vals map[string]float64
	var notes []string
	var err error
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		vals, notes, err = r.runTraced(d)
	} else {
		vals, notes, err = r.runEndToEnd(d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", w.name, *seed, *seconds, *traced)
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", w.name, m.name)
			return 1
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Printf("  %-44s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, n := range append(notes, hostLine(dir)) {
		fmt.Println(n)
	}
	fmt.Printf("  %-44s %14.4f  (%d failed of %d attempted)\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd is the untraced run: set-up, the timed loop, then the
// post-loop recheck and recovery measurements.
func (r *runner) runEndToEnd(d time.Duration) (map[string]float64, []string, error) {
	setups, err := r.setupAll()
	if err != nil {
		return nil, nil, err
	}
	heap := heapMB()
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	p := r.loop(d)
	recheck := p.recheck
	if !r.w.recheckEach {
		recheck = append(recheck, float64(r.recheckOnce())) // the final state
	}
	recovery, err := r.recover()
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"heap_mb":        heap,
		"txn_p50_ms":     quantile(p.txn, 0.5) / 1e6,
		"check_p50_ms":   median(p.check) / 1e6,
		"recheck_p50_ms": median(recheck) / 1e6,
		"rows_per_s":     float64(p.rows) / p.busy.Seconds(),
		"recovery_s":     median(recovery),
	}
	notes := []string{
		fmt.Sprintf("  samples: %d set-ups, %d transactions (%d with a check result), %d rechecks, %d recoveries",
			len(setups), len(p.txn), len(p.check), len(recheck), len(recovery)),
		fmt.Sprintf("  txn percentiles (ms) p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f",
			quantile(p.txn, 0.5)/1e6, quantile(p.txn, 0.75)/1e6, quantile(p.txn, 0.9)/1e6,
			quantile(p.txn, 0.95)/1e6, quantile(p.txn, 0.99)/1e6, quantile(p.txn, 1)/1e6),
		fmt.Sprintf("  set-up times (s) %.3f; recovery times (s) %.3f", setups, recovery),
		fmt.Sprintf("  recheck/check ratio %.1fx (recheck_p50_ms %.3f over check_p50_ms %.3f)",
			vals["recheck_p50_ms"]/vals["check_p50_ms"], vals["recheck_p50_ms"], vals["check_p50_ms"]),
	}
	return vals, notes, nil
}

// runTraced is the traced run: set-up with spans, the install-pipeline
// replay, half the time untraced (the overhead baseline), half traced, and
// the post-loop layer measurements. It writes the spans out at the end.
func (r *runner) runTraced(d time.Duration) (map[string]float64, []string, error) {
	r.rec = newRecorder()
	if _, err := r.setupAll(); err != nil {
		return nil, nil, err
	}
	ts := &traceState{}
	r.trace = ts
	if err := r.replayInstall(); err != nil {
		return nil, nil, fmt.Errorf("install replay: %w", err)
	}
	r.trace = nil
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	plain := r.loop(d / 2)
	r.trace = ts
	if err := r.startTrace(); err != nil {
		return nil, nil, err
	}
	traced := r.loop(d / 2)
	if err := r.finishTrace(); err != nil {
		return nil, nil, err
	}

	rec := r.rec
	const maxTxn = math.MaxInt
	install := func(name string) float64 { return median(rec.perTxn(name, txnInstall-installReps, txnInstall)) / 1e3 }
	loop := func(name string) float64 { return median(rec.perTxn(name, ts.firstTxn, maxTxn)) / 1e3 }
	vals := map[string]float64{
		"tpch.datagen_s":               median(rec.durations("tpch.datagen")) / 1e9,
		"tpch.prewarm_ms":              median(rec.durations("tpch.prewarm")) / 1e6,
		"sqlparser.parse_us":           install("sqlparser.parse"),
		"logic.translate_us":           install("logic.translate"),
		"edc.generate_us":              install("edc.generate"),
		"edc.edcs":                     float64(ts.edcs),
		"edc.discarded":                float64(ts.discarded),
		"sqlgen.select_us":             install("sqlgen.select"),
		"engine.prepare_us":            install("engine.prepare"),
		"engine.ensure_indexes_us":     install("engine.ensure_indexes"),
		"core.add_assertion_us":        median(rec.perTxn("core.add_assertion", txnSetup-r.w.setupReps, txnSetup)) / 1e3,
		"storage.stage_us":             loop("storage.stage"),
		"storage.normalize_us":         loop("storage.normalize"),
		"storage.cancelled":            median(ts.cancelled),
		"core.check_us":                loop("core.check"),
		"core.views_checked":           median(ts.viewsChecked),
		"core.views_skipped":           median(ts.viewsSkipped),
		"engine.view_sum_us":           median(ts.viewSum) / 1e3,
		"engine.view_max_us":           median(ts.viewMax) / 1e3,
		"engine.plan_misses":           float64(traced.misses + plain.misses),
		"engine.plan_fallbacks":        float64(traced.fallbacks + plain.fallbacks),
		"sched.parallel_gain":          median(ts.gain),
		"storage.validate_us":          loop("storage.validate"),
		"storage.encode_us":            loop("storage.encode"),
		"storage.encode_bytes_per_row": median(ts.encodeBytesPerRow),
		"wal.append_us":                loop("wal.append"),
		"core.safecommit_us":           loop("core.safecommit"),
		"storage.apply_us":             median(ts.apply) / 1e3,
		"wal.checkpoint_ms":            median(ts.checkpoint) / 1e6,
		"wal.snapshot_bytes":           float64(ts.snapshotBytes),
		"wal.bytes_per_row":            float64(ts.walBytes) / float64(max(ts.rows, 1)),
		"wal.replay_ms":                float64(ts.replay) / 1e6,
		"wal.tail_records":             float64(ts.tailRecords),
		"trace.overhead_pct":           (median(ts.txn)/median(plain.txn) - 1) * 100,
	}
	for _, n := range ts.names {
		vals["baseline.recheck_ms."+n] = median(rec.durations("baseline.recheck."+n)) / 1e6
	}
	notes := append([]string{fmt.Sprintf(
		"  samples: %d untraced + %d traced transactions; traced stage+safecommit p50 %.3f ms vs untraced txn p50 %.3f ms;"+
			" traced core.check - storage.normalize p50 %.3f ms vs untraced check p50 %.3f ms; per-view check times (serial):",
		len(plain.txn), len(ts.txn), median(ts.txn)/1e6, median(plain.txn)/1e6,
		(vals["core.check_us"]-vals["storage.normalize_us"])/1e3, median(plain.check)/1e6)}, r.viewTable()...)
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
	if err := rec.write(path, r.w.name, r.seed); err != nil {
		return nil, nil, err
	}
	notes = append(notes, "  spans: "+path+" ("+fmt.Sprint(len(rec.spans))+" spans)")
	return vals, notes, nil
}
