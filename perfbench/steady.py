#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 perfbench/steady.py --workloads commit_mix,recheck_4x --seeds 1-10 \
        --seconds 25 [--trace 0] [--out .bench_build/steady.json]

Run it from the repository root. Each run gets its own seed; the spread of a
metric is the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median, the figure
a metric's bound in BENCHMARK.json is compared against.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="commit_mix,durable_bulk,recheck_4x")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            res = run(w, s, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {s}: incorrect run: {res}")
            runs.append({"seed": s, "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{w} seed {s}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1]["metrics"].items())),
                  flush=True)
        summary = {}
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name] for r in runs]
            sp, med = spread(vals) if len(vals) >= 2 else (0.0, vals[0])
            summary[name] = {"median": med, "spread": sp}
            print(f"  {w:13s} {name:44s} median {med:14.4f}  spread {sp:7.2%}", flush=True)
        report[w] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
