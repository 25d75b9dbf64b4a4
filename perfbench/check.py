#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload (or those named) --runs times with distinct seeds,
then prints, for each end-to-end metric, the median and quartiles of
the runs and their spread (Q3 - Q1) / median against the metric's
bound. A spread below a third of the bound is steady ("ok"); below
the bound is "near"; above it the metric is too noisy to gate.

  python3 perfbench/check.py                      # 10 runs per workload
  python3 perfbench/check.py --runs 5 --workloads gpt2s_train
  python3 perfbench/check.py --save a.json        # keep the raw results
  python3 perfbench/check.py --compare a.json     # medians vs an earlier series

Run it from the repository root. Raw results go to --save; with
--compare, each metric's median is also checked against the saved
series: it may not be worse by more than the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: answers failed verification")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def worse(metric, before, after):
    """Relative worsening of `after` over `before` (negative = better)."""
    if before == 0:
        return 0.0
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    earlier = json.load(open(args.compare)) if args.compare else {}
    results = {}
    steady = True
    for workload in names:
        runs = [run_once(bench["command"], workload, args.first_seed + i,
                         bench["run_seconds"], 0) for i in range(args.runs)]
        results[workload] = runs
        print(f"{workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(runs) - 1}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, q2, q3, s = spread(values)
            verdict = "ok" if s < m["bound"] / 3 else "near" if s < m["bound"] else "NOISY"
            steady &= s < m["bound"]
            line = (f"  {m['name']:<16} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{s:>7.2%} {m['bound']:>6.0%}  {verdict}")
            if workload in earlier:
                before = statistics.median(r[m["name"]] for r in earlier[workload])
                w = worse(m, before, q2)
                line += f"  vs earlier {w:+.2%}" + (" REGRESSED" if w > m["bound"] else "")
                steady &= w <= m["bound"]
            print(line)
    if args.save:
        json.dump(results, open(args.save, "w"), indent=1)
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
