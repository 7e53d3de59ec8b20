#!/usr/bin/env python3
"""Steadiness check: run one workload N times, one seed each, and print
every metric's median, quartiles and spread (IQR over median).

    python3 perfbench/steady.py --workload mapsrv-zipf --runs 10 [--seconds 10] [--trace 0] [--first-seed 1]

Run it from the repository root. It runs the command in BENCHMARK.json,
so it measures exactly what the benchmark measures; the seed of run k is
first-seed + k. Quartiles are Python's statistics.quantiles(values, n=4).
With --bounds it also prints each end-to-end metric's bound and whether
the spread is within a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--bounds", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    failed_shares = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: checks failed")
        failed_shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each, "
          f"failed share {sorted(set(failed_shares))}")
    print(f"{'metric':32} {'unit':>14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        line = f"{name:32} {units[name]:>14} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}"
        if args.bounds and name in bounds:
            ok = "ok" if spread < bounds[name] / 3 else "WIDE"
            line += f"  bound {bounds[name]} {ok}"
        print(line)


if __name__ == "__main__":
    main()
