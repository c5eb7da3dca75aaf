"""Steadiness self-check: two sets of runs of the same code.

    python3 bench/steady.py --runs 10 [--workloads solve audit] [--seconds 20]

For each workload, set A runs seeds 1..N and set B seeds N+1..2N, one run
at a time, alternating A and B so that a slow spell of the machine falls
on both sets.  For every end-to-end metric it prints each set's median and
spread (interquartile range over median) and whether the two medians agree
within the metric's bound in BENCHMARK.json.  Exits 1 if any does not, or
if a run fails, is incorrect, or the failed share differs between sets.
The figures are also written to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run(command, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        for i in range(1, args.runs + 1):
            for name, seed in (("A", i), ("B", args.runs + i)):
                result = run(spec["command"], workload, seed, args.seconds)
                sets[name].append(result)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                    ok = False
        shares = {name: {r["failed"] / r["attempted"] for r in runs}
                  for name, runs in sets.items()}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            print(f"{workload}: failed shares differ: {shares}")
            ok = False
        report[workload] = {}
        print(f"\n{workload}: {args.runs} runs per set")
        print(f"  {'metric':16s} {'median A':>11s} {'median B':>11s} {'B vs A':>8s} "
              f"{'bound':>6s} {'spread A':>9s} {'spread B':>9s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {s: [r["metrics"][name]["value"] for r in runs]
                      for s, runs in sets.items()}
            med = {s: statistics.median(v) for s, v in values.items()}
            change = (med["B"] - med["A"]) / med["A"]
            worse = change if metric["better"] == "lower" else -change
            agree = abs(change) <= bound
            ok = ok and agree
            row = {"median": med, "change": change, "worse": worse, "bound": bound,
                   "spread": {s: spread(v) for s, v in values.items()},
                   "values": values, "agree": agree}
            report[workload][name] = row
            print(f"  {name:16s} {med['A']:11.5g} {med['B']:11.5g} {change:+8.1%} "
                  f"{bound:6.2f} {row['spread']['A']:9.1%} {row['spread']['B']:9.1%}"
                  f"{'' if agree else '  DISAGREE'}")
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
