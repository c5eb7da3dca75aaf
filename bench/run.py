"""End-to-end benchmark of the ffactors CLI.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs one workload (solve, audit, main_theorem, invariants) through the
public entry point ``ffactors.cli.main`` in this process.  An operation is
one command writing its JSON report, followed by ``recheck`` on that
report; the two calls are timed together.  Every report is then checked
independently (checks.py), outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller result
(op times, layer shares, the other mode's numbers) and, when tracing, the
spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7


class Program:
    """The freshly imported ffactors modules the benchmark drives."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "ffactors" or m.startswith("ffactors.")]:
            del sys.modules[name]
        package = importlib.import_module("ffactors")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"ffactors imported from {package.__file__}, not from {SRC}")
        self.cli = importlib.import_module("ffactors.cli")
        self.graph = importlib.import_module("ffactors.graph")
        self.instances = importlib.import_module("ffactors.instances")
        self.constructions = importlib.import_module("ffactors.constructions")


def set_up(workload: str, seed: int, seconds: float, workdir: str):
    """Import ffactors and write the workload's instances; returns the
    program, the rounds and the set-up time in seconds."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    start = perf_counter()
    program = Program()
    rounds = workloads.build(program, workload, seed, seconds, workdir)
    return program, rounds, perf_counter() - start


def run_op(cli, op, tracer):
    """Time one operation; returns (seconds, command exit code, error or
    None).  A recheck that does not exit 0 is an error."""
    sink = io.StringIO()
    gc.collect()
    if tracer:
        tracer.begin_op(op.key)
    rc = recheck = -1
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            rc = cli.main(op.argv)
            recheck = cli.main(["recheck", op.report])
        except (Exception, SystemExit) as exc:  # an operation that fails is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
    if tracer:
        tracer.end_op(start, end)
    if error is None and (rc not in (0, 1) or recheck != 0):
        error = f"exit {rc}, recheck exit {recheck}: {sink.getvalue().strip()[-200:]}"
    return end - start, rc, error


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(samples: int) -> int:
    """The highest percentile, in steps of 5, that leaves at least ten of
    ``samples`` beyond its nearest rank (50 if none does)."""
    return max([q for q in range(50, 100, 5) if samples - math.ceil(q / 100 * samples) >= 10],
               default=50)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ffactors", "cli.py")):
        print(f"error: no ffactors sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    program, rounds, took = set_up(args.workload, args.seed, args.seconds,
                                   os.path.join(workdir, "run"))
    setup_times = [took]
    cli = program.cli

    # warm-up: one operation of each kind, untimed
    seen = set()
    for op in rounds[0]:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(cli, op, None)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    gc.collect()
    gc.freeze()

    # Every run executes the same fixed rounds, traced or not.  Set-up is
    # repeated between rounds, spread over the run, so that its median
    # spans the machine's slow and fast spells as the operations do.
    timed, errors, executed = [], [], []
    for index, round_ops in enumerate(rounds, 1):
        for op in round_ops:
            took, rc, error = run_op(cli, op, tracer)
            if error:
                errors.append(f"{op.key}: {error}")
                continue
            timed.append((op.key, took))
            executed.append((op, rc))
        if len(setup_times) < SETUP_REPEATS * index / len(rounds):
            setup_times.append(set_up(args.workload, args.seed, args.seconds,
                                      os.path.join(workdir, "setup"))[2])
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(args.workload, args.seed, args.seconds,
                                  os.path.join(workdir, "setup"))[2])
    attempted = sum(map(len, rounds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = perf_counter()
    refs = checks.References()
    problems = []
    for op, rc in executed:
        with open(op.report) as fh:
            problems += checks.check(op, rc, json.load(fh), refs)
    checked = perf_counter() - checked
    for line in (errors + problems)[:20]:
        print(line, file=sys.stderr)

    times = [took for _, took in timed]
    if not times:
        print("error: every operation failed", file=sys.stderr)
        return 1
    q = tail_percentile(len(times))
    values = {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": percentile(times, q),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": tracer.metrics(spec["per_layer"]) if tracer else end_to_end,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  end_to_end=end_to_end, tail_percentile=q, rounds=len(rounds),
                  setup_times=setup_times, op_times=timed)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        detail["layer_shares"] = tracer.shares()
        tracer.write_spans(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(times)} ops in {len(rounds)} rounds, "
          f"{sum(times):.2f} s timed, ops/s {end_to_end['ops_per_s']['value']:.3f}, "
          f"p50 {end_to_end['latency_p50_s']['value']:.4f} s, "
          f"p{q} {end_to_end['latency_tail_s']['value']:.4f} s, "
          f"setup {end_to_end['setup_s']['value']:.3f} s, checks {checked:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
