"""Command-line interface.

Subcommands: solve, audit, invariants, verify-theorem, gen, fuzz, recheck.
Exit codes follow a fixed contract: 0 success (solve: factor found; fuzz:
no discrepancy; recheck: all certificates verify), 1 negative outcome
(solve: no factor; fuzz: discrepancy; recheck: mismatch), 2 usage or
runtime error.

The argument list is the only input besides the files it names.  The
toughness cap --toughness-max-n (``invariants`` and ``verify-theorem``)
bounds work, not n: a cutset scan covers only sizes
kappa <= |S| <= ratio * alpha and is refused past 2^N subsets; a negative
cap exits 2 with one line.  The parser is built once per process, on the
first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import constructions, instances, invariants, reports, solver, theorems, tutte


def _read_instance(path: str):
    if path == "-":
        return instances.parse_instance(sys.stdin.read())
    with open(path) as fh:
        return instances.parse_instance(fh.read())


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, parameters: dict, seed: int | None, instance, verdicts: dict,
          certs: list[dict], started: float | None, out: str | None = None) -> None:
    """Write the report of ``args.command`` to ``out``, by default ``args.out``."""
    doc = reports.build_report(args.command, parameters, seed, instance, verdicts,
                               certs, started)
    _write(reports.dumps_report(doc), args.out if out is None else out)


def _cmd_solve(args, g, f) -> tuple[int, dict, dict, list[dict]]:
    certs = reports.certificates(solver.find_f_factor(g, f))
    return int(not certs), {}, reports.verdicts_of("solve", g, f, {}, certs), certs


def _cmd_audit(args, g, f) -> tuple[int, dict, dict, list[dict]]:
    certs = reports.certificates(tutte.find_violating_pair(g, f))
    return 0, {}, reports.verdicts_of("audit", g, f, {}, certs), certs


def _cmd_invariants(args, g, f) -> tuple[int, dict, dict, list[dict]]:
    cap = args.toughness_max_n
    verdicts: dict = {"n": g.n, "m": g.m}
    if args.alpha:
        verdicts["alpha"], witness = invariants.stability_number(g)
        verdicts["alpha_witness"] = list(witness)
    if args.kappa:
        verdicts["kappa"] = invariants.vertex_connectivity(g)
    for key, wanted, measure in (
        ("toughness", args.toughness, lambda: invariants.toughness(g, cap)),
        ("odd_toughness", args.odd_toughness, lambda: invariants.odd_toughness(g, f, cap)),
    ):
        if wanted:
            value = measure()
            verdicts[key] = str(value)
            verdicts[f"{key}_witness"] = None if value.witness is None else list(value.witness)
    return 0, {"toughness_max_n": cap}, verdicts, []


def _cmd_verify_theorem(args, g, f) -> tuple[int, dict, dict, list[dict]]:
    report = theorems.THEOREMS[args.name].run(g, f, args)
    certs = reports.certificates(report.factor)
    return 0, {"name": args.name, "a": args.a, "b": args.b, "r": args.r,
               "star_order": args.star_order, "confirm": args.confirm}, report.to_dict(), certs


def _cmd_gen(args) -> int:
    if args.family == "random":
        g = instances.random_connected_graph(args.n, args.p_edge, args.seed)
        f = instances.random_degree_spec(g, args.a, args.b, args.seed + 1)
        report_dict = {"family": "random", "n": args.n, "p_edge": args.p_edge,
                       "seed": args.seed}
        certs = []
    else:
        if args.family == "g0":
            built = constructions.build_g0(args.a, args.b, args.k, args.delta, args.p)
        else:
            built = constructions.build_g1(args.a, args.b, args.r, args.delta, args.alpha)
        g, f, report_dict = built.graph, built.spec, built.to_dict()
        certs = reports.certificates(built.witness_pair)
    _write(instances.serialize_instance(g, f), args.out)
    if args.report:
        seed = args.seed if args.family == "random" else None
        verdicts = reports.verdicts_of("gen", g, f, report_dict, certs)
        _emit(args, report_dict, seed, (g, f), verdicts, certs, None, args.report)
    return 0


def _cmd_fuzz(args) -> int:
    started = time.monotonic()
    campaign = theorems.empirical_validate(
        args.theorem, args.trials, args.seed,
        n_range=(args.min_n, args.max_n),
    )
    _emit(args, {"theorem": args.theorem, "trials": args.trials,
                 "min_n": args.min_n, "max_n": args.max_n},
          args.seed, None, campaign.to_dict(), [], started)
    return 1 if campaign.discrepancies else 0


def _cmd_recheck(args) -> int:
    with open(args.report) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("report is nested too deeply to parse") from None
    failures = reports.recheck_report(doc)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all certificates verified")
    return 1 if failures else 0


def _add_toughness_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--toughness-max-n", type=int, default=invariants.TOUGHNESS_MAX_N,
                   help="cutset scan cap: at most 2^N subsets "
                        f"(default {invariants.TOUGHNESS_MAX_N})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole CLI; one parser serves every call."""
    parser = argparse.ArgumentParser(
        prog="ffactors",
        description="f-factor existence: solving, certifying, and auditing "
                    "sufficient conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # verify-theorem and fuzz list every theorem id with its summary
    listing = "".join(f"\n  {name:22} {t.summary}" for name, t in theorems.THEOREMS.items())
    theorem_ids = dict(epilog=f"theorem ids:{listing}",
                       formatter_class=argparse.RawDescriptionHelpFormatter)

    p = sub.add_parser("solve", help="find an f-factor; exit 0 found, 1 none")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("audit", help="find a minimum-deficiency violating pair")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("invariants", help="compute exact graph parameters")
    p.add_argument("instance")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--kappa", action="store_true")
    p.add_argument("--toughness", action="store_true")
    p.add_argument("--odd-toughness", action="store_true")
    _add_toughness_cap(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify-theorem", help="run a hypothesis checker", **theorem_ids)
    p.add_argument("name", choices=theorems.THEOREMS)
    p.add_argument("instance")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--star-order", type=int, default=3)
    p.add_argument("--confirm", action="store_true",
                   help="run the solver when all hypotheses hold")
    _add_toughness_cap(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("gen", help="emit an instance file")
    p.add_argument("family", choices=("g0", "g1", "random"))
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--delta", type=int, default=12)
    p.add_argument("--p", dest="p", type=int, default=4)
    p.add_argument("--alpha", type=int, default=2)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p-edge", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="instance file destination (default stdout)")
    p.add_argument("--report", help="also write a construction report here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fuzz", help="empirical validation campaign; "
                                    "nonzero exit on any discrepancy", **theorem_ids)
    p.add_argument("theorem", choices=theorems.THEOREMS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-n", type=int, default=8)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("recheck", help="re-verify every certificate in a report")
    p.add_argument("report")
    p.set_defaults(func=_cmd_recheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "toughness_max_n", 0) < 0:
            raise ValueError("--toughness-max-n must be at least 0, "
                             f"got {args.toughness_max_n}")
        # an instance command returns (exit code, parameters, verdicts,
        # certificates); its instance is read, timed and reported here
        if not hasattr(args, "instance"):
            return args.func(args)
        started = time.monotonic()
        g, f = _read_instance(args.instance)
        code, parameters, verdicts, certs = args.func(args, g, f)
        _emit(args, parameters, None, (g, f), verdicts, certs, started)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
