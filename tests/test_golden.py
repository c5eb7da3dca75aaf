"""Golden CLI reports: every subcommand's report, with ``timing`` stripped,
must stay byte-identical to the stored file, and so must the exit code and
the error line.

The instances are produced by ``ffactors gen`` itself, so the guard covers
the generators as well.  To rewrite the stored files after an intended
change, run ``python tests/test_golden.py`` and list the difference in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from types import SimpleNamespace

from ffactors import cli
from ffactors.reports import dumps_report, recheck_report, strip_timing
from ffactors.theorems import THEOREMS

GOLDEN_DIR = Path(__file__).parent / "golden"

INSTANCES = {
    "desk": ["g0", "--a", "2", "--b", "3", "--k", "1", "--delta", "12", "--p", "4"],
    "g1": ["g1"],
    "r9": ["random", "--n", "9", "--p-edge", "0.3", "--a", "1", "--b", "3", "--seed", "4"],
    "r10": ["random", "--n", "10", "--p-edge", "0.6", "--a", "1", "--b", "2", "--seed", "3"],
    "r12": ["random", "--n", "12", "--p-edge", "0.7", "--a", "1", "--b", "3", "--seed", "5"],
    "d14": ["random", "--n", "14", "--p-edge", "0.9", "--a", "2", "--b", "3", "--seed", "1"],
    "r60": ["random", "--n", "60", "--p-edge", "0.08", "--a", "1", "--b", "3", "--seed", "11"],
    "r40": ["random", "--n", "40", "--p-edge", "0.3", "--a", "1", "--b", "3", "--seed", "1"],
}

THEOREM_NAMES = ("main", "kappa_corollary", "min_degree", "regular_connectivity",
                 "ab_factor", "claw_free", "stability_conjecture")


def _cases() -> dict[str, list[str]]:
    cases = {
        "solve-desk": ["solve", "{desk}"],
        "solve-g1": ["solve", "{g1}"],
        "solve-r10": ["solve", "{r10}"],
        "audit-exact-r9": ["audit", "{r9}"],
        "audit-exact-r10": ["audit", "{r10}"],
        "audit-heuristic-r60": ["audit", "{r60}"],
        "audit-heuristic-desk": ["audit", "{desk}"],
        "invariants-r12": ["invariants", "{r12}", "--alpha", "--kappa", "--toughness",
                           "--odd-toughness"],
        "invariants-d14": ["invariants", "{d14}", "--alpha", "--kappa", "--toughness",
                           "--odd-toughness"],
        "invariants-g1": ["invariants", "{g1}", "--alpha", "--kappa", "--toughness",
                          "--odd-toughness"],
        "invariants-r40": ["invariants", "{r40}", "--alpha", "--kappa"],
        "verify-regular_connectivity-r40": ["verify-theorem", "regular_connectivity", "{r40}",
                                            "--r", "3", "--confirm"],
    }
    for name in THEOREM_NAMES:
        cases[f"verify-{name}-desk"] = ["verify-theorem", name, "{desk}", "--a", "2",
                                        "--b", "3", "--confirm"]
        cases[f"verify-{name}-r12"] = ["verify-theorem", name, "{r12}", "--a", "1",
                                       "--b", "3", "--confirm"]
        cases[f"verify-{name}-g1"] = ["verify-theorem", name, "{g1}", "--a", "2",
                                      "--b", "3", "--r", "3", "--confirm"]
        cases[f"verify-{name}-d14"] = ["verify-theorem", name, "{d14}", "--a", "2",
                                       "--b", "3", "--r", "3", "--confirm"]
        cases[f"fuzz-{name}"] = ["fuzz", name, "--trials", "25", "--seed", "7"]
    # gen writes its instance with --out, so its report goes to --report
    for name in ("desk", "g1", "r9"):
        cases[f"gen-{name}"] = ["gen", *INSTANCES[name], "--out", os.devnull,
                                "--report", "{report}"]
    return cases


CASES = _cases()


def write_instances(directory: Path) -> dict[str, str]:
    paths = {}
    for name, argv in INSTANCES.items():
        path = directory / f"{name}.inst"
        assert cli.main(["gen", *argv, "--out", str(path)]) == 0
        paths[name] = str(path)
    return paths


def run_case(argv: list[str], paths: dict[str, str], out: Path) -> dict:
    """Run one CLI command in-process; return its exit code, error output
    and timing-stripped report."""
    if out.exists():
        out.unlink()
    argv = [arg.format(report=out, **paths) for arg in argv]
    if "--report" not in argv:
        argv += ["--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    for path in paths.values():
        stderr = stderr.replace(path, Path(path).name)
    report = strip_timing(json.loads(out.read_text())) if out.exists() else None
    return {"exit": code, "stderr": stderr, "report": report}


@pytest.fixture(scope="module")
def instance_paths(tmp_path_factory):
    return write_instances(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, instance_paths, tmp_path):
    got = run_case(CASES[case], instance_paths, tmp_path / "report.json")
    expected = (GOLDEN_DIR / f"{case}.json").read_text()
    assert dumps_report(got) == expected


def test_golden_certificates_recheck():
    """Every stored report passes ``recheck``, its verdict matched to its
    certificates; only the one case that exits 2 has no report."""
    checked = []
    for case in sorted(CASES):
        report = json.loads((GOLDEN_DIR / f"{case}.json").read_text())["report"]
        if report is not None:
            assert recheck_report(report) == [], case
            checked.append(case)
    assert set(CASES) - set(checked) == {"verify-claw_free-r12"}


def _agreeing(doc: dict) -> dict:
    """``doc`` with its verdicts derived from its rows as if every row were
    true: the hypotheses are met iff all rows hold, only a met prediction
    is confirmed or refuted, and only a confirmed one keeps its factor."""
    verdicts, params = doc["verdicts"], doc["parameters"]
    met = all(row["satisfied"] for row in verdicts["hypotheses"])
    if not met:
        doc["certificates"] = []
    confirmation = ("confirmed" if doc["certificates"] else "refuted") if met else None
    conclusion = THEOREMS[params["name"]].conclusion(SimpleNamespace(**params))
    verdicts.update(hypotheses_met=met, prediction=conclusion if met else "no prediction",
                    confirmation=confirmation if params["confirm"] else None)
    return doc


def row_tampers(report: dict):
    """Every copy of a ``verify-theorem`` report with one row deleted, or
    with the observation or the verdict of one derived row changed: a
    polynomial row, or an exponential one that reads "not evaluated"; the
    rest of each copy agrees with its rows."""
    polynomial = {name for name, exponential, _ in THEOREMS[report["parameters"]["name"]].rows
                  if not exponential}
    for i, row in enumerate(report["verdicts"]["hypotheses"]):
        changes = [("deleted", None)]
        if row["name"] in polynomial or row["observed"].startswith("not evaluated"):
            changes += [("observed", row["observed"] + "!"), ("satisfied", not row["satisfied"])]
        for key, value in changes:
            doc = json.loads(json.dumps(report))
            rows = doc["verdicts"]["hypotheses"]
            if value is None:
                del rows[i]
            else:
                rows[i][key] = value
            yield f"{row['name']} {key}", _agreeing(doc)


def _golden_report(case: str) -> dict | None:
    return json.loads((GOLDEN_DIR / f"{case}.json").read_text())["report"]


@pytest.mark.parametrize("case", [case for case in sorted(CASES)
                                  if case.startswith("verify-") and _golden_report(case)])
def test_golden_row_tampers_fail(case):
    """Deleting any row of a ``verify-*`` golden, or changing what one of
    its derived rows observes or concludes, fails the recheck, even with
    the verdicts made to agree with the tampered rows."""
    tampers = list(row_tampers(_golden_report(case)))
    assert tampers
    for label, doc in tampers:
        assert recheck_report(doc), label


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_instances(Path(tmp))
        for case, argv in sorted(CASES.items()):
            got = run_case(argv, paths, Path(tmp) / "report.json")
            (GOLDEN_DIR / f"{case}.json").write_text(dumps_report(got))
            print(f"{case}: exit {got['exit']}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
