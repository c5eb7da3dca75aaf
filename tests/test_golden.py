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
import sys
import tempfile
from pathlib import Path

import pytest

from ffactors import cli
from ffactors.reports import dumps_report, recheck_report, strip_timing

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
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
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
    """Every stored report that carries a certificate passes ``recheck``."""
    checked = []
    for case in sorted(CASES):
        report = json.loads((GOLDEN_DIR / f"{case}.json").read_text())["report"]
        if report and report["certificates"]:
            assert recheck_report(report) == [], case
            checked.append(case)
    assert {f"verify-ab_factor-{name}" for name in ("desk", "r12", "g1", "d14")} <= set(checked)


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
