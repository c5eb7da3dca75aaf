"""The CLI's exit-code contract at its input boundary: 0 or 1 for an answer,
2 with a one-line error for bad input, and never an escaping exception."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import inspect
import json
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_confirmed

from ffactors import cli, theorems
from ffactors.graph import (
    DegreeSpec, build_graph, complete_graph, constant_spec, cycle, path, star,
)
from ffactors.instances import (
    parse_instance, random_connected_graph, random_degree_spec, serialize_instance,
)
from ffactors.invariants import stability_number
from ffactors.reports import strip_timing


def run(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return the exit code and the error output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_one_line_error(code: int, err: str) -> None:
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


class TestToughnessCap:
    def test_cap_reaches_verify_theorem_main(self, tmp_path):
        # kappa = 2 and alpha = 6: the window holds more than 2^8 subsets
        g = cycle(12)
        inst = tmp_path / "c12.inst"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        argv = ["verify-theorem", "main", str(inst), "--a", "1", "--b", "2"]
        assert run(argv)[0] == 0
        for command in (argv, ["invariants", str(inst), "--odd-toughness"]):
            code, err = run([*command, "--toughness-max-n", "8"])
            assert_one_line_error(code, err)
            assert "cap 8" in err and "--toughness-max-n" in err

    def test_negative_cap(self, tmp_path):
        g = cycle(6)
        inst = tmp_path / "c6.inst"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        for command in (["invariants", str(inst), "--odd-toughness"],
                        ["verify-theorem", "main", str(inst), "--a", "1", "--b", "2"]):
            code, err = run([*command, "--toughness-max-n", "-1"])
            assert_one_line_error(code, err)
            assert "--toughness-max-n" in err

    def test_huge_cap_decides_as_the_default(self, tmp_path):
        # a cap above n counts as n: no 2^cap budget is built
        inst, out = tmp_path / "r10.inst", tmp_path / "report.json"
        assert run(["gen", "random", "--n", "10", "--p-edge", "0.6", "--a", "1", "--b", "2",
                    "--seed", "3", "--out", str(inst)])[0] == 0
        for command in (["invariants", str(inst), "--odd-toughness"],
                        ["verify-theorem", "main", str(inst), "--a", "1", "--b", "2"]):
            verdicts = []
            for cap in ([], ["--toughness-max-n", str(10**12)]):
                assert run([*command, *cap, "--out", str(out)]) == (0, "")
                verdicts.append(json.loads(out.read_text())["verdicts"])
            assert verdicts[0] == verdicts[1]
            assert "odd_toughness" in json.dumps(verdicts[0])

    def test_verify_theorem_main_decides_n60(self, tmp_path):
        inst, out = tmp_path / "r60.inst", tmp_path / "report.json"
        assert run(["gen", "random", "--n", "60", "--p-edge", "0.7", "--a", "1",
                    "--b", "2", "--seed", "1", "--out", str(inst)])[0] == 0
        argv = ["verify-theorem", "main", str(inst), "--a", "1", "--b", "2"]
        assert run([*argv, "--out", str(out)])[0] == 0
        verdicts = json.loads(out.read_text())["verdicts"]
        assert verdicts["hypotheses"][-1] == {
            "name": "odd_toughness", "observed": "odd-toughness >= 1/1", "satisfied": True}
        assert verdicts["prediction"] == "f-factor exists"


@pytest.mark.parametrize("flags", [["--trials", "-3"], ["--min-n", "5", "--max-n", "3"]])
def test_fuzz_rejects_empty_ranges(flags):
    code, err = run(["fuzz", "main", *flags])
    assert_one_line_error(code, err)
    assert flags[0] in err


class TestParserCache:
    def test_built_once(self, tmp_path, monkeypatch):
        inst, out = tmp_path / "c4.inst", tmp_path / "report.json"
        inst.write_text(serialize_instance(cycle(4), constant_spec(cycle(4), 2)))
        parsers = []
        build = cli.build_parser

        def recording():
            parsers.append(build())
            return parsers[-1]

        monkeypatch.setattr(cli, "build_parser", recording)
        assert run(["solve", str(inst), "--out", str(out)])[0] == 0
        assert run(["recheck", str(out)])[0] == 0
        assert run(["audit", str(inst), "--out", str(out)])[0] == 0
        assert len(parsers) == 3
        assert all(parser is parsers[0] for parser in parsers)


def test_environment_is_not_read(tmp_path, monkeypatch):
    """Variables that once set the caps change nothing."""
    monkeypatch.setenv("FFACTORS_TOUGHNESS_MAX_N", "8")
    monkeypatch.setenv("FFACTORS_AUDIT_MAX_N", "5")
    c12, r10, out = tmp_path / "c12.inst", tmp_path / "r10.inst", tmp_path / "report.json"
    c12.write_text(serialize_instance(cycle(12), constant_spec(cycle(12), 1)))
    assert run(["verify-theorem", "main", str(c12), "--a", "1", "--b", "2"]) == (0, "")
    assert run(["gen", "random", "--n", "10", "--seed", "3", "--out", str(r10)])[0] == 0
    assert run(["audit", str(r10), "--out", str(out)]) == (0, "")
    assert json.loads(out.read_text())["verdicts"]["mode"] == "exact"


def test_audit_with_huge_f(tmp_path):
    """The gadget does not grow with f: f = 2,000,000 on a path end."""
    g = path(3)
    inst, out = tmp_path / "p3.inst", tmp_path / "report.json"
    inst.write_text(serialize_instance(g, DegreeSpec((2_000_000, 1, 1))))
    started = time.perf_counter()
    assert run(["audit", str(inst), "--out", str(out)])[0] == 0
    assert time.perf_counter() - started < 1
    assert json.loads(out.read_text())["certificates"][0]["delta"] == -2_000_000
    assert run(["recheck", str(out)])[0] == 0


@pytest.mark.parametrize("a", ["0", "-1"])
def test_ab_factor_rejects_a_below_1(tmp_path, a):
    g = cycle(6)
    inst = tmp_path / "c6.inst"
    inst.write_text(serialize_instance(g, constant_spec(g, 1)))
    code, err = run(["verify-theorem", "ab_factor", str(inst), "--a", a, "--b", "2"])
    assert_one_line_error(code, err)
    assert "need 1 <= a < b" in err


def test_kappa_of_a_3000_vertex_path(tmp_path):
    g = path(3000)
    inst, out = tmp_path / "p3000.inst", tmp_path / "report.json"
    inst.write_text(serialize_instance(g, constant_spec(g, 1)))
    assert run(["invariants", str(inst), "--kappa", "--out", str(out)])[0] == 0
    assert json.loads(out.read_text())["verdicts"]["kappa"] == 1


def test_regular_connectivity_on_a_1500_vertex_cycle(tmp_path):
    """The connectivity row reads the exact kappa = 2 of cycle(1500) from
    one lowpoint search, in the check and again in its recheck."""
    g = cycle(1500)
    inst, out = tmp_path / "c1500.inst", tmp_path / "report.json"
    inst.write_text(serialize_instance(g, constant_spec(g, 1)))
    for argv in (["verify-theorem", "regular_connectivity", str(inst), "--r", "1",
                  "--confirm", "--out", str(out)], ["recheck", str(out)]):
        started = time.perf_counter()
        assert run(argv)[0] == 0
        assert time.perf_counter() - started < 1, argv[0]
    rows = json.loads(out.read_text())["verdicts"]["hypotheses"]
    assert rows[1] == {"name": "connectivity", "observed": "kappa=2 >= 2", "satisfied": True}


# runs the CLI in a fresh interpreter, then prints its exit code and its
# peak resident set in MB (ru_maxrss counts kilobytes on Linux)
_PEAK = ("import resource, sys; from ffactors.cli import main; code = main(sys.argv[1:]); "
         "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)")


@pytest.mark.parametrize("n, value, command", [
    (100_000, 2, "solve"), (99_999, 1, "audit"), (100_000, 2, "verify-theorem main --a 1 --b 3")])
def test_report_and_recheck_in_linear_memory(tmp_path, n, value, command):
    """A cycle near ``instances.MAX_N``: solve with f = 2, audit of the odd
    cycle with f = 1, or the main theorem with b = 3 above delta = 2, so
    that only its prologue rows run; then recheck of the report.  Each step
    peaks below 250 MB, where n-bit neighbour masks would take about 700 MB."""
    g = cycle(n)
    inst, out = tmp_path / "c.inst", tmp_path / "report.json"
    inst.write_text(serialize_instance(g, constant_spec(g, value)))
    for argv in ([*command.split(), str(inst), "--out", str(out)], ["recheck", str(out)]):
        proc = subprocess.run([sys.executable, "-c", _PEAK, *argv],
                              capture_output=True, text=True, check=True)
        code, peak_mb = map(int, proc.stdout.split()[-2:])
        assert code == 0 and peak_mb < 250, (argv[0], peak_mb)


def _alpha_verdicts(tmp_path, g) -> dict:
    inst, out = tmp_path / "g.inst", tmp_path / "report.json"
    inst.write_text(serialize_instance(g, constant_spec(g, 1)))
    assert run(["invariants", str(inst), "--alpha", "--out", str(out)])[0] == 0
    verdicts = json.loads(out.read_text())["verdicts"]
    witness = verdicts["alpha_witness"]
    assert len(witness) == verdicts["alpha"]
    assert not any(g.has_edge(u, v) for u in witness for v in witness)
    return verdicts


def test_alpha_of_a_3000_vertex_path(tmp_path):
    assert _alpha_verdicts(tmp_path, path(3000))["alpha"] == 1500


def test_alpha_of_a_3000_vertex_tree(tmp_path):
    rng = random.Random(7)
    parents = [rng.randrange(v) for v in range(1, 3000)]
    g = build_graph(3000, [(p, v) for v, p in enumerate(parents, 1)])
    # best independent set of each subtree with its root taken or left out;
    # every parent has a smaller index than its children
    taken, left = [1] * 3000, [0] * 3000
    for v in range(2999, 0, -1):
        p = parents[v - 1]
        taken[p] += left[v]
        left[p] += max(taken[v], left[v])
    assert _alpha_verdicts(tmp_path, g)["alpha"] == max(taken[0], left[0])


def test_alpha_search_does_not_recurse():
    g = complete_graph(60)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        assert stability_number(g)[0] == 1
    finally:
        sys.setrecursionlimit(limit)


@functools.cache
def _base_reports() -> dict[str, dict]:
    """A solve report with a factor certificate, an audit report with a
    violating pair, a confirmed [1,2]-factor report, a confirmed 1-factor
    report of ``regular_connectivity``, and a confirmed ``main`` report on
    K6, whose exponential rows run; the ``ab`` and ``rc`` ones
    are rechecked against the bounds (a and b, or r) in their parameters."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        c4 = tmp / "c4.inst"
        c4.write_text(serialize_instance(cycle(4), constant_spec(cycle(4), 2)))
        claw = tmp / "claw.inst"
        claw.write_text(serialize_instance(star(3), constant_spec(star(3), 1)))
        r8 = tmp / "r8.inst"
        assert run(["gen", "random", "--n", "8", "--p-edge", "0.6", "--a", "1", "--b", "3",
                    "--seed", "2", "--out", str(r8)])[0] == 0
        k6 = tmp / "k6.inst"
        k6.write_text(serialize_instance(complete_graph(6), constant_spec(complete_graph(6), 2)))
        assert run(["solve", str(c4), "--out", str(tmp / "solve.json")])[0] == 0
        assert run(["audit", str(claw), "--out", str(tmp / "audit.json")])[0] == 0
        assert run(["verify-theorem", "ab_factor", str(r8), "--a", "1", "--b", "2",
                    "--confirm", "--out", str(tmp / "ab.json")])[0] == 0
        assert run(["verify-theorem", "regular_connectivity", str(k6), "--r", "1",
                    "--confirm", "--out", str(tmp / "rc.json")])[0] == 0
        assert run(["verify-theorem", "main", str(k6), "--a", "1", "--b", "2",
                    "--confirm", "--out", str(tmp / "main.json")])[0] == 0
        return {name: json.loads((tmp / f"{name}.json").read_text())
                for name in ("solve", "audit", "ab", "rc", "main")}


@pytest.fixture
def reports():
    return copy.deepcopy(_base_reports())


class TestRecheckMalformed:
    def recheck(self, tmp_path, doc) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])

    def test_factor_without_edges(self, tmp_path, reports):
        del reports["solve"]["certificates"][0]["edges"]
        code, err = self.recheck(tmp_path, reports["solve"])
        assert_one_line_error(code, err)
        assert "'edges'" in err

    @pytest.mark.parametrize("key", ["s", "t", "delta"])
    def test_pair_without_field(self, tmp_path, reports, key):
        del reports["audit"]["certificates"][0][key]
        code, err = self.recheck(tmp_path, reports["audit"])
        assert_one_line_error(code, err)
        assert repr(key) in err

    @pytest.mark.parametrize("cert", [[1, 2], "factor", 7, None])
    def test_certificate_not_an_object(self, tmp_path, reports, cert):
        reports["solve"]["certificates"][0] = cert
        assert_one_line_error(*self.recheck(tmp_path, reports["solve"]))

    @pytest.mark.parametrize("doc", [[], "report", 3, {"certificates": {}}])
    def test_report_not_an_object(self, tmp_path, doc):
        assert_one_line_error(*self.recheck(tmp_path, doc))

    def test_mistyped_edges(self, tmp_path, reports):
        reports["solve"]["certificates"][0]["edges"] = [5, 6]
        assert_one_line_error(*self.recheck(tmp_path, reports["solve"]))

    def test_well_formed_but_wrong_exits_1(self, tmp_path, reports):
        reports["solve"]["certificates"][0]["edges"].pop()
        assert self.recheck(tmp_path, reports["solve"])[0] == 1
        reports["audit"]["certificates"][0]["delta"] += 1
        assert self.recheck(tmp_path, reports["audit"])[0] == 1

    def test_repeated_edge_exits_1(self, tmp_path):
        """K2 with f = 2 has no factor; its one edge listed twice, once each
        way, passes every degree check and fails only as a repeat."""
        inst, out = tmp_path / "k2.inst", tmp_path / "solve.json"
        inst.write_text(serialize_instance(complete_graph(2), constant_spec(complete_graph(2), 2)))
        assert run(["solve", str(inst), "--out", str(out)])[0] == 1
        doc = json.loads(out.read_text())
        doc["verdicts"]["factor_exists"] = True
        doc["certificates"] = [{"type": "factor", "edges": [[0, 1], [1, 0]]}]
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and "not the claimed factor" in err

    def test_boolean_vertex_exits_2(self, tmp_path):
        """JSON true is not the vertex 1: the one edge of K2, f = 1, written
        as [true, 0]."""
        k2 = complete_graph(2)
        inst, out = tmp_path / "k2.inst", tmp_path / "solve.json"
        inst.write_text(serialize_instance(k2, constant_spec(k2, 1)))
        assert run(["solve", str(inst), "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert self.recheck(tmp_path, doc)[0] == 0
        doc["certificates"][0]["edges"] = [[True, 0]]
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert "'edges'" in err

    def test_boolean_r_exits_2(self, tmp_path, reports):
        """JSON true is not r = 1, even where the prediction is worded from it."""
        doc = reports["rc"]
        assert (doc["parameters"]["r"], doc["verdicts"]["prediction"]) == (1, "1-factor exists")
        doc["parameters"]["r"] = True
        doc["verdicts"]["prediction"] = "True-factor exists"
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert "'r'" in err

    def test_boolean_pair_term_exits_2(self, tmp_path, reports):
        cert = reports["audit"]["certificates"][0]
        key = next(key for key in ("f_s", "f_t", "degree_term", "h") if cert[key] in (0, 1))
        cert[key] = bool(cert[key])
        code, err = self.recheck(tmp_path, reports["audit"])
        assert_one_line_error(code, err)
        assert repr(key) in err

    def test_tampered_digest_exits_1(self, tmp_path, reports):
        reports["solve"]["instance_digest"] = "0" * 64
        code, err = self.recheck(tmp_path, reports["solve"])
        assert code == 1 and "instance digest does not match embedded instance" in err

    def test_reordered_instance_text_exits_1(self, tmp_path, reports):
        # the same instance, but not the text that the digest was taken of
        lines = reports["solve"]["instance"].split("\n")
        assert lines[1].startswith("e ") and lines[2].startswith("e ")
        lines[1], lines[2] = lines[2], lines[1]
        reports["solve"]["instance"] = "\n".join(lines)
        code, err = self.recheck(tmp_path, reports["solve"])
        assert code == 1 and "instance digest does not match embedded instance" in err

    def test_instance_not_a_string(self, tmp_path, reports):
        reports["solve"]["instance"] = 5
        code, err = self.recheck(tmp_path, reports["solve"])
        assert_one_line_error(code, err)
        assert "embedded instance" in err

    def test_no_embedded_instance_exits_1(self, tmp_path, reports):
        reports["solve"]["instance"] = None
        code, err = self.recheck(tmp_path, reports["solve"])
        assert code == 1 and "no embedded instance" in err

    @pytest.mark.parametrize("key", ["a", "b", "edges"])
    def test_ab_factor_without_field(self, tmp_path, reports, key):
        # the bounds come from the report's parameters, the edges from the
        # certificate
        doc = reports["ab"]
        del (doc["certificates"][0] if key == "edges" else doc["parameters"])[key]
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert repr(key) in err

    def test_ab_factor_mistyped_bound(self, tmp_path, reports):
        reports["ab"]["parameters"]["b"] = "2"
        assert_one_line_error(*self.recheck(tmp_path, reports["ab"]))

    @pytest.mark.parametrize("name", ["nonsense", ["main"], None, 3])
    def test_unknown_theorem_name(self, tmp_path, reports, name):
        """The theorem id decides the factor's bounds, so a report whose id
        is unknown, or not a string at all, is malformed."""
        reports["ab"]["parameters"]["name"] = name
        code, err = self.recheck(tmp_path, reports["ab"])
        assert_one_line_error(code, err)
        assert "'name'" in err

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"a": ' * 100_000 + "1" + "}" * 100_000],
                             ids=["lists", "objects"])
    def test_deeply_nested_json(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert_one_line_error(*run(["recheck", str(path)]))


class TestRecheckABFactor:
    """A confirmed [a,b]-factor is checked against the report's [a, b], not
    against the instance's f."""

    def recheck(self, tmp_path, doc) -> int:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])[0]

    def test_confirmed_factor_rechecks(self, tmp_path, reports):
        """The factor is stated once, as the certificate."""
        doc = reports["ab"]
        g, _ = parse_instance(doc["instance"])
        factor = run_confirmed("ab_factor", g, a=1, b=2).factor
        assert doc["certificates"] == [{"type": "factor",
                                        "edges": [list(e) for e in factor.edges]}]
        assert doc["verdicts"]["confirmation"] == "confirmed"
        assert "factor" not in doc["verdicts"]
        assert self.recheck(tmp_path, doc) == 0

    def test_dropped_edge_fails(self, tmp_path, reports):
        """Dropping an edge at a vertex of degree a = 1 leaves it below a."""
        edges = reports["ab"]["certificates"][0]["edges"]
        degree = Counter(v for edge in edges for v in edge)
        needed = [i for i, (u, v) in enumerate(edges) if 1 in (degree[u], degree[v])]
        assert needed
        for i in needed:
            doc = copy.deepcopy(reports["ab"])
            del doc["certificates"][0]["edges"][i]
            assert self.recheck(tmp_path, doc) == 1

    def test_changed_bound_fails(self, tmp_path, reports):
        # the [1,2]-factor has a vertex of degree 1, below a = 2
        edges = reports["ab"]["certificates"][0]["edges"]
        assert 1 in [sum(v in edge for edge in edges) for pair in edges for v in pair]
        reports["ab"]["parameters"]["a"] = 2
        assert self.recheck(tmp_path, reports["ab"]) == 1


class TestRecheckVerdicts:
    """A report's verdict claims a factor or a violating pair exactly when
    it carries a certificate for one."""

    # each base report's claimed verdict, and a value that does not claim it
    CLAIMS = {"solve": ("factor_exists", False), "audit": ("violating_pair_found", False),
              "ab": ("confirmation", "refuted"), "rc": ("confirmation", None)}

    def recheck(self, tmp_path, doc) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_claim_without_certificate_fails(self, tmp_path, reports, name):
        assert self.recheck(tmp_path, reports[name])[0] == 0
        reports[name]["certificates"] = []
        code, err = self.recheck(tmp_path, reports[name])
        assert code == 1 and self.CLAIMS[name][0] in err

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_certificate_without_claim_fails(self, tmp_path, reports, name):
        key, other = self.CLAIMS[name]
        reports[name]["verdicts"][key] = other
        code, err = self.recheck(tmp_path, reports[name])
        assert code == 1 and key in err

    @pytest.mark.parametrize("verdicts", [[], "confirmed", None, 1])
    @pytest.mark.parametrize("name", ["solve", "audit", "ab"])
    def test_mistyped_verdicts(self, tmp_path, reports, name, verdicts):
        reports[name]["verdicts"] = verdicts
        code, err = self.recheck(tmp_path, reports[name])
        assert_one_line_error(code, err)
        assert "'verdicts'" in err


class TestRecheckTheoremVerdicts:
    """A verify-theorem report's verdicts follow from its hypothesis rows:
    the hypotheses are met iff every row is satisfied, a prediction is made
    iff they are met, and only a met prediction is confirmed."""

    @pytest.fixture
    def k6(self, tmp_path) -> dict:
        """The confirmed 2-factor report of ``main`` on K6 with a = 1, b = 2."""
        g = complete_graph(6)
        inst, out = tmp_path / "k6.inst", tmp_path / "k6.json"
        inst.write_text(serialize_instance(g, constant_spec(g, 2)))
        assert run(["verify-theorem", "main", str(inst), "--a", "1", "--b", "2", "--confirm",
                    "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["hypotheses_met"] is True
        assert doc["verdicts"]["confirmation"] == "confirmed"
        return doc

    def recheck(self, tmp_path, doc) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])

    def test_untampered_rechecks(self, tmp_path, k6):
        assert self.recheck(tmp_path, k6)[0] == 0

    def test_unmet_rows_with_a_confirmation(self, tmp_path, k6):
        """Every row, the met flag and the prediction say "not met", but the
        report still says "confirmed" and carries the factor."""
        verdicts = k6["verdicts"]
        for row in verdicts["hypotheses"]:
            row["satisfied"] = False
        verdicts["hypotheses_met"] = False
        verdicts["prediction"] = "no prediction"
        code, err = self.recheck(tmp_path, k6)
        assert code == 1 and "confirmation" in err

    def test_met_flag_against_rows(self, tmp_path, k6):
        k6["verdicts"]["hypotheses_met"] = False
        code, err = self.recheck(tmp_path, k6)
        assert code == 1 and "hypotheses_met" in err

    def test_prediction_against_rows(self, tmp_path, k6):
        k6["verdicts"]["prediction"] = "no prediction"
        code, err = self.recheck(tmp_path, k6)
        assert code == 1 and "prediction" in err

    def test_one_unsatisfied_row(self, tmp_path, k6):
        k6["verdicts"]["hypotheses"][-1]["satisfied"] = False
        code, err = self.recheck(tmp_path, k6)
        assert code == 1
        assert all(key in err for key in ("hypotheses_met", "prediction", "confirmation"))

    def test_prediction_against_theorem(self, tmp_path, k6):
        """A met ``main`` prediction is an f-factor, whatever the rows say."""
        k6["verdicts"]["prediction"] = "5-factor exists"
        code, err = self.recheck(tmp_path, k6)
        assert code == 1
        assert 'verdicts.prediction="5-factor exists" does not match "f-factor exists"' in err

    def test_prediction_against_bounds(self, tmp_path):
        """An unconfirmed K4 ``ab_factor`` report carries no factor, yet its
        prediction must name the [a,b]-factor of its parameters, and
        unreadable bounds make it malformed."""
        g = complete_graph(4)
        inst, out = tmp_path / "k4.inst", tmp_path / "k4.json"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        assert run(["verify-theorem", "ab_factor", str(inst), "--a", "1", "--b", "2",
                    "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["prediction"] == "[1,2]-factor exists"
        assert doc["certificates"] == [] and self.recheck(tmp_path, doc)[0] == 0
        doc["parameters"]["b"] = 3
        code, err = self.recheck(tmp_path, doc)
        assert code == 1
        assert ('verdicts.prediction="[1,2]-factor exists" does not match '
                '"[1,3]-factor exists"') in err
        doc["parameters"]["b"] = "2"
        assert_one_line_error(*self.recheck(tmp_path, doc))

    def test_theorem_against_parameters(self, tmp_path):
        """The K4 ``ab_factor`` report relabelled as ``main``, with a
        prediction of that shape, no longer rechecks."""
        g = complete_graph(4)
        inst, out = tmp_path / "k4.inst", tmp_path / "k4.json"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        assert run(["verify-theorem", "ab_factor", str(inst), "--a", "1", "--b", "2",
                    "--confirm", "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert self.recheck(tmp_path, doc)[0] == 0
        doc["verdicts"].update(theorem="main", prediction="[1,9]-factor exists")
        code, err = self.recheck(tmp_path, doc)
        assert code == 1
        assert 'verdicts.theorem="main" does not match "ab_factor"' in err

    def test_row_key_order_is_free(self, tmp_path, k6):
        row = k6["verdicts"]["hypotheses"][0]
        k6["verdicts"]["hypotheses"][0] = dict(reversed(row.items()))
        assert self.recheck(tmp_path, k6)[0] == 0

    def test_unmet_report_rechecks(self, tmp_path, k6):
        """A consistent report whose hypotheses fail, with no confirmation
        and no factor, still rechecks.  The failed row is the exponential
        stability row, which recheck takes from the report."""
        verdicts = k6["verdicts"]
        stability = next(row for row in verdicts["hypotheses"] if row["name"] == "stability")
        stability["satisfied"] = False
        verdicts.update(hypotheses_met=False, prediction="no prediction", confirmation=None)
        k6["certificates"] = []
        assert self.recheck(tmp_path, k6)[0] == 0

    @pytest.mark.parametrize("tamper", ["no rows", "connected dropped", "observed rewritten"])
    def test_rows_against_the_table(self, tmp_path, k6, tamper):
        """The rows are the theorem's own: none may be missing, and what a
        polynomial row observes is recomputed."""
        rows = k6["verdicts"]["hypotheses"]
        if tamper == "no rows":
            rows.clear()
        elif tamper == "connected dropped":
            rows.remove(next(row for row in rows if row["name"] == "connected"))
        else:
            for row in rows:
                row["observed"] = "alpha=0 <= 9"
        code, err = self.recheck(tmp_path, k6)
        assert code == 1 and "verdicts.hypotheses=" in err

    def test_parameter_outside_the_domain(self, tmp_path, reports):
        """A report outside its theorem's domain, which verify-theorem
        refuses, fails the recheck with one line naming the domain."""
        reports["rc"]["parameters"]["r"] = 2
        code, err = self.recheck(tmp_path, reports["rc"])
        assert code == 1 and "parameters: need odd r >= 1" in err

    @pytest.mark.parametrize("key, value", [("star_order", "3"), ("a", None), ("b", False)])
    def test_mistyped_parameter(self, tmp_path, k6, key, value):
        """a, b, r and star_order must be integers for every theorem."""
        k6["parameters"][key] = value
        code, err = self.recheck(tmp_path, k6)
        assert_one_line_error(code, err)
        assert repr(key) in err

    @pytest.mark.parametrize("rows", [
        None, "rows", [1], [{"satisfied": 1}], [{}],
        [{"name": "connected", "observed": "n=6", "satisfied": True, "note": "x"}],
        [{"name": ["connected"], "observed": "n=6", "satisfied": True}],
        [{"name": "connected", "observed": 6, "satisfied": True}],
    ])
    def test_malformed_rows(self, tmp_path, k6, rows):
        if rows is None:
            del k6["verdicts"]["hypotheses"]
        else:
            k6["verdicts"]["hypotheses"] = rows
        code, err = self.recheck(tmp_path, k6)
        assert_one_line_error(code, err)
        assert "'hypotheses'" in err

    def test_confirm_parameter(self, tmp_path, k6):
        """Only a report run with --confirm states a confirmation."""
        k6["parameters"]["confirm"] = False
        code, err = self.recheck(tmp_path, k6)
        assert code == 1
        assert 'verdicts.confirmation="confirmed" does not match null' in err

    def test_met_prediction_left_unconfirmed(self, tmp_path, k6):
        """With --confirm, a met prediction without a factor is refuted."""
        k6["verdicts"]["confirmation"] = None
        k6["certificates"] = []
        code, err = self.recheck(tmp_path, k6)
        assert code == 1 and 'verdicts.confirmation=null does not match "refuted"' in err


class TestRecheckDerivesVerdicts:
    """``recheck`` re-derives a report's whole verdict object, so changing
    any one verdict key, or the parameter that decides a confirmation, fails
    the report."""

    VALUES = [None, True, False, 0, 1, "x", [], {}]

    @staticmethod
    def _targets() -> list[tuple[str, str, str]]:
        out = []
        for name, doc in _base_reports().items():
            out += [(name, "verdicts", key) for key in doc["verdicts"] if key != "hypotheses"]
            if doc["command"] == "verify-theorem":
                out.append((name, "parameters", "confirm"))
        return out

    @pytest.mark.parametrize("name, section, key", _targets())
    def test_single_key_tamper_fails(self, tmp_path, reports, name, section, key):
        doc, path = reports[name], tmp_path / "doc.json"
        own = json.dumps(doc[section][key])
        for value in self.VALUES:
            if json.dumps(value) == own:
                continue
            doc[section][key] = value
            path.write_text(json.dumps(doc))
            code, err = run(["recheck", str(path)])
            assert code == 1 or (code == 2 and err.count("\n") == 1), (value, code, err)

    def k4_audit(self, tmp_path) -> tuple[Path, dict]:
        """K4 with f = 1 has a perfect matching, so its audit finds no pair."""
        g = complete_graph(4)
        inst, out = tmp_path / "k4.inst", tmp_path / "audit.json"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        assert run(["audit", str(inst), "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert doc["certificates"] == [] and run(["recheck", str(out)])[0] == 0
        return out, doc

    @pytest.mark.parametrize("key, value", [("conclusion", "f-factor does not exist"),
                                            ("violating_pair_found", 0)])
    def test_audit_claim_without_pair(self, tmp_path, key, value):
        out, doc = self.k4_audit(tmp_path)
        doc["verdicts"][key] = value
        out.write_text(json.dumps(doc))
        code, err = run(["recheck", str(out)])
        assert code == 1 and err.count("\n") == 1 and f"verdicts.{key}={json.dumps(value)}" in err

    def test_verdicts_need_an_instance(self, tmp_path):
        out, doc = self.k4_audit(tmp_path)
        doc["instance"] = None
        out.write_text(json.dumps(doc))
        code, err = run(["recheck", str(out)])
        assert code == 1 and "no embedded instance" in err


class TestRecheckCertificateKinds:
    """A report carries at most one certificate, of the one kind its command
    may carry: a factor for solve and verify-theorem, a pair for audit and
    gen, none for invariants and fuzz.  Any other command is malformed."""

    def recheck(self, tmp_path, doc) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])

    def k4_solve(self, tmp_path) -> dict:
        """K4 with f = 1: a solve report carrying a perfect matching."""
        g = complete_graph(4)
        inst, out = tmp_path / "k4.inst", tmp_path / "solve.json"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        assert run(["solve", str(inst), "--out", str(out)])[0] == 0
        return json.loads(out.read_text())

    def test_relabelled_report_fails(self, tmp_path):
        doc = self.k4_solve(tmp_path)
        doc["command"] = "invariants"
        doc["verdicts"]["factor_exists"] = False
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1 and "'factor'" in err

    @pytest.mark.parametrize("command", ["solve-g1", None, ["solve"], 1])
    def test_command_outside_the_table(self, tmp_path, command):
        doc = self.k4_solve(tmp_path)
        doc["command"] = command
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert "'command'" in err

    @pytest.mark.parametrize("name", ["solve", "audit"])
    def test_repeated_certificate_fails(self, tmp_path, reports, name):
        doc = reports[name]
        doc["certificates"] *= 2
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1 and "at most one" in err

    def test_foreign_pair_in_a_theorem_report(self, tmp_path, reports):
        claw = tmp_path / "claw.inst"
        claw.write_text(serialize_instance(star(3), constant_spec(star(3), 1)))
        out = tmp_path / "main.json"
        assert run(["verify-theorem", "main", str(claw), "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert doc["certificates"] == [] and self.recheck(tmp_path, doc)[0] == 0
        doc["certificates"] += reports["audit"]["certificates"]
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1 and "'violating_pair'" in err


class TestRecheckAlphaWitness:
    """An ``invariants`` report's alpha witness must be an independent set
    of alpha vertices: a wrong one fails (exit 1), and one that is not a
    list of the instance's vertices is malformed (exit 2)."""

    def recheck(self, tmp_path, doc) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])

    def g14(self, tmp_path) -> tuple[dict, tuple[int, int]]:
        """An ``invariants --alpha --kappa`` report on G(14, .4), and an edge."""
        g = random_connected_graph(14, 0.4, 1)
        inst, out = tmp_path / "g14.inst", tmp_path / "inv.json"
        inst.write_text(serialize_instance(g, random_degree_spec(g, 1, 3, 2)))
        assert run(["invariants", str(inst), "--alpha", "--kappa", "--out", str(out)])[0] == 0
        return json.loads(out.read_text()), g.edges()[0]

    def test_untampered_rechecks(self, tmp_path):
        doc, _ = self.g14(tmp_path)
        assert self.recheck(tmp_path, doc) == (0, "")

    def test_adjacent_witness_exits_1(self, tmp_path):
        doc, edge = self.g14(tmp_path)
        doc["verdicts"].update(alpha=1, alpha_witness=list(edge))
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and "adjacent" in err

    def test_repeated_vertex_exits_1(self, tmp_path):
        doc, _ = self.g14(tmp_path)
        witness = doc["verdicts"]["alpha_witness"]
        doc["verdicts"].update(alpha=len(witness) + 1, alpha_witness=witness + witness[:1])
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1 and "repeats" in err

    def test_short_witness_exits_1(self, tmp_path):
        doc, _ = self.g14(tmp_path)
        doc["verdicts"]["alpha"] += 1
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1 and "verdicts.alpha=" in err

    @pytest.mark.parametrize("key, value", [
        ("alpha_witness", [14]), ("alpha_witness", [-1]), ("alpha_witness", [True]),
        ("alpha_witness", None), ("alpha", "1"), ("alpha", True),
    ])
    def test_malformed_witness_exits_2(self, tmp_path, key, value):
        doc, _ = self.g14(tmp_path)
        doc["verdicts"][key] = value
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert "'alpha_witness'" in err

    def test_verdicts_not_an_object(self, tmp_path):
        doc, _ = self.g14(tmp_path)
        doc["verdicts"] = [doc["verdicts"]]
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert "'verdicts'" in err


class TestRecheckKappa:
    """An ``invariants`` report's kappa is recomputed capped at its value
    + 1: any other value fails (exit 1), and one that is not a nonnegative
    integer is malformed (exit 2).  The G(14, .4) report has kappa = 2."""

    recheck = TestRecheckAlphaWitness.recheck
    g14 = TestRecheckAlphaWitness.g14

    @pytest.mark.parametrize("kappa", [99, 3, 1, 0])
    def test_wrong_kappa_exits_1(self, tmp_path, kappa):
        doc, _ = self.g14(tmp_path)
        assert doc["verdicts"]["kappa"] == 2
        doc["verdicts"]["kappa"] = kappa
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1 and f"verdicts.kappa={kappa} " in err

    @pytest.mark.parametrize("kappa", [True, "2", 2.0, -1])
    def test_malformed_kappa_exits_2(self, tmp_path, kappa):
        doc, _ = self.g14(tmp_path)
        doc["verdicts"]["kappa"] = kappa
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert "'kappa'" in err


class TestRecheckInvariants:
    """An ``invariants`` report's n and m must be the instance's, and each
    (odd-)toughness value must be "infinity" with a null witness, or a
    fraction that its witness cutset S attains exactly as |S| / c(G - S)
    or |S| / h'(G - S).  The report carries no alpha, which these checks
    do not need."""

    def recheck(self, tmp_path, doc) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])

    def g12(self, tmp_path) -> dict:
        """An ``invariants --toughness --odd-toughness`` report on G(12, .4):
        toughness 6/5 and odd-toughness 4/3, and vertex 0 is no cut vertex."""
        g = random_connected_graph(12, 0.4, 1)
        inst, out = tmp_path / "g12.inst", tmp_path / "inv.json"
        inst.write_text(serialize_instance(g, random_degree_spec(g, 1, 3, 2)))
        assert run(["invariants", str(inst), "--toughness", "--odd-toughness",
                    "--out", str(out)])[0] == 0
        doc = json.loads(out.read_text())
        assert (doc["verdicts"]["toughness"], doc["verdicts"]["odd_toughness"]) == ("6/5", "4/3")
        return doc

    def test_untampered_rechecks(self, tmp_path):
        assert self.recheck(tmp_path, self.g12(tmp_path)) == (0, "")

    @pytest.mark.parametrize("key, value", [
        ("n", 99), ("m", 1), ("toughness", "1/100"), ("odd_toughness_witness", [0]),
        ("toughness_witness", None), ("odd_toughness", "infinity"),
        ("toughness_witness", [1, 1, 4, 5, 6, 8]),
    ])
    def test_single_tamper_exits_1(self, tmp_path, key, value):
        doc = self.g12(tmp_path)
        doc["verdicts"][key] = value
        code, err = self.recheck(tmp_path, doc)
        assert code == 1 and err.count("\n") == 1
        assert f"verdicts.{key.removesuffix('_witness')}" in err

    @pytest.mark.parametrize("key, value", [
        ("toughness", 1), ("toughness", "abc"), ("odd_toughness", "1/0"),
        ("toughness_witness", "0"), ("odd_toughness_witness", [12]),
        ("odd_toughness_witness", [True]),
    ])
    def test_malformed_value_exits_2(self, tmp_path, key, value):
        doc = self.g12(tmp_path)
        doc["verdicts"][key] = value
        code, err = self.recheck(tmp_path, doc)
        assert_one_line_error(code, err)
        assert f"'{key.removesuffix('_witness')}'" in err


def test_no_odd_f_vertex_gives_infinite_odd_toughness_at_once(tmp_path):
    """With f = 2 everywhere no component of G - S has an odd f-sum, so
    odd-toughness is infinity without a scan, even on cycle(400), whose
    window would hold far more than 2^20 subsets."""
    g = cycle(400)
    inst, out = tmp_path / "c400.inst", tmp_path / "inv.json"
    inst.write_text(serialize_instance(g, constant_spec(g, 2)))
    started = time.monotonic()
    assert run(["invariants", str(inst), "--odd-toughness", "--out", str(out)]) == (0, "")
    assert time.monotonic() - started < 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert (verdicts["odd_toughness"], verdicts["odd_toughness_witness"]) == ("infinity", None)
    assert run(["recheck", str(out)]) == (0, "")


def gen_desk_report(tmp_path, *extra: str) -> tuple[Path, dict]:
    """Write the g0 desk instance's gen --report; return its path and document."""
    report = tmp_path / "gen.json"
    assert run(["gen", "g0", "--a", "2", "--b", "3", "--k", "1", "--delta", "12",
                "--p", "4", "--out", str(tmp_path / "desk.inst"),
                "--report", str(report), *extra])[0] == 0
    return report, json.loads(report.read_text())


@pytest.mark.parametrize("key, value", [("delta", 5), ("s", []), ("t", [1])])
def test_gen_witness_is_rechecked(tmp_path, key, value):
    """gen --report carries the g0 desk instance's witness pair as a
    certificate, so recheck catches a tampered one."""
    report, doc = gen_desk_report(tmp_path)
    assert doc["parameters"]["nonexistence_reason"] == "deficiency"
    (cert,) = doc["certificates"]
    assert (cert["type"], cert["s"], cert["t"], cert["delta"]) == ("violating_pair", [0], [], -2)
    assert run(["recheck", str(report)])[0] == 0
    cert[key] = value
    report.write_text(json.dumps(doc))
    assert run(["recheck", str(report)])[0] == 1


def test_declared_n_past_the_cap(tmp_path):
    """A declared n past the cap of 100,000 vertices is refused before
    anything is built: in an instance file, and in a report's embedded
    instance.  n at the cap still parses."""
    assert parse_instance("p ffactor 100000 0\ndefault-f 0\n")[0].n == 100_000
    text = "p ffactor 100001 0\ndefault-f 0\n"
    inst = tmp_path / "big.inst"
    inst.write_text(text)
    code, err = run(["solve", str(inst)])
    assert_one_line_error(code, err)
    assert "line 1" in err
    report, doc = gen_desk_report(tmp_path)
    doc["instance"] = text
    report.write_text(json.dumps(doc))
    code, err = run(["recheck", str(report)])
    assert_one_line_error(code, err)
    assert "line 1" in err


@pytest.mark.parametrize("argv, n", [
    (["g1", "--a", "1", "--b", "3", "--r", "1", "--delta", "1", "--alpha", "100000"], 100_001),
    (["g0", "--a", "1", "--b", "3", "--k", "1", "--delta", "100000", "--p", "2"], 200_003),
    (["random", "--n", "100001"], 100_001),
])
def test_gen_refuses_n_past_the_cap(tmp_path, argv, n):
    """gen refuses a family whose n would pass the cap of 100,000 vertices
    before it builds anything, so it writes no instance that parse_instance
    would refuse."""
    out = tmp_path / "big.inst"
    started = time.monotonic()
    code, err = run(["gen", *argv, "--out", str(out)])
    assert time.monotonic() - started < 1
    assert_one_line_error(code, err)
    assert f"n={n}" in err and "100000" in err and not out.exists()


@pytest.mark.parametrize("argv, m", [
    (["g0", "--a", "1", "--b", "3", "--k", "1", "--delta", "49998", "--p", "2"], 2_499_900_002),
    (["g0", "--a", "1", "--b", "3", "--k", "1", "--delta", "708", "--p", "2"], 502_682),
    (["g1", "--a", "1", "--b", "3", "--r", "1", "--delta", "1000", "--alpha", "2"], 501_500),
])
def test_gen_refuses_m_past_the_cap(tmp_path, argv, m):
    """gen refuses a family member with more than 500,000 edges, K_50,000
    among them, before it builds anything; n is far below its own cap."""
    out = tmp_path / "big.inst"
    started = time.monotonic()
    code, err = run(["gen", *argv, "--out", str(out)])
    assert time.monotonic() - started < 1
    assert_one_line_error(code, err)
    assert f"m={m}" in err and "500000" in err and not out.exists()


@pytest.mark.parametrize("tamper", ["drop certificate", "drop reason"])
def test_gen_reason_matches_witness(tmp_path, tamper):
    """A gen report gives "deficiency" as its nonexistence reason exactly
    when it carries the witness pair."""
    report, doc = gen_desk_report(tmp_path)
    if tamper == "drop certificate":
        doc["certificates"] = []
    else:
        doc["parameters"]["nonexistence_reason"] = None
        doc["parameters"]["expected_existence"] = None
    report.write_text(json.dumps(doc))
    code, err = run(["recheck", str(report)])
    assert code == 1 and "nonexistence_reason" in err


def test_gen_family_report_has_no_seed(tmp_path):
    """g0 uses no randomness, so its report records no seed and does not
    change with --seed."""
    _, doc0 = gen_desk_report(tmp_path, "--seed", "0")
    _, doc5 = gen_desk_report(tmp_path, "--seed", "5")
    assert doc0["seed"] is None
    assert strip_timing(doc0) == strip_timing(doc5)


@pytest.mark.parametrize("command", ["verify-theorem", "fuzz"])
def test_help_lists_every_theorem(command, capsys):
    """Both commands that take a theorem id list each id with its summary."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(theorems.THEOREMS) == 7
    for name, theorem in theorems.THEOREMS.items():
        assert any(line.split() == [name, *theorem.summary.split()] for line in lines), name


def test_fuzz_discrepancy_exits_1(tmp_path, monkeypatch):
    """A met prediction that the solver refutes is a discrepancy: fuzz
    exits 1 and records the trial's seed and a reproducible instance."""
    monkeypatch.setattr(theorems, "find_factor", lambda g, lo, hi: None)
    out = tmp_path / "fuzz.json"
    assert run(["fuzz", "main", "--trials", "10", "--seed", "7", "--out", str(out)])[0] == 1
    verdicts = json.loads(out.read_text())["verdicts"]
    assert verdicts["hypotheses_met"] == verdicts["discrepancy_count"] == 2
    assert verdicts["confirmed"] == 0
    for record in verdicts["discrepancies"]:
        assert set(record) == {"index", "seed", "instance"}
        assert record["seed"] == 7 * 1_000_003 + record["index"]
        assert serialize_instance(*parse_instance(record["instance"])) == record["instance"]


@pytest.mark.parametrize("name, n, f, cert", [
    # all six edges of K4: a 3-factor, not the [1,2]-factor that is predicted
    ("ab_factor", 4, 3,
     {"type": "factor", "edges": [list(e) for e in complete_graph(4).edges()]}),
    # a perfect matching of K6, not the 2-factor that is predicted
    ("main", 6, 2,
     {"type": "ab_factor", "a": 1, "b": 2, "edges": [[0, 1], [2, 3], [4, 5]]}),
])
def test_certificate_is_the_predicted_factor(tmp_path, name, n, f, cert):
    """A verify-theorem factor is checked against the factor that the
    report's theorem predicts, whatever kind or bounds the certificate
    names.  Each tampered certificate is a factor of the instance, but not
    the predicted one."""
    g = complete_graph(n)
    inst, out = tmp_path / "k.inst", tmp_path / "report.json"
    inst.write_text(serialize_instance(g, constant_spec(g, f)))
    assert run(["verify-theorem", name, str(inst), "--a", "1", "--b", "2", "--confirm",
                "--out", str(out)])[0] == 0
    doc = json.loads(out.read_text())
    assert doc["verdicts"]["confirmation"] == "confirmed"
    assert run(["recheck", str(out)])[0] == 0
    doc["certificates"] = [cert]
    out.write_text(json.dumps(doc))
    assert run(["recheck", str(out)])[0] == 1


def test_regular_connectivity_factor_rechecks_against_r(tmp_path, reports):
    """The checker's factor is an r-factor; the instance's f is 2."""
    doc = reports["rc"]
    assert doc["verdicts"]["confirmation"] == "confirmed"
    out = tmp_path / "doc.json"
    for r, code in ((1, 0), (3, 1), ("1", 2)):
        doc["parameters"]["r"] = r
        out.write_text(json.dumps(doc))
        assert run(["recheck", str(out)])[0] == code


# Property: mutated input of any shape ends in 0, 1 or 2.

TOKENS = st.sampled_from(
    ["p", "ffactor", "e", "f", "default-f", "c", "x", "1.5", "-1", ""]
    + [str(k) for k in range(13)]
)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)


@st.composite
def instance_texts(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    g = build_graph(n, edges)
    values = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    lines = serialize_instance(g, constant_spec(g, 0)).splitlines()[:-n]
    lines += [f"f {v} {value}" for v, value in enumerate(values)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "duplicate"]))
        if op == "insert" or not lines[i:]:
            lines.insert(i, draw(LINES))
        elif op == "delete":
            del lines[i]
        elif op == "replace":
            lines[i] = draw(LINES)
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_reports(draw):
    doc = copy.deepcopy(_base_reports()[draw(st.sampled_from(sorted(_base_reports())))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        elif path[-1] == "instance":
            parent["instance"] = draw(instance_texts())
        else:
            parent[path[-1]] = value
    return doc


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(instance_texts())
def test_solve_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.inst"
        path.write_text(text)
        code, err = run(["solve", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_line_error(code, err)


@FUZZ
@given(mutated_reports())
def test_recheck_exit_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        code, err = run(["recheck", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_line_error(code, err)
