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
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ffactors import cli, theorems
from ffactors.graph import (
    DegreeSpec, build_graph, complete_graph, constant_spec, cycle, path, star,
)
from ffactors.instances import parse_instance, serialize_instance
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
            assert "cap 8" in err

    def test_negative_cap(self, tmp_path):
        g = cycle(6)
        inst = tmp_path / "c6.inst"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        for command in (["invariants", str(inst), "--odd-toughness"],
                        ["verify-theorem", "main", str(inst), "--a", "1", "--b", "2"]):
            code, err = run([*command, "--toughness-max-n", "-1"])
            assert_one_line_error(code, err)
            assert "--toughness-max-n" in err

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
    violating pair, a confirmed [1,2]-factor report, and a confirmed
    1-factor report of ``regular_connectivity``, whose recheck reads r from
    the report's parameters."""
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
        return {name: json.loads((tmp / f"{name}.json").read_text())
                for name in ("solve", "audit", "ab", "rc")}


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

    @pytest.mark.parametrize("key", ["a", "b", "edges"])
    def test_ab_factor_without_field(self, tmp_path, reports, key):
        del reports["ab"]["certificates"][0][key]
        code, err = self.recheck(tmp_path, reports["ab"])
        assert_one_line_error(code, err)
        assert repr(key) in err

    def test_ab_factor_mistyped_bound(self, tmp_path, reports):
        reports["ab"]["certificates"][0]["b"] = "2"
        assert_one_line_error(*self.recheck(tmp_path, reports["ab"]))


class TestRecheckABFactor:
    """A confirmed [a,b]-factor is checked against [a, b], not against the
    instance's f."""

    def recheck(self, tmp_path, doc) -> int:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(["recheck", str(path)])[0]

    def test_confirmed_factor_rechecks(self, tmp_path, reports):
        """The factor is stated once, as the certificate."""
        doc = reports["ab"]
        g, _ = parse_instance(doc["instance"])
        factor = theorems.check_theorem_ab_factor(g, 1, 2, confirm=True).factor
        assert doc["certificates"] == [{"type": "ab_factor", "a": 1, "b": 2,
                                        "edges": [list(e) for e in factor.edges]}]
        assert doc["verdicts"]["confirmation"] == "confirmed"
        assert "factor" not in doc["verdicts"]
        assert self.recheck(tmp_path, doc) == 0

    def test_dropped_edge_fails(self, tmp_path, reports):
        edges = reports["ab"]["certificates"][0]["edges"]
        for i in range(len(edges)):
            doc = copy.deepcopy(reports["ab"])
            del doc["certificates"][0]["edges"][i]
            assert self.recheck(tmp_path, doc) == 1

    def test_changed_bound_fails(self, tmp_path, reports):
        reports["ab"]["certificates"][0]["b"] = 3
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
    doc = copy.deepcopy(_base_reports()[draw(st.sampled_from(["solve", "audit", "ab", "rc"]))])
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
