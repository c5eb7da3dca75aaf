"""The CLI's exit-code contract at its input boundary: 0 or 1 for an answer,
2 with a one-line error for bad input, and never an escaping exception."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ffactors import cli
from ffactors.graph import build_graph, complete_graph, constant_spec, cycle, star
from ffactors.instances import serialize_instance


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
    def test_cap_reaches_verify_theorem_main(self, tmp_path, monkeypatch):
        g = complete_graph(10)
        inst = tmp_path / "k10.inst"
        inst.write_text(serialize_instance(g, constant_spec(g, 1)))
        argv = ["verify-theorem", "main", str(inst), "--a", "1", "--b", "2"]
        monkeypatch.delenv("FFACTORS_TOUGHNESS_MAX_N", raising=False)
        assert run(argv)[0] == 0
        monkeypatch.setenv("FFACTORS_TOUGHNESS_MAX_N", "8")
        for command in (argv, ["invariants", str(inst), "--odd-toughness"]):
            code, err = run(command)
            assert_one_line_error(code, err)
            assert "cap 8" in err


@functools.cache
def _base_reports() -> dict[str, dict]:
    """A solve report with a factor certificate and an audit report with a
    violating pair."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        c4 = tmp / "c4.inst"
        c4.write_text(serialize_instance(cycle(4), constant_spec(cycle(4), 2)))
        claw = tmp / "claw.inst"
        claw.write_text(serialize_instance(star(3), constant_spec(star(3), 1)))
        assert run(["solve", str(c4), "--out", str(tmp / "solve.json")])[0] == 0
        assert run(["audit", str(claw), "--out", str(tmp / "audit.json")])[0] == 0
        return {name: json.loads((tmp / f"{name}.json").read_text())
                for name in ("solve", "audit")}


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
    doc = copy.deepcopy(_base_reports()[draw(st.sampled_from(["solve", "audit"]))])
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
