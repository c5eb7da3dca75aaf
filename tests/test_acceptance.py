"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; pytest -v plus these lines
give the per-criterion ledger.  Corpora are seeded and the graph side of
the exhaustive checks is isomorphism-free (every graph on up to 6 vertices,
via the atlas); target functions at n = 6 are a seeded sample per graph to
keep the suite inside its runtime budget, and exhaustive below that.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    atlas_graphs,
    brute_force_f_factor,
    brute_maximum_matching_size,
    brute_min_deficiency,
    brute_stability,
    brute_vertex_connectivity,
    maximum_matching,
    seeded_corpus,
)
from ffactors.constructions import build_g1, g0_desk_instance
from ffactors.graph import DegreeSpec, components_masks, f_sum, _bits_of
from ffactors.instances import (
    random_connected_graph,
    random_degree_spec,
    random_graph,
    serialize_instance,
    parse_instance,
)
from ffactors.invariants import (
    is_t_odd_tough,
    odd_component_count,
    stability_number,
    toughness,
    odd_toughness,
    vertex_connectivity,
)
from ffactors.reports import recheck_report, strip_timing
from ffactors.solver import find_f_factor, verify_f_factor
from ffactors.tutte import SubsetPair, deficiency, find_violating_pair


def _all_even_specs(n: int, lo: int = 0, hi: int = 3):
    for values in product(range(lo, hi + 1), repeat=n):
        if sum(values) % 2 == 0:
            yield DegreeSpec(values)


def _sampled_even_specs(n: int, count: int, seed: int, lo: int = 0, hi: int = 3):
    rng = random.Random(seed)
    seen = set()
    tries = 0
    while len(seen) < count and tries < count * 30:
        tries += 1
        values = tuple(rng.randint(lo, hi) for _ in range(n))
        if sum(values) % 2 == 0:
            seen.add(values)
    return [DegreeSpec(v) for v in sorted(seen)]


def _triangle_check(g, f) -> bool:
    """Solver, edge-search oracle, derived pair and 3^n pair oracle agree on
    existence, and the derived pair's delta is the oracle's minimum."""
    fast = find_f_factor(g, f)
    slow = brute_force_f_factor(g, f, max_m=28)  # n <= 8 means m <= 28
    pair = find_violating_pair(g, f)
    least = brute_min_deficiency(g, f)
    if not ((fast is None) == (slow is None) == (pair is not None) == (least is not None)):
        return False
    if pair is not None and pair.delta != least.delta:
        return False
    if fast is not None and not verify_f_factor(g, f, fast):
        return False
    return True


def test_criterion_1_tutte_equivalence_triangle():
    checked = 0
    # every connected graph up to isomorphism, n <= 6
    for g in atlas_graphs(6, connected_only=True):
        if g.n <= 5:
            specs = list(_all_even_specs(g.n))
        else:
            specs = _sampled_even_specs(g.n, 48, seed=g.m * 131 + g.n)
        for f in specs:
            assert _triangle_check(g, f), (g.edges(), f.values)
            checked += 1
    # seeded random connected graphs, n <= 8
    rng = random.Random(4242)
    randoms = 0
    while randoms < 500:
        n = rng.randint(4, 8)
        g = random_connected_graph(n, rng.choice([0.3, 0.5, 0.8]),
                                   rng.randrange(2**31))
        f = DegreeSpec(tuple(rng.randint(0, 3) for _ in range(n)))
        if f.total() % 2:
            continue
        assert _triangle_check(g, f), (g.edges(), f.values)
        randoms += 1
        checked += 1
    print(f"ACCEPTANCE 1 PASS: Tutte equivalence triangle, "
          f"{checked} instances, 0 disagreements")


def test_criterion_2_parity_lemma():
    violations = 0
    checked = 0
    # exhaustive graphs n <= 6 up to isomorphism, sampled f, all 3^n pairs
    for g in atlas_graphs(6):
        n = g.n
        if n <= 3:
            specs = [DegreeSpec(v) for v in product(range(4), repeat=n)]
        else:
            rng = random.Random(n * 997 + g.m)
            specs = [DegreeSpec(tuple(rng.randint(0, 3) for _ in range(n)))
                     for _ in range(6)]
        full = g.full_mask
        for f in specs:
            parity = f.total() % 2
            for s_mask in range(full + 1):
                rest = full & ~s_mask
                t_mask = rest
                while True:
                    s = _bits_of(s_mask)
                    t = _bits_of(t_mask)
                    rep = deficiency(g, SubsetPair(s, t), f)
                    checked += 1
                    if rep.delta % 2 != parity:
                        violations += 1
                    if t_mask == 0:
                        break
                    t_mask = (t_mask - 1) & rest
    # random tuples
    rng = random.Random(777)
    for _ in range(10_000):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.random(), rng.randrange(2**31))
        f = DegreeSpec(tuple(rng.randint(0, 4) for _ in range(n)))
        s, t = [], []
        for v in range(n):
            r = rng.random()
            if r < 0.25:
                s.append(v)
            elif r < 0.5:
                t.append(v)
        rep = deficiency(g, SubsetPair.of(g, s, t), f)
        checked += 1
        if rep.delta % 2 != f.total() % 2:
            violations += 1
    assert violations == 0
    print(f"ACCEPTANCE 2 PASS: parity of delta(S,T) matches f(X) over "
          f"{checked} tuples, 0 violations")


def test_criterion_3_main_theorem_campaign():
    proc = subprocess.run(
        [sys.executable, "-m", "ffactors.cli", "fuzz", "main",
         "--trials", "500", "--seed", "42"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    verdicts = doc["verdicts"]
    assert verdicts["discrepancy_count"] == 0
    assert verdicts["hypotheses_met"] > 0
    assert verdicts["confirmed"] == verdicts["hypotheses_met"]
    print(f"ACCEPTANCE 3 PASS: fuzz main --trials 500 --seed 42: "
          f"{verdicts['hypotheses_met']} trials met hypotheses, "
          f"0 discrepancies")


def test_criterion_4_s_only_deficiency_under_odd_toughness():
    rng = random.Random(9090)
    checked_graphs = 0
    checked_subsets = 0
    for g in seeded_corpus(40, 3, 10, seed=9091):
        a, b = rng.choice([(1, 2), (1, 3), (2, 3)])
        try:
            f = random_degree_spec(g, a, b, rng.randrange(2**31))
        except ValueError:
            continue
        if not is_t_odd_tough(g, f, Fraction(1, a)):
            continue
        checked_graphs += 1
        fvals = f.values
        full = g.full_mask
        for s_mask in range(full + 1):
            rest = full & ~s_mask
            h = sum(
                1 for comp in components_masks(g, rest)
                if f_sum(f, _bits_of(comp)) % 2 == 1
            )
            delta = sum(fvals[v] for v in _bits_of(s_mask)) - h
            checked_subsets += 1
            assert delta >= 0, (g.edges(), f.values, _bits_of(s_mask))
    assert checked_graphs > 0
    print(f"ACCEPTANCE 4 PASS: delta(S, empty) >= 0 on {checked_graphs} "
          f"1/a-odd-tough graphs ({checked_subsets} subsets), 0 violations")


def test_criterion_5_odd_toughness_dominates_toughness():
    checked = 0
    rng = random.Random(5050)
    for g in seeded_corpus(30, 3, 10, seed=5051):
        if g.m == g.n * (g.n - 1) // 2:
            continue  # complete: no cutset
        f = DegreeSpec(tuple(rng.randint(0, 3) for _ in range(g.n)))
        full = g.full_mask
        for s_mask in range(1, full):
            comps = components_masks(g, full & ~s_mask)
            if len(comps) < 2:
                continue
            h_prime = sum(
                1 for comp in comps if f_sum(f, _bits_of(comp)) % 2 == 1
            )
            assert h_prime <= len(comps)
        t = toughness(g)
        ot = odd_toughness(g, f)
        assert ot.is_infinite or ot.ratio >= t.ratio
        checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 5 PASS: h'(G-S) <= c(G-S) and odd-toughness >= "
          f"toughness on {checked} graphs, 0 violations")


def test_criterion_6_g1_tightness_instance():
    built = build_g1(1, 3, 2, 5, 2)
    g, f = built.graph, built.spec
    assert g.n == 8
    assert stability_number(g)[0] == 2
    assert min(g.degree(v) for v in range(g.n)) == 5
    assert f.total() == 16 and f.total() % 2 == 0
    assert built.extras["threshold"] == 1 < 2
    assert find_f_factor(g, f) is None
    assert g.m == 24
    assert brute_force_f_factor(g, f) is None
    audit = find_violating_pair(g, f)
    assert audit.pair == SubsetPair(tuple(range(4)), tuple(range(4, 8)))
    assert audit.delta == -4
    print("ACCEPTANCE 6 PASS: join-family tightness instance "
          "(n=8, alpha=2, delta=5, f(X)=16, witness delta=-4)")


def test_criterion_7_g0_refutation_instance():
    built = g0_desk_instance()
    g, f = built.graph, built.spec
    a, k, p = (built.params[x] for x in ("a", "k", "p"))
    assert p > a * k
    assert f.total() % 2 == 0
    assert built.extras["stability_hypothesis_met"] is True
    assert stability_number(g)[0] == p
    # no factor, certified by the clique cutset with empty T
    assert find_f_factor(g, f) is None
    audit = find_violating_pair(g, f)
    assert audit is not None
    assert audit.pair.s == tuple(range(k)) and audit.pair.t == ()
    assert audit.delta == a * k - p < 0
    # odd-toughness sits below 1/a: the cutset S has h' = p odd components,
    # so odd-toughness <= k/p < 1/a, and the only failing main-theorem
    # hypothesis is the toughness one
    assert odd_component_count(g, range(k), f) == p
    assert Fraction(k, p) < Fraction(1, a)
    assert not is_t_odd_tough(g, f, Fraction(1, a))
    print(f"ACCEPTANCE 7 PASS: clique-cutset refutation instance "
          f"(a={a}, k={k}, p={p}): stability hypothesis met, no factor, "
          f"certificate delta={a * k - p}, odd-toughness <= {Fraction(k, p)} "
          f"< 1/{a}")


def test_criterion_8_invariant_oracles():
    alpha_checked = kappa_checked = matching_checked = 0
    for g in seeded_corpus(35, 3, 12, seed=8081):
        assert stability_number(g)[0] == brute_stability(g)
        alpha_checked += 1
        if g.n <= 10:
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)
            kappa_checked += 1
        if g.n <= 8:
            assert len(maximum_matching(g)) == brute_maximum_matching_size(g)
            matching_checked += 1
    assert kappa_checked > 0 and matching_checked > 0
    print(f"ACCEPTANCE 8 PASS: invariant oracles agree "
          f"(alpha {alpha_checked}, kappa {kappa_checked}, "
          f"matching {matching_checked} graphs), 0 disagreements")


def test_criterion_9_round_trip_and_certificate_laws(tmp_path):
    # parse . serialize identity on 100 random instances
    rng = random.Random(9999)
    for _ in range(100):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.random(), rng.randrange(2**31))
        f = DegreeSpec(tuple(rng.randint(0, 4) for _ in range(n)))
        text = serialize_instance(g, f)
        g2, f2 = parse_instance(text)
        assert serialize_instance(g2, f2) == text
    # every emitted certificate passes recheck; repeated runs give
    # byte-identical reports modulo timing
    inst = tmp_path / "g1.inst"
    built = build_g1(1, 3, 2, 5, 2)
    inst.write_text(serialize_instance(built.graph, built.spec))

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "ffactors.cli", *args],
            capture_output=True, text=True,
        )

    for command in (["solve", str(inst)], ["audit", str(inst)]):
        first = json.loads(run(command).stdout)
        second = json.loads(run(command).stdout)
        assert recheck_report(first) == []
        assert strip_timing(first) == strip_timing(second)
    print("ACCEPTANCE 9 PASS: round-trip identity (100 instances), "
          "certificates recheck, reports deterministic modulo timing")
