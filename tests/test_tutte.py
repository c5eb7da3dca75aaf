import random
from fractions import Fraction

import pytest

from conftest import seeded_corpus
from ffactors.graph import (
    DegreeSpec,
    complete_graph,
    constant_spec,
    cycle,
)
from ffactors.instances import random_graph
from ffactors.invariants import is_t_odd_tough
from ffactors.tutte import (
    SubsetPair,
    deficiency,
    find_violating_pair,
)
from ffactors.constructions import build_g1, g0_desk_instance


def random_pair(g, rng):
    s, t = [], []
    for v in range(g.n):
        r = rng.random()
        if r < 0.25:
            s.append(v)
        elif r < 0.5:
            t.append(v)
    return SubsetPair.of(g, s, t)


class TestSubsetPair:
    def test_disjointness_enforced(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="disjoint"):
            SubsetPair.of(g, [0, 1], [1, 2])


class TestOddComponentsST:
    def test_k2_even(self):
        g = complete_graph(2)
        assert deficiency(g, SubsetPair.of(g, [], []), constant_spec(g, 1)).h == 0

    def test_k4_single_even_component(self):
        g = complete_graph(4)
        # K3 component: f(C) + e(C,T) = 3 + 3 = 6, even
        assert deficiency(g, SubsetPair.of(g, [], [3]), constant_spec(g, 1)).h == 0

    def test_g1_everything_removed(self):
        built = build_g1(1, 3, 2, 5, 2)
        pair = built.witness_pair
        assert deficiency(built.graph, pair, built.spec).h == 0


class TestDeficiency:
    def test_k2_zero(self):
        g = complete_graph(2)
        assert deficiency(g, SubsetPair.of(g, [], []), constant_spec(g, 1)).delta == 0

    def test_k4_hand_evaluation(self):
        g = complete_graph(4)
        rep = deficiency(g, SubsetPair.of(g, [], [3]), constant_spec(g, 1))
        assert (rep.f_s, rep.f_t, rep.degree_term, rep.h) == (0, 1, 3, 0)
        assert rep.delta == 2

    def test_g1_witness_terms(self):
        built = build_g1(1, 3, 2, 5, 2)
        rep = deficiency(built.graph, built.witness_pair, built.spec)
        assert (rep.f_s, rep.f_t, rep.degree_term, rep.h) == (4, 12, 4, 0)
        assert rep.delta == -4

    def test_empty_pair_is_minus_h(self):
        for g in seeded_corpus(10, 3, 7, seed=5):
            f = DegreeSpec(tuple(v % 3 for v in range(g.n)))
            rep = deficiency(g, SubsetPair.of(g, [], []), f)
            assert rep.delta == -rep.h
            if f.total() % 2 == 0:
                assert rep.h == 0 or rep.h % 2 == 0

    def test_parity_matches_f_total(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.random(), rng.randrange(10**6))
            f = DegreeSpec(tuple(rng.randint(0, 4) for _ in range(n)))
            pair = random_pair(g, rng)
            rep = deficiency(g, pair, f)
            assert rep.delta % 2 == f.total() % 2


class TestFindViolatingPair:
    def test_cycle_two_factor_clean(self):
        g = cycle(4)
        assert find_violating_pair(g, constant_spec(g, 2)) is None

    def test_g1_minimal_pair(self):
        built = build_g1(1, 3, 2, 5, 2)
        rep = find_violating_pair(built.graph, built.spec)
        assert rep.delta == -4
        assert rep.pair == built.witness_pair

    def test_g0_heuristic_finds_cut(self):
        built = g0_desk_instance()
        rep = find_violating_pair(built.graph, built.spec, seed=1)
        a, k, p = (built.params[x] for x in ("a", "k", "p"))
        assert rep is not None
        assert rep.pair.s == tuple(range(k)) and rep.pair.t == ()
        assert rep.delta == a * k - p

    def test_exact_cap(self):
        # enumeration up to the cap, heuristic above it, which misses the
        # g1 witness that enumeration finds
        built = build_g1(1, 3, 2, 5, 2)
        g, f = built.graph, built.spec
        assert find_violating_pair(g, f, exact_max_n=g.n).pair == built.witness_pair
        assert find_violating_pair(g, f, exact_max_n=g.n - 1) is None


class TestEmptyTLemma:
    def test_odd_tough_implies_no_s_only_violation(self):
        # with f(X) even and odd-toughness >= 1/a, delta(S, empty) >= 0 always
        rng = random.Random(31)
        checked = 0
        for g in seeded_corpus(25, 3, 9, seed=37):
            a, b = rng.choice([(1, 2), (1, 3), (2, 3)])
            f = DegreeSpec(tuple(rng.randint(a, b) for _ in range(g.n)))
            if f.total() % 2:
                continue
            if not is_t_odd_tough(g, f, Fraction(1, a)):
                continue
            checked += 1
            for s_mask in range(1 << g.n):
                s = [v for v in range(g.n) if s_mask >> v & 1]
                rep = deficiency(g, SubsetPair.of(g, s, []), f)
                assert rep.delta >= 0, (g.edges(), f.values, s)
        assert checked > 0
