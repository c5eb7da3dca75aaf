from fractions import Fraction

import pytest

from conftest import brute_stability, brute_vertex_connectivity, seeded_corpus
from ffactors.graph import (
    DegreeSpec,
    build_graph,
    complete_graph,
    constant_spec,
    cycle,
    disjoint_union,
    petersen_graph,
    star,
)
from ffactors.invariants import (
    is_t_odd_tough,
    odd_component_count,
    odd_toughness,
    stability_number,
    toughness,
    vertex_connectivity,
)
from ffactors.constructions import g0_desk_instance


class TestStabilityNumber:
    def test_clique(self):
        assert stability_number(complete_graph(6))[0] == 1

    def test_odd_cycle(self):
        assert stability_number(cycle(5))[0] == 2

    def test_empty(self):
        assert stability_number(build_graph(0, []))[0] == 0

    def test_witness_is_independent(self):
        g = petersen_graph()
        size, witness = stability_number(g)
        assert size == 4
        assert len(witness) == size
        for u in witness:
            for v in witness:
                assert u == v or not g.has_edge(u, v)

    def test_g0_desk_alpha(self):
        built = g0_desk_instance()
        assert stability_number(built.graph)[0] == built.expected_alpha

    def test_matches_enumeration(self):
        for g in seeded_corpus(40, 3, 10, seed=11):
            assert stability_number(g)[0] == brute_stability(g)


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(complete_graph(5)) == 4

    def test_cycle(self):
        assert vertex_connectivity(cycle(6)) == 2

    def test_star_cutvertex(self):
        assert vertex_connectivity(star(3)) == 1

    def test_disconnected(self):
        assert vertex_connectivity(disjoint_union([complete_graph(3)] * 2)) == 0

    def test_matches_separator_search(self):
        for g in seeded_corpus(30, 3, 9, seed=13):
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)


class TestOddComponentCount:
    def test_star_center(self):
        g = star(3)
        assert odd_component_count(g, [0], constant_spec(g, 1)) == 3

    def test_even_whole(self):
        g = cycle(4)
        assert odd_component_count(g, [], constant_spec(g, 2)) == 0

    def test_g0_cutset(self):
        built = g0_desk_instance()
        k, p = built.params["k"], built.params["p"]
        assert odd_component_count(
            built.graph, range(k), built.spec
        ) == p

    def test_empty_cut_parity(self):
        # number of odd components has the parity of f(X)
        for g in seeded_corpus(20, 2, 8, seed=17):
            f = DegreeSpec(tuple((v * 7 + 3) % 4 for v in range(g.n)))
            h = odd_component_count(g, [], f)
            assert h % 2 == f.total() % 2


class TestOddToughness:
    def test_complete_infinite(self):
        g = complete_graph(5)
        value = odd_toughness(g, constant_spec(g, 1))
        assert value.is_infinite

    def test_claw(self):
        g = star(3)
        value = odd_toughness(g, constant_spec(g, 1))
        assert value.ratio == Fraction(1, 3)
        assert value.witness == (0,)

    def test_witness_recheckable(self):
        for g in seeded_corpus(15, 4, 8, seed=19):
            f = constant_spec(g, 1)
            value = odd_toughness(g, f)
            if value.ratio is not None:
                h = odd_component_count(g, value.witness, f)
                assert Fraction(len(value.witness), h) == value.ratio

    def test_size_cap(self):
        built = g0_desk_instance()
        with pytest.raises(ValueError, match="cap"):
            odd_toughness(built.graph, built.spec)

    def test_disconnected_rejected(self):
        g = disjoint_union([complete_graph(3)] * 2)
        with pytest.raises(ValueError, match="connected"):
            odd_toughness(g, constant_spec(g, 1))


class TestIsTOddTough:
    def test_infinite_beats_everything(self):
        g = complete_graph(5)
        assert is_t_odd_tough(g, constant_spec(g, 1), 1)

    def test_boundary(self):
        g = star(3)
        assert is_t_odd_tough(g, constant_spec(g, 1), Fraction(1, 3))

    def test_above_boundary(self):
        g = star(3)
        assert not is_t_odd_tough(g, constant_spec(g, 1), Fraction(1, 2))

    def test_zero_always_true(self):
        g = star(3)
        assert is_t_odd_tough(g, constant_spec(g, 1), 0)

    def test_large_graph_with_bad_cutset(self):
        # small-cutset scan decides without full enumeration
        built = g0_desk_instance()
        a = built.params["a"]
        assert not is_t_odd_tough(built.graph, built.spec, Fraction(1, a))

    def test_agrees_with_odd_toughness(self):
        for g in seeded_corpus(20, 4, 9, seed=29):
            f = DegreeSpec(tuple((v % 3) + 1 for v in range(g.n)))
            value = odd_toughness(g, f)
            for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, 2):
                assert is_t_odd_tough(g, f, t) == value.at_least(t)

    def test_above_cap_without_small_violation_refuses(self):
        g = complete_graph(10)
        with pytest.raises(ValueError, match="cap 8"):
            is_t_odd_tough(g, constant_spec(g, 1), 1, max_n=8)


class TestToughness:
    def test_cycle(self):
        assert toughness(cycle(6)).ratio == 1

    def test_star(self):
        assert toughness(star(3)).ratio == Fraction(1, 3)

    def test_complete(self):
        assert toughness(complete_graph(4)).is_infinite

    def test_odd_toughness_dominates(self):
        # h'(G-S) <= c(G-S) for every cutset, so odd-toughness >= toughness
        for g in seeded_corpus(15, 4, 8, seed=23):
            if g.m == g.n * (g.n - 1) // 2:
                continue
            f = DegreeSpec(tuple((v % 3) + 1 for v in range(g.n)))
            t = toughness(g)
            ot = odd_toughness(g, f)
            assert ot.is_infinite or (not t.is_infinite and ot.ratio >= t.ratio)
