import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atlas_graphs, f_sum
from ffactors.graph import (
    DegreeSpec,
    _bits_of,
    build_graph,
    complete_graph,
    components_masks,
    constant_spec,
    cycle,
    disjoint_union,
    empty_graph,
    is_star_free,
    join,
    min_degree,
    petersen_graph,
    star,
)
from ffactors.instances import random_connected_graph, random_degree_spec, serialize_instance
from ffactors.invariants import (
    find_small_odd_tough_violation,
    is_t_odd_tough,
    odd_component_count,
    odd_toughness,
    vertex_connectivity,
)
from ffactors.solver import find_f_factor
from ffactors.theorems import check_main_theorem
from ffactors.tutte import deficiency, find_violating_pair


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs))) if all_pairs else []
    return build_graph(n, edges)


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.m == 1
        assert g.adj == ((1,), (0,))

    def test_duplicates_and_reversals_collapse(self):
        g = build_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert g.adj == ((1, 3), (0, 2), (1, 3), (0, 2))

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(2, [(0, 5)])

    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    @given(graphs())
    def test_symmetry_no_loops(self, g):
        for v in range(g.n):
            assert v not in g.adj[v]
            for u in g.adj[v]:
                assert v in g.adj[u]


def partition(g):
    """The components of g as vertex tuples, by smallest vertex."""
    return [_bits_of(c) for c in components_masks(g, g.full_mask)]


class TestComponents:
    def test_complete(self):
        assert partition(complete_graph(5)) == [(0, 1, 2, 3, 4)]

    def test_two_triangles(self):
        g = disjoint_union([complete_graph(3), complete_graph(3)])
        assert partition(g) == [(0, 1, 2), (3, 4, 5)]

    def test_empty_graph_singletons(self):
        assert partition(empty_graph(4)) == [(0,), (1,), (2,), (3,)]

    @given(graphs())
    def test_partition(self, g):
        comps = partition(g)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == list(range(g.n))


class TestFSum:
    def test_constant(self):
        f = DegreeSpec((1, 1, 1, 1))
        assert f_sum(f, range(4)) == 4

    def test_empty(self):
        assert f_sum(DegreeSpec((3, 3, 3)), []) == 0

    def test_arithmetic(self):
        assert f_sum(DegreeSpec((1, 2, 3)), [0, 2]) == 4

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
           st.data())
    def test_additive_over_disjoint(self, values, data):
        f = DegreeSpec(tuple(values))
        idx = list(range(len(values)))
        a = data.draw(st.sets(st.sampled_from(idx)))
        b = data.draw(st.sets(st.sampled_from(idx))) - a
        assert f_sum(f, a | b) == f_sum(f, a) + f_sum(f, b)


class TestDegreeHelpers:
    def test_petersen_min_degree(self):
        assert min_degree(petersen_graph()) == 3

    def test_disconnected(self):
        assert not disjoint_union([complete_graph(3), complete_graph(3)]).connected

    def test_single_vertex_connected(self):
        assert empty_graph(1).connected


class TestAdjacencyListsOnly:
    """The polynomial routines, and a theorem prologue whose exponential
    rows are not evaluated, never build the n-bit ``Graph.adj_masks``."""

    @pytest.mark.parametrize("call", [
        lambda g, f: g.connected,
        lambda g, f: odd_component_count(g, [0, 1], f),
        lambda g, f: deficiency(g, [0], [2, 3], f),
        lambda g, f: find_f_factor(g, f),
        lambda g, f: find_violating_pair(g, f),
        lambda g, f: vertex_connectivity(g),
    ], ids=["is_connected", "odd_component_count", "deficiency", "find_f_factor",
            "find_violating_pair", "vertex_connectivity"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polynomial_routines(self, call, seed):
        # seeds 1 and 2 have no f-factor, the 2-factor of cycle(30) exists;
        # kappa reads delta <= 2 (1 on seeds 1 and 2) without a flow
        g = random_connected_graph(30, 0.15, seed) if seed else cycle(30)
        call(g, random_degree_spec(g, 1, 3, seed) if seed else constant_spec(g, 2))
        assert "adj_masks" not in vars(g)

    def test_main_theorem_prologue(self):
        g = cycle(100)  # delta = 2 < b = 3
        report = check_main_theorem(g, constant_spec(g, 2), 1, 3)
        assert [h.satisfied for h in report.hypotheses][:4] == [True, True, True, False]
        assert "adj_masks" not in vars(g)


class TestStarFree:
    def test_clique(self):
        assert is_star_free(complete_graph(5), 3)

    def test_claw_itself(self):
        assert not is_star_free(star(3), 3)

    def test_petersen_has_claw(self):
        # girth 5 with degree 3: any vertex's neighborhood is independent
        assert not is_star_free(petersen_graph(), 3)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            is_star_free(complete_graph(3), 1)

    def test_matches_neighbourhood_enumeration(self):
        for g in atlas_graphs(7):
            for k in (2, 3, 4):
                star_found = any(
                    not any(g.has_edge(u, w) for u, w in combinations(leaves, 2))
                    for v in range(g.n) for leaves in combinations(g.adj[v], k)
                )
                assert is_star_free(g, k) == (not star_found)

    def test_stops_at_the_star_order(self):
        # the hub has 40 independent neighbours; the search must stop at 3
        # of them instead of proving that 40 is the most
        code = (
            "from ffactors.graph import complete_graph, disjoint_union, is_star_free, join\n"
            "g = join(complete_graph(1), disjoint_union([complete_graph(3)] * 40))\n"
            "assert not is_star_free(g, 3)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr


class TestBuilders:
    def test_join_makes_star(self):
        g = join(complete_graph(1), empty_graph(3))
        assert g.adj == ((1, 2, 3), (0,), (0,), (0,))

    def test_disjoint_union_counts(self):
        g = disjoint_union([complete_graph(3), complete_graph(3)])
        assert g.n == 6 and g.m == 6

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=30)
    def test_join_edge_count(self, g1, g2):
        assert join(g1, g2).m == g1.m + g2.m + g1.n * g2.n

    def test_degree_spec_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DegreeSpec((1, -1))


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("entry", [
    lambda g, f: deficiency(g, [0], [1], f),
    find_violating_pair,
    odd_toughness,
    lambda g, f: is_t_odd_tough(g, f, 1),
    lambda g, f: find_small_odd_tough_violation(g, f, 2),
    lambda g, f: check_main_theorem(g, f, 1, 2),
    find_f_factor,
    serialize_instance,
], ids=["deficiency", "find_violating_pair", "odd_toughness", "is_t_odd_tough",
        "find_small_odd_tough_violation", "check_main_theorem", "find_f_factor",
        "serialize_instance"])
def test_degree_spec_of_the_wrong_length(entry, extra):
    """Every entry point that takes f refuses one value too few or too many
    with the same message, instead of an IndexError or a silent answer."""
    g = cycle(4)
    with pytest.raises(ValueError, match="degree spec length mismatch"):
        entry(g, DegreeSpec((2,) * (g.n + extra)))
