import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffactors.graph import (
    DegreeSpec,
    build_graph,
    complete_graph,
    components,
    disjoint_union,
    empty_graph,
    f_sum,
    is_connected,
    is_star_free,
    join,
    min_degree,
    petersen_graph,
    star,
)


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


class TestComponents:
    def test_complete(self):
        assert components(complete_graph(5)) == [(0, 1, 2, 3, 4)]

    def test_two_triangles(self):
        g = disjoint_union([complete_graph(3), complete_graph(3)])
        assert components(g) == [(0, 1, 2), (3, 4, 5)]

    def test_empty_graph_singletons(self):
        assert components(empty_graph(4)) == [(0,), (1,), (2,), (3,)]

    @given(graphs())
    def test_partition(self, g):
        comps = components(g)
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
        assert not is_connected(disjoint_union([complete_graph(3), complete_graph(3)]))

    def test_single_vertex_connected(self):
        assert is_connected(empty_graph(1))


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

    def test_degree_spec_bounds_enforced(self):
        with pytest.raises(ValueError, match="bounds"):
            DegreeSpec((1, 5), a=1, b=3)

    def test_degree_spec_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DegreeSpec((1, -1))
