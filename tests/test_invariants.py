import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil

import networkx as nx
import pytest

from conftest import (
    atlas_graphs,
    brute_local_connectivity,
    brute_min_ratio,
    brute_stability,
    brute_vertex_connectivity,
    plain_max_independent,
    seeded_corpus,
)
from ffactors import invariants
from ffactors.graph import (
    DegreeSpec,
    _bits_of,
    _max_independent,
    build_graph,
    complete_graph,
    components_masks,
    constant_spec,
    cycle,
    disjoint_union,
    empty_graph,
    is_connected,
    min_degree,
    petersen_graph,
    star,
)
from ffactors.instances import random_connected_graph, random_degree_spec
from ffactors.invariants import (
    _vertex_disjoint_paths,
    is_t_odd_tough,
    odd_component_count,
    odd_toughness,
    stability_number,
    toughness,
    vertex_connectivity,
)
from ffactors.constructions import g0_desk_instance
from ffactors.tutte import deficiency


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

    def test_matches_enumeration_on_sparse_graphs(self, small_atlas):
        # vertices of degree <= 1 are common here, so the forced move runs
        rng = random.Random(12)
        sparse = []
        for _ in range(40):
            n, p = rng.randint(1, 14), rng.choice([0.05, 0.1, 0.15, 0.2])
            sparse.append(build_graph(n, [e for e in combinations(range(n), 2)
                                          if rng.random() < p]))
        for g in small_atlas + sparse:
            size, witness = stability_number(g)
            assert size == len(witness) == brute_stability(g)
            assert not any(g.has_edge(u, v) for u, v in combinations(witness, 2))


def _alpha_corpus():
    """Connected atlas graphs with n <= 7 and seeded graphs with n <= 45 and
    p from .05 to .7, disconnected ones included."""
    rng = random.Random(41)
    graphs = atlas_graphs(7, connected_only=True)
    for p in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7):
        for _ in range(12):
            n = rng.randint(8, 45)
            graphs.append(build_graph(n, [e for e in combinations(range(n), 2)
                                          if rng.random() < p]))
    return graphs


class TestCliqueCoverBound:
    """The cover bound against the branch and bound without it: identical
    size and witness mask."""

    def test_matches_plain_search(self):
        for g in _alpha_corpus():
            assert _max_independent(g, g.full_mask) == plain_max_independent(g, g.full_mask)

    def test_matches_plain_search_in_target_mode(self):
        for g in _alpha_corpus()[::3]:
            for v in range(g.n):
                for target in (2, 3, 4):
                    avail = g.adj_masks[v]
                    assert (_max_independent(g, avail, target)
                            == plain_max_independent(g, avail, target))

    @pytest.mark.parametrize("build, alpha, mask", [
        (lambda: disjoint_union([complete_graph(3)] * 40), 40, None),
        (lambda: g0_desk_instance().graph, 4, 2199291723777),
        (lambda: random_connected_graph(100, 0.1, 1), None, None),
    ], ids=["40-triangles", "g0-desk", "G(100,.1)"])
    def test_scale(self, build, alpha, mask):
        g = build()
        started = time.perf_counter()
        size, chosen = _max_independent(g, g.full_mask)
        assert time.perf_counter() - started < 1
        assert size == chosen.bit_count()
        assert alpha is None or size == alpha
        assert mask is None or chosen == mask


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(complete_graph(5)) == 4

    def test_cycle(self):
        assert vertex_connectivity(cycle(6)) == 2

    @pytest.mark.parametrize("cap", [None, 0, 1, 3, 10])
    def test_complete_graphs_and_the_null_graph(self, cap):
        """K_n has no non-adjacent pair, so kappa is min(n - 1, cap) without a
        flow; K_1 gives 0, and the null graph is not connected."""
        for n in range(1, 9):
            want = n - 1 if cap is None else min(n - 1, cap)
            assert vertex_connectivity(complete_graph(n), cap) == want
        assert vertex_connectivity(empty_graph(0), cap) == 0

    def test_star_cutvertex(self):
        assert vertex_connectivity(star(3)) == 1

    def test_disconnected(self):
        assert vertex_connectivity(disjoint_union([complete_graph(3)] * 2)) == 0

    def test_matches_separator_search(self):
        for g in seeded_corpus(30, 3, 9, seed=13):
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_matches_separator_search_on_atlas(self, small_atlas):
        for g in small_atlas:
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_min_degree_vertex_in_every_minimum_separator(self):
        # vertex 0 (degree 4) joined to two vertices of each of two K6: only
        # {0} separates, and every flow from vertex 0 alone is 2, so only a
        # pair of its neighbours reaches kappa = 1
        k6 = complete_graph(6)
        twins = disjoint_union([k6, k6])
        g = build_graph(13, [(u + 1, v + 1) for u, v in twins.edges()]
                        + [(0, 1), (0, 2), (0, 7), (0, 8)])
        assert vertex_connectivity(g) == brute_vertex_connectivity(g) == 1

    def test_flow_count_within_bound(self, monkeypatch):
        calls = []
        flow = invariants._vertex_disjoint_paths

        def counted(*args):
            calls.append(args)
            return flow(*args)

        monkeypatch.setattr(invariants, "_vertex_disjoint_paths", counted)
        g = random_connected_graph(40, 0.3, 17)
        d = min_degree(g)
        assert vertex_connectivity(g) >= 1
        assert 0 < len(calls) <= (g.n - 1 - d) + d * (d - 1) // 2


    def test_cap_on_atlas(self, small_atlas):
        for g in small_atlas:
            kappa = brute_vertex_connectivity(g)
            for cap in range(g.n + 1):
                assert vertex_connectivity(g, cap) == min(kappa, cap)

    def test_flows_match_local_oracle(self, small_atlas):
        # kappa is a minimum over pairs, so an overcount on any other pair
        # would not show in it: check every non-adjacent pair at every cap
        # the residual phase augments in 2 flows of the atlas and seed 31,
        # and in 17 more on seed 7's graphs of 10-12 vertices
        for g in (small_atlas + seeded_corpus(30, 3, 9, seed=31)
                  + seeded_corpus(30, 10, 12, seed=7)):
            for s, t in combinations(range(g.n), 2):
                if g.has_edge(s, t):
                    continue
                local = brute_local_connectivity(g, s, t)
                for cap in range(g.n + 1):
                    assert _vertex_disjoint_paths(g.adj_masks, s, t, cap) == min(local, cap)

    # the shortest path 0-1-3-5 leaves 2 without a way to 5; the two
    # disjoint paths are 0-1-4-5 and 0-2-3-5
    GADGET = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)]
    # s=0, t=1, x=2, w=3, y=4, z1=5, z2=6, c1=7, c2=8, u1-u4=9-12, v1-v3=13-15:
    # greedy takes s-x-w-y-t, the first augmentation (s-z1-z2-y-w-x-c1-c2-t)
    # cancels both of w's flow edges, and the second (s-u1-...-u4-w-v1-v2-v3-t)
    # routes through w, so w must be free again once both are cancelled
    CANCELLED = [(0, 2), (0, 5), (0, 9), (2, 3), (3, 4), (4, 1), (5, 6), (6, 4), (2, 7),
                 (7, 8), (8, 1), (9, 10), (10, 11), (11, 12), (12, 3), (3, 13), (13, 14),
                 (14, 15), (15, 1)]

    @pytest.mark.parametrize("n, edges, t, paths", [
        (6, GADGET, 5, 2),
        # twice over a shared s = 0 and t = 5 (1-4 copied to 6-9): greedy
        # finds 2 of the 4 paths and the residual phase must augment twice
        (10, GADGET + [tuple(v if v in (0, 5) else v + 5 for v in e) for e in GADGET], 5, 4),
        (16, CANCELLED, 1, 3),
    ], ids=["once", "twice", "cancelled"])
    def test_flow_reroutes_a_stranding_greedy_path(self, n, edges, t, paths):
        """Each augmentation reroutes a greedy path; a vertex whose two flow
        edges are both cancelled becomes free."""
        g = build_graph(n, edges)
        assert brute_local_connectivity(g, 0, t) == paths
        for cap in (paths, g.n):
            assert _vertex_disjoint_paths(g.adj_masks, 0, t, cap) == paths

    def test_flow_frees_a_greedy_path_vertex(self):
        # greedy takes 5-0-1-3-8; the two disjoint paths 5-2-6-3-8 and
        # 5-0-7-9-8 drop 1 from the flow, so the augmentation must step from
        # 1 left back to 1 entered
        g = build_graph(10, [(0, 1), (0, 5), (0, 7), (1, 3), (2, 5), (2, 6), (3, 6),
                             (3, 8), (7, 9), (8, 9)])
        assert brute_local_connectivity(g, 5, 8) == 2
        assert _vertex_disjoint_paths(g.adj_masks, 5, 8, 2) == 2

    @pytest.mark.parametrize("build, kappa, seconds", [
        (lambda: random_connected_graph(200, 0.3, 1), 44, 2),
        (lambda: cycle(400), 2, 1),
    ], ids=["G(200,.3)", "cycle(400)"])
    def test_scale(self, build, kappa, seconds):
        g = build()
        started = time.perf_counter()
        assert vertex_connectivity(g) == kappa
        assert time.perf_counter() - started < seconds

    def test_scan_caps_flows_at_the_window(self, monkeypatch):
        # t * alpha <= kappa: the window is empty, and no flow may be asked
        # for more than ceil(t * alpha) paths
        caps = []
        flow = invariants._vertex_disjoint_paths

        def recorded(masks, s, t, cap):
            caps.append(cap)
            return flow(masks, s, t, cap)

        monkeypatch.setattr(invariants, "_vertex_disjoint_paths", recorded)
        g = random_connected_graph(16, 0.7, 3)
        f, t = random_degree_spec(g, 1, 3, 2), Fraction(1, 2)
        alpha, kappa = stability_number(g)[0], brute_vertex_connectivity(g)
        assert 2 <= ceil(t * alpha) <= kappa
        assert is_t_odd_tough(g, f, t)
        assert caps and max(caps) <= ceil(t * alpha)


class TestComponentsAgainstNetworkx:
    """The one bitmask component search, and the adjacency-list BFS of
    ``is_connected``, against networkx."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 53])
    def test_components_masks(self, n):
        # these sizes straddle the byte boundaries of the union tables
        rng = random.Random(n)
        g = build_graph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < min(1.0, 3 / n)])
        nx_graph = nx.Graph(g.edges())
        nx_graph.add_nodes_from(range(n))
        seen = set()
        for _ in range(2000):
            density = rng.random()
            mask = sum(1 << v for v in range(n) if rng.random() < density) or 1 << rng.randrange(n)
            comps = components_masks(g, mask)
            expected = nx.connected_components(nx_graph.subgraph(_bits_of(mask)))
            assert sorted(map(_bits_of, comps)) == sorted(tuple(sorted(c)) for c in expected)
            assert comps == sorted(comps, key=lambda c: c & -c)
            seen.add(len(comps) == 1)
        assert seen == ({True} if n == 1 else {True, False})

    def test_is_connected(self, small_atlas):
        kinds = set()
        for g in small_atlas:
            nx_graph = nx.Graph(g.edges())
            nx_graph.add_nodes_from(range(g.n))
            kinds.add(is_connected(g))
            assert is_connected(g) == nx.is_connected(nx_graph), g.edges()
        assert kinds == {True, False}

    def test_null_graph_is_not_connected(self):
        assert not is_connected(empty_graph(0))


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

    def test_is_deficiency_h_with_empty_t(self):
        # h'(G - S) of odd-toughness is the deficiency term h(S, {})
        rng = random.Random(23)
        for g in seeded_corpus(40, 2, 9, seed=23):
            f = DegreeSpec(tuple(rng.randrange(4) for _ in range(g.n)))
            s = [v for v in range(g.n) if rng.random() < 0.3]
            assert odd_component_count(g, s, f) == deficiency(g, s, (), f).h


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
        # the cap bounds the window, not n: the desk instance (n = 53) needs
        # only cutsets of size 1, while cycle(12) needs sizes 2 to 6
        built = g0_desk_instance()
        value = odd_toughness(built.graph, built.spec)
        assert (value.ratio, value.witness) == (Fraction(1, 4), (0,))
        g = cycle(12)
        with pytest.raises(ValueError, match=r"2 <= \|S\| <= 6 .* \(cap 8\)"):
            odd_toughness(g, constant_spec(g, 1), max_n=8)

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
        # kappa = 2 and alpha = 6, so t = 1 needs sizes 2 to 5: 1,573 subsets
        g = cycle(12)
        with pytest.raises(ValueError, match="cap 8"):
            is_t_odd_tough(g, constant_spec(g, 1), 1, max_n=8)
        assert is_t_odd_tough(g, constant_spec(g, 1), 1, max_n=11)
        k10 = complete_graph(10)
        assert is_t_odd_tough(k10, constant_spec(k10, 1), 1, max_n=1)


@pytest.fixture(scope="module")
def oracle_corpus():
    """Connected atlas graphs with n <= 7 and seeded graphs with n = 8-12,
    each with a constant and a mixed f."""
    graphs = atlas_graphs(7, connected_only=True) + seeded_corpus(30, 8, 12, seed=31)
    return [(g, f) for g in graphs
            for f in (constant_spec(g, 1), DegreeSpec(tuple((v % 3) + 1 for v in range(g.n))))]


class TestWindowedScanAgainstFullScan:
    """The windowed scans against a full mask-order scan of all subsets."""

    def test_toughness(self, oracle_corpus):
        for g, _ in oracle_corpus[::2]:
            value = toughness(g)
            assert (value.ratio, value.witness) == brute_min_ratio(g)

    def test_odd_toughness_and_decisions(self, oracle_corpus):
        for g, f in oracle_corpus:
            ratio, witness = brute_min_ratio(g, f)
            value = odd_toughness(g, f)
            assert (value.ratio, value.witness) == (ratio, witness)
            for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, 2):
                assert is_t_odd_tough(g, f, t) == (ratio is None or ratio >= t)


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
