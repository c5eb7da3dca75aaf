import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil

import networkx as nx
import pytest

from conftest import (
    atlas_graphs,
    brute_cutsets,
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
    components,
    components_masks,
    constant_spec,
    cycle,
    disjoint_union,
    empty_graph,
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
        (lambda: cycle(100_000), 2, 1),
    ], ids=["G(200,.3)", "cycle(400)", "cycle(100000)"])
    def test_scale(self, build, kappa, seconds):
        g = build()
        started = time.perf_counter()
        assert vertex_connectivity(g) == kappa
        assert time.perf_counter() - started < seconds

    def test_scan_caps_flows_at_the_window(self, monkeypatch):
        # t * alpha <= kappa: the window is empty, and no flow may be asked
        # for more than ceil(t * alpha) paths; at a cap of 2 kappa runs no
        # flow, so t * alpha must be at least 3
        caps = []
        flow = invariants._vertex_disjoint_paths

        def recorded(masks, s, t, cap):
            caps.append(cap)
            return flow(masks, s, t, cap)

        monkeypatch.setattr(invariants, "_vertex_disjoint_paths", recorded)
        g = random_connected_graph(16, 0.7, 3)
        f, t = random_degree_spec(g, 1, 3, 2), Fraction(1)
        alpha, kappa = stability_number(g)[0], brute_vertex_connectivity(g)
        assert 3 <= ceil(t * alpha) <= kappa
        assert is_t_odd_tough(g, f, t)
        assert caps and max(caps) <= ceil(t * alpha)


class TestComponentsAgainstNetworkx:
    """The two component searches against networkx: ``components_masks``
    over bitmasks, and ``components`` over the adjacency lists, which
    ``Graph.connected`` reads."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 53])
    def test_components_masks(self, n):
        """Components, their order, and the odd-toughness weight h' (the
        number of components with an odd f-sum) on random masks of sparse
        graphs with 1 to 53 vertices and a random f."""
        rng = random.Random(n)
        g = build_graph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < min(1.0, 3 / n)])
        f = DegreeSpec(tuple(rng.randint(0, 3) for _ in range(n)))
        odd, odd_weight = invariants._odd_weight(f)
        assert _bits_of(odd) == tuple(v for v in range(n) if f.values[v] % 2)
        nx_graph = nx.Graph(g.edges())
        nx_graph.add_nodes_from(range(n))
        seen = set()
        for _ in range(2000):
            density = rng.random()
            mask = sum(1 << v for v in range(n) if rng.random() < density) or 1 << rng.randrange(n)
            comps = components_masks(g, mask)
            expected = list(nx.connected_components(nx_graph.subgraph(_bits_of(mask))))
            assert sorted(map(_bits_of, comps)) == sorted(tuple(sorted(c)) for c in expected)
            assert comps == sorted(comps, key=lambda c: c & -c)
            assert odd_weight(comps) == sum(sum(f.values[v] for v in c) % 2 for c in expected)
            seen.add(len(comps) == 1)
        assert seen == ({True} if n == 1 else {True, False})

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 53])
    def test_components(self, n):
        """Components of G - R, their order by smallest vertex, and each
        list's first vertex, on the same graphs and random removed sets R,
        none and all of V included."""
        rng = random.Random(n)
        g = build_graph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < min(1.0, 3 / n)])
        nx_graph = nx.Graph(g.edges())
        nx_graph.add_nodes_from(range(n))
        removed_sets = [[], list(range(n))]
        for _ in range(500):
            density = rng.random()
            removed_sets.append([v for v in range(n) if rng.random() < density])
        sizes = set()
        for removed in removed_sets:
            comps = components(g, removed)
            expected = nx.connected_components(nx_graph.subgraph(set(range(n)) - set(removed)))
            assert sorted(map(sorted, comps)) == sorted(sorted(c) for c in expected)
            assert all(c[0] == min(c) for c in comps)
            assert [c[0] for c in comps] == sorted(c[0] for c in comps)
            sizes.add(min(len(comps), 2))
        assert sizes == ({0, 1} if n == 1 else {0, 1, 2})

    def test_is_connected(self, small_atlas):
        kinds = set()
        for g in small_atlas:
            nx_graph = nx.Graph(g.edges())
            nx_graph.add_nodes_from(range(g.n))
            kinds.add(g.connected)
            assert g.connected == nx.is_connected(nx_graph), g.edges()
        assert kinds == {True, False}

    def test_null_graph_is_not_connected(self):
        assert not empty_graph(0).connected


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
        assert value.ratio is None

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

    def test_no_odd_f_vertex_is_infinite_at_once(self):
        # no component of G - S has an odd f-sum, so alpha over the odd-f
        # vertices is 0 and nothing is scanned, though the window of
        # cycle(400) would hold far more than 2^20 subsets
        g = cycle(400)
        started = time.perf_counter()
        value = odd_toughness(g, constant_spec(g, 2))
        assert time.perf_counter() - started < 0.1
        assert (value.ratio, value.witness) == (None, None)


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

    def test_g0_clique_cut_is_the_first_cutset(self, monkeypatch):
        """Each size's cutsets holding the lowest vertices come first, so
        the desk instance's violation, its clique cut {0}, is the first
        cutset handed to ``components_masks``."""
        calls = []

        def counted(g, mask):
            calls.append(mask)
            return components_masks(g, mask)

        monkeypatch.setattr(invariants, "components_masks", counted)
        built = g0_desk_instance()
        assert built.params["k"] == 1
        assert not is_t_odd_tough(built.graph, built.spec, Fraction(1, built.params["a"]))
        assert len(calls) == 1

    def test_agrees_with_odd_toughness(self):
        for g in seeded_corpus(20, 4, 9, seed=29):
            f = DegreeSpec(tuple((v % 3) + 1 for v in range(g.n)))
            value = odd_toughness(g, f)
            for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, 2):
                assert is_t_odd_tough(g, f, t) == (value.ratio is None or value.ratio >= t)

    def test_no_odd_f_vertex_holds_at_once(self):
        g = cycle(400)
        started = time.perf_counter()
        assert is_t_odd_tough(g, constant_spec(g, 2), 1)
        assert time.perf_counter() - started < 0.1

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


def enumerated_cutsets(g, size):
    """``_cutsets_of_size`` by mask, with each cutset's components as a
    sorted list."""
    return sorted((s_mask, sorted([first] + components_masks(g, g.full_mask & ~s_mask & ~first)))
                  for s_mask, first in invariants._cutsets_of_size(g, size))


def screened_cutsets(g, size):
    return sorted((s_mask, sorted(comps)) for s_mask, comps in brute_cutsets(g, size))


def bridged_graph(k, c, seed):
    """Two G(k, .9) blobs joined only through a clique of c vertices, each
    joined to every blob vertex with probability .7; removing the clique
    separates the blobs."""
    rng = random.Random(seed)
    edges = [(offset + u, offset + v) for offset in (0, k)
             for u, v in combinations(range(k), 2) if rng.random() < 0.9]
    for i in range(2 * k, 2 * k + c):
        edges += [(i, j) for j in range(i + 1, 2 * k + c)]
        edges += [(i, v) for v in range(2 * k) if rng.random() < 0.7]
    return build_graph(2 * k + c, edges)


class TestCutsetEnumeration:
    """Each size's cutsets from the (u, A, X) enumeration against a screen
    of every subset: the same cutsets, each once, with the same components;
    both sides are sorted by mask, as the enumeration yields them in no
    fixed order."""

    def test_oracle_corpus(self, oracle_corpus):
        for g, _ in oracle_corpus[::2]:
            for size in range(g.n - 1):
                assert enumerated_cutsets(g, size) == screened_cutsets(g, size), (g, size)

    def test_dense16(self):
        for seed in range(20):
            g = random_connected_graph(16, 0.7 + 0.15 * seed / 19, seed)
            found = 0
            for size in range(g.n - 1):
                cutsets = enumerated_cutsets(g, size)
                assert cutsets == screened_cutsets(g, size), (seed, size)
                found += len(cutsets)
            assert found

    @pytest.mark.parametrize("k, c", [(7, 2), (8, 3), (9, 4), (10, 4)])
    def test_bridged(self, k, c):
        g = bridged_graph(k, c, k + c)
        assert sum(1 << v for v in range(2 * k, 2 * k + c)) in (
            s_mask for s_mask, _ in screened_cutsets(g, c))
        for size in range(c + 2):
            assert enumerated_cutsets(g, size) == screened_cutsets(g, size), size

    def test_relabelling(self):
        """Toughness and odd-toughness of n = 14-18 graphs do not change
        under a random relabelling, and each witness shows its value."""
        rng = random.Random(47)
        for g in seeded_corpus(12, 14, 18, seed=47):
            f = random_degree_spec(g, 1, 2, rng.randrange(1000))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            f_h = DegreeSpec(tuple(f.values[perm.index(v)] for v in range(g.n)))
            for graph, spec in ((g, f), (h, f_h)):
                for value, weight in (
                    (toughness(graph), lambda s: len(components_masks(
                        graph, graph.full_mask & ~sum(1 << v for v in s)))),
                    (odd_toughness(graph, spec), lambda s: odd_component_count(graph, s, spec)),
                ):
                    if value.ratio is not None:
                        assert Fraction(len(value.witness), weight(value.witness)) == value.ratio
                        assert len(components_masks(graph, graph.full_mask & ~sum(
                            1 << v for v in value.witness))) >= 2
            assert toughness(h).ratio == toughness(g).ratio
            assert odd_toughness(h, f_h).ratio == odd_toughness(g, f).ratio

    def test_n20_in_a_second(self):
        """Odd-toughness of G(20, p) with f in {1, 2}: each size visits only
        its cutsets, in a window set by alpha of the odd-f vertices."""
        started = time.perf_counter()
        values = []
        for p in (0.5, 0.6, 0.75):
            g = random_connected_graph(20, p, 1)
            values.append(odd_toughness(g, random_degree_spec(g, 1, 2, 1)).ratio)
        assert time.perf_counter() - started < 1
        assert values == [Fraction(8, 3), Fraction(13, 3), Fraction(16, 3)]


class TestToughness:
    def test_cycle(self):
        assert toughness(cycle(6)).ratio == 1

    def test_star(self):
        assert toughness(star(3)).ratio == Fraction(1, 3)

    def test_complete(self):
        assert toughness(complete_graph(4)).ratio is None

    def test_odd_toughness_dominates(self):
        # h'(G-S) <= c(G-S) for every cutset, so odd-toughness >= toughness
        for g in seeded_corpus(15, 4, 8, seed=23):
            if g.m == g.n * (g.n - 1) // 2:
                continue
            f = DegreeSpec(tuple((v % 3) + 1 for v in range(g.n)))
            t = toughness(g)
            ot = odd_toughness(g, f)
            assert ot.ratio is None or (t.ratio is not None and ot.ratio >= t.ratio)
