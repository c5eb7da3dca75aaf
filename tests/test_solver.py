import random
from collections import Counter

import pytest

from conftest import (
    _edge_search,
    brute_force_ab_factor,
    brute_force_f_factor,
    brute_gallai_edmonds,
    brute_maximum_matching_size,
    maximum_matching,
    seeded_corpus,
)
from ffactors.graph import (
    DegreeSpec,
    build_graph,
    complete_graph,
    constant_spec,
    cycle,
    disjoint_union,
    empty_graph,
    join,
    petersen_graph,
    star,
)
from ffactors.instances import random_connected_graph, random_degree_spec, random_graph
from ffactors.solver import (
    FactorSubgraph,
    _blossom_matching,
    find_f_factor,
    find_factor,
    tutte_gadget,
    verify_f_factor,
    verify_factor,
)
from ffactors.tutte import find_violating_pair


def _gadget_edge_kinds(g, lo, hi) -> Counter:
    """How the gadget of find_factor(g, lo, hi) joins each edge: "copy"
    (two copy-form ends), "slack" (two slack-form ends) or "mixed".  A
    vertex takes the copy form iff lo == hi and 2 lo < d.  Empty when
    find_factor answers before building a gadget."""
    degrees = [g.degree(v) for v in range(g.n)]
    top = [min(h, d) for h, d in zip(hi, degrees)]
    if any(x > t for x, t in zip(lo, top)) or (list(lo) == top and sum(lo) % 2):
        return Counter()
    copy = [x == h and 2 * x < d for x, h, d in zip(lo, hi, degrees)]
    return Counter(
        "copy" if copy[u] and copy[v] else "mixed" if copy[u] or copy[v] else "slack"
        for u, v in g.edges()
    )


def _matcher_corpus() -> list:
    """Graphs with n <= 12 whose matchings need blossoms and leave searches
    failing: odd cliques, wheels, Petersen, random graphs and disjoint
    unions of mostly odd components."""
    rng = random.Random(71)
    corpus = [petersen_graph()]
    corpus += [complete_graph(2 * k + 1) for k in range(1, 6)]
    corpus += [join(complete_graph(1), cycle(rim)) for rim in range(3, 12)]
    for _ in range(150):
        n = rng.randint(1, 12)
        corpus.append(random_graph(n, rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]),
                                   rng.randrange(10**6)))
    for _ in range(150):
        sizes: list[int] = []
        for _ in range(rng.randint(2, 4)):
            k = rng.choice([1, 3, 3, 5, 5, 7, 4])
            if sum(sizes) + k <= 12:
                sizes.append(k)
        corpus.append(disjoint_union([
            random_connected_graph(k, rng.choice([0.3, 0.6, 0.9]), rng.randrange(10**6))
            for k in sizes
        ]))
    return corpus


class TestGadget:
    def test_k2(self):
        g = complete_graph(2)
        gadget = tutte_gadget(g, (1,) * g.n, (1,) * g.n)
        assert gadget.size == 2
        assert len(gadget.bridges) == 1
        assert gadget.size == 2 * len(gadget.bridges)

    def test_c4_two_factor_all_bridges(self):
        g = cycle(4)
        gadget = tutte_gadget(g, (2,) * g.n, (2,) * g.n)
        assert gadget.size == 8
        # no internals: the gadget is exactly the 4 bridge edges
        assert sum(len(a) for a in gadget.adj) // 2 == 4

    def test_k4_size(self):
        g = complete_graph(4)
        gadget = tutte_gadget(g, (1,) * g.n, (1,) * g.n)
        # 2f < d everywhere: 3 externals and 1 copy vertex per vertex
        assert gadget.size == 4 * (3 + 1)

    def test_copy_form_above_degree(self):
        """lo == hi == f > d: f copies per vertex, of which f - d stay
        exposed; f > d with lo < hi is still rejected."""
        g = cycle(4)
        gadget = tutte_gadget(g, (3,) * g.n, (3,) * g.n)
        assert gadget.copy_form == [True] * 4
        # 2 externals and 3 copies each; copy-copy bridges and 2 x 3 block edges
        assert gadget.starts == [0, 5, 10, 15, 20]
        assert gadget.size == 8 + 4 * 3
        assert sum(map(len, gadget.adj)) // 2 == 4 + 4 * 6
        mate = _blossom_matching(gadget.size, gadget.adj)
        assert mate.count(-1) == 4
        with pytest.raises(ValueError, match="exceeds degree"):
            tutte_gadget(g, (3,) * g.n, (4,) * g.n)

    def test_exact_bounds_shape(self):
        """lo == hi == f: the 2m externals, then f copy vertices where
        2f < d and d - f mandatory slack vertices elsewhere, one subdivision
        vertex per edge whose ends take different forms, no optional slack
        and no parity vertex."""
        for i, g in enumerate(seeded_corpus(20, 2, 10, seed=53)):
            rng = random.Random(i)
            f = [rng.randint(0, g.degree(v)) for v in range(g.n)]
            if sum(f) % 2:
                f[0] += -1 if f[0] else 1  # an even sum, still within [0, d(0)]
            gadget = tutte_gadget(g, f, f)
            copy = [2 * f[v] < g.degree(v) for v in range(g.n)]
            block = [f[v] if copy[v] else g.degree(v) - f[v] for v in range(g.n)]
            mixed = sum(copy[u] != copy[v] for u, v in g.edges())
            assert gadget.size == 2 * g.m + sum(block) + mixed
            blocks = sum(g.degree(v) * block[v] for v in range(g.n))
            assert sum(map(len, gadget.adj)) // 2 == g.m + mixed + blocks

    def test_bounded_shape(self):
        g = complete_graph(4)  # d = 3 and hi = 2: one mandatory slack vertex each
        gadget = tutte_gadget(g, (0, 1, 1, 1), (2,) * 4)
        # externals, mandatory, optional (2 + 1 + 1 + 1), parity (sum(lo) = 3)
        assert gadget.size == 12 + 4 + 5 + 1
        # bridges, blocks of 3 externals times d - lo slack, clique, parity edges
        assert sum(map(len, gadget.adj)) // 2 == 6 + (9 + 3 * 6) + 10 + 5
        # hi above the degree counts as the degree: no mandatory slack
        assert tutte_gadget(g, (1,) * 4, (9,) * 4).size == 12 + 4 * 2

    def test_lower_above_upper_rejected(self):
        g = cycle(4)
        with pytest.raises(ValueError, match="exceeds upper bound"):
            tutte_gadget(g, (2,) * 4, (1,) * 4)


class TestMaximumMatching:
    def test_even_cycle(self):
        assert len(maximum_matching(cycle(6))) == 3

    def test_odd_cycle(self):
        assert len(maximum_matching(cycle(5))) == 2

    def test_petersen_perfect(self):
        assert len(maximum_matching(petersen_graph())) == 5

    def test_is_a_matching(self):
        for g in seeded_corpus(20, 2, 9, seed=41):
            mm = maximum_matching(g)
            seen = set()
            for u, v in mm:
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen |= {u, v}

    def test_matches_exhaustive(self):
        for g in seeded_corpus(25, 2, 8, seed=43):
            assert len(maximum_matching(g)) == brute_maximum_matching_size(g)

    def test_deterministic(self):
        g = petersen_graph()
        assert maximum_matching(g) == maximum_matching(g)

    def test_maximum_and_valid_on_blossom_corpus(self):
        """Every mate array is a symmetric matching on edges of G and of
        maximum size.  At least a third of the corpus leaves two or more
        vertices exposed, so searches fail there and their trees are
        skipped by the searches after them."""
        corpus = _matcher_corpus()
        exposed = 0
        for g in corpus:
            mate = _blossom_matching(g.n, [list(nbrs) for nbrs in g.adj])
            for v, u in enumerate(mate):
                assert u == -1 or (mate[u] == v and g.has_edge(u, v)), (g, mate)
            size = brute_maximum_matching_size(g)
            assert len(maximum_matching(g)) == sum(u != -1 for u in mate) // 2 == size, g
            exposed += g.n - 2 * size >= 2
        assert len(corpus) >= 300 and 3 * exposed >= len(corpus), (len(corpus), exposed)

    def test_gallai_edmonds_labels(self):
        """The labels the failed searches leave are the Gallai-Edmonds D
        and A of the brute-force oracle, on the blossom corpus and on
        gadgets of up to 12 vertices, f(v) > d(v) and odd f(X) included."""
        rng = random.Random(73)
        gadgets = []
        while len(gadgets) < 250:
            n = rng.randint(1, 5)
            g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng.randrange(10**6))
            f = [rng.randint(0, g.degree(v) + 1) for v in range(n)]
            gadget = tutte_gadget(g, f, f)
            if gadget.size <= 12:
                edges = [(i, j) for i, nbrs in enumerate(gadget.adj) for j in nbrs if i < j]
                gadgets.append(build_graph(gadget.size, edges))
        nontrivial = 0
        for h in _matcher_corpus() + gadgets:
            labels = [""] * h.n
            _blossom_matching(h.n, [list(nbrs) for nbrs in h.adj], labels)
            d, a = brute_gallai_edmonds(h)
            assert {v for v in range(h.n) if labels[v] == "D"} == d, h
            assert {v for v in range(h.n) if labels[v] == "A"} == a, h
            nontrivial += bool(a)
        assert nontrivial >= 100, nontrivial


class TestFindFFactor:
    def test_c4_two_factor_is_cycle(self):
        g = cycle(4)
        factor = find_f_factor(g, constant_spec(g, 2))
        assert factor.edges == g.edges()

    def test_parity_guard(self):
        g = complete_graph(3)
        assert find_f_factor(g, constant_spec(g, 1)) is None

    def test_target_above_degree(self):
        g = cycle(4)
        assert find_f_factor(g, constant_spec(g, 4)) is None

    def test_zero_factor(self):
        g = complete_graph(2)
        factor = find_f_factor(g, constant_spec(g, 0))
        assert factor == FactorSubgraph(())

    def test_agrees_with_oracle_and_tutte(self):
        rng = random.Random(47)
        checked = 0
        kinds: Counter = Counter()
        for _ in range(200):
            n = rng.randint(2, 7)
            g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng.randrange(10**6))
            f = DegreeSpec(tuple(rng.randint(0, 3) for _ in range(n)))
            if f.total() % 2:
                continue
            checked += 1
            fast = find_f_factor(g, f)
            slow = brute_force_f_factor(g, f)
            pair = find_violating_pair(g, f)
            assert (fast is not None) == (slow is not None) == (pair is None)
            if fast is not None:
                assert verify_f_factor(g, f, fast)
            kinds += _gadget_edge_kinds(g, f.values, f.values)
        assert checked > 50
        assert min(kinds[k] for k in ("copy", "slack", "mixed")) >= 50, kinds

    def test_scale_guard(self):
        """The paper's regime, minimum degree far above f, at n = 100."""
        g = random_connected_graph(100, 0.5, 1)
        f = random_degree_spec(g, 1, 3, 2)
        factor = find_f_factor(g, f)
        assert factor is not None and verify_f_factor(g, f, factor)


class TestFindFactor:
    def test_agrees_with_edge_search(self):
        """Random bounds lo <= hi on small graphs, against the exhaustive
        oracle: hi above d(v), lo above d(v), odd sum(lo) and lo == hi all
        occur, and so does each way the gadget joins an edge."""
        rng = random.Random(59)
        seen = {"hi_above_d": 0, "lo_above_d": 0, "odd_lo": 0, "exact": 0, "found": 0}
        kinds: Counter = Counter()
        for _ in range(600):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.7, 0.9]), rng.randrange(10**6))
            lo = [rng.randint(0, 4) for _ in range(n)]
            hi = lo[:] if rng.random() < 0.25 else [x + rng.randint(0, 3) for x in lo]
            fast = find_factor(g, lo, hi)
            slow = _edge_search(g, lo, hi, max_m=28)
            assert (fast is None) == (slow is None), (g, lo, hi)
            if fast is not None:
                assert verify_factor(g, lo, hi, fast)
            degrees = [g.degree(v) for v in range(n)]
            seen["hi_above_d"] += any(h > d for h, d in zip(hi, degrees))
            seen["lo_above_d"] += any(x > d for x, d in zip(lo, degrees))
            seen["odd_lo"] += sum(lo) % 2
            seen["exact"] += lo == hi
            seen["found"] += fast is not None
            kinds += _gadget_edge_kinds(g, lo, hi)
        assert min(seen.values()) >= 50, seen
        assert min(kinds[k] for k in ("copy", "slack", "mixed")) >= 50, kinds

    def test_exact_bounds_are_find_f_factor(self):
        for i, g in enumerate(seeded_corpus(20, 2, 10, seed=61)):
            f = DegreeSpec(tuple(random.Random(i).randint(0, 3) for _ in range(g.n)))
            assert find_factor(g, f.values, f.values) == find_f_factor(g, f)

    def test_empty_graph(self):
        assert find_factor(empty_graph(0), [], []) == FactorSubgraph(())
        assert find_factor(star(0), [0], [1]) == FactorSubgraph(())
        assert find_factor(star(0), [1], [1]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            find_factor(cycle(4), [1] * 4, [2] * 3)


class TestVerify:
    def test_valid_two_factor(self):
        g = cycle(4)
        assert verify_f_factor(g, constant_spec(g, 2), FactorSubgraph(g.edges()))

    def test_missing_edge(self):
        g = cycle(4)
        assert not verify_f_factor(
            g, constant_spec(g, 2), FactorSubgraph(g.edges()[:3])
        )

    def test_perfect_matching(self):
        g = complete_graph(4)
        assert verify_f_factor(
            g, constant_spec(g, 1), FactorSubgraph(((0, 1), (2, 3)))
        )

    def test_foreign_edge(self):
        g = cycle(4)
        assert not verify_f_factor(
            g, constant_spec(g, 1), FactorSubgraph(((0, 2), (1, 3)))
        )


class TestBruteForce:
    def test_two_factor_of_k4(self):
        g = complete_graph(4)
        factor = brute_force_f_factor(g, constant_spec(g, 2))
        assert factor is not None and verify_f_factor(g, constant_spec(g, 2), factor)

    def test_empty_factor(self):
        g = complete_graph(2)
        assert brute_force_f_factor(g, constant_spec(g, 0)) == FactorSubgraph(())

    def test_odd_clique_no_perfect_matching(self):
        g = complete_graph(3)
        assert brute_force_f_factor(g, constant_spec(g, 1)) is None

    def test_size_cap(self):
        g = complete_graph(8)
        with pytest.raises(ValueError, match="cap"):
            brute_force_f_factor(g, constant_spec(g, 1))


class TestABFactor:
    def test_cycle_exact(self):
        g = cycle(5)
        factor = brute_force_ab_factor(g, 2, 2)
        assert factor.edges == g.edges()

    def test_k4_perfect_matching_qualifies(self):
        g = complete_graph(4)
        factor = brute_force_ab_factor(g, 1, 2)
        assert factor is not None
        degs = [sum(v in e for e in factor.edges) for v in range(4)]
        assert all(1 <= d <= 2 for d in degs)

    def test_claw_impossible(self):
        assert brute_force_ab_factor(star(3), 1, 1) is None
        assert find_factor(star(3), [1] * 4, [1] * 4) is None

    def test_solver_agrees(self):
        for g in seeded_corpus(30, 2, 8, seed=67):
            for a, b in ((1, 2), (1, 3), (2, 3)):
                fast = find_factor(g, [a] * g.n, [b] * g.n)
                slow = brute_force_ab_factor(g, a, b, max_m=28)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert verify_factor(g, [a] * g.n, [b] * g.n, fast)
