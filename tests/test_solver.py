import random
import time
from collections import Counter

import pytest

from conftest import (
    _edge_search,
    brute_force_ab_factor,
    brute_force_f_factor,
    brute_gallai_edmonds,
    brute_maximum_matching_size,
    complement,
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
    GadgetGraph,
    _blossom_matching,
    _near_factor,
    find_f_factor,
    find_factor,
    tutte_gadget,
    verify_f_factor,
    verify_factor,
)
from ffactors.tutte import deficiency, find_violating_pair


def _gadget_edge_kinds(g, lo, hi) -> Counter:
    """How the gadget of find_factor(g, lo, hi) joins each edge: "copy"
    (two copy-form ends), "slack" (two slack-form ends) or "mixed".  A
    vertex takes the copy form iff lo + min(hi, d) < d, as lo <= min(hi, d)
    here.  Empty when find_factor answers before building a gadget."""
    degrees = [g.degree(v) for v in range(g.n)]
    if any(x > min(h, d) for x, h, d in zip(lo, hi, degrees)):
        return Counter()
    copy = [x + min(h, d) < d for x, h, d in zip(lo, hi, degrees)]
    return Counter(
        "copy" if copy[u] and copy[v] else "mixed" if copy[u] or copy[v] else "slack"
        for u, v in g.edges()
    )


def _lo_eq_hi_copy_form_gadget(g, lo, hi) -> GadgetGraph:
    """A frozen copy of the gadget as built while only lo == hi vertices
    could take the copy form, with the pairing path's parity taken from
    sum(lo)."""
    adj: list[list[int]] = []
    optional: list[int] = []
    copy_form = [False] * g.n
    starts = []
    for v in range(g.n):
        starts.append(len(adj))
        d = g.degree(v)
        copy_form[v] = lo[v] == hi[v] and (2 * lo[v] < d or lo[v] > d)
        externals = range(len(adj), len(adj) + d)
        adj.extend([] for _ in externals)
        block = list(range(len(adj), len(adj) + (lo[v] if copy_form[v] else d - lo[v])))
        adj.extend([] for _ in block)
        for e in externals:
            for i in block:
                adj[e].append(i)
                adj[i].append(e)
        if not copy_form[v]:
            optional.extend(block[d - min(hi[v], d):])
    starts.append(len(adj))
    nxt = starts[:-1]
    for u, v in g.edges():
        i, j = nxt[u], nxt[v]
        nxt[u] += 1
        nxt[v] += 1
        if copy_form[u] == copy_form[v]:
            adj[i].append(j)
            adj[j].append(i)
        else:
            sub = len(adj)
            adj.append([i, j])
            adj[i].append(sub)
            adj[j].append(sub)
    if optional:
        path = range(len(adj), len(adj) + 2 * len(optional) + sum(lo) % 2)
        adj.extend([p for p in (i - 1, i + 1) if p in path] for i in path)
        for k, i in enumerate(optional):
            for p in path[2 * k:2 * k + 2]:
                adj[i].append(p)
                adj[p].append(i)
    return GadgetGraph(len(adj), adj, starts, copy_form, [-1] * len(adj))


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
        # d = f = 1 takes the slack form with no slack: one slack-slack bridge
        assert sum(map(len, gadget.adj)) // 2 == 1
        assert gadget.adj == [[1], [0]]

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
        mate, _ = _blossom_matching(gadget.size, gadget.adj)
        assert mate.count(-1) == 4
        with pytest.raises(ValueError, match="exceeds degree"):
            tutte_gadget(g, (3,) * g.n, (4,) * g.n)

    def test_exact_bounds_shape(self):
        """lo == hi == f: the 2m externals, then f copy vertices where
        2f < d and d - f mandatory slack vertices elsewhere, one subdivision
        vertex per edge whose ends take different forms, no optional slack
        and no pairing path.  So the size has the parity of f(X), and an odd
        f(X) leaves a vertex exposed without any extra vertex."""
        odd_sums = 0
        for i, g in enumerate(seeded_corpus(20, 2, 10, seed=53)):
            rng = random.Random(i)
            f = [rng.randint(0, g.degree(v)) for v in range(g.n)]
            if sum(f) % 2:
                f[0] += -1 if f[0] else 1  # an even sum, still within [0, d(0)]
            specs = [f]
            v = next((v for v in range(g.n) if g.degree(v)), None)
            if v is not None:  # and an odd sum, still within [0, d(v)]
                specs.append(f[:v] + [f[v] + (1 if f[v] < g.degree(v) else -1)] + f[v + 1:])
            for spec in specs:
                gadget = tutte_gadget(g, spec, spec)
                copy = [2 * spec[v] < g.degree(v) for v in range(g.n)]
                block = [spec[v] if copy[v] else g.degree(v) - spec[v] for v in range(g.n)]
                mixed = sum(copy[u] != copy[v] for u, v in g.edges())
                assert gadget.size == 2 * g.m + sum(block) + mixed
                assert gadget.size % 2 == sum(spec) % 2
                blocks = sum(g.degree(v) * block[v] for v in range(g.n))
                assert sum(map(len, gadget.adj)) // 2 == g.m + mixed + blocks
                odd_sums += sum(spec) % 2
        assert odd_sums >= 15

    def test_bounded_shape(self):
        g = complete_graph(4)  # d = 3 and hi = 2, so t = min(hi, d) = 2
        gadget = tutte_gadget(g, (0, 1, 1, 1), (2,) * 4)
        # lo + t < d only at vertex 0: two optional copies; vertices 1-3 get
        # one mandatory and one optional slack vertex each
        assert gadget.copy_form == [True, False, False, False]
        # externals, blocks (2 + 3 * 2), a subdivision vertex on each of
        # vertex 0's three mixed edges, and a pairing path of 2 * 5 + 1
        # vertices, as the 23 vertices before it are odd
        assert gadget.size == 12 + 8 + 3 + 11 == 34
        # bridges, subdivision edges, blocks of 3 externals times 2, path
        # edges, and two edges from each optional vertex to the path
        assert sum(map(len, gadget.adj)) // 2 == 3 + 6 + 4 * 6 + 10 + 2 * 5 == 53
        # hi above the degree counts as the degree: no mandatory slack, so
        # 8 optional slack vertices and a path of 2 * 8, as the 20 vertices
        # before it are even
        assert tutte_gadget(g, (1,) * 4, (9,) * 4).size == 12 + 4 * 2 + 16 == 36

    def test_pairing_path(self):
        """Optional vertex k, the last min(hi, d) - lo of either form's
        block, is joined to path vertices 2k and 2k + 1 of a path of
        2q + (vertex count before the path) mod 2 vertices that comes last,
        and the gadget has an even number of vertices."""
        rng = random.Random(67)
        paths = 0
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng.randrange(10**6))
            lo = [rng.randint(0, g.degree(v)) for v in range(n)]
            hi = [x + rng.randint(0, 3) for x in lo]
            gadget = tutte_gadget(g, lo, hi)
            optional = [i for v in range(n)
                        for i in range(gadget.starts[v + 1] - (min(hi[v], g.degree(v)) - lo[v]),
                                       gadget.starts[v + 1])]
            if not optional:
                continue
            paths += 1
            # the path follows the blocks and one subdivision vertex per mixed edge
            first = gadget.starts[-1] + sum(
                gadget.copy_form[u] != gadget.copy_form[v] for u, v in g.edges())
            assert gadget.size == first + 2 * len(optional) + first % 2
            assert gadget.size % 2 == 0
            for i in range(first, gadget.size):
                along = {p for p in (i - 1, i + 1) if first <= p < gadget.size}
                k = (i - first) // 2
                assert set(gadget.adj[i]) == along | ({optional[k]} if k < len(optional) else set())
            for k, i in enumerate(optional):
                assert set(gadget.adj[i]) - set(range(gadget.starts[-1])) == {
                    first + 2 * k, first + 2 * k + 1}
        assert paths >= 100

    @pytest.mark.parametrize("e", [0, 1])
    def test_pairing_lemma(self, e):
        """The path of 2q + e vertices plus a set U of the q optional vertices
        has a perfect matching iff |U| has the parity of e."""
        for q in range(1, 6):
            size = 2 * q + e
            for mask in range(1 << q):
                chosen = [k for k in range(q) if mask >> k & 1]
                adj = [[p for p in (i - 1, i + 1) if 0 <= p < size] for i in range(size)]
                for k in chosen:
                    adj.append([2 * k, 2 * k + 1])
                    adj[2 * k].append(len(adj) - 1)
                    adj[2 * k + 1].append(len(adj) - 1)
                mate, _ = _blossom_matching(len(adj), adj)
                assert (-1 not in mate) == (len(chosen) % 2 == e), (q, chosen)

    def test_linear_in_optional_slack(self):
        """The [1, 2] gadget of a cycle has O(n) edges: 2n externals, n
        optional slack vertices and a path of 2n."""
        n = 2000
        gadget = tutte_gadget(cycle(n), [1] * n, [2] * n)
        assert gadget.size == 2 * n + n + 2 * n
        assert sum(map(len, gadget.adj)) // 2 < 8 * n

    def test_readback_either_end(self):
        """In a perfect matching of the gadget, "x_u is matched into u's own
        block exactly when u takes the copy form" picks the same edges read
        at u as read at v, and they form a factor; so does find_factor's
        answer, which may be another factor."""
        rng = random.Random(89)
        matched = 0
        kinds: Counter = Counter()
        in_h: Counter = Counter()
        for _ in range(400):
            n = rng.randint(2, 12)
            g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng.randrange(10**6))
            keep = [e for e in g.edges() if rng.random() < 0.5]
            lo = [sum(v in e for e in keep) for v in range(n)]  # a planted factor
            hi = lo[:] if rng.random() < 0.5 else [x + rng.randint(0, 3) for x in lo]
            lo = [max(0, x - rng.randint(0, 1)) if x < h else x for x, h in zip(lo, hi)]
            gadget = tutte_gadget(g, lo, hi)
            mate, _ = _blossom_matching(gadget.size, gadget.adj)
            if -1 in mate:
                continue
            matched += 1
            starts, copy_form = gadget.starts, gadget.copy_form

            def read_at(u, v):
                x = starts[u] + g.adj[u].index(v)
                return (starts[u] <= mate[x] < starts[u + 1]) == copy_form[u]

            at_u = {(u, v) for u, v in g.edges() if read_at(u, v)}
            assert at_u == {(u, v) for u, v in g.edges() if read_at(v, u)}, (g, lo, hi)
            assert verify_factor(g, lo, hi, FactorSubgraph(tuple(sorted(at_u)))), (g, lo, hi)
            assert verify_factor(g, lo, hi, find_factor(g, lo, hi)), (g, lo, hi)
            kinds += _gadget_edge_kinds(g, lo, hi)
            in_h += Counter((u, v) in at_u for u, v in g.edges())
        assert matched >= 300, matched
        assert min(kinds[k] for k in ("copy", "slack", "mixed")) >= 50, kinds
        assert min(in_h[True], in_h[False]) >= 300, in_h

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
            mate, _ = _blossom_matching(g.n, [list(nbrs) for nbrs in g.adj])
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
            _, labels = _blossom_matching(h.n, [list(nbrs) for nbrs in h.adj])
            d, a = brute_gallai_edmonds(h)
            assert {v for v in range(h.n) if labels[v] == "D"} == d, h
            assert {v for v in range(h.n) if labels[v] == "A"} == a, h
            nontrivial += bool(a)
        assert nontrivial >= 100, nontrivial


class TestWarmStart:
    def test_writeback_and_labels_match_the_cold_start(self):
        """On random [lo, hi] bounds with n = 2-14, optional vertices, a
        pairing path and lo above d included: the gadget's starting
        matching for the near-factor is a matching of gadget edges, perfect
        exactly when the near-factor is a factor.  Started from it, or from
        the starting matching of a random part of it or of the empty
        subgraph, the matcher leaves as many vertices exposed as the cold
        start, with the same D and A."""
        rng = random.Random(97)
        kinds: Counter = Counter()
        for _ in range(3000):
            n = rng.randint(2, 14)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng.randrange(10**6))
            d = [g.degree(v) for v in range(n)]
            if rng.random() < 0.5:
                lo = [rng.randint(0, x + 1) for x in d]
                hi = lo[:]
            else:
                lo = [rng.randint(0, x) for x in d]
                hi = [x + rng.randint(0, 3) for x in lo]
            gadget = tutte_gadget(g, lo, hi)
            cold, cold_labels = _blossom_matching(gadget.size, gadget.adj)
            near = _near_factor(g, lo, hi)
            part = [e for e in near.edges if rng.random() < 0.7]
            for edges in (near.edges, part, ()):
                start = tutte_gadget(g, lo, hi, edges).mate
                for i, j in enumerate(start):
                    assert j == -1 or (start[j] == i and j in gadget.adj[i]), (g.edges(), lo, hi)
                if edges is near.edges:
                    assert verify_factor(g, lo, hi, near) == (-1 not in start), (g.edges(), lo, hi)
                kinds["perfect start"] += -1 not in start
                kinds["factor searched"] += -1 in start and -1 not in cold
                warm, warm_labels = _blossom_matching(gadget.size, gadget.adj, start)
                assert cold.count(-1) == warm.count(-1), (g.edges(), lo, hi, edges)
                for label in "DA":
                    assert ({v for v, x in enumerate(cold_labels) if x == label}
                            == {v for v, x in enumerate(warm_labels) if x == label}), (
                        g.edges(), lo, hi, edges)
            kinds["path"] += gadget.size > gadget.starts[-1] + sum(
                gadget.copy_form[u] != gadget.copy_form[v] for u, v in g.edges())
            kinds["lo above d"] += any(x > y for x, y in zip(lo, d))
            kinds["no factor"] += -1 in cold
        assert min(kinds.values()) >= 500, kinds

    def test_half_degree_scale(self):
        """f = floor(d / 2) on G(200, .5), vertex 0 raised for parity, where
        the exact-bound gadget has about 10^6 edges: the factor and the
        audit's None each take well under 2 s."""
        g = random_connected_graph(200, 0.5, 1)
        f = [g.degree(v) // 2 for v in range(g.n)]
        f[0] += sum(f) % 2
        f = DegreeSpec(tuple(f))
        started = time.perf_counter()
        factor = find_f_factor(g, f)
        assert time.perf_counter() - started < 2
        assert factor is not None and verify_f_factor(g, f, factor)
        started = time.perf_counter()
        assert find_violating_pair(g, f) is None
        assert time.perf_counter() - started < 2

    def test_half_degree_scale_without_a_factor(self):
        """f = floor(d / 2) on G(200, .5) with f(X) made odd: no factor, so
        the exact-bound gadget of about 10^6 edges is built with its
        starting matching, and the audit's pair still takes under 2 s."""
        g = random_connected_graph(200, 0.5, 1)
        f = [g.degree(v) // 2 for v in range(g.n)]
        f[0] += 1 - sum(f) % 2
        f = DegreeSpec(tuple(f))
        started = time.perf_counter()
        pair = find_violating_pair(g, f)
        assert time.perf_counter() - started < 2
        assert pair is not None and deficiency(g, pair.s, pair.t, f).delta == pair.delta < 0


class TestFindFFactor:
    def test_c4_two_factor_is_cycle(self):
        g = cycle(4)
        factor = find_f_factor(g, constant_spec(g, 2))
        assert factor.edges == g.edges()

    def test_parity_guard(self):
        g = complete_graph(3)
        assert find_f_factor(g, constant_spec(g, 1)) is None

    def test_odd_sum_answers_without_gadget(self, monkeypatch):
        """With no optional slack, lo(v) = min(hi(v), d(v)) everywhere, an
        odd sum(lo) answers None before any gadget is built."""
        g = random_connected_graph(200, 0.3, 1)
        f = list(random_degree_spec(g, 1, 3, 2).values)
        f[0] += 1  # an odd f(X)
        k3 = complete_graph(3)

        def no_gadget(*args):
            raise AssertionError("the gadget was built")

        monkeypatch.setattr("ffactors.solver.tutte_gadget", no_gadget)
        assert find_f_factor(g, DegreeSpec(tuple(f))) is None
        assert find_factor(k3, [2, 2, 1], [9, 9, 1]) is None  # hi above d, lo = d
        monkeypatch.undo()
        # optional slack leaves the parity open: K3 has [1, 2]-factors
        factor = find_factor(k3, [1] * 3, [2] * 3)
        assert factor is not None and verify_factor(k3, [1] * 3, [2] * 3, factor)

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

    def test_long_cycle(self):
        """An [a, b] search on a 20,000-vertex cycle stays linear in size."""
        n = 20_000
        g, lo, hi = cycle(n), [1] * n, [2] * n
        started = time.perf_counter()
        factor = find_factor(g, lo, hi)
        assert time.perf_counter() - started < 2
        assert factor is not None and verify_factor(g, lo, hi, factor)

    def test_gadget_unchanged_without_a_new_copy_form(self):
        """Where no vertex has lo < hi and lo + min(hi, d) < d, the gadget is
        the one built when only lo == hi vertices took the copy form, down
        to the order of every adjacency list."""
        rng = random.Random(131)
        kinds: Counter = Counter()
        for _ in range(1500):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8, 1]), rng.randrange(10**6))
            d = [g.degree(v) for v in range(n)]
            lo = [rng.randint(0, x) for x in d]
            hi = lo[:] if rng.random() < 0.25 else [x + rng.randint(0, 3) for x in lo]
            if any(x < y and x + min(y, z) < z for x, y, z in zip(lo, hi, d)):
                kinds["new copy form"] += 1
                continue
            gadget = tutte_gadget(g, lo, hi)
            assert gadget == _lo_eq_hi_copy_form_gadget(g, lo, hi), (g.edges(), lo, hi)
            kinds["path"] += gadget.size > gadget.starts[-1] + sum(
                gadget.copy_form[u] != gadget.copy_form[v] for u, v in g.edges())
            kinds["both forms"] += len(set(gadget.copy_form)) == 2
        assert min(kinds.values()) >= 200, kinds

    def test_lo_hi_duality(self):
        """H is an [lo, hi]-factor iff E(G) - H is a [d - hi, d - lo]-factor.
        A small lo < hi takes the copy form and its dual the slack form, so
        each form is checked against the other above the oracles' reach."""
        rng = random.Random(21)
        kinds: Counter = Counter()
        for _ in range(150):
            n = rng.randint(10, 120)
            g = random_graph(n, rng.choice([3 / n, 6 / n, 0.3, 0.6]), rng.randrange(10**6))
            d = [g.degree(v) for v in range(n)]
            lo = [min(rng.randint(0, 3), x) for x in d]
            hi = [min(x + rng.randint(0, 3), y) for x, y in zip(lo, d)]
            dual_lo, dual_hi = [x - y for x, y in zip(d, hi)], [x - y for x, y in zip(d, lo)]
            factor, dual = find_factor(g, lo, hi), find_factor(g, dual_lo, dual_hi)
            assert (factor is None) == (dual is None), (g.edges(), lo, hi)
            if factor is not None:
                assert verify_factor(g, lo, hi, factor)
                assert verify_factor(g, dual_lo, dual_hi, complement(g, factor))
                assert verify_factor(g, lo, hi, complement(g, dual))
            kinds["new copy form"] += any(
                x < y and x + y < z for x, y, z in zip(lo, hi, d))
            kinds["factor"] += factor is not None
            kinds["no factor"] += factor is None
        assert min(kinds.values()) >= 30, kinds

    def test_ab_gadget_scale(self):
        """The [1, 2] gadget of G(400, .5) has O(b m + b n) edges, at most
        (2b + 2) m + 4 b n: blocks of at most d * b, two edges per mixed
        edge, and a pairing path of at most b optional vertices each."""
        g = random_connected_graph(400, 0.5, 1)
        lo, hi = [1] * g.n, [2] * g.n
        gadget = tutte_gadget(g, lo, hi)
        assert sum(map(len, gadget.adj)) // 2 <= (2 * 2 + 2) * g.m + 4 * 2 * g.n
        del gadget
        started = time.perf_counter()
        factor = find_factor(g, lo, hi)
        assert time.perf_counter() - started < 2
        assert factor is not None and verify_factor(g, lo, hi, factor)

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

    def test_repeated_edge(self):
        """The edge of K2 listed twice, once each way, meets f = 2 at both
        ends; only the duplicate check rejects it."""
        g = complete_graph(2)
        assert not verify_f_factor(g, constant_spec(g, 2), FactorSubgraph(((0, 1), (1, 0))))
        assert not verify_factor(g, (2, 2), (2, 2), FactorSubgraph(((0, 1), (0, 1))))


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
