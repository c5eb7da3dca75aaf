import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest

from conftest import brute_min_deficiency, complement, oracle_deficiencies, seeded_corpus
from ffactors.graph import (
    DegreeSpec,
    _bits_of,
    build_graph,
    complete_graph,
    constant_spec,
    cycle,
)
from ffactors.instances import random_connected_graph, random_graph
from ffactors.invariants import is_t_odd_tough
from ffactors.reports import (
    build_report, certificates, recheck_report, verdicts_of,
)
from ffactors import tutte
from ffactors.solver import (
    _blossom_matching,
    _near_factor,
    find_f_factor,
    tutte_gadget,
    verify_f_factor,
)
from ffactors.tutte import (
    deficiency,
    find_violating_pair,
)
from ffactors.constructions import build_g1, g0_desk_instance


def _barrier(rng, k: int, sizes: list[int]):
    """A cutset S = {0, ..., k-1} joined to one or two vertices of each of
    len(sizes) connected components, each with an odd f-sum, and f(S) =
    len(sizes) - 2: delta(S, {}) = -2 with f(X) even and f <= d."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    f = [0] * k
    offset = k
    for size in sizes:
        c = random_connected_graph(size, 0.3, rng.randrange(10**6))
        local = [0] * size
        for u, v in c.edges():
            edges.append((u + offset, v + offset))
            if rng.random() < 0.5:
                local[u] += 1
                local[v] += 1
        anchors = rng.sample(range(size), 2)
        edges += [(s, a + offset) for s in range(k) for a in anchors]
        if sum(local) % 2 == 0:
            local[anchors[0]] += 1  # its edges to S leave room
        f += local
        offset += size
    budget = len(sizes) - 2
    for s in range(k):
        f[s] = min(budget, k - 1 + 2 * len(sizes))
        budget -= f[s]
    assert budget == 0
    return build_graph(offset, edges), DegreeSpec(tuple(f))


def random_pair(g, rng):
    s, t = [], []
    for v in range(g.n):
        r = rng.random()
        if r < 0.25:
            s.append(v)
        elif r < 0.5:
            t.append(v)
    return s, t


class TestOddComponentsST:
    def test_k2_even(self):
        g = complete_graph(2)
        assert deficiency(g, [], [], constant_spec(g, 1)).h == 0

    def test_k4_single_even_component(self):
        g = complete_graph(4)
        # K3 component: f(C) + e(C,T) = 3 + 3 = 6, even
        assert deficiency(g, [], [3], constant_spec(g, 1)).h == 0

    def test_g1_everything_removed(self):
        built = build_g1(1, 3, 2, 5, 2)
        pair = built.witness_pair
        assert deficiency(built.graph, pair.s, pair.t, built.spec).h == 0


class TestDeficiency:
    def test_disjointness_enforced(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="disjoint"):
            deficiency(g, [0, 1], [1, 2], constant_spec(g, 1))
        # and each side is a set of vertices of g
        with pytest.raises(ValueError, match="out of range"):
            deficiency(g, [], [3], constant_spec(g, 1))
        with pytest.raises(ValueError, match="duplicate"):
            deficiency(g, [1, 1], [], constant_spec(g, 1))

    def test_k2_zero(self):
        g = complete_graph(2)
        assert deficiency(g, [], [], constant_spec(g, 1)).delta == 0

    def test_k4_hand_evaluation(self):
        g = complete_graph(4)
        rep = deficiency(g, [], [3], constant_spec(g, 1))
        assert (rep.f_s, rep.f_t, rep.degree_term, rep.h) == (0, 1, 3, 0)
        assert rep.delta == 2

    def test_g1_witness_terms(self):
        built = build_g1(1, 3, 2, 5, 2)
        pair = built.witness_pair
        rep = deficiency(built.graph, pair.s, pair.t, built.spec)
        assert (rep.f_s, rep.f_t, rep.degree_term, rep.h) == (4, 12, 4, 0)
        assert rep.delta == -4

    def test_empty_pair_is_minus_h(self):
        for g in seeded_corpus(10, 3, 7, seed=5):
            f = DegreeSpec(tuple(v % 3 for v in range(g.n)))
            rep = deficiency(g, [], [], f)
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
            rep = deficiency(g, *pair, f)
            assert rep.delta % 2 == f.total() % 2


class TestEvaluateAgainstOracle:
    """``_evaluate`` over adjacency lists against the oracle's own bitmask
    evaluation, term by term, on every disjoint pair."""

    @staticmethod
    def _check(g, f) -> None:
        for s_mask, t_mask, terms in oracle_deficiencies(g, f):
            s, t = _bits_of(s_mask), _bits_of(t_mask)
            assert tutte._evaluate(g, s, t, f.values) == terms, (g.edges(), f.values, s, t)

    def test_atlas(self, small_atlas):
        rng = random.Random(109)
        for g in small_atlas:
            self._check(g, DegreeSpec(tuple(rng.randint(0, 3) for _ in range(g.n))))

    def test_seeded_up_to_nine(self):
        rng = random.Random(113)
        for g in seeded_corpus(12, 7, 9, seed=113):
            self._check(g, DegreeSpec(tuple(rng.randint(0, 4) for _ in range(g.n))))


class TestFindViolatingPair:
    def test_cycle_two_factor_clean(self):
        g = cycle(4)
        assert find_violating_pair(g, constant_spec(g, 2)) is None

    def test_g1_minimal_pair(self):
        built = build_g1(1, 3, 2, 5, 2)
        rep = find_violating_pair(built.graph, built.spec)
        assert rep.delta == -4
        assert rep == built.witness_pair

    def test_g0_desk_clique_cut(self):
        built = g0_desk_instance()
        rep = find_violating_pair(built.graph, built.spec)
        a, k, p = (built.params[x] for x in ("a", "k", "p"))
        assert rep is not None
        assert rep.s == tuple(range(k)) and rep.t == ()
        assert rep.delta == a * k - p

    def test_barriers_and_planted_at_scale(self):
        """n = 60-200: every barrier gets a pair with delta equal to minus
        the gadget's exposed count, at most the construction's -2, which
        recheck accepts; every planted instance gets None."""
        rng = random.Random(83)
        for _ in range(6):
            sizes = [rng.randint(15, 45) for _ in range(rng.randint(3, 5))]
            g, f = _barrier(rng, rng.randint(1, 2), sizes)
            assert 60 <= g.n <= 200
            rep = find_violating_pair(g, f)
            gadget = tutte_gadget(g, f.values, f.values)
            mate, _ = _blossom_matching(gadget.size, gadget.adj)
            assert rep.delta == -(mate.count(-1) - f.total() % 2) <= -2
            certs = certificates(rep)
            doc = build_report("audit", {}, None, (g, f), verdicts_of("audit", g, f, {}, certs),
                               certs)
            assert recheck_report(doc) == []
        for _ in range(4):
            n = rng.randint(60, 200)
            g = random_connected_graph(n, 8 / n, rng.randrange(10**6))
            keep = [e for e in g.edges() if rng.random() < 0.5]
            f = DegreeSpec(tuple(sum(v in e for e in keep) for v in range(n)))
            assert find_violating_pair(g, f) is None


def test_matcher_against_networkx():
    """The blossom matcher, from the cold start and from the gadget's
    starting matchings for the near-factor and for a random part of it,
    matches as many gadget vertices as networkx's independent
    maximum-cardinality matcher, on gadgets of graphs with n = 20-60:
    barriers, which have no factor, and random f in [1, 3]."""
    rng = random.Random(29)
    instances = [_barrier(rng, rng.randint(1, 2), [rng.randint(5, 15) for _ in range(3)])
                 for _ in range(3)]
    while len(instances) < 10:
        n = rng.randint(20, 60)
        g = random_connected_graph(n, rng.choice([0.1, 0.2, 0.3]), rng.randrange(10**6))
        d = [g.degree(v) for v in range(n)]
        f = [min(rng.randint(1, 3), x) for x in d]
        if sum(f) % 2:  # some f(v) < d(v), as f == d would sum to 2m
            f[next(v for v in range(n) if f[v] < d[v])] += 1
        instances.append((g, DegreeSpec(tuple(f))))
    kinds: Counter = Counter()
    for g, f in instances:
        assert 20 <= g.n <= 60 and f.total() % 2 == 0
        gadget = tutte_gadget(g, f.values, f.values)
        edges = [(i, j) for i, nbrs in enumerate(gadget.adj) for j in nbrs if i < j]
        size = len(nx.max_weight_matching(nx.Graph(edges), maxcardinality=True))
        near = _near_factor(g, f.values, f.values).edges
        starts = [tutte_gadget(g, f.values, f.values, edges).mate
                  for edges in (near, [e for e in near if rng.random() < 0.7])]
        for mate in [_blossom_matching(gadget.size, gadget.adj)[0]] + [
                _blossom_matching(gadget.size, gadget.adj, start)[0] for start in starts]:
            assert sum(u != -1 for u in mate) == 2 * size, (g.edges(), f.values)
        kinds["factor" if 2 * size == gadget.size else "no factor"] += 1
    assert min(kinds.values()) >= 2, kinds


class TestOracle:
    """The derived pair against the 3^n minimum-deficiency oracle."""

    @staticmethod
    def _check(g, f, kinds: Counter) -> None:
        derived = find_violating_pair(g, f)
        oracle = brute_min_deficiency(g, f)
        assert (derived is None) == (oracle is None), (g.edges(), f.values)
        if derived is not None:
            assert derived.delta == oracle.delta, (g.edges(), f.values)
            assert deficiency(g, derived.s, derived.t, f).delta == derived.delta
        kinds["odd f(X)"] += f.total() % 2
        kinds["f > d"] += any(f.values[v] > g.degree(v) for v in range(g.n))
        kinds["isolated"] += any(g.degree(v) == 0 for v in range(g.n))
        kinds["disconnected"] += not g.connected
        kinds["violating"] += derived is not None

    def test_atlas(self, small_atlas):
        rng = random.Random(89)
        kinds: Counter = Counter()
        for g in small_atlas:
            for _ in range(3):
                f = DegreeSpec(tuple(rng.randint(0, g.degree(v) + 1) for v in range(g.n)))
                self._check(g, f, kinds)
        assert min(kinds.values()) >= 50, kinds

    def test_seeded_up_to_nine(self):
        rng = random.Random(97)
        kinds: Counter = Counter()
        for _ in range(300):
            n = rng.randint(3, 9)
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng.randrange(10**6))
            f = DegreeSpec(tuple(rng.randint(0, g.degree(v) + 1) for v in range(n)))
            self._check(g, f, kinds)
        assert min(kinds.values()) >= 50, kinds

    def test_f_up_to_degree_plus_seven(self):
        # f(v) > d(v) + 2 is clamped before the gadget is built
        rng = random.Random(103)
        kinds: Counter = Counter()
        for _ in range(300):
            n = rng.randint(2, 7)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng.randrange(10**6))
            f = DegreeSpec(tuple(rng.randint(0, g.degree(v) + 7) for v in range(n)))
            self._check(g, f, kinds)
            kinds["clamped"] += any(f.values[v] > g.degree(v) + 2 for v in range(n))
        assert min(kinds.values()) >= 50, kinds


def _scaling_instance(rng):
    """A graph with n = 10-80 and an f with an even sum and f <= d: on half
    of them sparse, with f in [1, 3], mostly without a factor; on the other
    half dense, with the degrees of a random fifth of the edges, so a factor
    exists and small f takes the copy form where d - f takes the slack form."""
    n = rng.randint(10, 80)
    sparse = rng.random() < 0.5
    g = random_graph(n, rng.choice([3 / n, 6 / n] if sparse else [0.3, 0.6]),
                     rng.randrange(10**6))
    d = [g.degree(v) for v in range(n)]
    if sparse:
        f = [rng.randint(min(1, x), min(3, x)) for x in d]
    else:
        keep = [e for e in g.edges() if rng.random() < 0.2]
        f = [sum(v in e for e in keep) for v in range(n)]
    if sum(f) % 2:  # some f(v) < d(v), as f == d would sum to 2m
        f[next(v for v in range(n) if f[v] < d[v])] += 1
    return g, DegreeSpec(tuple(f))


class TestScalingOracles:
    """Two exact relations that hold at any n, above the brute-force
    oracles' reach."""

    def test_f_and_d_minus_f(self):
        """H is an f-factor iff E(G) - H is a (d - f)-factor, and
        delta_f(S, T) = delta_{d-f}(T, S) term by term, so the minimum
        delta is the same for f and d - f."""
        rng = random.Random(21)
        kinds: Counter = Counter()
        for _ in range(80):
            g, f = _scaling_instance(rng)
            dual = DegreeSpec(tuple(g.degree(v) - fv for v, fv in enumerate(f.values)))
            pair, dual_pair = find_violating_pair(g, f), find_violating_pair(g, dual)
            assert (pair is None) == (dual_pair is None), (g.edges(), f.values)
            if pair is not None:
                assert pair.delta == dual_pair.delta, (g.edges(), f.values)
                assert deficiency(g, pair.t, pair.s, dual).delta == pair.delta
            factor = find_f_factor(g, f)
            assert (factor is None) == (pair is not None)
            if factor is not None:
                assert verify_f_factor(g, dual, complement(g, factor))
            gadget, dual_gadget = tutte_gadget(g, f.values, f.values), tutte_gadget(
                g, dual.values, dual.values)
            kinds["both forms"] += any(a != b for a, b in zip(
                gadget.copy_form, dual_gadget.copy_form))
            kinds["violating"] += pair is not None
            kinds["factor"] += factor is not None
        assert min(kinds.values()) >= 10, kinds

    def test_relabelling(self):
        """A random relabelling keeps factor existence and minimum delta."""
        rng = random.Random(11)
        kinds: Counter = Counter()
        for _ in range(80):
            g, f = _scaling_instance(rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            f_h = [0] * g.n
            for v, fv in enumerate(f.values):
                f_h[perm[v]] = fv
            f_h = DegreeSpec(tuple(f_h))
            pair, pair_h = find_violating_pair(g, f), find_violating_pair(h, f_h)
            assert (pair is None) == (pair_h is None), (g.edges(), f.values)
            if pair is not None:
                assert pair.delta == pair_h.delta, (g.edges(), f.values)
            factor, factor_h = find_f_factor(g, f), find_f_factor(h, f_h)
            assert (factor is None) == (factor_h is None) == (pair is not None)
            if factor_h is not None:
                assert verify_f_factor(h, f_h, factor_h)
            kinds["violating"] += pair is not None
            kinds["factor"] += factor is not None
        assert min(kinds.values()) >= 10, kinds


def test_gadget_bound_stays_within_degree_plus_two(monkeypatch):
    """The gadget for f does not grow with f."""
    bounds = []

    def recording(g, lo, hi, h=()):
        bounds.extend(hi[v] - g.degree(v) for v in range(g.n))
        return tutte_gadget(g, lo, hi, h)

    monkeypatch.setattr(tutte, "tutte_gadget", recording)
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(n, 0.4, rng.randrange(10**6))
        f = DegreeSpec(tuple(rng.randint(0, g.degree(v) + 50) for v in range(n)))
        find_violating_pair(g, f)
    assert max(bounds) <= 2 and len(bounds) > 100


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
                rep = deficiency(g, s, [], f)
                assert rep.delta >= 0, (g.edges(), f.values, s)
        assert checked > 0
