"""Shared corpora and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: maximum
independent sets by full subset enumeration (and, for larger graphs and
exact witnesses, by the branch and bound without its cover bound), vertex separators by subset
search (of the whole graph, and between one pair of vertices),
(odd-)toughness by a full scan of all subsets, cutsets by a screen of
every subset, matchings by
vertex-subset recursion, degree-bounded factors by edge-subset recursion
and minimum-deficiency pairs by all 3^n disjoint pairs, each evaluated on
bitmasks.  They are the ground truth the fast paths are checked against.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from ffactors.graph import (
    DegreeSpec,
    Graph,
    _bits_of,
    _reach,
    build_graph,
    components_masks,
)
from ffactors.instances import random_connected_graph
from ffactors.invariants import TOUGHNESS_MAX_N
from ffactors.solver import FactorSubgraph, _blossom_matching
from ffactors.theorems import THEOREMS, HypothesisReport
from ffactors.tutte import DeficiencyReport

ORACLE_MAX_M = 24


def f_sum(f: DegreeSpec, vertices) -> int:
    """Sum of target degrees over a vertex set."""
    return sum(f.values[v] for v in vertices)


def run_confirmed(name: str, g: Graph, f: DegreeSpec | None = None,
                  **params) -> HypothesisReport:
    """Run theorem ``name`` as ``verify-theorem --confirm`` does: its checker,
    then the solver on a met prediction.  ``params`` override the CLI's
    defaults a=1, b=2, r=1 and star_order=3."""
    namespace = SimpleNamespace(a=1, b=2, r=1, star_order=3, confirm=True,
                                toughness_max_n=TOUGHNESS_MAX_N)
    vars(namespace).update(params)
    return THEOREMS[name].run(g, f, namespace)


def pytest_configure(config):
    """Let the tests' ``python -m ffactors.cli`` subprocesses import this
    checkout's package, as pyproject's pytest ``pythonpath`` does for the
    test process itself."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path
    )


def brute_stability(g: Graph) -> int:
    """Maximum independent set size by 2^n enumeration."""
    masks = g.adj_masks
    best = 0
    for subset in range(1 << g.n):
        ok = True
        s = subset
        while s:
            low = s & -s
            if masks[low.bit_length() - 1] & subset:
                ok = False
                break
            s ^= low
        if ok:
            best = max(best, subset.bit_count())
    return best


def plain_max_independent(g: Graph, avail: int, target: int | None = None) -> tuple[int, int]:
    """``graph._max_independent`` without its clique-cover bound: the same
    branch and bound, pruned only when the chosen vertices plus every
    remaining one cannot beat the best found.  It must return the identical
    ``(size, mask)``, witness included."""
    masks = g.adj_masks
    best, best_set = (0 if target is None else target - 1), 0
    stack = [(avail, 0, 0)]
    while stack:
        avail, chosen, size = stack.pop()
        while size + avail.bit_count() > best:
            if not avail:
                best, best_set = size, chosen
                break
            pick, pick_deg = -1, -1
            a = avail
            while a:
                low = a & -a
                v = low.bit_length() - 1
                d = (masks[v] & avail).bit_count()
                if d <= 1:
                    pick, pick_deg = v, d
                    break
                if d > pick_deg:
                    pick, pick_deg = v, d
                a ^= low
            bit = 1 << pick
            if pick_deg > 1:
                stack.append((avail ^ bit, chosen, size))
            avail &= ~bit & ~masks[pick]
            chosen |= bit
            size += 1
            if size == target:
                return size, chosen
    return best, best_set


def brute_vertex_connectivity(g: Graph) -> int:
    """Minimum separator size by subset search; n-1 when none disconnects."""
    if g.n <= 1:
        return 0
    if not g.connected:
        return 0
    for size in range(g.n - 1):
        for combo in combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            rest = g.full_mask & ~mask
            if rest and len(components_masks(g, rest)) >= 2:
                return size
    return g.n - 1


def brute_local_connectivity(g: Graph, s: int, t: int) -> int:
    """Fewest vertices other than the non-adjacent s and t whose removal
    leaves s and t in different components, by subset search; by Menger's
    theorem, the maximum number of internally vertex-disjoint s-t paths."""
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            comps = components_masks(g, g.full_mask & ~mask)
            if not any(c >> s & 1 and c >> t & 1 for c in comps):
                return size
    raise ValueError("s and t are adjacent")


def brute_min_ratio(g: Graph, f: DegreeSpec | None = None):
    """Toughness (f None) or odd-toughness by a scan of all 2^n subsets in
    mask order: the minimum of |S| / w over the S whose removal leaves at
    least two components and w > 0, where w counts the components (f None)
    or those with odd f-sum.  Returns (ratio, first minimizer), or
    (None, None) when no S qualifies."""
    best = witness = None
    for s in range(1, 1 << g.n):
        comps = components_masks(g, g.full_mask & ~s)
        if f is None:
            w = len(comps)
        else:
            w = sum(sum(f.values[v] for v in range(g.n) if c >> v & 1) % 2 for c in comps)
        if len(comps) >= 2 and w and (best is None or Fraction(s.bit_count(), w) < best):
            best = Fraction(s.bit_count(), w)
            witness = tuple(v for v in range(g.n) if s >> v & 1)
    return best, witness


def brute_cutsets(g: Graph, size: int) -> list[tuple[int, list[int]]]:
    """The cutsets S of ``size`` vertices, each with the components of G-S,
    in ``combinations`` order: every subset, kept when one BFS from the
    lowest vertex of G-S does not cover it."""
    out = []
    for combo in combinations(range(g.n), size):
        rest = g.full_mask & ~sum(1 << v for v in combo)
        if rest and _reach(g.adj_masks, rest) != rest:
            out.append((g.full_mask & ~rest, components_masks(g, rest)))
    return out


def brute_maximum_matching_size(g: Graph, mask: int | None = None) -> int:
    """Maximum matching cardinality of the subgraph induced on ``mask``
    (default all of G) by recursion over vertex subsets: the lowest
    remaining vertex is left exposed or matched to one of its remaining
    neighbours, memoized on the remaining set."""
    masks = g.adj_masks

    @cache
    def rec(rest: int) -> int:
        if not rest:
            return 0
        low = rest & -rest
        rest ^= low
        best = rec(rest)
        nbrs = masks[low.bit_length() - 1] & rest
        while nbrs:
            u = nbrs & -nbrs
            best = max(best, 1 + rec(rest ^ u))
            nbrs ^= u
        return best

    return rec(g.full_mask if mask is None else mask)


def brute_gallai_edmonds(g: Graph) -> tuple[set[int], set[int]]:
    """Gallai-Edmonds (D, A) from the definition: v is in D iff G - v has a
    maximum matching as large as G's, and A = N(D) minus D."""
    size = brute_maximum_matching_size(g)
    d = {v for v in range(g.n)
         if brute_maximum_matching_size(g, g.full_mask ^ (1 << v)) == size}
    a = {u for v in d for u in g.adj[v]} - d
    return d, a


def maximum_matching(h: Graph) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching from the solver's blossom matcher, as a
    sorted tuple of (u, v) edges."""
    mate, _ = _blossom_matching(h.n, [list(nbrs) for nbrs in h.adj])
    return tuple(
        (v, mate[v]) for v in range(h.n) if mate[v] > v
    )


def oracle_deficiencies(g: Graph, f: DegreeSpec):
    """(S, T, (f_s, f_t, degree_term, h, delta)) for all 3^n disjoint pairs,
    S and T as masks, evaluated on neighbour bitmasks without
    ``tutte._evaluate``.  Pairs are grouped by U = S u T: the components of
    G - U are found once per U, with, as bitmasks over them, the components
    of odd f-sum and, for each v in U, those that v has an odd number of
    edges into.  Then for every T within U, with S = U - T, h counts the
    components left odd by f(C) + e(C, T)."""
    fvals, masks, full = f.values, g.adj_masks, g.full_mask
    for u_mask in range(full + 1):
        comps = components_masks(g, full & ~u_mask)
        f_u = sum(fvals[v] for v in _bits_of(u_mask))
        odd_f = sum((sum(fvals[v] for v in _bits_of(comp)) & 1) << i
                    for i, comp in enumerate(comps))
        odd_e = {v: sum(((masks[v] & comp).bit_count() & 1) << i
                        for i, comp in enumerate(comps))
                 for v in _bits_of(u_mask)}
        t_mask = u_mask
        while True:
            s_mask = u_mask & ~t_mask
            t_bits = _bits_of(t_mask)
            f_t = sum(fvals[v] for v in t_bits)
            f_s = f_u - f_t
            degree_term = sum((masks[v] & ~s_mask).bit_count() for v in t_bits)
            odd = odd_f
            for v in t_bits:
                odd ^= odd_e[v]
            h = odd.bit_count()
            yield s_mask, t_mask, (f_s, f_t, degree_term, h, f_s - f_t + degree_term - h)
            if not t_mask:
                break
            t_mask = (t_mask - 1) & u_mask


def brute_min_deficiency(g: Graph, f: DegreeSpec) -> DeficiencyReport | None:
    """The pair with delta < 0 that is least under (delta, |S|+|T|, S, T)
    over all 3^n disjoint pairs, or None when no pair violates."""
    best_key = best = None
    for s_mask, t_mask, res in oracle_deficiencies(g, f):
        if res[4] < 0:
            key = (res[4], s_mask.bit_count() + t_mask.bit_count(),
                   _bits_of(s_mask), _bits_of(t_mask))
            if best_key is None or key < best_key:
                best_key = key
                best = DeficiencyReport(key[2], key[3], *res)
    return best


def _edge_search(
    g: Graph, lo: list[int], hi: list[int], max_m: int
) -> FactorSubgraph | None:
    """Exhaustive edge-subset search for a spanning subgraph with degrees in
    [lo(v), hi(v)], pruned by degree feasibility; include-first order makes
    the witness deterministic."""
    if g.m > max_m:
        raise ValueError(
            f"brute-force enumeration refused for m={g.m} > cap {max_m}"
        )
    edges = list(g.edges())
    used = [0] * g.n
    remaining = [g.degree(v) for v in range(g.n)]

    def search(i: int) -> list[tuple[int, int]] | None:
        if i == len(edges):
            return [] if all(lo[v] <= used[v] for v in range(g.n)) else None
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        try:
            if used[u] < hi[u] and used[v] < hi[v]:
                used[u] += 1
                used[v] += 1
                if (used[u] + remaining[u] >= lo[u]
                        and used[v] + remaining[v] >= lo[v]):
                    sub = search(i + 1)
                    if sub is not None:
                        return [edges[i]] + sub
                used[u] -= 1
                used[v] -= 1
            if used[u] + remaining[u] >= lo[u] and used[v] + remaining[v] >= lo[v]:
                return search(i + 1)
            return None
        finally:
            remaining[u] += 1
            remaining[v] += 1

    result = search(0)
    return None if result is None else FactorSubgraph(tuple(sorted(result)))


def brute_force_f_factor(
    g: Graph, f: DegreeSpec, max_m: int = ORACLE_MAX_M
) -> FactorSubgraph | None:
    """Independent existence oracle: exhaustive search over edge subsets."""
    return _edge_search(g, list(f.values), list(f.values), max_m)


def brute_force_ab_factor(
    g: Graph, a: int, b: int, max_m: int = ORACLE_MAX_M
) -> FactorSubgraph | None:
    """Exhaustive search for a spanning subgraph with all degrees in [a, b]."""
    if a > b:
        raise ValueError("need a <= b")
    return _edge_search(g, [a] * g.n, [b] * g.n, max_m)


def complement(g: Graph, h: FactorSubgraph) -> FactorSubgraph:
    """E(G) minus h: an f-factor's complement is a (d - f)-factor, and an
    [lo, hi]-factor's a [d - hi, d - lo]-factor."""
    kept = set(h.edges)
    return FactorSubgraph(tuple(e for e in g.edges() if e not in kept))


def atlas_graphs(max_n: int, connected_only: bool = False) -> list[Graph]:
    """All graphs up to isomorphism with at most max_n <= 7 vertices."""
    import networkx as nx

    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n == 0 or n > max_n:
            continue
        g = build_graph(n, list(ag.edges()))
        if connected_only and not g.connected:
            continue
        out.append(g)
    return out


def seeded_corpus(count: int, n_lo: int, n_hi: int, seed: int) -> list[Graph]:
    """Seeded random connected graphs with varied densities."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.choice([0.3, 0.5, 0.7, 0.9])
        out.append(random_connected_graph(n, p, rng.randrange(2**31)))
    return out


@pytest.fixture(scope="session")
def small_atlas():
    return atlas_graphs(6)


@pytest.fixture(scope="session")
def small_atlas_connected():
    return atlas_graphs(6, connected_only=True)
