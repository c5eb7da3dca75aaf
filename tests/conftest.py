"""Shared corpora and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: maximum
independent sets by full subset enumeration, vertex separators by subset
search, (odd-)toughness by a full scan of all subsets, matchings by
edge-subset recursion.  They are the ground truth the
fast paths are checked against.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from ffactors.graph import DegreeSpec, Graph, build_graph, components_masks, is_connected
from ffactors.instances import random_connected_graph


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


def brute_vertex_connectivity(g: Graph) -> int:
    """Minimum separator size by subset search; n-1 when none disconnects."""
    if g.n <= 1:
        return 0
    if not is_connected(g):
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


def brute_maximum_matching_size(g: Graph) -> int:
    """Maximum matching cardinality by recursion over the edge list."""
    edges = g.edges()

    def rec(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        best = rec(i + 1, used)
        if not (used >> u & 1) and not (used >> v & 1):
            best = max(best, 1 + rec(i + 1, used | (1 << u) | (1 << v)))
        return best

    return rec(0, 0)


def atlas_graphs(max_n: int, connected_only: bool = False) -> list[Graph]:
    """All graphs up to isomorphism with at most max_n <= 7 vertices."""
    import networkx as nx

    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n == 0 or n > max_n:
            continue
        g = build_graph(n, list(ag.edges()))
        if connected_only and not is_connected(g):
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
