"""Constructive f-factor computation.

The solver reduces f-factor existence to perfect matching in an auxiliary
gadget graph: a vertex v of degree d with target f(v) becomes d external
vertices (one per incident edge) plus d - f(v) internal vertices, joined in
a complete bipartite block; each original edge uv contributes one bridge
edge between its two external copies.  Perfect matchings of the gadget are
in bijection with f-factors, and an original edge lies in the factor iff
its bridge edge is matched.

Matching runs on a blossom (odd-cycle contraction) algorithm with greedy
initialization; everything is deterministic given the graph's vertex order.
Brute-force enumeration oracles for f-factors and [a,b]-factors provide
independent desk-scale ground truth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import DegreeSpec, Graph

ORACLE_MAX_M = 24


@dataclass(frozen=True)
class FactorSubgraph:
    """Edge set of a spanning subgraph, as sorted (u, v) pairs with u < v."""

    edges: tuple[tuple[int, int], ...]


@dataclass
class GadgetGraph:
    """Auxiliary graph of the factor-to-matching reduction.

    Vertex v's block takes consecutive ids, v in increasing order: first its
    external copies of edges vu, u in increasing order, then its d(v) - f(v)
    internal slack vertices.  ``bridges`` maps each original edge (u, v)
    with u < v to its bridge edge's aux endpoints.
    """

    size: int
    adj: list[list[int]]
    bridges: dict[tuple[int, int], tuple[int, int]]


def tutte_gadget(g: Graph, f: DegreeSpec) -> GadgetGraph:
    """Build the factor-to-matching gadget; requires 0 <= f(v) <= d(v)."""
    for v in range(g.n):
        if f.values[v] > g.degree(v):
            raise ValueError(
                f"f({v}) = {f.values[v]} exceeds degree {g.degree(v)}"
            )
    ext_id: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = []
    for v in range(g.n):
        externals = []
        for u in g.adj[v]:
            ext_id[(v, u)] = len(adj)
            externals.append(len(adj))
            adj.append([])
        internals = list(range(len(adj), len(adj) + g.degree(v) - f.values[v]))
        adj.extend([] for _ in internals)
        for e in externals:
            for i in internals:
                adj[e].append(i)
                adj[i].append(e)
    bridges = {}
    for u, v in g.edges():
        i, j = ext_id[(u, v)], ext_id[(v, u)]
        adj[i].append(j)
        adj[j].append(i)
        bridges[(u, v)] = (i, j)
    return GadgetGraph(len(adj), adj, bridges)


def _blossom_matching(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching by blossom contraction; returns the mate array
    (mate[v] == -1 for exposed vertices)."""
    mate = [-1] * n
    # greedy initialization in index order
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        used_path = [False] * n
        while True:
            a = base[a]
            used_path[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if used_path[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, queue: deque) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root: int) -> bool:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        queue: deque[int] = deque([root])
        in_queue[root] = True
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, curbase, to, queue)
                    mark_path(to, curbase, v, queue)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        # augmenting path found: flip matched edges along it
                        w = to
                        while w != -1:
                            pw = parent[w]
                            nxt = mate[pw]
                            mate[w] = pw
                            mate[pw] = w
                            w = nxt
                        return True
                    if not in_queue[mate[to]]:
                        in_queue[mate[to]] = True
                        queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] == -1:
            augment_from(v)
    return mate


def maximum_matching(h: Graph) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching, as a sorted tuple of (u, v) edges."""
    mate = _blossom_matching(h.n, [list(nbrs) for nbrs in h.adj])
    return tuple(
        (v, mate[v]) for v in range(h.n) if mate[v] > v
    )


def find_f_factor(g: Graph, f: DegreeSpec) -> FactorSubgraph | None:
    """An f-factor if one exists, None otherwise; the existence answer is
    exact."""
    if len(f.values) != g.n:
        raise ValueError("degree spec length mismatch")
    if f.total() % 2 == 1:
        return None
    for v in range(g.n):
        if f.values[v] > g.degree(v):
            return None
    if g.n == 0:
        return FactorSubgraph(())
    gadget = tutte_gadget(g, f)
    mate = _blossom_matching(gadget.size, gadget.adj)
    if any(m == -1 for m in mate):
        return None
    edges = tuple(
        edge for edge, (i, j) in sorted(gadget.bridges.items()) if mate[i] == j
    )
    return FactorSubgraph(edges)


def verify_f_factor(g: Graph, f: DegreeSpec, h: FactorSubgraph) -> bool:
    """True iff h's edges all lie in G, none repeat, and every vertex degree
    matches f exactly."""
    degrees = [0] * g.n
    seen = set()
    for u, v in h.edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False
        degrees[u] += 1
        degrees[v] += 1
    return degrees == list(f.values)


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
