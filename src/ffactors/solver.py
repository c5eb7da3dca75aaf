"""Constructive factor computation with degree bounds lo(v) <= deg(v) <= hi(v).

The solver reduces factor existence to perfect matching in an auxiliary
gadget graph (Lovász, "Subgraphs with prescribed valencies", 1970).  A
vertex v of degree d gets d external vertices (one per incident edge),
d - hi(v) mandatory and hi(v) - lo(v) optional slack vertices, each slack
vertex joined to all of v's externals.  Each original edge uv contributes
one bridge edge between its two external copies.  All optional slack
vertices form one clique, and when the sum of lo is odd one extra vertex is
joined to every optional one.  A perfect matching gives a factor H (the
matched bridges), and every factor extends to one:

- the mandatory slack must be matched, so deg_H(v) <= hi(v);
- v's externals off H need slack, so deg_H(v) >= lo(v);
- the unused optional slack vertices number 2|H| - sum(lo), so the clique
  (plus the extra vertex when that count is odd) pairs them up.

An f-factor is the case lo = hi = f, whose gadget has no optional slack.
Matching runs on a blossom (odd-cycle contraction) algorithm with greedy
initialization; everything is deterministic given the graph's vertex order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graph import DegreeSpec, Graph


@dataclass(frozen=True)
class FactorSubgraph:
    """Edge set of a spanning subgraph, as sorted (u, v) pairs with u < v."""

    edges: tuple[tuple[int, int], ...]


@dataclass
class GadgetGraph:
    """Auxiliary graph of the factor-to-matching reduction.

    Vertex v's block takes consecutive ids, v in increasing order: first its
    external copies of edges vu, u in increasing order, then its mandatory
    and then its optional slack vertices; the extra parity vertex, if any,
    comes last.  ``bridges`` maps each original edge (u, v) with u < v to
    its bridge edge's aux endpoints.
    """

    size: int
    adj: list[list[int]]
    bridges: dict[tuple[int, int], tuple[int, int]]


def tutte_gadget(g: Graph, lo: Sequence[int], hi: Sequence[int]) -> GadgetGraph:
    """Build the gadget for lo(v) <= deg(v) <= hi(v), as in the module
    docstring; requires 0 <= lo(v) <= min(hi(v), d(v)), and a bound hi(v)
    above d(v) counts as d(v).  With lo == hi == f it has 2m + sum(d - f)
    vertices."""
    ext_id: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = []
    optional: list[int] = []
    for v in range(g.n):
        d = g.degree(v)
        if lo[v] > d:
            raise ValueError(f"f({v}) = {lo[v]} exceeds degree {d}")
        if lo[v] > hi[v]:
            raise ValueError(f"lower bound {lo[v]} exceeds upper bound {hi[v]} at vertex {v}")
        externals = []
        for u in g.adj[v]:
            ext_id[(v, u)] = len(adj)
            externals.append(len(adj))
            adj.append([])
        # a list, not a range: the block's d * (d - lo) entries then share
        # one int object per slack vertex instead of allocating their own
        slack = list(range(len(adj), len(adj) + d - lo[v]))
        adj.extend([] for _ in slack)
        for e in externals:
            for i in slack:
                adj[e].append(i)
                adj[i].append(e)
        optional.extend(slack[d - min(hi[v], d):])
    for i, j in combinations(optional, 2):
        adj[i].append(j)
        adj[j].append(i)
    if sum(lo) % 2:
        for i in optional:
            adj[i].append(len(adj))
        adj.append(optional)
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

    def mark_path(v: int, b: int, child: int) -> None:
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
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
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


def find_factor(g: Graph, lo: Sequence[int], hi: Sequence[int]) -> FactorSubgraph | None:
    """A spanning subgraph with lo(v) <= deg(v) <= hi(v) for every v if one
    exists, None otherwise; the existence answer is exact."""
    if not len(lo) == len(hi) == g.n:
        raise ValueError("degree spec length mismatch")
    top = [min(h, g.degree(v)) for v, h in enumerate(hi)]
    # with no optional slack an odd sum(lo) leaves the parity vertex bare
    if any(low > t for low, t in zip(lo, top)) or (list(lo) == top and sum(lo) % 2):
        return None
    if g.n == 0:
        return FactorSubgraph(())
    gadget = tutte_gadget(g, lo, hi)
    mate = _blossom_matching(gadget.size, gadget.adj)
    if any(m == -1 for m in mate):
        return None
    edges = tuple(
        edge for edge, (i, j) in sorted(gadget.bridges.items()) if mate[i] == j
    )
    return FactorSubgraph(edges)


def find_f_factor(g: Graph, f: DegreeSpec) -> FactorSubgraph | None:
    """An f-factor if one exists, None otherwise; the existence answer is
    exact."""
    return find_factor(g, f.values, f.values)


def verify_factor(
    g: Graph, lo: Sequence[int], hi: Sequence[int], h: FactorSubgraph
) -> bool:
    """True iff h's edges all lie in G, none repeat, and every vertex degree
    lies in [lo(v), hi(v)]."""
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
    return len(lo) == len(hi) == g.n and all(
        low <= d <= high for low, d, high in zip(lo, degrees, hi)
    )


def verify_f_factor(g: Graph, f: DegreeSpec, h: FactorSubgraph) -> bool:
    """True iff h's edges all lie in G, none repeat, and every vertex degree
    matches f exactly."""
    return verify_factor(g, f.values, f.values, h)
