"""Constructive factor computation with degree bounds lo(v) <= deg(v) <= hi(v).

The solver reduces factor existence to perfect matching in an auxiliary
gadget graph.  A vertex v of degree d gets d external vertices, one per
incident edge, and one of two blocks joined completely to them:

- copy form, when lo(v) == hi(v) == f(v) and either f(v) < d - f(v) or
  f(v) > d: f(v) copy vertices (Tutte, "A short proof of the factor
  theorem for finite graphs", 1954).  Each copy takes one external, so
  exactly f(v) of v's externals are matched inside the block: those are
  v's edges in H.  With f(v) > d at least f(v) - d copies stay exposed.
- slack form, otherwise: d - hi(v) mandatory and hi(v) - lo(v) optional
  slack vertices (Lovász, "Subgraphs with prescribed valencies", 1970).
  Here an external matched inside the block is an edge *off* H, so the
  mandatory slack gives deg_H(v) <= hi(v) and the slack count gives
  deg_H(v) >= lo(v).

So each vertex has at most d * min(f, d - f) block edges when lo == hi.
An original edge uv joins its two externals x_u and x_v in one of three
ways, each read back from a perfect matching as stated:

- both ends copy form: a bridge x_u x_v; uv is in H iff it is unmatched
  (both externals then sit with copies);
- both ends slack form: a bridge x_u x_v; uv is in H iff it is matched;
- mixed: one subdivision vertex joined to x_u and x_v; uv is in H iff it
  is matched to the slack-form end's external, which frees the copy-form
  end's external for a copy.

All optional slack vertices form one clique, and when the sum of lo is odd
one extra vertex is joined to every optional one.  Copy-form vertices hold
no optional slack and have deg_H(v) = lo(v), so the unused optional slack
vertices number 2|H| - sum(lo), and the clique (plus the extra vertex when
that count is odd) pairs them up.  Hence a perfect matching gives a factor
H, and every factor extends to one.

Matching runs on a blossom (odd-cycle contraction) algorithm with greedy
initialization; everything is deterministic given the graph's vertex order.
Each search grows one alternating tree and costs time in that tree alone.
A search that fails leaves a Hungarian tree: no augmenting path meets it,
later augmentations flip only paths outside it, so none ever will
(Edmonds, "Paths, trees, and flowers", 1965).  Later searches skip its
vertices and the matching is still maximum.  A failed search means some
vertex stays exposed, so find_factor answers None either way.

The failed trees also hold the Gallai-Edmonds decomposition of the final
maximum matching: a tree vertex that was queued (outer) when its search
failed is missed by some maximum matching, and every other tree vertex is
a neighbour of such vertices that no maximum matching misses.
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
    external copies of edges vu, u in increasing order, then its copy
    vertices, or its mandatory and then its optional slack vertices.  The
    subdivision vertices of mixed edges follow, in edge order, and the extra
    parity vertex, if any, comes last.  ``bridges`` maps each original edge
    (u, v) with u < v to (i, j, in_if_matched): the edge is in H iff
    ``(mate[i] == j) == in_if_matched``.  That is (x_u, x_v, False) for a
    copy-copy bridge, (x_u, x_v, True) for a slack-slack bridge, and
    (subdivision vertex, slack-form end's external, True) for a mixed edge.
    Vertex v's externals and block are the ids from ``starts[v]`` up to
    ``starts[v + 1]``, and ``copy_form[v]`` says which form its block takes.
    """

    size: int
    adj: list[list[int]]
    bridges: dict[tuple[int, int], tuple[int, int, bool]]
    starts: list[int]
    copy_form: list[bool]


def tutte_gadget(g: Graph, lo: Sequence[int], hi: Sequence[int]) -> GadgetGraph:
    """Build the gadget for lo(v) <= deg(v) <= hi(v), as in the module
    docstring; requires 0 <= lo(v) <= hi(v) and, unless lo(v) == hi(v),
    lo(v) <= d(v); a bound hi(v) above d(v) counts as d(v).  Vertex v takes
    the copy form iff lo(v) == hi(v) and either 2 lo(v) < d(v) or
    lo(v) > d(v).  With lo == hi == f the gadget has 2m + sum over v of
    (f if copy form else d - f) vertices, plus one subdivision vertex per
    edge whose ends take different forms."""
    ext_id: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = []
    optional: list[int] = []
    copy_form = [False] * g.n
    starts = []
    for v in range(g.n):
        starts.append(len(adj))
        d = g.degree(v)
        if lo[v] > hi[v]:
            raise ValueError(f"lower bound {lo[v]} exceeds upper bound {hi[v]} at vertex {v}")
        copy_form[v] = lo[v] == hi[v] and (2 * lo[v] < d or lo[v] > d)
        if lo[v] > d and not copy_form[v]:
            raise ValueError(f"lower bound {lo[v]} exceeds degree {d} at vertex {v}")
        externals = []
        for u in g.adj[v]:
            ext_id[(v, u)] = len(adj)
            externals.append(len(adj))
            adj.append([])
        # a list, not a range: the block's entries then share one int
        # object per block vertex instead of allocating their own
        block = list(range(len(adj), len(adj) + (lo[v] if copy_form[v] else d - lo[v])))
        adj.extend([] for _ in block)
        for e in externals:
            for i in block:
                adj[e].append(i)
                adj[i].append(e)
        if not copy_form[v]:
            optional.extend(block[d - min(hi[v], d):])
    starts.append(len(adj))
    bridges = {}
    for u, v in g.edges():
        i, j = ext_id[(u, v)], ext_id[(v, u)]
        if copy_form[u] == copy_form[v]:
            adj[i].append(j)
            adj[j].append(i)
            bridges[(u, v)] = (i, j, not copy_form[u])
        else:
            sub = len(adj)
            adj.append([i, j])
            adj[i].append(sub)
            adj[j].append(sub)
            bridges[(u, v)] = (sub, j if copy_form[u] else i, True)
    for i, j in combinations(optional, 2):
        adj[i].append(j)
        adj[j].append(i)
    if sum(lo) % 2:
        for i in optional:
            adj[i].append(len(adj))
        adj.append(optional)
    return GadgetGraph(len(adj), adj, bridges, starts, copy_form)


def _blossom_matching(
    n: int, adj: list[list[int]], labels: list[str] | None = None
) -> list[int]:
    """Maximum matching by blossom contraction; returns the mate array
    (mate[v] == -1 for exposed vertices).  A ``labels`` list of length n
    receives the Gallai-Edmonds class of each vertex, as the module
    docstring explains: "D" if some maximum matching misses it, "A" if it
    is a neighbour of D outside D, and is left as given for the rest.

    A search from an exposed root works only on its own alternating tree:
    it resets just the vertices it touched, and a contraction relabels the
    members of the contracted blossoms, not all n vertices.  The vertices of
    a failed search's tree are marked dead and later searches skip them, as
    the module docstring explains."""
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
    dead = [False] * n
    # stamp[x] == clock marks x for the current lca walk or contraction
    stamp = [0] * n
    clock = 0

    def lca(a: int, b: int) -> int:
        nonlocal clock
        clock += 1
        while True:
            a = base[a]
            stamp[a] = clock
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if stamp[b] == clock:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, marked: list[int]) -> None:
        while base[v] != b:
            for x in (base[v], base[mate[v]]):
                if stamp[x] != clock:
                    stamp[x] = clock
                    marked.append(x)
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root: int, tree: list[int]) -> bool:
        nonlocal clock
        # members[b]: the vertices whose base is b, for contracted bases b
        members: dict[int, list[int]] = {}
        queue: deque[int] = deque([root])
        in_queue[root] = True
        tree.append(root)
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if dead[to] or base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = lca(v, to)
                    clock += 1
                    marked: list[int] = []
                    mark_path(v, curbase, to, marked)
                    mark_path(to, curbase, v, marked)
                    blossom = members.setdefault(curbase, [curbase])
                    fresh = []
                    # every marked base lies strictly below curbase in the tree
                    for b in marked:
                        group = members.pop(b, None) or [b]
                        for i in group:
                            base[i] = curbase
                            if not in_queue[i]:
                                fresh.append(i)
                        blossom.extend(group)
                    # increasing index order, as a scan of all vertices would
                    fresh.sort()
                    for i in fresh:
                        in_queue[i] = True
                        queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
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
                        tree.append(mate[to])
        return False

    for v in range(n):
        if mate[v] == -1 and not dead[v]:
            tree: list[int] = []
            found = augment_from(v, tree)
            if not found and labels is not None:
                for i in tree:
                    labels[i] = "D" if in_queue[i] else "A"
            for i in tree:
                parent[i] = -1
                base[i] = i
                in_queue[i] = False
                dead[i] = not found
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
    gadget = tutte_gadget(g, lo, hi)
    mate = _blossom_matching(gadget.size, gadget.adj)
    if any(m == -1 for m in mate):
        return None
    edges = tuple(
        edge for edge, (i, j, in_if_matched) in sorted(gadget.bridges.items())
        if (mate[i] == j) == in_if_matched
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
