"""Constructive factor computation with degree bounds lo(v) <= deg(v) <= hi(v).

The solver reduces factor existence to perfect matching in an auxiliary
gadget graph.  A vertex v of degree d gets d external vertices, one per
incident edge, and the smaller of two blocks joined completely to them.
With t = min(hi(v), d), v takes

- the copy form iff lo(v) + t < d or lo(v) > d: max(lo(v), t) copy
  vertices, the first lo(v) of them mandatory (Tutte, "A short proof of
  the factor theorem for finite graphs", 1954).  The externals matched
  to copies are v's edges in H, so lo(v) <= deg_H(v) <= t; with
  lo(v) > d, at least lo(v) - d copies stay exposed.
- the slack form otherwise: d - t mandatory and t - lo(v) optional slack
  vertices (Lovász, "Subgraphs with prescribed valencies", 1970).  Here
  an external matched inside the block is an edge *off* H, so the
  mandatory slack gives deg_H(v) <= t and the slack count gives
  deg_H(v) >= lo(v).

Either way the optional vertices are the block's last t - lo(v), and v has
at most d * min(t, d - lo(v)) block edges when lo(v) <= d.
An original edge uv joins its two externals x_u and x_v by a bridge x_u x_v
when both ends take the same form, and otherwise (a mixed edge) through one
subdivision vertex joined to both.  Readback: uv is in H iff x_u is matched
into u's own block exactly when u takes the copy form.  In a perfect
matching, a copy-form x_u is matched either to one of u's copies, and then
uv is in H, or across the edge: to x_v on a copy-copy bridge, or to the
subdivision vertex of a mixed edge; both leave uv out.  A slack-form x_u is
matched either to one of u's slack vertices, and then uv is not in H, or
across the edge, and both cross cases put uv in H: the slack-slack bridge
is matched, or the subdivision vertex takes the slack end's external and
frees the copy end's external for a copy.  So either endpoint decides.

With q > 0 optional vertices, a pairing path of 2q + e vertices comes
last, e the parity of the vertex count before it, and optional vertex k is
joined to its vertices 2k and 2k + 1.  Pairing lemma: the path plus a set
U of optional vertices has a perfect matching iff |U| = e mod 2.  Sweep
the pairs (2k, 2k + 1) in order: k in U takes 2k when the open run is
even, else 2k + 1, so each closed run is even and the last has parity
|U| + e.  A factor H gives a matching of the vertices before the path
but a set U of optional ones, so |U| = e (mod 2): a perfect matching
gives a factor, and every factor extends to one.

The solver first looks for the factor on G itself (``_near_factor``): a
greedy pass, then alternating trails from the vertices still short of
lo(v).  When that finds a factor, no gadget is built.  Otherwise the
writeback (``_writeback``), the readback run backwards, turns its subgraph
into a partial matching of the gadget, and the matcher starts from that.
Matching runs on a blossom (odd-cycle contraction) algorithm, which ends
in a maximum matching from any start; everything is deterministic given
the graph's vertex order.
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
    and then its optional copy or slack vertices.  The subdivision vertices
    of mixed edges follow, in edge order, and the pairing path, if any,
    comes last.  The layout is ``starts`` plus
    ``copy_form``, and no per-edge table is kept: vertex v's externals and
    block are the ids from ``starts[v]`` up to ``starts[v + 1]``, its
    external for its k-th neighbour is ``starts[v] + k``, and
    ``copy_form[v]`` says which form its block takes.
    """

    size: int
    adj: list[list[int]]
    starts: list[int]
    copy_form: list[bool]


def tutte_gadget(g: Graph, lo: Sequence[int], hi: Sequence[int]) -> GadgetGraph:
    """Build the gadget for lo(v) <= deg(v) <= hi(v), as in the module
    docstring; requires 0 <= lo(v) <= hi(v) and, unless lo(v) == hi(v),
    lo(v) <= d(v); a bound hi(v) above d(v) counts as d(v).  Vertex v takes
    the smaller block: the copy form iff lo(v) + min(hi(v), d(v)) < d(v)
    or lo(v) > d(v)."""
    adj: list[list[int]] = []
    optional: list[int] = []
    copy_form = [False] * g.n
    starts = []
    for v in range(g.n):
        starts.append(len(adj))
        d = g.degree(v)
        if lo[v] > hi[v]:
            raise ValueError(f"lower bound {lo[v]} exceeds upper bound {hi[v]} at vertex {v}")
        if lo[v] > d and lo[v] != hi[v]:
            raise ValueError(f"lower bound {lo[v]} exceeds degree {d} at vertex {v}")
        t = min(hi[v], d)
        copy_form[v] = lo[v] + t < d or lo[v] > d
        externals = range(len(adj), len(adj) + d)
        adj.extend([] for _ in externals)
        # a list, not a range: the block's entries then share one int
        # object per block vertex instead of allocating their own
        block = list(range(len(adj), len(adj) + (max(lo[v], t) if copy_form[v] else d - lo[v])))
        adj.extend([] for _ in block)
        for e in externals:
            for i in block:
                adj[e].append(i)
                adj[i].append(e)
        optional.extend(block[len(block) - t + lo[v]:])
    starts.append(len(adj))
    nxt = starts[:-1]  # v's next unwired external: g.edges() meets v's neighbours in order
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
        # the pairing path: optional vertex k is joined to path vertices 2k and 2k + 1
        path = range(len(adj), len(adj) + 2 * len(optional) + len(adj) % 2)
        adj.extend([p for p in (i - 1, i + 1) if p in path] for i in path)
        for k, i in enumerate(optional):
            for p in path[2 * k:2 * k + 2]:
                adj[i].append(p)
                adj[p].append(i)
    return GadgetGraph(len(adj), adj, starts, copy_form)


def _near_factor(g: Graph, lo: Sequence[int], hi: Sequence[int]) -> FactorSubgraph:
    """A subgraph H of G with deg_H(v) <= min(hi(v), d(v)) everywhere that
    tries to reach lo(v) at every v; a factor whenever every vertex gets
    there, which ``verify_factor`` tells.

    One greedy pass visits the vertices in order, and each vertex u takes
    edges to later neighbours until it reaches its want, min(lo(u), d(u)),
    joining only neighbours still below theirs.  It takes first the
    neighbours v with the fewest undecided edges to spare: the edges of v
    not yet decided after uv, less what v still lacks to reach its want.
    Aiming at lo, not at the cap, leaves room for the trails to end in.
    Then each vertex u below lo(u) searches breadth-first for
    a trail from u whose edges alternate off H and in H, starting off H,
    that ends where flipping it keeps every bound: at another vertex below
    its cap after an edge off H, at a vertex above its lo after an edge in
    H, or back at u after an edge off H when u has room for two more.
    Flipping the trail raises u and changes no inner vertex.  The search
    walks states (vertex, kind of the last edge), so its walk may repeat
    an edge; such a walk is skipped, and u stays below lo(u)."""
    n, adj = g.n, g.adj
    cap = [min(h, len(nbrs)) for h, nbrs in zip(hi, adj)]
    nbrs_h: list[set[int]] = [set() for _ in range(n)]  # deg_H(v) = len(nbrs_h[v])
    want = [min(low, c) for low, c in zip(lo, cap)]
    undecided = [len(nbrs) for nbrs in adj]
    for u in range(n):
        later = [v for v in adj[u] if v > u]
        for v in later:
            undecided[v] -= 1
        room = want[u] - len(nbrs_h[u])
        if room > 0:
            later = [v for v in later if len(nbrs_h[v]) < want[v]]
            if len(later) > room:
                # the neighbours with the fewest undecided edges to spare first
                later.sort(key=lambda v: undecided[v] - want[v] + len(nbrs_h[v]))
            for v in later[:room]:
                nbrs_h[u].add(v)
                nbrs_h[v].add(u)
    parent = [-1] * (2 * n)  # state 2v + 1: at v after an edge off H, so one in H is next
    for u in range(n):
        while len(nbrs_h[u]) < lo[u]:
            parent[2 * u] = 2 * u
            reached = [2 * u]  # in breadth-first order
            end = -1
            for state in reached:
                v, off = state >> 1, state & 1
                at_v = nbrs_h[v]
                for w in adj[v]:
                    nxt = 2 * w + 1 - off
                    if (w in at_v) != off or parent[nxt] != -1:
                        continue
                    parent[nxt] = state
                    reached.append(nxt)
                    d = len(nbrs_h[w])
                    if (d > lo[w] and w != u) if off else d < cap[w] - (w == u):
                        end = nxt
                        break
                if end != -1:
                    break
            trail = []
            while end not in (-1, 2 * u):
                a, b = end >> 1, parent[end] >> 1
                trail.append((min(a, b), max(a, b)))
                end = parent[end]
            for state in reached:
                parent[state] = -1
            if not trail or len(set(trail)) < len(trail):
                break
            for a, b in trail:
                nbrs_h[a] ^= {b}
                nbrs_h[b] ^= {a}
    return FactorSubgraph(tuple((u, v) for u in range(n) for v in adj[u]
                                if u < v and v in nbrs_h[u]))


def _writeback(g: Graph, gadget: GadgetGraph, edges) -> list[int]:
    """A matching of ``gadget``, as a mate list with -1 for exposed
    vertices, that reads back to the subgraph of G with these edges by the
    module docstring's rule.  An external goes into its own block, to the
    block's lowest free vertex, when its edge's membership in H equals its
    end's copy form, and across the edge otherwise: to the other external
    on a bridge, or to the subdivision vertex of a mixed edge, which takes
    whichever of its two externals crosses.  An external left without a
    free block vertex stays exposed.  The pairing path then takes the
    optional vertices still exposed by the sweep of the pairing lemma; it
    leaves one path vertex exposed when their count has the wrong parity.
    Perfect exactly when the subgraph is a factor for the gadget's bounds."""
    starts, copy_form = gadget.starts, gadget.copy_form
    mate = [-1] * gadget.size

    def match(i: int, j: int) -> None:
        mate[i] = j
        mate[j] = i

    in_h = set(edges)
    free = [starts[v] + g.degree(v) for v in range(g.n)]
    nxt = starts[:-1]
    sub = starts[-1]
    for u, v in g.edges():
        i, j = nxt[u], nxt[v]
        nxt[u] += 1
        nxt[v] += 1
        h = (u, v) in in_h
        for w, x in ((u, i), (v, j)):
            if h == copy_form[w] and free[w] < starts[w + 1]:
                match(x, free[w])
                free[w] += 1
        if copy_form[u] != copy_form[v]:
            match(sub, j if h == copy_form[u] else i)
            sub += 1
        elif h != copy_form[u]:
            match(i, j)
    # the pairing path: path vertex 2k's last neighbour is optional vertex k
    path = range(sub, gadget.size)
    prev = -1  # the open run's last path vertex while the run is odd
    for p in path:
        if mate[p] != -1:
            continue
        opt = gadget.adj[p][-1] if (p - sub) % 2 == 0 and p + 1 in path else -1
        if opt != -1 and mate[opt] == -1:
            if prev == -1:
                match(opt, p)
            else:
                match(prev, p)
                match(opt, p + 1)
                prev = -1
        elif prev == -1:
            prev = p
        else:
            match(prev, p)
            prev = -1
    return mate


def _blossom_matching(
    n: int, adj: list[list[int]], mate: list[int] | None = None
) -> tuple[list[int], list[str]]:
    """Maximum matching by blossom contraction; returns (mate, labels):
    mate[v] == -1 for exposed vertices, and labels[v] is the Gallai-Edmonds
    class of v, as the module docstring explains: "D" if some maximum
    matching misses it, "A" if it is a neighbour of D outside D, and "" for
    the rest.  Only failed searches write labels.

    ``mate``, if given, is a starting matching, extended in place; a greedy
    pass in index order first matches what it leaves exposed.  Any start
    gives a maximum matching and the same labels.

    A search from an exposed root works only on its own alternating tree:
    it resets just the vertices it touched, and a contraction relabels the
    members of the contracted blossoms, not all n vertices.  The labelled
    vertices are exactly the dead ones, those of failed searches' trees,
    and later searches skip them, as the module docstring explains."""
    if mate is None:
        mate = [-1] * n
    labels = [""] * n
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
                if labels[to] or base[v] == base[to] or mate[v] == to:
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
        if mate[v] == -1 and not labels[v]:
            tree: list[int] = []
            found = augment_from(v, tree)
            if not found:
                for i in tree:
                    labels[i] = "D" if in_queue[i] else "A"
            for i in tree:
                parent[i] = -1
                base[i] = i
                in_queue[i] = False
    return mate, labels


def find_factor(g: Graph, lo: Sequence[int], hi: Sequence[int]) -> FactorSubgraph | None:
    """A spanning subgraph with lo(v) <= deg(v) <= hi(v) for every v if one
    exists, None otherwise; the existence answer is exact.

    The near-factor of ``_near_factor`` is returned as it is when it is a
    factor, and no gadget is built.  Otherwise the blossom matcher starts
    from its writeback into the gadget, and the factor is read back from
    a perfect matching; a maximum matching that is not perfect means no
    factor, whatever the start."""
    if not len(lo) == len(hi) == g.n:
        raise ValueError("degree spec length mismatch")
    if any(low > min(h, g.degree(v)) for v, (low, h) in enumerate(zip(lo, hi))):
        return None
    if sum(lo) % 2 and all(low == min(h, g.degree(v)) for v, (low, h) in enumerate(zip(lo, hi))):
        return None  # no optional vertex: the degrees are lo(v) and sum to 2|H|
    near = _near_factor(g, lo, hi)
    if verify_factor(g, lo, hi, near):
        return near
    gadget = tutte_gadget(g, lo, hi)
    mate, _ = _blossom_matching(gadget.size, gadget.adj, _writeback(g, gadget, near.edges))
    if -1 in mate:
        return None
    starts, copy_form = gadget.starts, gadget.copy_form
    # the readback of the module docstring, read at the smaller end u
    return FactorSubgraph(tuple(
        (u, v) for u in range(g.n) for k, v in enumerate(g.adj[u])
        if u < v and (starts[u] <= mate[starts[u] + k] < starts[u + 1]) == copy_form[u]
    ))


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
