"""Immutable simple-graph values, subset primitives, and structured builders.

Vertices are dense integer indices ``0..n-1``; every subset is a sorted,
duplicate-free tuple over these indices, or a bitmask inside the exact
routines.  Graphs are immutable after construction; subgraphs such as G-S
are never built, the routines work on vertex masks instead.  Neighbor sets
are kept sorted for deterministic iteration.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence


def as_vertex_set(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize an iterable of vertex indices into a sorted tuple.

    Raises ``ValueError`` on duplicates or indices outside ``0..n-1``.
    """
    vs = sorted(vertices)
    for i, v in enumerate(vs):
        if not 0 <= v < n:
            raise ValueError(f"vertex index {v} out of range for n={n}")
        if i > 0 and vs[i - 1] == v:
            raise ValueError(f"duplicate vertex index {v}")
    return tuple(vs)


def _mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no multi-edges, symmetric adjacency."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks, for fast subset arithmetic."""
        return tuple(_mask_of(nbrs) for nbrs in self.adj)

    @cached_property
    def union_tables(self) -> tuple[list[int], ...]:
        """For each byte of vertex indices (8k to 8k+7), the union of the
        neighbour masks of every subset of that byte, indexed by the
        subset's bits."""
        masks, tables = self.adj_masks, []
        for lo in range(0, self.n, 8):
            table = [0] * (1 << min(8, self.n - lo))
            for i in range(1, len(table)):
                low = i & -i
                table[i] = table[i ^ low] | masks[lo + low.bit_length() - 1]
            tables.append(table)
        return tuple(tables)

    @cached_property
    def connected(self) -> bool:
        """True for connected graphs, by one BFS over the adjacency lists; a
        single vertex counts as connected, the null graph does not."""
        if not self.n:
            return False
        seen, queue = bytearray(self.n), [0]
        seen[0] = 1
        for v in queue:
            for u in self.adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    queue.append(u)
        return len(queue) == self.n

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def max_independent(self) -> tuple[int, int]:
        """A maximum independent set as ``(size, mask)``, searched once per
        graph by ``_max_independent``."""
        return _max_independent(self, self.full_mask)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return tuple((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        i = bisect_left(self.adj[u], v)
        return self.adj[u][i:i + 1] == (v,)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, collapsing duplicate and reversed edge pairs.

    Raises ``ValueError`` for loops or out-of-range indices.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


@dataclass(frozen=True)
class DegreeSpec:
    """Per-vertex target degrees."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, fv in enumerate(self.values):
            if fv < 0:
                raise ValueError(f"negative target degree {fv} at vertex {v}")

    def total(self) -> int:
        return sum(self.values)


def constant_spec(graph: Graph, value: int) -> DegreeSpec:
    return DegreeSpec((value,) * graph.n)


def _reach(unions: tuple[list[int], ...], mask: int) -> int:
    """The component of the lowest vertex in the subgraph induced on the
    non-empty ``mask``: a BFS that reads one ``Graph.union_tables`` entry
    per non-empty byte of each frontier, and stops once it covers ``mask``."""
    reached = frontier = mask & -mask
    while frontier:
        nbrs = 0
        while frontier:
            shift = ((frontier & -frontier).bit_length() - 1) & ~7
            byte = frontier >> shift & 255
            nbrs |= unions[shift >> 3][byte]
            frontier ^= byte << shift
        frontier = nbrs & mask & ~reached
        reached |= frontier
        if reached == mask:
            break
    return reached


def components_masks(g: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, as bitmasks.

    Ordered by smallest contained vertex index.
    """
    unions, out = g.union_tables, []
    while mask:
        out.append(_reach(unions, mask))
        mask &= ~out[-1]
    return out


def _odd_count(comps: list[int], fvals: Sequence[int]) -> int:
    """How many of the component masks have an odd sum of ``fvals``."""
    h = 0
    for comp in comps:
        tot = 0
        while comp:
            low = comp & -comp
            tot += fvals[low.bit_length() - 1]
            comp ^= low
        h += tot & 1
    return h


def is_connected(g: Graph) -> bool:
    """True for connected graphs; ``g.connected``, searched once per graph."""
    return g.connected


def min_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return min(len(nbrs) for nbrs in g.adj)


def is_star_free(g: Graph, n: int) -> bool:
    """True iff the graph has no induced K_{1,n}: no vertex with ``n``
    pairwise non-adjacent neighbors."""
    if n < 2:
        raise ValueError("star order must be at least 2")
    return all(g.degree(v) < n or _max_independent(g, g.adj_masks[v], n)[0] < n
               for v in range(g.n))


def _max_independent(g: Graph, avail: int, target: int | None = None) -> tuple[int, int]:
    """A largest independent subset of the vertex mask ``avail`` as
    ``(size, mask)``.  With a ``target``, only subsets of ``target`` vertices
    are sought: the first one found is returned, or ``(target - 1, 0)`` when
    there is none.

    Branch and bound on an explicit stack, pruning when the chosen vertices
    plus every remaining one cannot beat the best found.  Past that test, a
    node is also pruned by a greedy clique cover of the remaining vertices
    (Tomita & Kameda, J. Global Optim. 2007): take the lowest vertex, then
    keep adding the lowest vertex adjacent to all taken, and repeat on the
    rest.  An independent set meets each clique at most once, so the chosen
    vertices plus the number of cliques bound the branch; counting stops
    once that sum beats the best.  Both bounds prune only branches that
    cannot beat the best strictly, and the best changes only on a strict
    gain, so the set returned (and the first ``target`` set found) is the
    one the unpruned search returns.  Each step scans the remaining
    vertices in index order.  The first one of degree <= 1 in the
    remaining subgraph is taken without branching: some maximum independent
    set contains it, because it can be swapped in for its only neighbour
    (Akiba & Iwata, TCS 2016).  Otherwise the step branches on a
    maximum-degree vertex, ties to the smallest index: the exclude branch is
    pushed and the include branch, which deletes its closed neighbourhood,
    is followed first.
    """
    masks = g.adj_masks
    best, best_set = (0 if target is None else target - 1), 0
    stack = [(avail, 0, 0)]
    while stack:
        avail, chosen, size = stack.pop()
        while size + avail.bit_count() > best:
            if not avail:
                best, best_set = size, chosen
                break
            cover, rest = size, avail
            while rest and cover <= best:
                low = rest & -rest
                clique, common = low, masks[low.bit_length() - 1] & rest
                while common:
                    u = common & -common
                    clique |= u
                    common &= masks[u.bit_length() - 1]
                rest &= ~clique
                cover += 1
            if cover <= best:
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


# Structured builders


def empty_graph(n: int) -> Graph:
    return Graph(n, tuple(() for _ in range(n)))


def complete_graph(n: int) -> Graph:
    return build_graph(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex indices of each part are shifted past the
    previous ones."""
    offset = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return build_graph(offset, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    base = disjoint_union([g1, g2])
    extra = [(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)]
    return build_graph(base.n, list(base.edges()) + extra)


def star(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    return join(complete_graph(1), empty_graph(leaves))


def complete_bipartite(n1: int, n2: int) -> Graph:
    return join(empty_graph(n1), empty_graph(n2))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)
