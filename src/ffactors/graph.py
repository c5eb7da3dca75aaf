"""Immutable simple-graph values, subset primitives, and structured builders.

Vertices are dense integer indices ``0..n-1``; every subset is a sorted,
duplicate-free tuple over these indices, or a bitmask inside the exact
routines.  Graphs are immutable after construction; subgraphs such as G-S
are never built, the routines work on vertex masks instead.  Neighbor sets
are kept sorted for deterministic iteration.
"""

from __future__ import annotations

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
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return tuple((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_masks[u] >> v & 1)


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
    """Per-vertex target degrees, optionally with declared bounds [a, b]."""

    values: tuple[int, ...]
    a: int | None = None
    b: int | None = None

    def __post_init__(self) -> None:
        for v, fv in enumerate(self.values):
            if fv < 0:
                raise ValueError(f"negative target degree {fv} at vertex {v}")
            if self.a is not None and self.b is not None and not self.a <= fv <= self.b:
                raise ValueError(
                    f"target degree {fv} at vertex {v} outside declared bounds "
                    f"[{self.a}, {self.b}]"
                )

    def total(self) -> int:
        return sum(self.values)


def degree_spec(values: Sequence[int], graph: Graph | None = None,
                a: int | None = None, b: int | None = None) -> DegreeSpec:
    """Build a DegreeSpec, checking its length against an ambient graph."""
    spec = DegreeSpec(tuple(values), a, b)
    if graph is not None and len(spec.values) != graph.n:
        raise ValueError(
            f"degree spec length {len(spec.values)} != vertex count {graph.n}"
        )
    return spec


def constant_spec(graph: Graph, value: int,
                  a: int | None = None, b: int | None = None) -> DegreeSpec:
    return DegreeSpec((value,) * graph.n, a, b)


def f_sum(f: DegreeSpec, vertices: Iterable[int]) -> int:
    """Sum of target degrees over a vertex set."""
    return sum(f.values[v] for v in vertices)


def components_masks(g: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, as bitmasks.

    Ordered by smallest contained vertex index.
    """
    masks = g.adj_masks
    out = []
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= masks[low.bit_length() - 1]
                f ^= low
            frontier = nxt & mask & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def components(g: Graph) -> list[tuple[int, ...]]:
    """Partition of the vertices into maximal connected pieces.

    Deterministic order: by smallest contained index.
    """
    return [_bits_of(c) for c in components_masks(g, g.full_mask)]


def is_connected(g: Graph) -> bool:
    """True for connected graphs; a single vertex counts as connected."""
    if g.n == 0:
        return True
    return len(components_masks(g, g.full_mask)) == 1


def min_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return min(len(nbrs) for nbrs in g.adj)


def is_star_free(g: Graph, n: int) -> bool:
    """True iff the graph has no induced K_{1,n}: no vertex with ``n``
    pairwise non-adjacent neighbors."""
    if n < 2:
        raise ValueError("star order must be at least 2")
    for v in range(g.n):
        nbrs = g.adj[v]
        if len(nbrs) < n:
            continue
        # independent set of size n among the neighbors of v
        if _has_independent_subset(g, nbrs, n):
            return False
    return True


def _has_independent_subset(g: Graph, candidates: Sequence[int], k: int) -> bool:
    masks = g.adj_masks
    cand_mask = _mask_of(candidates)

    def search(avail: int, need: int) -> bool:
        if need == 0:
            return True
        if avail.bit_count() < need:
            return False
        low = avail & -avail
        v = low.bit_length() - 1
        # include v, then exclude v
        if search(avail & ~low & ~masks[v], need - 1):
            return True
        return search(avail ^ low, need)

    return search(cand_mask, k)


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
