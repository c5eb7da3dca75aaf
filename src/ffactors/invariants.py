"""Exact graph parameters: stability number, vertex connectivity, classical
toughness, odd-component counts, and odd-toughness.

All toughness-type quantities are exact rationals (``fractions.Fraction``),
never floats: hypothesis thresholds like 1/a must be compared exactly.  The
toughness computations enumerate vertex subsets and are exponential; they
refuse inputs above a size cap unless the caller raises it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graph import (
    DegreeSpec,
    Graph,
    _bits_of,
    _mask_of,
    as_vertex_set,
    components_masks,
    is_connected,
)

TOUGHNESS_MAX_N = 20


@dataclass(frozen=True)
class ToughnessValue:
    """An exact nonnegative rational, or infinity when no cutset qualifies.

    ``witness`` is a cutset achieving the ratio (None for infinity).
    """

    ratio: Fraction | None
    witness: tuple[int, ...] | None = None

    @property
    def is_infinite(self) -> bool:
        return self.ratio is None

    def at_least(self, t: Fraction | int) -> bool:
        return self.ratio is None or self.ratio >= t

    def __str__(self) -> str:
        return "infinity" if self.ratio is None else str(self.ratio)


def stability_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set size plus one witness set.

    Branch and bound: branch on a maximum-degree vertex of the remaining
    subgraph (ties to the smallest index), either including it and deleting
    its closed neighborhood or excluding it.
    """
    masks = g.adj_masks
    best_size = 0
    best_set = 0

    def branch(avail: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if size + avail.bit_count() <= best_size:
            return
        if avail == 0:
            best_size, best_set = size, chosen
            return
        # maximum-degree vertex within the remaining subgraph, smallest index first
        pick, pick_deg = -1, -1
        a = avail
        while a:
            low = a & -a
            v = low.bit_length() - 1
            d = (masks[v] & avail).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
            a ^= low
        if pick_deg == 0:
            # remaining vertices are pairwise non-adjacent: take them all
            best_size, best_set = size + avail.bit_count(), chosen | avail
            return
        bit = 1 << pick
        branch(avail & ~bit & ~masks[pick], chosen | bit, size + 1)
        branch(avail ^ bit, chosen, size)

    branch(g.full_mask, 0, 0)
    return best_size, _bits_of(best_set)


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects the graph or
    reduces it to a single vertex; n-1 for complete graphs.

    Computed as the minimum over non-adjacent pairs of the unit-capacity
    vertex-split maximum flow (Menger).
    """
    n = g.n
    if n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.m == n * (n - 1) // 2:
        return n - 1
    best = n - 1
    for s in range(n):
        for t in range(s + 1, n):
            if g.has_edge(s, t):
                continue
            best = min(best, _vertex_disjoint_paths(g, s, t, cap=best))
    return best


def _vertex_disjoint_paths(g: Graph, s: int, t: int, cap: int) -> int:
    """Max number of internally vertex-disjoint s-t paths, stopping early at
    ``cap``.  Unit-capacity flow on the split digraph: v_in -> v_out."""
    n = g.n
    # node 2v = v_in, 2v+1 = v_out; residual capacities in dicts
    residual: list[dict[int, int]] = [dict() for _ in range(2 * n)]

    def add(u: int, v: int, c: int) -> None:
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)

    big = n + 1
    for v in range(n):
        add(2 * v, 2 * v + 1, big if v in (s, t) else 1)
        for u in g.adj[v]:
            add(2 * v + 1, 2 * u, big)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        # BFS augmenting path
        parent = {source: -1}
        queue = [source]
        while queue and sink not in parent:
            nxt = []
            for u in queue:
                for v, c in residual[u].items():
                    if c > 0 and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            queue = nxt
        if sink not in parent:
            break
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1
    return flow


def odd_component_count(g: Graph, s, f: DegreeSpec) -> int:
    """Number of components C of G-S with f(C) odd; f is read at original
    vertex indices."""
    s_mask = _mask_of(as_vertex_set(s, g.n))
    return _odd_count(components_masks(g, g.full_mask & ~s_mask), f)


def _odd_count(comps: list[int], f: DegreeSpec) -> int:
    """How many of the component masks have an odd f-sum."""
    fvals = f.values
    h = 0
    for comp in comps:
        tot = 0
        while comp:
            low = comp & -comp
            tot += fvals[low.bit_length() - 1]
            comp ^= low
        h += tot & 1
    return h


def _cutset_ratios(g: Graph, s_masks, weight):
    """The one cutset enumerator: yield (S, |S| / w) for each mask S in
    ``s_masks`` whose removal leaves at least two components, with
    w = weight(components of G-S) > 0."""
    full = g.full_mask
    for s_mask in s_masks:
        comps = components_masks(g, full & ~s_mask)
        if len(comps) >= 2:
            w = weight(comps)
            if w:
                yield s_mask, Fraction(s_mask.bit_count(), w)


def _check_toughness_input(g: Graph, max_n: int) -> None:
    if not is_connected(g) or g.n == 0:
        raise ValueError("toughness is defined for connected graphs only")
    if g.n > max_n:
        raise ValueError(
            f"exact toughness enumeration refused for n={g.n} > cap {max_n}; "
            "raise max_n to override"
        )


def _min_ratio(g: Graph, weight, max_n: int) -> ToughnessValue:
    """Minimum ratio over all cutsets, scanned in mask order; the first
    minimizer is the witness."""
    _check_toughness_input(g, max_n)
    best: Fraction | None = None
    witness: tuple[int, ...] | None = None
    for s_mask, ratio in _cutset_ratios(g, range(1, g.full_mask), weight):
        if best is None or ratio < best:
            best, witness = ratio, _bits_of(s_mask)
    return ToughnessValue(best, witness)


def odd_toughness(g: Graph, f: DegreeSpec, max_n: int = TOUGHNESS_MAX_N) -> ToughnessValue:
    """Exact minimum of |S| / h'(G-S) over cutsets S with h'(G-S) >= 1.

    h'(G-S) counts components of G-S whose f-sum is odd.  Infinity when no
    qualifying cutset exists (complete graphs, or no odd component ever).
    """
    return _min_ratio(g, lambda comps: _odd_count(comps, f), max_n)


def toughness(g: Graph, max_n: int = TOUGHNESS_MAX_N) -> ToughnessValue:
    """Exact classical toughness min |S| / c(G-S) over cutsets S; infinity for
    complete graphs."""
    return _min_ratio(g, len, max_n)


def _odd_tough_violation(
    g: Graph, f: DegreeSpec, t: Fraction, s_masks
) -> tuple[int, ...] | None:
    """The first cutset among ``s_masks`` with |S|/h'(G-S) < t, or None."""
    for s_mask, ratio in _cutset_ratios(g, s_masks, lambda comps: _odd_count(comps, f)):
        if ratio < t:
            return _bits_of(s_mask)
    return None


def find_small_odd_tough_violation(
    g: Graph, f: DegreeSpec, t: Fraction, max_size: int = 3
) -> tuple[int, ...] | None:
    """Scan cutsets of size <= max_size for one with |S|/h'(G-S) < t.

    Sound but incomplete: a hit disproves t odd-toughness on graphs of any
    size without full enumeration.
    """
    sizes = range(1, min(max_size, g.n - 1) + 1)
    return _odd_tough_violation(g, f, t, (
        _mask_of(combo) for size in sizes for combo in combinations(range(g.n), size)
    ))


def is_t_odd_tough(
    g: Graph, f: DegreeSpec, t: Fraction | int, max_n: int = TOUGHNESS_MAX_N
) -> bool:
    """True iff odd_toughness(G, f) >= t (infinity beats everything; t = 0 is
    always satisfied).

    One scan that stops at the first violating cutset: every cutset when
    n <= max_n; above the cap only cutsets of size <= 3, so a graph with an
    obvious bad cutset is still rejected, and otherwise the cap refuses.
    """
    if not is_connected(g) or g.n == 0:
        raise ValueError("odd-toughness is defined for connected graphs only")
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return True
    if g.n > max_n:
        if find_small_odd_tough_violation(g, f, t) is not None:
            return False
        _check_toughness_input(g, max_n)
    return _odd_tough_violation(g, f, t, range(1, g.full_mask)) is None
