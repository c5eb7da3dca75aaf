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
from itertools import chain, combinations

from .graph import (
    DegreeSpec,
    Graph,
    _bits_of,
    _mask_of,
    _max_independent,
    as_vertex_set,
    components_masks,
    is_connected,
)

TOUGHNESS_MAX_N = 20
SMALL_CUTSET_MAX = 3


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
    """Exact maximum independent set size plus one witness set, from the
    branch and bound in ``graph._max_independent``."""
    size, chosen = _max_independent(g, g.full_mask)
    return size, _bits_of(chosen)


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects the graph or
    reduces it to a single vertex; n-1 for complete graphs.

    Esfahanian & Hakimi (Networks 1984): let v be the smallest-index vertex
    of minimum degree delta.  kappa is the minimum of delta and of the
    unit-capacity vertex-split maximum flows (Menger) from v to each vertex
    outside N[v] and between each non-adjacent pair in N(v): at most
    (n-1-delta) + delta(delta-1)/2 flows, stopping once the minimum is 1.

    Every such flow is at least kappa, and delta >= kappa because removing
    N(v) isolates v.  Let S be a minimum separator.  If v is not in S, some
    non-neighbour of v lies in another component of G-S, so its flow from v
    is at most |S|.  If v is in S, then S is minimal, so v has neighbours in
    two different components of G-S; they are non-adjacent, and their flow
    is at most |S|.
    """
    n = g.n
    if n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.m == n * (n - 1) // 2:
        return n - 1
    v = min(range(n), key=g.degree)
    nbrs = g.adj[v]
    pairs = chain(((v, u) for u in range(n) if u != v and not g.has_edge(v, u)),
                  ((x, y) for x, y in combinations(nbrs, 2) if not g.has_edge(x, y)))
    network = _split_network(g)
    best = len(nbrs)
    for s, t in pairs:
        if best == 1:
            break
        best = min(best, _vertex_disjoint_paths(network, s, t, best))
    return best


_SplitNetwork = tuple[list[int], list[list[int]], list[int]]


def _split_network(g: Graph) -> _SplitNetwork:
    """The split digraph as flat arrays ``(head, out, base)``: node 2w is
    w_in and 2w+1 is w_out, arc i runs to ``head[i]`` with base capacity
    ``base[i]``, its reverse is arc i ^ 1, and ``out[x]`` lists the arcs
    leaving node x.  Every arc w_in -> w_out and u_out -> w_in has capacity
    1; the vertex arcs already bound the edge arcs."""
    head: list[int] = []
    out: list[list[int]] = [[] for _ in range(2 * g.n)]

    def add(x: int, y: int) -> None:
        out[x].append(len(head))
        head.append(y)
        out[y].append(len(head))
        head.append(x)

    for w in range(g.n):
        add(2 * w, 2 * w + 1)
        for u in g.adj[w]:
            add(2 * w + 1, 2 * u)
    return head, out, [1, 0] * (len(head) // 2)


def _vertex_disjoint_paths(network: _SplitNetwork, s: int, t: int, cap: int) -> int:
    """Max number of internally vertex-disjoint paths between non-adjacent
    s and t, stopping early at ``cap``: BFS augmentation from s_out to t_in
    on a fresh copy of the split network's capacities."""
    head, out, base = network
    residual = base[:]
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        via = [-1] * len(out)  # arc by which BFS reached each node
        via[source] = len(head)
        queue = [source]
        for x in queue:
            for a in out[x]:
                if residual[a] and via[head[a]] < 0:
                    via[head[a]] = a
                    queue.append(head[a])
            if via[sink] >= 0:
                break
        else:
            break
        x = sink
        while x != source:
            a = via[x]
            residual[a] -= 1
            residual[a ^ 1] += 1
            x = head[a ^ 1]
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
    g: Graph, f: DegreeSpec, t: Fraction
) -> tuple[int, ...] | None:
    """Scan cutsets of size <= SMALL_CUTSET_MAX for one with |S|/h'(G-S) < t.

    Sound but incomplete: a hit disproves t odd-toughness on graphs of any
    size without full enumeration.
    """
    sizes = range(1, min(SMALL_CUTSET_MAX, g.n - 1) + 1)
    return _odd_tough_violation(g, f, t, (
        _mask_of(combo) for size in sizes for combo in combinations(range(g.n), size)
    ))


def is_t_odd_tough(
    g: Graph, f: DegreeSpec, t: Fraction | int, max_n: int = TOUGHNESS_MAX_N
) -> bool:
    """True iff odd_toughness(G, f) >= t (infinity beats everything; t = 0 is
    always satisfied).

    One scan that stops at the first violating cutset: every cutset when
    n <= max_n; above the cap only cutsets of size <= SMALL_CUTSET_MAX, so a
    graph with an obvious bad cutset is still rejected, and otherwise the cap
    refuses.
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
