"""Exact graph parameters: stability number, vertex connectivity, classical
toughness, odd-component counts, and odd-toughness.

All toughness-type quantities are exact rationals (``fractions.Fraction``),
never floats: hypothesis thresholds like 1/a must be compared exactly.  The
toughness computations enumerate vertex subsets in a window of sizes and are
exponential; they refuse a window of more than 2^max_n subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import ceil, comb, floor

from .graph import (
    DegreeSpec,
    Graph,
    _bits_of,
    _odd_count,
    _reach,
    components_masks,
    is_connected,
)
from .tutte import deficiency

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
    branch and bound in ``graph._max_independent``, run once per graph."""
    size, chosen = g.max_independent
    return size, _bits_of(chosen)


def vertex_connectivity(g: Graph, cap: int | None = None) -> int:
    """Minimum number of vertices whose removal disconnects the graph or
    reduces it to a single vertex; n-1 for complete graphs.

    With a ``cap`` >= 0, min(kappa, cap): the search starts from
    min(delta, cap) and no flow pushes past it, so a caller that only needs
    to know whether kappa reaches ``cap`` pays for nothing above it.

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
    if not is_connected(g):
        return 0
    if cap is None:
        cap = n
    v = min(range(n), key=g.degree)
    nbrs = g.adj[v]
    best = min(len(nbrs), cap)
    if best <= 1:
        return best
    pairs = chain(((v, u) for u in range(n) if u != v and not g.has_edge(v, u)),
                  ((x, y) for x, y in combinations(nbrs, 2) if not g.has_edge(x, y)))
    for s, t in pairs:
        best = min(best, _vertex_disjoint_paths(g.adj_masks, s, t, best))
        if best == 1:
            break
    return best


def _vertex_disjoint_paths(masks: tuple[int, ...], s: int, t: int, cap: int) -> int:
    """Max number of internally vertex-disjoint paths between non-adjacent
    s and t of the graph with neighbour masks ``masks``, stopping early at
    ``cap``.

    Greedy phase: while fewer than ``cap`` paths are found, take a shortest
    s-t path through vertices no earlier path uses, by a layered BFS over
    the neighbour masks (one running mask of free vertices not yet reached;
    each layer is the OR of its frontier's masks), backtracking from the
    first layer that meets N(t) by the lowest-index vertex in each layer.
    A common neighbour of s and t is a one-vertex path.

    Residual phase: otherwise the greedy paths, which are disjoint, are a
    feasible unit flow in the vertex-split digraph, kept as each used
    vertex's predecessor.  Each augmentation is a BFS over the split nodes,
    2w for "w entered" and 2w+1 for "w left", with arcs read off the masks
    and that flow: a free w goes from entered to left, a used w from
    entered only back to its predecessor left, and w left goes to the
    entered node of every neighbour but s, and back to w entered if w is
    used.  An arc w left -> v entered that the flow fills needs no mark:
    the BFS reaches w left (s aside) only from v entered, and v entered
    leads only back to w left.  Augmenting from any feasible flow reaches
    the maximum (Ford-Fulkerson), so the count is exact even where a
    greedy path blocks others: the augmentation reroutes it.
    """
    free = ((1 << len(masks)) - 1) & ~(1 << s) & ~(1 << t)
    goal = masks[t]
    paths = []
    while len(paths) < cap:
        layers = [masks[s] & free]
        avail = free ^ layers[0]
        while layers[-1] and not layers[-1] & goal:
            frontier, reach = layers[-1], 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            layers.append(reach & avail)
            avail ^= layers[-1]
        if not layers[-1]:
            break
        path, want = [], goal  # from t back to s
        for layer in reversed(layers):
            bit = layer & want
            bit &= -bit
            path.append(bit.bit_length() - 1)
            free ^= bit
            want = masks[path[-1]]
        paths.append(path)
    flow = len(paths)
    if flow == cap:
        return flow
    pred = [-1] * len(masks)  # each used vertex's predecessor in the flow
    for path in paths:
        for v, w in zip(path, path[1:] + [s]):
            pred[v] = w
    source, sink = 2 * s + 1, 2 * t
    while flow < cap:
        via = [-1] * (2 * len(masks))  # the node each split node was reached from
        via[source], queue = source, [source]
        entered = 1 << s  # the vertices whose entered node is reached
        for x in queue:
            w = x >> 1
            if x & 1:  # w left
                step = (masks[w] | (1 << w if pred[w] >= 0 else 0)) & ~entered
                entered |= step
                while step:
                    low = step & -step
                    y = 2 * low.bit_length() - 2
                    via[y] = x
                    queue.append(y)
                    step ^= low
                if via[sink] >= 0:
                    break
            else:  # w entered
                y = x + 1 if pred[w] < 0 else 2 * pred[w] + 1
                if via[y] < 0:
                    via[y] = x
                    queue.append(y)
        else:
            break
        y = sink
        while y != source:  # an edge arc joins the flow forward, leaves it backward
            x = via[y]
            if x >> 1 != y >> 1:
                if x & 1:
                    pred[y >> 1] = x >> 1
                else:
                    pred[x >> 1] = -1
            y = x
        flow += 1
    return flow


def odd_component_count(g: Graph, s, f: DegreeSpec) -> int:
    """Number of components C of G-S with f(C) odd; f is read at original
    vertex indices.  This is h(S, {}) of ``tutte.deficiency``."""
    return deficiency(g, s, (), f).h


def _cutset_scan(g: Graph, weight, max_n: int, top):
    """The one cutset enumerator: yield (S, |S| / w) for each cutset S of G,
    i.e. each S whose removal leaves at least two components, with
    w = weight(components of G-S) > 0, by size upward from kappa.

    Every cutset has |S| >= kappa and w <= c(G-S) <= alpha, so a ratio r
    needs |S| <= r * alpha.  ``top(alpha)``, read again before each size and
    never growing, is the largest size the caller still needs.  alpha comes
    first, so kappa is computed capped at the first window top plus one: no
    flow runs past the window, and a kappa above it scans nothing.  The cap
    bounds work, not n: the scan is refused past 2^max_n subsets, the cost
    of a full scan at n = max_n.  Each subset is screened by ``_reach``,
    which stops once it covers G-S, before its components are counted, so
    ``components_masks`` runs on cutsets only.
    """
    if not is_connected(g):
        raise ValueError("toughness is defined for connected graphs only")
    alpha, _ = stability_number(g)
    kappa = vertex_connectivity(g, min(top(alpha), g.n - 2) + 1)
    bits, full, budget = [1 << v for v in range(g.n)], g.full_mask, 1 << max_n
    for size in range(kappa, g.n - 1):
        last = min(top(alpha), g.n - 2)
        if size > last:
            return
        budget -= comb(g.n, size)
        if budget < 0:
            raise ValueError(
                f"exact toughness scan refused for n={g.n}: the window "
                f"{kappa} <= |S| <= {last} holds more than 2^{max_n} subsets "
                f"(cap {max_n}); raise max_n to override"
            )
        unions = g.union_tables
        for combo in combinations(bits, size):
            s_mask = sum(combo)
            rest = full & ~s_mask
            if _reach(unions, rest) == rest:
                continue
            comps = components_masks(g, rest)
            w = weight(comps)
            if w:
                yield s_mask, Fraction(size, w)


def _min_ratio(g: Graph, weight, max_n: int) -> ToughnessValue:
    """Minimum ratio over all cutsets; the least mask among the minimizers
    is the witness.  A cutset ties the best ratio r only if |S| <= r * alpha."""
    best: Fraction | None = None
    witness = 0
    for s_mask, ratio in _cutset_scan(
        g, weight, max_n, lambda alpha: g.n if best is None else floor(best * alpha)
    ):
        if best is None or ratio < best or (ratio == best and s_mask < witness):
            best, witness = ratio, s_mask
    return ToughnessValue(best, None if best is None else _bits_of(witness))


def odd_toughness(g: Graph, f: DegreeSpec, max_n: int = TOUGHNESS_MAX_N) -> ToughnessValue:
    """Exact minimum of |S| / h'(G-S) over cutsets S with h'(G-S) >= 1.

    h'(G-S) counts components of G-S whose f-sum is odd.  Infinity when no
    qualifying cutset exists (complete graphs, or no odd component ever).
    """
    return _min_ratio(g, lambda comps: _odd_count(comps, f.values), max_n)


def toughness(g: Graph, max_n: int = TOUGHNESS_MAX_N) -> ToughnessValue:
    """Exact classical toughness min |S| / c(G-S) over cutsets S; infinity for
    complete graphs."""
    return _min_ratio(g, len, max_n)


def find_small_odd_tough_violation(
    g: Graph, f: DegreeSpec, t: Fraction
) -> tuple[int, ...] | None:
    """Scan cutsets of size <= SMALL_CUTSET_MAX for one with |S|/h'(G-S) < t.

    Sound but incomplete: a hit disproves t odd-toughness on graphs of any
    size without full enumeration.
    """
    scan = _cutset_scan(g, lambda comps: _odd_count(comps, f.values), g.n,
                        lambda alpha: SMALL_CUTSET_MAX)
    return next((_bits_of(s_mask) for s_mask, ratio in scan if ratio < t), None)


def is_t_odd_tough(
    g: Graph, f: DegreeSpec, t: Fraction | int, max_n: int = TOUGHNESS_MAX_N
) -> bool:
    """True iff odd_toughness(G, f) >= t (infinity beats everything; t = 0 is
    always satisfied).

    A violation needs kappa <= |S| < t * alpha, so the scan covers only that
    window and stops at the first violating cutset; when t * alpha <= kappa
    (t = 0, for one) no cutset is scanned at all.  kappa is computed capped
    at ceil(t * alpha), so no flow runs past the window.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    scan = _cutset_scan(g, lambda comps: _odd_count(comps, f.values), max_n,
                        lambda alpha: ceil(t * alpha) - 1)
    return all(ratio >= t for _, ratio in scan)
