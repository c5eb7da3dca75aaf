"""Exact graph parameters: stability number, vertex connectivity, classical
toughness, odd-component counts, and odd-toughness.

All toughness-type quantities are exact rationals (``fractions.Fraction``),
never floats: hypothesis thresholds like 1/a must be compared exactly.  The
toughness computations enumerate the cutsets in a window of sizes and are
exponential; they refuse a window of more than 2^max_n subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import ceil, comb, floor
from typing import Iterator

from .graph import DegreeSpec, Graph, _bits_of, _max_independent, _reach, components_masks
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
    is at most |S|.  When min(delta, cap) = 2, no flow runs: kappa >= 2
    iff the graph has no cut vertex, found by ``_has_cut_vertex``.
    """
    n = g.n
    if not g.connected:
        return 0
    if cap is None:
        cap = n
    v = min(range(n), key=g.degree)
    nbrs = g.adj[v]
    best = min(len(nbrs), cap)
    if best <= 1:
        return best
    if best == 2:
        return 1 if _has_cut_vertex(g) else 2
    pairs = chain(((v, u) for u in range(n) if u != v and not g.has_edge(v, u)),
                  ((x, y) for x, y in combinations(nbrs, 2) if not g.has_edge(x, y)))
    for s, t in pairs:
        best = min(best, _vertex_disjoint_paths(g.adj_masks, s, t, best))
        if best == 1:
            break
    return best


def _has_cut_vertex(g: Graph) -> bool:
    """Whether the connected graph has a cut vertex, by one iterative
    depth-first search over the adjacency lists with lowpoints (Hopcroft &
    Tarjan, CACM 1973): a non-root v is one iff some child w has
    low(w) >= depth(v), the root iff it has two children.  Counting the
    tree edge back to v in low(w) cannot break the test, which is not strict."""
    depth, low = [-1] * g.n, [0] * g.n
    depth[0], stack, root_children = 0, [(0, iter(g.adj[0]))], 0
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if depth[w] < 0:
                depth[w] = low[w] = depth[v] + 1
                root_children += v == 0
                stack.append((w, iter(g.adj[w])))
                break
            low[v] = min(low[v], depth[w])
        else:
            stack.pop()
            if len(stack) > 1:  # v's parent is not the root
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= depth[u]:
                    return True
    return root_children > 1


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


def _cutset_scan(g: Graph, carriers: int, weight, max_n: int, top):
    """The one cutset enumerator: yield (S, |S| / w) for each cutset S of G,
    i.e. each S whose removal leaves at least two components, with
    w = weight(components of G-S) > 0, by size upward from kappa.

    The window: every component that ``weight`` counts holds a vertex of
    the mask ``carriers``, and one such vertex from each component is an
    independent set, so w <= alpha, the stability number of G[carriers]
    (the search ``stability_number`` caches when every vertex carries; an
    alpha of 0 returns at once, as then no component counts).  Every
    cutset has |S| >= kappa, so a ratio r needs |S| <= r * alpha.
    ``top(alpha)``, read again before each size and never growing, is the
    largest size the caller still needs.  alpha comes first, so kappa is
    computed capped at the first window top plus one: no flow runs past
    the window, and a kappa above it scans nothing.  The cap bounds work,
    not n: the scan is refused past 2^max_n subsets, charged as C(n, |S|)
    before each size as if every subset were screened, the cost of a full
    scan at n = max_n; a cap above n counts as n, as no window holds 2^n
    subsets.

    The cutsets: each size visits only its own, from ``_cutsets_of_size``.
    A cutset S fixes u, the lowest vertex outside S; A, the component of u
    in G-S; and X = S - ({v < u} | N(A)), a proper subset of
    Y = {v > u} - N[A] whose complement Y - X is the rest of G-S.  Each
    such triple gives back S = {v < u} | N(A) | X, so triples and cutsets
    correspond one to one.  A grows from u by including or excluding each
    frontier vertex above u; an excluded vertex is adjacent to A but not in
    the component A, so it lies in N(A), inside S.  ``components_masks``
    counts the components of G-S-A.
    """
    if not g.connected:
        raise ValueError("toughness is defined for connected graphs only")
    alpha = (stability_number(g)[0] if carriers == g.full_mask
             else _max_independent(g, carriers)[0])
    if not alpha:
        return
    kappa = vertex_connectivity(g, min(top(alpha), g.n - 2) + 1)
    budget = 1 << min(max_n, g.n)
    for size in range(kappa, g.n - 1):
        last = min(top(alpha), g.n - 2)
        if size > last:
            return
        budget -= comb(g.n, size)
        if budget < 0:
            raise ValueError(
                f"exact toughness scan refused for n={g.n}: the window "
                f"{kappa} <= |S| <= {last} holds more than 2^{max_n} subsets "
                f"(cap {max_n}); raise the cap (--toughness-max-n) to override"
            )
        for s_mask, first in _cutsets_of_size(g, size):
            w = weight([first] + components_masks(g, g.full_mask & ~s_mask & ~first))
            if w:
                yield s_mask, Fraction(size, w)


def _cutsets_of_size(g: Graph, size: int) -> Iterator[tuple[int, int]]:
    """Yield every cutset S of ``size`` vertices as (S, A), where A is the
    component of G-S holding u, the lowest vertex outside S, as it is
    found; by the (u, A, X) correspondence of ``_cutset_scan``.

    For each u <= size, from the highest down, so that cutsets holding the
    lowest vertices come first, as in a screen of every subset (a caller
    that stops at its first hit, as ``is_t_odd_tough`` does, then meets
    the clique cut of a g0 member at once), a stack grows A from u,
    branching on its lowest undecided frontier vertex above u.  The
    excluded vertices join the u vertices below u in S, so a branch dies
    once no vertex of Y is left, which only shrinks, and A stops growing
    once G-S would have no room for a second component.  Once S holds
    ``size`` vertices without X, A is the component of u in G minus S, one
    ``_reach``; once the frontier is empty, X ranges over the subsets of Y
    that fill S and leave some of Y out.
    """
    masks, full, room = g.adj_masks, g.full_mask, g.n - size - 1
    for u in range(min(size, g.n - 2), -1, -1):
        below = (1 << u) - 1
        above = full & ~below & ~(1 << u)
        stack = [(1 << u, 0, masks[u] & above)]
        while stack:
            comp, out, frontier = stack.pop()
            y = above & ~comp & ~out & ~frontier
            if not y:
                continue
            spare = size - u - out.bit_count()
            if not spare:
                rest = full & ~below & ~out
                comp = _reach(masks, rest)
                if comp.bit_count() <= room:
                    yield below | out, comp
            elif not frontier:
                if y.bit_count() > spare:
                    for picked in combinations([1 << v for v in _bits_of(y)], spare):
                        yield below | out | sum(picked), comp
            else:
                low = frontier & -frontier
                stack.append((comp, out | low, frontier ^ low))
                if comp.bit_count() < room:
                    grown = masks[low.bit_length() - 1] & y
                    stack.append((comp | low, out, (frontier ^ low) | grown))


def _min_ratio(g: Graph, carriers: int, weight, max_n: int) -> ToughnessValue:
    """Minimum ratio over all cutsets; the least mask among the minimizers
    is the witness.  A cutset ties the best ratio r only if |S| <= r * alpha."""
    best: Fraction | None = None
    witness = 0
    for s_mask, ratio in _cutset_scan(
        g, carriers, weight, max_n,
        lambda alpha: g.n if best is None else floor(best * alpha)
    ):
        if best is None or ratio < best or (ratio == best and s_mask < witness):
            best, witness = ratio, s_mask
    return ToughnessValue(best, None if best is None else _bits_of(witness))


def _odd_weight(f: DegreeSpec) -> tuple[int, object]:
    """The odd-f vertices' mask, the carriers of h'(G-S), and h'(G-S) as a
    weight on the component masks of G-S: a component's f-sum is odd iff
    it holds an odd number of odd-f vertices."""
    odd = sum(1 << v for v, fv in enumerate(f.values) if fv & 1)
    return odd, lambda comps: sum((comp & odd).bit_count() & 1 for comp in comps)


def odd_toughness(g: Graph, f: DegreeSpec, max_n: int = TOUGHNESS_MAX_N) -> ToughnessValue:
    """Exact minimum of |S| / h'(G-S) over cutsets S with h'(G-S) >= 1.

    h'(G-S) counts components of G-S whose f-sum is odd.  Infinity when no
    qualifying cutset exists (complete graphs, or no odd component ever).
    Each such component holds an odd-f vertex, so h'(G-S) is at most alpha
    of the odd-f vertices, which sets the window: no odd-f vertex, no scan.
    """
    return _min_ratio(g, *_odd_weight(f), max_n)


def toughness(g: Graph, max_n: int = TOUGHNESS_MAX_N) -> ToughnessValue:
    """Exact classical toughness min |S| / c(G-S) over cutsets S; infinity for
    complete graphs."""
    return _min_ratio(g, g.full_mask, len, max_n)


def find_small_odd_tough_violation(
    g: Graph, f: DegreeSpec, t: Fraction
) -> tuple[int, ...] | None:
    """Scan cutsets of size <= SMALL_CUTSET_MAX for one with |S|/h'(G-S) < t.

    Sound but incomplete: a hit disproves t odd-toughness on graphs of any
    size without full enumeration.
    """
    scan = _cutset_scan(g, *_odd_weight(f), g.n, lambda alpha: SMALL_CUTSET_MAX)
    return next((_bits_of(s_mask) for s_mask, ratio in scan if ratio < t), None)


def is_t_odd_tough(
    g: Graph, f: DegreeSpec, t: Fraction | int, max_n: int = TOUGHNESS_MAX_N
) -> bool:
    """True iff odd_toughness(G, f) >= t (infinity beats everything; t = 0 is
    always satisfied).

    A violation needs kappa <= |S| < t * alpha, with alpha taken over the
    odd-f vertices (h'(G-S) is at most that), so the scan covers only that
    window and stops at the first violating cutset; when t * alpha <= kappa
    (t = 0, or no odd-f vertex, for two) no cutset is scanned at all.
    kappa is computed capped at ceil(t * alpha), so no flow runs past the
    window.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    scan = _cutset_scan(g, *_odd_weight(f), max_n, lambda alpha: ceil(t * alpha) - 1)
    return all(ratio >= t for _, ratio in scan)
