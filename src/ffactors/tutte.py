"""Tutte deficiency arithmetic and minimum-deficiency violating pairs.

For disjoint vertex sets S, T the deficiency is

    delta(S, T) = f(S) - f(T) + sum_{v in T} d_{G-S}(v) - h(S, T)

where h(S, T) counts the odd components of G - (S u T): components C with
f(C) + e(C, T) odd.  Nonnegativity of delta over all disjoint pairs is
equivalent to f-factor existence, so a pair with delta < 0 is a
machine-checkable certificate of nonexistence.  Every term is evaluated
over the adjacency lists in O(n + m).

The component parity f(C) + e(C, T) is the classical one; it is the unique
choice under which delta always has the parity of f(X) (see the parity
property tests).

The minimum of delta is read off one maximum matching of the solver's gadget
for f: it is minus the number of exposed gadget vertices (Lovasz,
"Subgraphs with prescribed valencies", 1970), and a pair attaining it
follows from the Gallai-Edmonds classes of the gadget vertices (Anstee,
"An algorithmic proof of Tutte's f-factor theorem", 1985).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DegreeSpec, Graph, as_vertex_set, check_spec, components
from .solver import _blossom_matching, _near_factor, tutte_gadget, verify_factor


@dataclass
class DeficiencyReport:
    """A disjoint pair (S, T), as sorted vertex tuples, with every term of
    delta(S, T)."""

    s: tuple[int, ...]
    t: tuple[int, ...]
    f_s: int
    f_t: int
    degree_term: int
    h: int
    delta: int

    def to_dict(self) -> dict:
        return dict(vars(self), s=list(self.s), t=list(self.t))


def _evaluate(g: Graph, s, t, fvals) -> tuple[int, int, int, int, int]:
    """Return (f_s, f_t, degree_term, h, delta) for the disjoint vertex lists
    s and t, in O(n + m).  The pass over T's lists that counts the degree
    term also adds e(v, T) to the weight f(v) of each vertex v it reaches,
    so h counts the components of G - (S u T) with an odd weight sum."""
    in_s, weight, degree_term = bytearray(g.n), list(fvals), 0
    for v in s:
        in_s[v] = 1
    for v in t:
        for u in g.adj[v]:
            if not in_s[u]:
                degree_term += 1
                weight[u] += 1
    f_s = sum(fvals[v] for v in s)
    f_t = sum(fvals[v] for v in t)
    h = sum(sum(weight[v] for v in c) & 1 for c in components(g, [*s, *t]))
    return f_s, f_t, degree_term, h, f_s - f_t + degree_term - h


def deficiency(g: Graph, s, t, f: DegreeSpec) -> DeficiencyReport:
    """Evaluate every term of delta(S, T) exactly.  Raises ValueError unless
    S and T are disjoint sets of vertices of g and f has one value per
    vertex."""
    check_spec(g, f)
    s, t = as_vertex_set(s, g.n), as_vertex_set(t, g.n)
    if not set(s).isdisjoint(t):
        raise ValueError("S and T must be disjoint")
    return DeficiencyReport(s, t, *_evaluate(g, s, t, f.values))


def find_violating_pair(g: Graph, f: DegreeSpec) -> DeficiencyReport | None:
    """A disjoint pair minimizing delta(S, T) if that minimum is negative,
    None if no pair violates, that is, if an f-factor exists.

    When the solver's near-factor (``solver._near_factor``) is an
    f-factor, None comes at once and no gadget is built.  Otherwise one
    maximum matching of ``tutte_gadget(g, f, f, near)``, started from its
    ``mate``, labels the gadget vertices by Gallai-Edmonds class; neither
    the classes nor the exposed count depend on the start.  Vertex v joins
    S or T by where its block and externals fall: a slack-form v is in S if
    all its externals are in A, otherwise in T if all its slack vertices
    are; a copy-form v is in S if all its copies are in A, otherwise in T
    if all its externals are.  No pair has delta below minus the exposed
    count, and the pair is checked to reach it; a mismatch raises
    ValueError.

    The gadget is built for f'(v) = f(v) when f(v) <= d(v) + 2, otherwise
    for whichever of d(v) + 1 and d(v) + 2 has the parity of f(v), so its
    size does not grow with f.  With at least d(v) + 1 copies every
    external of v is in A, so v lands in T.  Parities, and with them h,
    are kept, so delta_f = delta_f' - sum(f - f') on the derived pair and
    delta_f >= delta_f' - sum(f - f') on every pair.
    """
    check_spec(g, f)
    fvals = f.values
    near = _near_factor(g, fvals, fvals)
    if verify_factor(g, fvals, fvals, near):
        return None
    clamped = [fv if fv <= len(nbrs) + 2 else len(nbrs) + 2 - (fv - len(nbrs)) % 2
               for fv, nbrs in zip(fvals, g.adj)]
    gadget = tutte_gadget(g, clamped, clamped, near.edges)
    mate, labels = _blossom_matching(gadget.size, gadget.adj, gadget.mate)
    # each unit of f removed by the clamp is one more exposed copy
    exposed = mate.count(-1) + f.total() - sum(clamped)
    if not exposed:
        return None
    s, t = [], []
    starts = gadget.starts
    for v in range(g.n):
        externals = range(starts[v], starts[v] + g.degree(v))
        block = range(externals.stop, starts[v + 1])
        first, second = (block, externals) if gadget.copy_form[v] else (externals, block)
        if all(labels[i] == "A" for i in first):
            s.append(v)
        elif all(labels[i] == "A" for i in second):
            t.append(v)
    res = _evaluate(g, s, t, fvals)
    if res[4] != -exposed:
        raise ValueError(
            f"derived pair has delta {res[4]}, but the gadget leaves {exposed} "
            "vertices exposed"
        )
    return DeficiencyReport(tuple(s), tuple(t), *res)
