"""Tutte deficiency arithmetic and minimum-deficiency violating pairs.

For disjoint vertex sets S, T the deficiency is

    delta(S, T) = f(S) - f(T) + sum_{v in T} d_{G-S}(v) - h(S, T)

where h(S, T) counts the odd components of G - (S u T): components C with
f(C) + e(C, T) odd.  Nonnegativity of delta over all disjoint pairs is
equivalent to f-factor existence, so a pair with delta < 0 is a
machine-checkable certificate of nonexistence.

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

from .graph import (
    DegreeSpec,
    Graph,
    _bits_of,
    _mask_of,
    _odd_count,
    as_vertex_set,
    components_masks,
)
from .solver import _blossom_matching, tutte_gadget


@dataclass(frozen=True)
class SubsetPair:
    """A disjoint ordered pair (S, T) of vertex sets."""

    s: tuple[int, ...]
    t: tuple[int, ...]

    @staticmethod
    def of(g: Graph, s, t) -> "SubsetPair":
        s_tup = as_vertex_set(s, g.n)
        t_tup = as_vertex_set(t, g.n)
        if set(s_tup) & set(t_tup):
            raise ValueError("S and T must be disjoint")
        return SubsetPair(s_tup, t_tup)


@dataclass
class DeficiencyReport:
    """Full term-by-term breakdown of delta(S, T)."""

    pair: SubsetPair
    f_s: int
    f_t: int
    degree_term: int
    h: int
    delta: int

    def to_dict(self) -> dict:
        return {
            "s": list(self.pair.s),
            "t": list(self.pair.t),
            "f_s": self.f_s,
            "f_t": self.f_t,
            "degree_term": self.degree_term,
            "h": self.h,
            "delta": self.delta,
        }


def _evaluate(g: Graph, s_mask: int, t_mask: int, fvals) -> tuple[int, int, int, int, int]:
    """Return (f_s, f_t, degree_term, h, delta) for the pair of bitmasks."""
    masks = g.adj_masks
    t_bits = _bits_of(t_mask)
    f_s = sum(fvals[v] for v in _bits_of(s_mask))
    f_t = sum(fvals[v] for v in t_bits)
    degree_term = sum((masks[v] & ~s_mask).bit_count() for v in t_bits)
    rest = g.full_mask & ~s_mask & ~t_mask
    h = _odd_count(components_masks(g, rest),
                   [fv + (nbrs & t_mask).bit_count() for fv, nbrs in zip(fvals, masks)])
    return f_s, f_t, degree_term, h, f_s - f_t + degree_term - h


def deficiency(g: Graph, pair: SubsetPair, f: DegreeSpec) -> DeficiencyReport:
    """Evaluate every term of delta(S, T) exactly."""
    s_mask = _mask_of(pair.s)
    t_mask = _mask_of(pair.t)
    f_s, f_t, degree_term, h, delta = _evaluate(g, s_mask, t_mask, f.values)
    return DeficiencyReport(pair, f_s, f_t, degree_term, h, delta)


def find_violating_pair(g: Graph, f: DegreeSpec) -> DeficiencyReport | None:
    """A disjoint pair minimizing delta(S, T) if that minimum is negative,
    None if no pair violates, that is, if an f-factor exists.

    One maximum matching of ``tutte_gadget(g, f, f)`` labels the gadget
    vertices by Gallai-Edmonds class, and v joins S or T by where its
    block and externals fall: a slack-form v is in S if all its externals
    are in A, otherwise in T if all its slack vertices are; a copy-form v
    is in S if all its copies are in A, otherwise in T if all its
    externals are.  No pair has delta below minus the exposed count, and
    the pair is checked to reach it; a mismatch raises ValueError.

    The gadget is built for f'(v) = f(v) when f(v) <= d(v) + 2, otherwise
    for whichever of d(v) + 1 and d(v) + 2 has the parity of f(v), so its
    size does not grow with f.  With at least d(v) + 1 copies every
    external of v is in A, so v lands in T.  Parities, and with them h,
    are kept, so delta_f = delta_f' - sum(f - f') on the derived pair and
    delta_f >= delta_f' - sum(f - f') on every pair.
    """
    fvals = f.values
    clamped = [fv if fv <= len(nbrs) + 2 else len(nbrs) + 2 - (fv - len(nbrs)) % 2
               for fv, nbrs in zip(fvals, g.adj)]
    gadget = tutte_gadget(g, clamped, clamped)
    mate, labels = _blossom_matching(gadget.size, gadget.adj)
    # each unit of f removed by the clamp is one more exposed copy
    exposed = mate.count(-1) + f.total() - sum(clamped)
    if not exposed:
        return None
    s_mask = t_mask = 0
    starts = gadget.starts
    for v in range(g.n):
        externals = range(starts[v], starts[v] + g.degree(v))
        block = range(externals.stop, starts[v + 1])
        first, second = (block, externals) if gadget.copy_form[v] else (externals, block)
        if all(labels[i] == "A" for i in first):
            s_mask |= 1 << v
        elif all(labels[i] == "A" for i in second):
            t_mask |= 1 << v
    res = _evaluate(g, s_mask, t_mask, fvals)
    if res[4] != -exposed:
        raise ValueError(
            f"derived pair has delta {res[4]}, but the gadget leaves {exposed} "
            "vertices exposed"
        )
    return DeficiencyReport(SubsetPair(_bits_of(s_mask), _bits_of(t_mask)), *res)
