"""Tutte deficiency arithmetic and exhaustive search for violating pairs.

For disjoint vertex sets S, T the deficiency is

    delta(S, T) = f(S) - f(T) + sum_{v in T} d_{G-S}(v) - h(S, T)

where h(S, T) counts the odd components of G - (S u T): components C with
f(C) + e(C, T) odd.  Nonnegativity of delta over all disjoint pairs is
equivalent to f-factor existence, so a pair with delta < 0 is a
machine-checkable certificate of nonexistence.

The component parity f(C) + e(C, T) is the classical one; it is the unique
choice under which delta always has the parity of f(X) (see the parity
property tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graph import (
    DegreeSpec,
    Graph,
    _bits_of,
    _mask_of,
    as_vertex_set,
    components_masks,
)

AUDIT_EXACT_MAX_N = 15


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
    """Full term-by-term breakdown of delta(S, T).

    ``h2`` and ``prop_flag`` are populated only by :func:`analyze_pair`:
    h2 counts components of G-(SuT) with no edge to T, and prop_flag records
    whether |S| > min_degree - b.
    """

    pair: SubsetPair
    f_s: int
    f_t: int
    degree_term: int
    h: int
    delta: int
    h2: int | None = None
    prop_flag: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "s": list(self.pair.s),
            "t": list(self.pair.t),
            "f_s": self.f_s,
            "f_t": self.f_t,
            "degree_term": self.degree_term,
            "h": self.h,
            "delta": self.delta,
        }
        if self.h2 is not None:
            out["h2"] = self.h2
        if self.prop_flag is not None:
            out["prop_flag"] = self.prop_flag
        return out


def _evaluate(g: Graph, s_mask: int, t_mask: int, fvals) -> tuple[int, int, int, int, int]:
    """Return (f_s, f_t, degree_term, h, delta) for the pair of bitmasks."""
    masks = g.adj_masks
    f_s = f_t = degree_term = 0
    m = s_mask
    while m:
        low = m & -m
        f_s += fvals[low.bit_length() - 1]
        m ^= low
    m = t_mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        f_t += fvals[v]
        degree_term += (masks[v] & ~s_mask).bit_count()
        m ^= low
    h = 0
    rest = g.full_mask & ~s_mask & ~t_mask
    for comp in components_masks(g, rest):
        total = 0
        c = comp
        while c:
            low = c & -c
            v = low.bit_length() - 1
            total += fvals[v] + (masks[v] & t_mask).bit_count()
            c ^= low
        if total & 1:
            h += 1
    return f_s, f_t, degree_term, h, f_s - f_t + degree_term - h


def odd_components_st(g: Graph, pair: SubsetPair, f: DegreeSpec) -> int:
    """h(S, T): odd components of G - (S u T) under the f(C) + e(C, T) parity."""
    return deficiency(g, pair, f).h


def deficiency(g: Graph, pair: SubsetPair, f: DegreeSpec) -> DeficiencyReport:
    """Evaluate every term of delta(S, T) exactly."""
    s_mask = _mask_of(pair.s)
    t_mask = _mask_of(pair.t)
    f_s, f_t, degree_term, h, delta = _evaluate(g, s_mask, t_mask, f.values)
    return DeficiencyReport(pair, f_s, f_t, degree_term, h, delta)


def analyze_pair(
    g: Graph, pair: SubsetPair, f: DegreeSpec, a: int, b: int
) -> DeficiencyReport:
    """Deficiency report plus the proof diagnostics h2 and prop_flag.

    With T empty every component is vacuously "not adjacent to T", so h2
    counts them all.  prop_flag is a diagnostic only, not an invariant.
    """
    for v, fv in enumerate(f.values):
        if not a <= fv <= b:
            raise ValueError(f"f({v}) = {fv} outside declared bounds [{a}, {b}]")
    report = deficiency(g, pair, f)
    s_mask = _mask_of(pair.s)
    t_mask = _mask_of(pair.t)
    # a component touches T exactly when it meets N(T)
    t_nbrs = _mask_of(u for v in pair.t for u in g.adj[v])
    rest = g.full_mask & ~s_mask & ~t_mask
    report.h2 = sum(1 for comp in components_masks(g, rest) if not comp & t_nbrs)
    delta_g = min((len(nbrs) for nbrs in g.adj), default=0)
    report.prop_flag = len(pair.s) > delta_g - b
    return report


def find_violating_pair(
    g: Graph,
    f: DegreeSpec,
    exact_max_n: int = AUDIT_EXACT_MAX_N,
    mode: str = "auto",
    seed: int = 0,
    heuristic_samples: int = 2000,
) -> DeficiencyReport | None:
    """Search for a disjoint pair with delta(S, T) < 0.

    Exact mode enumerates all 3^n assignments (vertex in S, in T, or neither)
    and returns the pair minimizing delta, ties broken by (|S|+|T|, S, T);
    ``None`` is then a certificate that no violating pair exists.  Above the
    size cap a heuristic mode scans structured candidates (empty and
    singleton sets, small cutsets, seeded random pairs): it may miss
    violations but never fabricates them.

    ``mode`` is "auto", "exact", or "heuristic".
    """
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown search mode {mode!r}")
    if mode == "exact" and g.n > exact_max_n:
        raise ValueError(
            f"exact pair enumeration refused for n={g.n} > cap {exact_max_n}"
        )
    if mode == "auto":
        mode = "exact" if g.n <= exact_max_n else "heuristic"
    if mode == "exact":
        return _best_violation(g, f, _all_pairs(g.full_mask))
    # dict.fromkeys drops repeated candidates, keeping first-seen order
    candidates = dict.fromkeys(_heuristic_candidates(g, seed, heuristic_samples))
    return _best_violation(g, f, candidates)


def _best_violation(g: Graph, f: DegreeSpec, candidates) -> DeficiencyReport | None:
    """The candidate (S, T) mask pair with delta < 0 that is least under
    (delta, |S|+|T|, S, T), or None when no candidate violates."""
    fvals = f.values
    best_key = None
    best = None
    for s_mask, t_mask in candidates:
        res = _evaluate(g, s_mask, t_mask, fvals)
        if res[4] < 0:
            key = (res[4], s_mask.bit_count() + t_mask.bit_count(),
                   _bits_of(s_mask), _bits_of(t_mask))
            if best_key is None or key < best_key:
                best_key = key
                best = (s_mask, t_mask, res)
    if best is None:
        return None
    s_mask, t_mask, res = best
    return DeficiencyReport(SubsetPair(_bits_of(s_mask), _bits_of(t_mask)), *res)


def _all_pairs(full: int):
    """All 3^n disjoint (S, T) mask pairs."""
    for s_mask in range(full + 1):
        rest = full & ~s_mask
        t_mask = rest
        while True:
            yield s_mask, t_mask
            if t_mask == 0:
                break
            t_mask = (t_mask - 1) & rest


def _heuristic_candidates(g: Graph, seed: int, samples: int):
    n = g.n
    yield 0, 0
    for v in range(n):
        yield 1 << v, 0
        yield 0, 1 << v
    # pairs of vertices as S, and each vertex with its neighborhood as T
    for u, v in combinations(range(n), 2):
        yield (1 << u) | (1 << v), 0
    for v in range(n):
        bit = 1 << v
        yield bit, g.adj_masks[v] & ~bit
    rng = random.Random(seed)
    for _ in range(samples):
        s_mask = t_mask = 0
        for v in range(n):
            r = rng.random()
            if r < 0.2:
                s_mask |= 1 << v
            elif r < 0.4:
                t_mask |= 1 << v
        yield s_mask, t_mask
