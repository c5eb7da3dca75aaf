"""Parameterized generators for the two explicit instance families.

Family g0: a clique cutset S of k vertices attached to p complete components
of order delta+1 (the first one completely, the others by a single edge),
with targets a on S and b elsewhere.  When every component has odd f-sum,
the pair (S, empty) has deficiency a*k - p, so p > a*k certifies that no
f-factor exists even when the stability bound alpha <= 4a(delta-b)/(b+1)^2
holds.

Family g1: the join of a complete graph A = K_{delta-r+1} with alpha
disjoint copies of K_r, targets a on A and b on the copies.  An f-factor
forces alpha <= a(delta-r+1) / (r(b+1-r)), so instances above that
threshold have the violating pair (A, B).

Both generators recompute every expected quantity instead of assuming the
asymptotic regime, and they report the parity of f(X) explicitly: a "no
factor" verdict distinguishes parity from deficiency as its reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .graph import (
    DegreeSpec,
    Graph,
    build_graph,
    complete_graph,
    disjoint_union,
    join,
)
from .instances import check_order
from .tutte import DeficiencyReport, deficiency

# the most edges a family member may have, checked with n before anything
# is built: ``gen`` of either family peaks at about 170 MB at the cap
MAX_M = 500_000


@dataclass
class ConstructionReport:
    """A generated instance plus its analytically expected properties.

    ``expected_existence`` is False when nonexistence is forced (by parity or
    by the witness pair), None when the construction makes no prediction.
    ``to_dict`` keeps no graph, spec or witness: ``gen --report`` carries
    the witness as a violating-pair certificate, which ``recheck`` verifies.
    """

    family: str
    graph: Graph
    spec: DegreeSpec
    params: dict[str, int]
    expected_alpha: int
    expected_min_degree: int
    f_total: int
    f_total_even: bool
    expected_existence: bool | None
    nonexistence_reason: str | None
    witness_pair: DeficiencyReport | None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k not in ("graph", "spec", "witness_pair")}
        return dict(out, params=dict(sorted(self.params.items())),
                    extras={k: str(v) for k, v in sorted(self.extras.items())})


def stability_bound(a: int, b: int, delta: int) -> Fraction:
    """The exact rational threshold 4a(delta - b) / (b+1)^2."""
    if b < 2:
        raise ValueError("need b >= 2")
    if delta < b:
        raise ValueError("need delta >= b")
    if a < 0:
        raise ValueError("need a >= 0")
    return Fraction(4 * a * (delta - b), (b + 1) ** 2)


def _check_size(n: int, m: int) -> None:
    """Refuse a family member of n vertices and m edges past ``MAX_N`` or
    ``MAX_M``, before it is built."""
    check_order(n)
    if m > MAX_M:
        raise ValueError(f"m={m} is outside the limit of {MAX_M} edges")


def _report(
    family: str, g: Graph, f: DegreeSpec, params: dict[str, int], alpha: int,
    delta: int, pair: tuple, forced: bool, extras: dict,
) -> ConstructionReport:
    """The report both families end in.  An odd f(X) rules a factor out by
    parity; otherwise ``forced`` (the family's deficiency inequality) makes
    ``pair`` (S, T) the witness, and without it the family predicts nothing."""
    f_total = f.total()
    even = f_total % 2 == 0
    reason = "parity" if not even else "deficiency" if forced else None
    witnessed = reason == "deficiency"
    return ConstructionReport(
        family, g, f, params, alpha, delta, f_total, even,
        expected_existence=None if reason is None else False,
        nonexistence_reason=reason,
        witness_pair=deficiency(g, *pair, f) if witnessed else None,
        extras=extras,
    )


def build_g0(a: int, b: int, k: int, delta: int, p: int) -> ConstructionReport:
    """Clique-cutset family: K_k cutset, p components K_{delta+1}.

    Preconditions: 1 <= k < b, p >= 2, b odd (so each component's f-sum
    b(delta+1) is odd once delta is even), delta even with delta >= b, and
    a <= b.  Vertex numbering: S first, then C_1..C_p in order; for i >= 2
    exactly one edge joins vertex 0 to the lowest-index vertex of C_i.
    """
    if b % 2 == 0:
        raise ValueError("b must be odd")
    if delta % 2 == 1:
        raise ValueError("delta must be even")
    if delta < b:
        raise ValueError("need delta >= b")
    if not 1 <= k < b:
        raise ValueError("need 1 <= k < b")
    if p < 2:
        raise ValueError("need p >= 2")
    if not 0 <= a <= b:
        raise ValueError("need 0 <= a <= b")
    comp_size = delta + 1
    _check_size(k + p * comp_size,
                comb(k + comp_size, 2) + (p - 1) * (comb(comp_size, 2) + 1))
    # S together with C_1 is a complete block
    blocks = disjoint_union([complete_graph(k + comp_size)]
                            + [complete_graph(comp_size)] * (p - 1))
    g = build_graph(blocks.n, blocks.edges()
                    + tuple((0, k + i * comp_size) for i in range(1, p)))
    f = DegreeSpec((a,) * k + (b,) * (g.n - k))
    bound = stability_bound(a, b, delta)
    return _report(
        "g0", g, f, {"a": a, "b": b, "k": k, "delta": delta, "p": p},
        alpha=p, delta=delta, pair=(range(k), ()), forced=p > a * k,
        extras={"stability_bound": bound, "stability_hypothesis_met": p <= bound,
                "cutset_ratio": Fraction(k, p)},
    )


def g0_desk_instance() -> ConstructionReport:
    """Smallest-style refutation instance meeting the stability hypothesis:
    (a=2, b=3, k=1, delta=12, p=4), n = 53, f(X) = 158."""
    return build_g0(a=2, b=3, k=1, delta=12, p=4)


def build_g1(a: int, b: int, r: int, delta: int, alpha: int) -> ConstructionReport:
    """Join family: A = K_{delta-r+1} joined to alpha disjoint copies of K_r.

    Preconditions (relaxed): delta >= r >= 1, alpha >= 1, b > r, a >= 0.
    The strict parameter chain alpha > delta > b > r is reported as a flag,
    not enforced: useful small instances sit outside it.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if delta < r:
        raise ValueError("need delta >= r")
    if alpha < 1:
        raise ValueError("need alpha >= 1")
    if b <= r:
        raise ValueError("need b > r")
    if a < 0:
        raise ValueError("need a >= 0")
    a_size = delta - r + 1
    _check_size(a_size + alpha * r,
                comb(a_size, 2) + alpha * (comb(r, 2) + a_size * r))
    part_a = complete_graph(a_size)
    part_b = disjoint_union([complete_graph(r) for _ in range(alpha)])
    g = join(part_a, part_b)
    f = DegreeSpec((a,) * a_size + (b,) * (alpha * r))
    threshold = Fraction(a * a_size, r * (b + 1 - r))
    return _report(
        "g1", g, f, {"a": a, "b": b, "r": r, "delta": delta, "alpha": alpha},
        alpha=alpha, delta=delta,
        pair=(range(a_size), range(a_size, g.n)),
        forced=alpha > threshold,
        extras={"threshold": threshold, "strict_chain": alpha > delta > b > r},
    )
