"""Hypothesis checkers for the sufficient conditions, plus the empirical
validation campaign driver.

``THEOREMS`` holds each sufficient condition as a table of hypothesis rows.
``Theorem.check`` walks the rows with exact arithmetic and returns a
HypothesisReport; a condition predicts a factor only when every row holds,
and says nothing otherwise.  ``recheck`` walks the same table.
``Theorem.run`` with ``confirm`` checks a met prediction against the
constructive solver, and any disagreement is flagged as a refutation
(which the test suite treats as fatal).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil
from types import SimpleNamespace
from typing import Callable

from .graph import DegreeSpec, Graph, check_spec, is_star_free, min_degree
from .invariants import TOUGHNESS_MAX_N, is_t_odd_tough, stability_number, vertex_connectivity
from .constructions import stability_bound
from .instances import random_connected_graph, random_degree_spec, serialize_instance
from .solver import FactorSubgraph, find_factor, verify_factor

@dataclass
class Hypothesis:
    name: str
    observed: str
    satisfied: bool


@dataclass
class HypothesisReport:
    theorem: str
    conclusion: str
    hypotheses: list[Hypothesis] = field(default_factory=list)
    confirmation: str | None = None  # "confirmed" | "refuted" | None
    factor: FactorSubgraph | None = None

    @property
    def hypotheses_met(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)

    @property
    def prediction(self) -> str:
        return self.conclusion if self.hypotheses_met else "no prediction"

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "hypotheses": [asdict(h) for h in self.hypotheses],
                "hypotheses_met": self.hypotheses_met, "prediction": self.prediction,
                "confirmation": self.confirmation}


class _Facts:
    """What one check's rows read: g, f, delta and the uncapped kappa, each
    computed at most once; any other attribute is a parameter."""

    def __init__(self, g: Graph, f: DegreeSpec | None, params) -> None:
        self.g, self.f, self.params = g, f, params

    def __getattr__(self, key: str):
        return getattr(self.params, key)

    delta = cached_property(lambda self: min_degree(self.g))
    kappa = cached_property(lambda self: vertex_connectivity(self.g))


def _alpha_row(x: _Facts, bound: Fraction, shown: str | None = None) -> tuple[str, bool]:
    """The row alpha <= bound, with the bound worded as ``shown`` if given."""
    alpha, _ = stability_number(x.g)
    return f"alpha={alpha} <= {shown or bound}", alpha <= bound


def _kappa_stability(x: _Facts) -> tuple[str, bool]:
    """alpha <= min(bound, a*kappa), with kappa capped at c = ceil(bound / a),
    which is >= 0 as delta >= b: if kappa >= c then a*c >= bound, so the row
    reads as with the uncapped kappa, while no flow pushes past c paths."""
    stab = stability_bound(x.a, x.b, x.delta)
    bound = min(stab, Fraction(x.a * vertex_connectivity(x.g, ceil(stab / x.a))))
    return _alpha_row(x, bound, f"min(bound, a*kappa)={bound}")


def _ab_stability(x: _Facts) -> tuple[str, bool]:
    """The [a,b]-factor bound, which depends on the parity of a."""
    odd = x.a % 2 == 1
    bound = Fraction(4 * x.b * (x.delta - x.a + 1), (x.a + 1) ** 2 if odd else x.a * (x.a + 2))
    return _alpha_row(x, bound, f"{bound} ({'odd' if odd else 'even'}-a bound)")


# A row is (name, exponential, evaluate), and evaluate maps a check's facts
# to (observed, satisfied).  The exponential rows are those of alpha and
# odd-toughness; recheck recomputes every other row.  (The alias names
# _Facts as a string: typing caches Callable[[_Facts], ...] for good, and
# the class would keep this module alive past a re-import.)
Row = tuple[str, bool, Callable[["_Facts"], tuple[str, bool]]]

_CONNECTED: Row = ("connected", False, lambda x: (f"n={x.g.n}", x.g.connected))
_F_ROWS: tuple[Row, ...] = (
    ("f_range", False, lambda x: (f"a={x.a} <= f <= b={x.b}",
                                  all(x.a <= fv <= x.b for fv in x.f.values))),
    ("f_total_even", False, lambda x: (f"f(X) = {x.f.total()}", x.f.total() % 2 == 0)),
)
_GRAPH_AND_F: tuple[Row, ...] = (
    _CONNECTED,
    ("b_at_least_2", False, lambda x: (f"b={x.b}", x.b >= 2)),
    ("a_at_least_1", False, lambda x: (f"a={x.a}", x.a >= 1)),
    ("min_degree", False, lambda x: (f"delta={x.delta} >= b={x.b}", x.delta >= x.b)),
    *_F_ROWS,
)
_STABILITY: Row = ("stability", True,
                   lambda x: _alpha_row(x, stability_bound(x.a, x.b, x.delta)))


@dataclass(frozen=True)
class Theorem:
    """One sufficient condition: its ordered hypothesis rows, the polynomial
    ones first, where an exponential row runs only when every polynomial row
    holds, as the condition predicts nothing otherwise; ``domain``, the
    wording and test of the parameters it is defined for; and ``factor``,
    the parameter names of the predicted factor's (lo, hi): () for an
    f-factor, ("r", "r") or ("a", "b").  A campaign trial draws by
    ``factor`` after (a, b): a random f in [a, b], or an odd r, or b raised
    to a + 1, and the last two take the lower bound as f.  ``run`` calls the
    public function ``checker`` with ``args``: f, and a, b, r, star_order or
    toughness_max_n read from ``params``, which also carries confirm (the
    CLI's argparse namespace is one such object).
    """

    name: str
    summary: str
    checker: str
    rows: tuple[Row, ...]
    args: tuple[str, ...] = ("f", "a", "b")
    factor: tuple[str, ...] = ()
    domain: tuple[str, Callable[[object], bool]] = ("", lambda p: True)

    def outside(self, params) -> str | None:
        """Why ``params`` lie outside the domain, or None."""
        return None if self.domain[1](params) else f"need {self.domain[0]}"

    def check(self, g: Graph, f: DegreeSpec | None, params,
              recorded: list[dict] | None = None) -> HypothesisReport:
        """Walk the rows on (g, f).  With ``recorded``, a report's rows, an
        exponential row that runs is taken from it by name, and reads
        "(absent)" when it is missing, instead of being evaluated."""
        if need := self.outside(params):
            raise ValueError(need)
        if f is not None:
            check_spec(g, f)
        facts, given = _Facts(g, f, params), {row["name"]: row for row in recorded or ()}
        report = HypothesisReport(self.name, self.conclusion(params))
        rows = report.hypotheses
        for name, exponential, evaluate in self.rows:
            if exponential and not all(h.satisfied for h, (_, exp, _) in zip(rows, self.rows)
                                       if not exp):
                observed, satisfied = "not evaluated (prior hypothesis failed)", False
            elif exponential and recorded is not None:
                row = given.get(name, {"observed": "(absent)", "satisfied": False})
                observed, satisfied = row["observed"], row["satisfied"]
            else:
                observed, satisfied = evaluate(facts)
            rows.append(Hypothesis(name, observed, bool(satisfied)))
        return report

    def bounds(self, n: int, f: DegreeSpec | None, params) -> tuple[tuple[int, ...], ...]:
        """The degree bounds (lo, hi) of the predicted factor on n vertices."""
        return tuple((getattr(params, key),) * n for key in self.factor) or (f.values, f.values)

    def conclusion(self, params) -> str:
        """What a met prediction says: "f-factor exists", or the r- or
        [a,b]-factor with its values read from ``params``."""
        lo, hi = [getattr(params, key) for key in self.factor] or ["f", "f"]
        return f"{lo}-factor exists" if lo == hi else f"[{lo},{hi}]-factor exists"

    def run(self, g: Graph, f: DegreeSpec | None, params) -> HypothesisReport:
        """Run the public checker, looked up per call so that a rebound name
        runs; with ``params.confirm``, check a met prediction against the
        solver: a factor within ``bounds`` must exist."""
        report = globals()[self.checker](
            g, *(f if key == "f" else getattr(params, key) for key in self.args))
        if params.confirm and report.hypotheses_met:
            lo, hi = self.bounds(g.n, f, params)
            factor = find_factor(g, lo, hi)
            if factor is not None and verify_factor(g, lo, hi, factor):
                report.confirmation, report.factor = "confirmed", factor
            else:
                report.confirmation = "refuted"
        return report


THEOREMS: dict[str, Theorem] = {theorem.name: theorem for theorem in (
    Theorem("main", "stability bound + odd-toughness >= 1/a", "check_main_theorem", (
        *_GRAPH_AND_F, _STABILITY,
        ("odd_toughness", True, lambda x: (f"odd-toughness >= 1/{x.a}", is_t_odd_tough(
            x.g, x.f, Fraction(1, x.a), max_n=x.toughness_max_n)))),
        args=("f", "a", "b", "toughness_max_n")),
    Theorem("kappa_corollary", "stability bound strengthened by min(. , a*kappa)",
            "check_corollary_kappa", (*_GRAPH_AND_F, ("stability", True, _kappa_stability))),
    Theorem("min_degree", "minimum-degree condition delta >= b|X|/(a+b)",
            "check_theorem_min_degree", (
                ("min_degree", False, lambda x: (
                    f"delta={x.delta} >= b|X|/(a+b)={Fraction(x.b * x.g.n, x.a + x.b)}",
                    x.delta >= Fraction(x.b * x.g.n, x.a + x.b))),
                ("order", False, lambda x: (
                    f"|X|={x.g.n} > {Fraction((x.a + x.b) * (x.a + x.b - 3), x.a)}",
                    x.g.n > Fraction((x.a + x.b) * (x.a + x.b - 3), x.a))),
                *_F_ROWS),
            domain=("1 <= a <= b", lambda p: 1 <= p.a <= p.b)),
    Theorem("regular_connectivity", "r-factor via connectivity and stability",
            "check_theorem_regular_connectivity", (
                ("even_order", False, lambda x: (f"|X|={x.g.n}", x.g.n % 2 == 0)),
                ("connectivity", False, lambda x: (
                    f"kappa={x.kappa} >= {Fraction((x.r + 1) ** 2, 2)}",
                    x.kappa >= Fraction((x.r + 1) ** 2, 2))),
                ("stability", True, lambda x: _alpha_row(
                    x, Fraction(4 * x.r * x.kappa, (x.r + 1) ** 2)))),
            args=("r",), factor=("r", "r"), domain=("odd r >= 1", lambda p: p.r >= 1 and p.r % 2)),
    Theorem("ab_factor", "[a,b]-factor via stability and minimum degree",
            "check_theorem_ab_factor", (("stability", True, _ab_stability),),
            args=("a", "b"), factor=("a", "b"), domain=("1 <= a < b", lambda p: 1 <= p.a < p.b)),
    Theorem("claw_free", "K_{1,n}-free condition", "check_theorem_claw_free", (
        _CONNECTED,
        ("star_free", False, lambda x: (f"no induced K_(1,{x.star_order})",
                                        is_star_free(x.g, x.star_order))),
        *_F_ROWS,
        ("min_degree", False, lambda x: (f"delta={x.delta} >= b+n-1={x.b + x.star_order - 1}",
                                         x.delta >= x.b + x.star_order - 1)),
        ("stability", True, lambda x: _alpha_row(x, Fraction(
            4 * x.a * (x.delta - x.b - x.star_order + 1), (x.star_order - 1) * (x.b + 1) ** 2)))),
        args=("f", "a", "b", "star_order"),
        domain=("1 <= n-1 <= a <= b", lambda p: 1 <= p.star_order - 1 <= p.a <= p.b)),
    Theorem("stability_conjecture", "the stability bound alone (refuted by g0)",
            "check_stability_conjecture", (*_GRAPH_AND_F, _STABILITY)),
)}


def _checked(name: str, g: Graph, f: DegreeSpec | None, **params) -> HypothesisReport:
    return THEOREMS[name].check(g, f, SimpleNamespace(**params))


def check_main_theorem(g: Graph, f: DegreeSpec, a: int, b: int,
                       toughness_max_n: int = TOUGHNESS_MAX_N) -> HypothesisReport:
    """The stability bound and odd-toughness >= 1/a give an f-factor."""
    return _checked("main", g, f, a=a, b=b, toughness_max_n=toughness_max_n)


def check_corollary_kappa(g: Graph, f: DegreeSpec, a: int, b: int) -> HypothesisReport:
    """Variant with alpha <= min(4a(delta-b)/(b+1)^2, a*kappa)."""
    return _checked("kappa_corollary", g, f, a=a, b=b)


def check_theorem_min_degree(g: Graph, f: DegreeSpec, a: int, b: int) -> HypothesisReport:
    """delta >= b|X|/(a+b) and |X| > (a+b)(a+b-3)/a, a <= f <= b, f(X) even."""
    return _checked("min_degree", g, f, a=a, b=b)


def check_theorem_regular_connectivity(g: Graph, r: int) -> HypothesisReport:
    """r odd: |X| even, kappa >= (r+1)^2/2, alpha <= 4r*kappa/(r+1)^2."""
    return _checked("regular_connectivity", g, None, r=r)


def check_theorem_ab_factor(g: Graph, a: int, b: int) -> HypothesisReport:
    """Stability vs minimum degree condition for an [a,b]-factor."""
    return _checked("ab_factor", g, None, a=a, b=b)


def check_theorem_claw_free(g: Graph, f: DegreeSpec, a: int, b: int,
                            star_order: int) -> HypothesisReport:
    """The K_{1,n}-free condition with n = star_order."""
    return _checked("claw_free", g, f, a=a, b=b, star_order=star_order)


def check_stability_conjecture(g: Graph, f: DegreeSpec, a: int, b: int) -> HypothesisReport:
    """The stability bound alone: g0 refutes it, so "refuted" is expected."""
    return _checked("stability_conjecture", g, f, a=a, b=b)


# Empirical validation campaign


@dataclass
class CampaignReport:
    theorem: str
    trials: int
    seed: int
    parameters: dict
    hypotheses_met: int = 0
    confirmed: int = 0
    discrepancies: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = dict(vars(self), parameters={k: str(v) for k, v in sorted(self.parameters.items())})
        found = out.pop("discrepancies")
        return dict(out, discrepancy_count=len(found), discrepancies=found)

    def tally(self, index: int, seed: int, check: HypothesisReport,
              g: Graph, spec: DegreeSpec) -> None:
        """Count one checked instance; a met prediction that the solver
        refutes is kept as a discrepancy: its index, seed and instance."""
        if not check.hypotheses_met:
            return
        self.hypotheses_met += 1
        if check.confirmation == "confirmed":
            self.confirmed += 1
        elif check.confirmation == "refuted":
            self.discrepancies.append(
                {"index": index, "seed": seed, "instance": serialize_instance(g, spec)})


# what a campaign trial draws from
EDGE_PROBS = (0.6, 0.75, 0.9)
AB_CHOICES = ((1, 2), (1, 3), (2, 2), (2, 3))
R_CHOICES = (1, 3)
STAR_ORDER = 3


def empirical_validate(theorem: str, trials: int, seed: int,
                       n_range: tuple[int, int] = (8, 12)) -> CampaignReport:
    """Sample random connected instances, run the named checker, and confirm
    every met prediction against the solver.

    Trial generation derives a per-trial seed from (seed, index), so results
    are identical regardless of execution order.  A discrepancy is a trial
    whose hypotheses all hold but whose predicted factor does not exist;
    each one is recorded with a reproducible instance serialization.
    """
    entry = THEOREMS.get(theorem)
    if entry is None:
        raise ValueError(f"unknown theorem id {theorem!r}")
    if trials < 0:
        raise ValueError(f"--trials must be at least 0, got {trials}")
    if not 1 <= n_range[0] <= n_range[1]:
        raise ValueError(f"need 1 <= --min-n <= --max-n, got {n_range[0]} and {n_range[1]}")
    report = CampaignReport(
        theorem, trials, seed,
        {"n_range": n_range, "edge_probs": EDGE_PROBS, "ab_choices": AB_CHOICES,
         "r_choices": R_CHOICES, "star_order": STAR_ORDER},
    )
    for index in range(trials):
        tseed = seed * 1_000_003 + index
        rng = random.Random(tseed)
        n = rng.randint(*n_range)
        prob = rng.choice(EDGE_PROBS)
        g = random_connected_graph(n, prob, rng.randrange(2**31))
        a, b = rng.choice(AB_CHOICES)
        params = SimpleNamespace(a=a, b=b, r=None, star_order=STAR_ORDER, confirm=True,
                                 toughness_max_n=TOUGHNESS_MAX_N)
        if not entry.factor:
            try:
                f = random_degree_spec(g, a, b, rng.randrange(2**31))
            except ValueError:
                continue  # unrepairable parity (a == b with odd total)
        else:
            if "r" in entry.factor:
                params.r = rng.choice(R_CHOICES)
            else:
                params.b = max(b, a + 1)
            f = DegreeSpec(entry.bounds(g.n, None, params)[0])
        if not entry.outside(params):
            report.tally(index, tseed, entry.run(g, f, params), g, f)
    return report
