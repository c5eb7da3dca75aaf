"""Hypothesis checkers for the sufficient conditions, plus the empirical
validation campaign driver.

Each checker evaluates every hypothesis of its condition with exact
arithmetic and returns a HypothesisReport; a sufficient condition predicts
a factor only when all hypotheses hold, and says nothing otherwise.
``THEOREMS`` maps each theorem id to its checker and to the factor it
predicts; ``Theorem.run`` with ``confirm`` checks a met prediction against
the constructive solver, and any disagreement is flagged as a refutation
(which the test suite treats as fatal).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import ceil
from types import SimpleNamespace
from typing import Callable

from .graph import DegreeSpec, Graph, is_connected, is_star_free, min_degree
from .invariants import (
    TOUGHNESS_MAX_N,
    is_t_odd_tough,
    stability_number,
    vertex_connectivity,
)
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

    def add(self, name: str, observed: str, satisfied: bool) -> None:
        self.hypotheses.append(Hypothesis(name, observed, bool(satisfied)))

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [asdict(h) for h in self.hypotheses],
            "hypotheses_met": self.hypotheses_met,
            "prediction": self.prediction,
            "confirmation": self.confirmation,
        }


def conclusion_of(factor: str, lo: int | None = None, hi: int | None = None) -> str:
    """What a met prediction of ``Theorem.factor`` with bounds lo, hi says."""
    return {"f": "f-factor exists", "r": f"{lo}-factor exists",
            "ab": f"[{lo},{hi}]-factor exists"}[factor]


def _check_f(report: HypothesisReport, f: DegreeSpec, a: int, b: int) -> None:
    """Add the rows a <= f <= b and f(X) even."""
    report.add("f_range", f"a={a} <= f <= b={b}", all(a <= fv <= b for fv in f.values))
    total = f.total()
    report.add("f_total_even", f"f(X) = {total}", total % 2 == 0)


def _check_graph_and_f(
    report: HypothesisReport, g: Graph, f: DegreeSpec, a: int, b: int
) -> int | None:
    """Add the hypotheses shared by the stability-bound conditions:
    connected, b >= 2, a >= 1, delta >= b, a <= f <= b and f(X) even.

    Returns delta when the graph-side ones (all but the f rows) hold, else
    None.
    """
    connected = is_connected(g)
    report.add("connected", f"n={g.n}", connected)
    report.add("b_at_least_2", f"b={b}", b >= 2)
    report.add("a_at_least_1", f"a={a}", a >= 1)
    delta = min_degree(g)
    report.add("min_degree", f"delta={delta} >= b={b}", delta >= b)
    _check_f(report, f, a, b)
    return delta if connected and b >= 2 and a >= 1 and delta >= b else None


def _stability(
    report: HypothesisReport, g: Graph, bound: Fraction, shown: str | None = None
) -> None:
    """Add the row alpha <= bound, with the bound worded as ``shown`` if given."""
    alpha, _ = stability_number(g)
    report.add("stability", f"alpha={alpha} <= {shown or bound}", alpha <= bound)


def _not_evaluated(report: HypothesisReport, *names: str) -> None:
    for name in names:
        report.add(name, "not evaluated (prior hypothesis failed)", False)


def check_main_theorem(
    g: Graph, f: DegreeSpec, a: int, b: int, toughness_max_n: int = TOUGHNESS_MAX_N
) -> HypothesisReport:
    """Connected, delta >= b >= 2, a <= f <= b with a >= 1, f(X) even,
    alpha <= 4a(delta-b)/(b+1)^2, odd-toughness >= 1/a."""
    report = HypothesisReport("main", conclusion_of("f"))
    delta = _check_graph_and_f(report, g, f, a, b)
    if delta is None:
        _not_evaluated(report, "stability", "odd_toughness")
    else:
        _stability(report, g, stability_bound(a, b, delta))
        tough = is_t_odd_tough(g, f, Fraction(1, a), max_n=toughness_max_n)
        report.add("odd_toughness", f"odd-toughness >= 1/{a}", tough)
    return report


def check_corollary_kappa(g: Graph, f: DegreeSpec, a: int, b: int) -> HypothesisReport:
    """Variant with alpha <= min(4a(delta-b)/(b+1)^2, a*kappa).

    kappa is computed capped at c = ceil(bound / a), which is >= 0 since
    delta >= b: if kappa >= c then a*c >= bound, so min(bound, a*min(kappa,
    c)) = bound = min(bound, a*kappa) and the row reads the same, while no
    flow pushes past c paths.
    """
    report = HypothesisReport("kappa_corollary", conclusion_of("f"))
    delta = _check_graph_and_f(report, g, f, a, b)
    if delta is None:
        _not_evaluated(report, "stability")
    else:
        stab = stability_bound(a, b, delta)
        kappa = vertex_connectivity(g, ceil(stab / a))
        bound = min(stab, Fraction(a * kappa))
        _stability(report, g, bound, f"min(bound, a*kappa)={bound}")
    return report


def check_theorem_min_degree(g: Graph, f: DegreeSpec, a: int, b: int) -> HypothesisReport:
    """delta >= b|X|/(a+b) and |X| > (a+b)(a+b-3)/a, with a <= f <= b and
    f(X) even."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    report = HypothesisReport("min_degree", conclusion_of("f"))
    n = g.n
    delta = min_degree(g)
    report.add(
        "min_degree",
        f"delta={delta} >= b|X|/(a+b)={Fraction(b * n, a + b)}",
        delta >= Fraction(b * n, a + b),
    )
    order_bound = Fraction((a + b) * (a + b - 3), a)
    report.add("order", f"|X|={n} > {order_bound}", n > order_bound)
    _check_f(report, f, a, b)
    return report


def check_theorem_regular_connectivity(g: Graph, r: int) -> HypothesisReport:
    """r odd: |X| even, kappa >= (r+1)^2/2, alpha <= 4r*kappa/(r+1)^2
    gives an r-factor."""
    if r < 1 or r % 2 == 0:
        raise ValueError("need odd r >= 1")
    report = HypothesisReport("regular_connectivity", conclusion_of("r", r, r))
    report.add("even_order", f"|X|={g.n}", g.n % 2 == 0)
    kappa = vertex_connectivity(g)
    kappa_bound = Fraction((r + 1) ** 2, 2)
    report.add("connectivity", f"kappa={kappa} >= {kappa_bound}", kappa >= kappa_bound)
    _stability(report, g, Fraction(4 * r * kappa, (r + 1) ** 2))
    return report


def check_theorem_ab_factor(g: Graph, a: int, b: int) -> HypothesisReport:
    """Stability vs minimum degree condition for an [a,b]-factor; the bound
    depends on the parity of a."""
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    report = HypothesisReport("ab_factor", conclusion_of("ab", a, b))
    delta = min_degree(g)
    if a % 2 == 1:
        bound = Fraction(4 * b * (delta - a + 1), (a + 1) ** 2)
        which = "odd-a bound"
    else:
        bound = Fraction(4 * b * (delta - a + 1), a * (a + 2))
        which = "even-a bound"
    _stability(report, g, bound, f"{bound} ({which})")
    return report


def check_theorem_claw_free(
    g: Graph, f: DegreeSpec, a: int, b: int, star_order: int
) -> HypothesisReport:
    """K_{1,n}-free condition with n = star_order: connected, star-free,
    delta >= b+n-1, alpha <= 4a(delta-b-n+1)/((n-1)(b+1)^2)."""
    n = star_order
    if not 1 <= n - 1 <= a <= b:
        raise ValueError("need 1 <= n-1 <= a <= b")
    report = HypothesisReport("claw_free", conclusion_of("f"))
    report.add("connected", f"n={g.n}", is_connected(g))
    report.add("star_free", f"no induced K_(1,{n})", is_star_free(g, n))
    _check_f(report, f, a, b)
    delta = min_degree(g)
    report.add("min_degree", f"delta={delta} >= b+n-1={b + n - 1}", delta >= b + n - 1)
    _stability(report, g, Fraction(4 * a * (delta - b - n + 1), (n - 1) * (b + 1) ** 2))
    return report


def check_stability_conjecture(
    g: Graph, f: DegreeSpec, a: int, b: int
) -> HypothesisReport:
    """The stability bound alone, without any toughness hypothesis.

    Not a theorem: the g0 family meets all of these hypotheses while having
    no f-factor, so "refuted" is an expected confirmation value here.
    """
    report = HypothesisReport("stability_conjecture", conclusion_of("f"))
    delta = _check_graph_and_f(report, g, f, a, b)
    # unlike the two theorems above, alpha also waits for the f rows
    if report.hypotheses_met:
        _stability(report, g, stability_bound(a, b, delta))
    else:
        _not_evaluated(report, "stability")
    return report


@dataclass(frozen=True)
class Theorem:
    """One checker, and the factor that its conclusion predicts.

    ``check(g, f, params)`` calls the checker; ``params`` carries a, b, r,
    star_order, confirm and toughness_max_n (the CLI's argparse namespace
    is one such object).  ``factor`` is the predicted factor: "f" an
    f-factor, "r" an r-factor, "ab" an [a, b]-factor.  A campaign trial
    draws by it after (a, b): a random f in [a, b], or an odd r, or b raised
    to a + 1; the last two take the lower bound as f.  With
    ``skip_invalid`` a campaign skips a trial whose parameters the checker
    rejects.
    """

    check: Callable[[Graph, DegreeSpec | None, object], HypothesisReport]
    factor: str = "f"
    skip_invalid: bool = False

    def _degrees(self, params) -> tuple[int, ...]:
        """The predicted factor's (lo, hi) read from ``params``: () for "f",
        (r, r) for "r", (a, b) for "ab"; each must be an int, not a bool."""
        keys = {"f": (), "r": ("r", "r"), "ab": ("a", "b")}[self.factor]
        for key in keys:
            if type(getattr(params, key, None)) is not int:
                raise ValueError(f"parameter {key!r} must be an integer")
        return tuple(getattr(params, key) for key in keys)

    def bounds(self, n: int, f: DegreeSpec | None, params) -> tuple[tuple[int, ...], ...]:
        """The degree bounds (lo, hi) of the predicted factor on n vertices."""
        return tuple((d,) * n for d in self._degrees(params)) or (f.values, f.values)

    def conclusion(self, params) -> str:
        """What a met prediction says, as the checker's report states it."""
        return conclusion_of(self.factor, *self._degrees(params))

    def run(self, g: Graph, f: DegreeSpec | None, params) -> HypothesisReport:
        """Run the checker; with ``params.confirm``, check a met prediction
        against the solver: a factor within ``bounds`` must exist."""
        report = self.check(g, f, params)
        if params.confirm and report.hypotheses_met:
            lo, hi = self.bounds(g.n, f, params)
            factor = find_factor(g, lo, hi)
            if factor is not None and verify_factor(g, lo, hi, factor):
                report.confirmation = "confirmed"
                report.factor = factor
            else:
                report.confirmation = "refuted"
        return report


# each lambda looks its checker up at call time, so a rebound name runs
THEOREMS: dict[str, Theorem] = {
    # stability bound + odd-toughness >= 1/a
    "main": Theorem(lambda g, f, p: check_main_theorem(
        g, f, p.a, p.b, toughness_max_n=p.toughness_max_n)),
    # stability bound strengthened by min(. , a*kappa)
    "kappa_corollary": Theorem(lambda g, f, p: check_corollary_kappa(g, f, p.a, p.b)),
    # minimum-degree condition delta >= b|X|/(a+b)
    "min_degree": Theorem(lambda g, f, p: check_theorem_min_degree(g, f, p.a, p.b)),
    # r-factor via connectivity and stability
    "regular_connectivity": Theorem(
        lambda g, f, p: check_theorem_regular_connectivity(g, p.r), factor="r"),
    # [a,b]-factor via stability and minimum degree
    "ab_factor": Theorem(lambda g, f, p: check_theorem_ab_factor(g, p.a, p.b), factor="ab"),
    # K_{1,n}-free condition
    "claw_free": Theorem(lambda g, f, p: check_theorem_claw_free(
        g, f, p.a, p.b, p.star_order), skip_invalid=True),
    # the stability bound alone (refuted by g0)
    "stability_conjecture": Theorem(
        lambda g, f, p: check_stability_conjecture(g, f, p.a, p.b)),
}


# Empirical validation campaign


@dataclass
class TrialRecord:
    index: int
    seed: int
    instance: str


@dataclass
class CampaignReport:
    theorem: str
    trials: int
    seed: int
    parameters: dict
    hypotheses_met: int = 0
    confirmed: int = 0
    discrepancies: list[TrialRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "seed": self.seed,
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "hypotheses_met": self.hypotheses_met,
            "confirmed": self.confirmed,
            "discrepancy_count": len(self.discrepancies),
            "discrepancies": [asdict(d) for d in self.discrepancies],
        }

    def tally(self, index: int, seed: int, check: HypothesisReport,
              g: Graph, spec: DegreeSpec) -> None:
        """Count one checked instance; a met prediction that the solver
        refutes is kept as a discrepancy, with the instance."""
        if not check.hypotheses_met:
            return
        self.hypotheses_met += 1
        if check.confirmation == "confirmed":
            self.confirmed += 1
        elif check.confirmation == "refuted":
            self.discrepancies.append(TrialRecord(index, seed, serialize_instance(g, spec)))


# what a campaign trial draws from
EDGE_PROBS = (0.6, 0.75, 0.9)
AB_CHOICES = ((1, 2), (1, 3), (2, 2), (2, 3))
R_CHOICES = (1, 3)
STAR_ORDER = 3


def _trial_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def empirical_validate(
    theorem: str,
    trials: int,
    seed: int,
    n_range: tuple[int, int] = (8, 12),
) -> CampaignReport:
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
        tseed = _trial_seed(seed, index)
        rng = random.Random(tseed)
        n = rng.randint(*n_range)
        prob = rng.choice(EDGE_PROBS)
        g = random_connected_graph(n, prob, rng.randrange(2**31))
        a, b = rng.choice(AB_CHOICES)
        params = SimpleNamespace(a=a, b=b, r=None, star_order=STAR_ORDER, confirm=True,
                                 toughness_max_n=TOUGHNESS_MAX_N)
        if entry.factor == "f":
            try:
                f = random_degree_spec(g, a, b, rng.randrange(2**31))
            except ValueError:
                continue  # unrepairable parity (a == b with odd total)
        else:
            if entry.factor == "r":
                params.r = rng.choice(R_CHOICES)
            else:
                params.b = max(b, a + 1)
            f = DegreeSpec(entry.bounds(g.n, None, params)[0])
        try:
            check = entry.run(g, f, params)
        except ValueError:
            if entry.skip_invalid:
                continue
            raise
        report.tally(index, tseed, check, g, f)
    return report
