"""Hypothesis checkers for the sufficient conditions, plus the empirical
validation campaign driver.

Each checker evaluates every hypothesis of its condition with exact
arithmetic and returns a HypothesisReport; a sufficient condition predicts
an f-factor only when all hypotheses hold, and says nothing otherwise.
With ``confirm=True`` a met prediction is checked against the constructive
solver, and any disagreement is flagged as a refutation (which the test
suite treats as fatal).  ``THEOREMS`` maps each theorem id to its checker.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
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
            "factor": None if self.factor is None else [list(e) for e in self.factor.edges],
        }


def _check_f(report: HypothesisReport, f: DegreeSpec, a: int, b: int) -> None:
    """Add the rows a <= f <= b and f(X) even."""
    report.add("f_range", f"a={a} <= f <= b={b}", all(a <= fv <= b for fv in f.values))
    total = f.total()
    report.add("f_total_even", f"f(X) = {total}", total % 2 == 0)


def _confirm(
    report: HypothesisReport, g: Graph, lo: tuple[int, ...], hi: tuple[int, ...],
    confirm: bool,
) -> HypothesisReport:
    """With ``confirm``, check a met prediction against the solver: a
    factor with lo(v) <= deg(v) <= hi(v) must exist."""
    if confirm and report.hypotheses_met:
        factor = find_factor(g, lo, hi)
        if factor is not None and verify_factor(g, lo, hi, factor):
            report.confirmation = "confirmed"
            report.factor = factor
        else:
            report.confirmation = "refuted"
    return report


def _check_graph_and_f(
    report: HypothesisReport, g: Graph, f: DegreeSpec, a: int, b: int
) -> int | None:
    """Add the hypotheses shared by the stability-bound conditions:
    connected, b >= 2, a >= 1, delta >= b, a <= f <= b and f(X) even.

    Returns delta when the graph-side ones (all but the f rows) hold, else
    None.
    """
    connected = is_connected(g) and g.n > 0
    report.add("connected", f"n={g.n}", connected)
    report.add("b_at_least_2", f"b={b}", b >= 2)
    report.add("a_at_least_1", f"a={a}", a >= 1)
    delta = min_degree(g)
    report.add("min_degree", f"delta={delta} >= b={b}", delta >= b)
    _check_f(report, f, a, b)
    return delta if connected and b >= 2 and a >= 1 and delta >= b else None


def _not_evaluated(report: HypothesisReport, *names: str) -> None:
    for name in names:
        report.add(name, "not evaluated (prior hypothesis failed)", False)


def check_main_theorem(
    g: Graph, f: DegreeSpec, a: int, b: int,
    confirm: bool = False, toughness_max_n: int = TOUGHNESS_MAX_N,
) -> HypothesisReport:
    """Connected, delta >= b >= 2, a <= f <= b with a >= 1, f(X) even,
    alpha <= 4a(delta-b)/(b+1)^2, odd-toughness >= 1/a."""
    report = HypothesisReport("main", "f-factor exists")
    delta = _check_graph_and_f(report, g, f, a, b)
    if delta is None:
        _not_evaluated(report, "stability", "odd_toughness")
    else:
        alpha, _ = stability_number(g)
        bound = stability_bound(a, b, delta)
        report.add("stability", f"alpha={alpha} <= {bound}", alpha <= bound)
        tough = is_t_odd_tough(g, f, Fraction(1, a), max_n=toughness_max_n)
        report.add("odd_toughness", f"odd-toughness >= 1/{a}", tough)
    return _confirm(report, g, f.values, f.values, confirm)


def check_corollary_kappa(
    g: Graph, f: DegreeSpec, a: int, b: int, confirm: bool = False
) -> HypothesisReport:
    """Variant with alpha <= min(4a(delta-b)/(b+1)^2, a*kappa)."""
    report = HypothesisReport("kappa_corollary", "f-factor exists")
    delta = _check_graph_and_f(report, g, f, a, b)
    if delta is None:
        _not_evaluated(report, "stability")
    else:
        alpha, _ = stability_number(g)
        kappa = vertex_connectivity(g)
        bound = min(stability_bound(a, b, delta), Fraction(a * kappa))
        report.add(
            "stability",
            f"alpha={alpha} <= min(bound, a*kappa)={bound}",
            alpha <= bound,
        )
    return _confirm(report, g, f.values, f.values, confirm)


def check_theorem_min_degree(
    g: Graph, f: DegreeSpec, a: int, b: int, confirm: bool = False
) -> HypothesisReport:
    """delta >= b|X|/(a+b) and |X| > (a+b)(a+b-3)/a, with a <= f <= b and
    f(X) even."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    report = HypothesisReport("min_degree", "f-factor exists")
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
    return _confirm(report, g, f.values, f.values, confirm)


def check_theorem_regular_connectivity(
    g: Graph, r: int, confirm: bool = False
) -> HypothesisReport:
    """r odd: |X| even, kappa >= (r+1)^2/2, alpha <= 4r*kappa/(r+1)^2
    gives an r-factor."""
    if r < 1 or r % 2 == 0:
        raise ValueError("need odd r >= 1")
    report = HypothesisReport("regular_connectivity", f"{r}-factor exists")
    report.add("even_order", f"|X|={g.n}", g.n % 2 == 0)
    kappa = vertex_connectivity(g)
    kappa_bound = Fraction((r + 1) ** 2, 2)
    report.add("connectivity", f"kappa={kappa} >= {kappa_bound}", kappa >= kappa_bound)
    alpha, _ = stability_number(g)
    alpha_bound = Fraction(4 * r * kappa, (r + 1) ** 2)
    report.add("stability", f"alpha={alpha} <= {alpha_bound}", alpha <= alpha_bound)
    return _confirm(report, g, (r,) * g.n, (r,) * g.n, confirm)


def check_theorem_ab_factor(
    g: Graph, a: int, b: int, confirm: bool = False
) -> HypothesisReport:
    """Stability vs minimum degree condition for an [a,b]-factor; the bound
    depends on the parity of a.  Confirmation asks the solver for a factor
    with a <= deg(v) <= b, at any size."""
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    report = HypothesisReport("ab_factor", f"[{a},{b}]-factor exists")
    delta = min_degree(g)
    if a % 2 == 1:
        bound = Fraction(4 * b * (delta - a + 1), (a + 1) ** 2)
        which = "odd-a bound"
    else:
        bound = Fraction(4 * b * (delta - a + 1), a * (a + 2))
        which = "even-a bound"
    alpha, _ = stability_number(g)
    report.add("stability", f"alpha={alpha} <= {bound} ({which})", alpha <= bound)
    return _confirm(report, g, (a,) * g.n, (b,) * g.n, confirm)


def check_theorem_claw_free(
    g: Graph, f: DegreeSpec, a: int, b: int, star_order: int,
    confirm: bool = False,
) -> HypothesisReport:
    """K_{1,n}-free condition with n = star_order: connected, star-free,
    delta >= b+n-1, alpha <= 4a(delta-b-n+1)/((n-1)(b+1)^2)."""
    n = star_order
    if not 1 <= n - 1 <= a <= b:
        raise ValueError("need 1 <= n-1 <= a <= b")
    report = HypothesisReport("claw_free", "f-factor exists")
    report.add("connected", f"n={g.n}", is_connected(g) and g.n > 0)
    report.add("star_free", f"no induced K_(1,{n})", is_star_free(g, n))
    _check_f(report, f, a, b)
    delta = min_degree(g)
    report.add("min_degree", f"delta={delta} >= b+n-1={b + n - 1}", delta >= b + n - 1)
    bound = Fraction(4 * a * (delta - b - n + 1), (n - 1) * (b + 1) ** 2)
    alpha, _ = stability_number(g)
    report.add("stability", f"alpha={alpha} <= {bound}", alpha <= bound)
    return _confirm(report, g, f.values, f.values, confirm)


def check_stability_conjecture(
    g: Graph, f: DegreeSpec, a: int, b: int, confirm: bool = False
) -> HypothesisReport:
    """The stability bound alone, without any toughness hypothesis.

    Not a theorem: the g0 family meets all of these hypotheses while having
    no f-factor, so "refuted" is an expected confirmation value here.
    """
    report = HypothesisReport("stability_conjecture", "f-factor exists")
    delta = _check_graph_and_f(report, g, f, a, b)
    # unlike the two theorems above, alpha also waits for the f rows
    if report.hypotheses_met:
        alpha, _ = stability_number(g)
        bound = stability_bound(a, b, delta)
        report.add("stability", f"alpha={alpha} <= {bound}", alpha <= bound)
    else:
        _not_evaluated(report, "stability")
    return _confirm(report, g, f.values, f.values, confirm)


@dataclass(frozen=True)
class Theorem:
    """How the CLI and the campaign run one checker.

    ``run(g, f, params)`` calls the checker; ``params`` carries a, b, r,
    star_order, confirm and toughness_max_n (the CLI's argparse namespace
    is one such object).  ``trial`` is what a campaign trial draws after
    (a, b): "f" a random f in [a, b], "r" an odd r with f = r, or "ab"
    nothing, with b raised to a + 1.  With ``skip_invalid`` a campaign
    skips a trial whose parameters the checker rejects.
    """

    run: Callable[[Graph, DegreeSpec | None, object], HypothesisReport]
    trial: str = "f"
    skip_invalid: bool = False


THEOREMS: dict[str, Theorem] = {
    # stability bound + odd-toughness >= 1/a
    "main": Theorem(lambda g, f, p: check_main_theorem(
        g, f, p.a, p.b, confirm=p.confirm, toughness_max_n=p.toughness_max_n)),
    # stability bound strengthened by min(. , a*kappa)
    "kappa_corollary": Theorem(lambda g, f, p: check_corollary_kappa(
        g, f, p.a, p.b, confirm=p.confirm)),
    # minimum-degree condition delta >= b|X|/(a+b)
    "min_degree": Theorem(lambda g, f, p: check_theorem_min_degree(
        g, f, p.a, p.b, confirm=p.confirm)),
    # r-factor via connectivity and stability
    "regular_connectivity": Theorem(lambda g, f, p: check_theorem_regular_connectivity(
        g, p.r, confirm=p.confirm), trial="r"),
    # [a,b]-factor via stability and minimum degree
    "ab_factor": Theorem(lambda g, f, p: check_theorem_ab_factor(
        g, p.a, p.b, confirm=p.confirm), trial="ab"),
    # K_{1,n}-free condition
    "claw_free": Theorem(lambda g, f, p: check_theorem_claw_free(
        g, f, p.a, p.b, p.star_order, confirm=p.confirm), skip_invalid=True),
    # the stability bound alone (refuted by g0)
    "stability_conjecture": Theorem(lambda g, f, p: check_stability_conjecture(
        g, f, p.a, p.b, confirm=p.confirm)),
}


# Empirical validation campaign


@dataclass
class TrialRecord:
    index: int
    seed: int
    instance: str
    hypotheses_met: bool
    confirmation: str | None


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
            self.discrepancies.append(TrialRecord(
                index, seed, serialize_instance(g, spec), True, "refuted",
            ))


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
        f = None
        if entry.trial == "r":
            params.r = rng.choice(R_CHOICES)
            f = DegreeSpec((params.r,) * g.n)
        elif entry.trial == "ab":
            params.b = max(b, a + 1)
        else:
            try:
                f = random_degree_spec(g, a, b, rng.randrange(2**31))
            except ValueError:
                continue  # unrepairable parity (a == b with odd total)
        try:
            check = entry.run(g, f, params)
        except ValueError:
            if entry.skip_invalid:
                continue
            raise
        report.tally(index, tseed, check, g, f if f is not None else DegreeSpec((a,) * g.n))
    return report
