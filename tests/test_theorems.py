import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil
from types import SimpleNamespace

import pytest
from conftest import brute_vertex_connectivity, run_confirmed, seeded_corpus

from ffactors import invariants, theorems
from ffactors.constructions import build_g0, g0_desk_instance, stability_bound
from ffactors.graph import (
    DegreeSpec,
    Graph,
    build_graph,
    complete_graph,
    constant_spec,
    cycle,
    disjoint_union,
    empty_graph,
    join,
    min_degree,
    path,
    star,
)
from ffactors.instances import random_connected_graph, random_degree_spec
from ffactors.theorems import (
    check_corollary_kappa,
    check_main_theorem,
    check_stability_conjecture,
    check_theorem_ab_factor,
    check_theorem_claw_free,
    check_theorem_min_degree,
    check_theorem_regular_connectivity,
    empirical_validate,
)


def hypothesis_named(report, name):
    return next(h for h in report.hypotheses if h.name == name)


def octahedron():
    return join(empty_graph(2), join(empty_graph(2), empty_graph(2)))


class TestMainBound:
    def test_values(self):
        assert stability_bound(1, 3, 12) == Fraction(9, 4)
        assert stability_bound(2, 2, 2) == 0


class TestMainTheorem:
    def test_k5_two_factor(self):
        g = complete_graph(5)
        report = run_confirmed("main", g, constant_spec(g, 2), a=2, b=2)
        assert report.hypotheses_met
        assert report.prediction == "f-factor exists"
        assert report.confirmation == "confirmed"

    def test_g0_fails_only_odd_toughness(self):
        built = g0_desk_instance()
        a, b = built.params["a"], built.params["b"]
        report = check_main_theorem(built.graph, built.spec, a, b)
        assert not report.hypotheses_met
        assert hypothesis_named(report, "stability").satisfied
        assert not hypothesis_named(report, "odd_toughness").satisfied
        assert report.prediction == "no prediction"

    def test_alpha_searched_once(self, monkeypatch):
        """The stability row searches the whole graph once, and the
        odd-toughness scan adds one search over the odd-f vertices, the
        carriers of its window's alpha."""
        import ffactors.graph
        import ffactors.invariants

        calls = []
        search = ffactors.graph._max_independent

        def counting(*args):
            calls.append(args[1:])
            return search(*args)

        for module in (ffactors.graph, ffactors.invariants):
            monkeypatch.setattr(module, "_max_independent", counting, raising=False)
        built = g0_desk_instance()
        a, b = built.params["a"], built.params["b"]
        report = check_main_theorem(built.graph, built.spec, a, b)
        assert hypothesis_named(report, "stability").satisfied
        assert not hypothesis_named(report, "odd_toughness").satisfied
        odd = sum(1 << v for v, fv in enumerate(built.spec.values) if fv % 2)
        assert odd != built.graph.full_mask
        assert calls.count((built.graph.full_mask,)) == 1
        assert calls.count((odd,)) == 1
        assert len(calls) == 2

    def test_connectivity_searched_once(self, monkeypatch):
        """The connected row, the cutset scan and its kappa share one BFS."""
        base = random_connected_graph(16, 0.8, 1)
        f = random_degree_spec(base, 1, 2, 2)
        g = build_graph(base.n, base.edges())
        searches = []
        prop = Graph.__dict__["connected"]
        search = prop.func

        def counting(graph):
            searches.append(graph)
            return search(graph)

        monkeypatch.setattr(prop, "func", counting)
        report = check_main_theorem(g, f, 1, 2)
        assert hypothesis_named(report, "connected").satisfied
        assert not hypothesis_named(report, "odd_toughness").observed.startswith("not evaluated")
        assert searches == [g]

    def test_dense_n100_within_budget(self):
        """kappa = 39 is far above the window (alpha = 9, t = 1), so its
        flows stop at the window and no cutset is scanned."""
        g = random_connected_graph(100, 0.5, 1)
        f = random_degree_spec(g, 1, 3, 2)
        started = time.perf_counter()
        report = check_main_theorem(g, f, 1, 3)
        assert time.perf_counter() - started < 1.5
        assert hypothesis_named(report, "stability").observed == "alpha=9 <= 9"
        assert report.hypotheses_met

    def test_min_degree_hypothesis_fails(self):
        g = complete_graph(2)
        report = check_main_theorem(g, constant_spec(g, 1), 1, 2)
        assert not hypothesis_named(report, "min_degree").satisfied
        assert report.prediction == "no prediction"


class TestCorollaryKappa:
    def test_k5(self):
        g = complete_graph(5)
        report = run_confirmed("kappa_corollary", g, constant_spec(g, 2), a=2, b=2)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"

    def test_claw_fails(self):
        g = star(3)
        report = check_corollary_kappa(g, constant_spec(g, 1), 1, 1)
        assert not report.hypotheses_met

    def test_g0_kappa_term_fails(self):
        # alpha exceeds a*kappa through the single-vertex cutset
        built = g0_desk_instance()
        a, b = built.params["a"], built.params["b"]
        report = check_corollary_kappa(built.graph, built.spec, a, b)
        assert not hypothesis_named(report, "stability").satisfied

    def test_hypotheses_imply_main_odd_toughness(self):
        # alpha <= a*kappa is t*alpha <= kappa at t = 1/a, and every cutset
        # S has |S| >= kappa and h'(G-S) <= alpha, so main's odd-toughness
        # row must hold wherever the corollary's hypotheses all do
        rng = random.Random(43)
        met = 0
        for g in seeded_corpus(60, 10, 40, seed=41):
            a, b = rng.choice(((1, 2), (1, 3), (2, 3)))
            f = random_degree_spec(g, a, b, rng.randrange(2**31))
            if check_corollary_kappa(g, f, a, b).hypotheses_met:
                met += 1
                report = check_main_theorem(g, f, a, b)
                assert hypothesis_named(report, "odd_toughness").satisfied
        assert met >= 10

    def test_kappa_capped_where_a_kappa_cannot_bind(self, monkeypatch):
        # kappa = 13 is above c = ceil(bound / a) = 3, so no flow may be
        # asked for more than c paths
        g = random_connected_graph(40, 0.5, 3)
        f = random_degree_spec(g, 1, 3, 2)
        c = ceil(stability_bound(1, 3, min_degree(g)))
        assert c == 3 and invariants.vertex_connectivity(g) == 13
        caps = []
        flow = invariants._vertex_disjoint_paths

        def recorded(masks, s, t, cap):
            caps.append(cap)
            return flow(masks, s, t, cap)

        monkeypatch.setattr(invariants, "_vertex_disjoint_paths", recorded)
        check_corollary_kappa(g, f, 1, 3)
        assert caps and max(caps) <= c

    def test_capped_row_matches_separator_search(self):
        # the stability row reads the same as one built from the uncapped
        # kappa of the subset-search oracle, on both sides of the cap; two
        # cliques joined by a few edges have kappa far below delta
        bridged = [disjoint_union([complete_graph(k)] * 2) for k in (7, 8, 9)]
        bridged = [build_graph(g.n, [*g.edges(), *((i, g.n // 2 + i) for i in range(bridges))])
                   for g in bridged for bridges in (1, 2)]
        rng = random.Random(47)
        above = below = 0
        for g in seeded_corpus(40, 4, 11, seed=45) + bridged:
            a, b = rng.choice(((1, 2), (1, 3), (2, 2), (2, 3)))
            delta = min_degree(g)
            if delta < b:
                continue
            f = random_degree_spec(g, a, b, rng.randrange(2**31))
            kappa, stab = brute_vertex_connectivity(g), stability_bound(a, b, delta)
            alpha = invariants.stability_number(g)[0]
            bound = min(stab, Fraction(a * kappa))
            row = hypothesis_named(check_corollary_kappa(g, f, a, b), "stability")
            assert row.observed == f"alpha={alpha} <= min(bound, a*kappa)={bound}"
            assert row.satisfied == (alpha <= bound)
            above += kappa > ceil(stab / a)
            below += kappa < ceil(stab / a)
        assert above and below


class TestMinDegreeTheorem:
    def test_k6_two_factor(self):
        g = complete_graph(6)
        report = run_confirmed("min_degree", g, constant_spec(g, 2), a=2, b=2)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"

    def test_sparse_cycle_fails(self):
        g = cycle(8)
        report = check_theorem_min_degree(g, constant_spec(g, 1), 1, 1)
        assert not hypothesis_named(report, "min_degree").satisfied

    def test_k2_perfect_matching(self):
        g = complete_graph(2)
        report = run_confirmed("min_degree", g, constant_spec(g, 1), a=1, b=1)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"


class TestRegularConnectivity:
    def test_k6_perfect_matching(self):
        report = run_confirmed("regular_connectivity", complete_graph(6), r=1)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"

    def test_c6_stability_fails(self):
        report = check_theorem_regular_connectivity(cycle(6), 1)
        assert hypothesis_named(report, "connectivity").satisfied
        assert not hypothesis_named(report, "stability").satisfied

    def test_odd_order_fails(self):
        report = check_theorem_regular_connectivity(complete_graph(5), 1)
        assert not hypothesis_named(report, "even_order").satisfied

    def test_connectivity_computed_once(self, monkeypatch):
        """The connectivity row and the stability bound share one uncapped
        kappa."""
        g = random_connected_graph(16, 0.8, 1)
        calls = []
        connectivity = theorems.vertex_connectivity

        def counting(*args):
            calls.append(args[1:])
            return connectivity(*args)

        monkeypatch.setattr(theorems, "vertex_connectivity", counting)
        report = check_theorem_regular_connectivity(g, 1)
        assert hypothesis_named(report, "connectivity").satisfied
        assert hypothesis_named(report, "stability").observed.startswith("alpha=")
        assert calls == [()]

    def test_even_r_rejected(self):
        with pytest.raises(ValueError):
            check_theorem_regular_connectivity(complete_graph(6), 2)


class TestABFactorTheorem:
    def test_k4(self):
        report = run_confirmed("ab_factor", complete_graph(4), a=1, b=2)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"

    def test_claw_fails(self):
        report = check_theorem_ab_factor(star(3), 1, 2)
        assert not report.hypotheses_met

    def test_even_a_bound(self):
        report = check_theorem_ab_factor(cycle(6), 2, 3)
        assert not report.hypotheses_met  # alpha = 3 > 3/2

    def test_b_not_above_a_rejected(self):
        with pytest.raises(ValueError):
            check_theorem_ab_factor(complete_graph(4), 2, 2)

    def test_confirms_at_any_size(self):
        built = g0_desk_instance()
        g = built.graph
        assert g.m > 24
        report = run_confirmed("ab_factor", g, a=2, b=3)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"
        degrees = [sum(v in e for e in report.factor.edges) for v in range(g.n)]
        assert all(2 <= d <= 3 for d in degrees)
        assert all(g.has_edge(u, v) for u, v in report.factor.edges)


class TestClawFree:
    def test_k8(self):
        g = complete_graph(8)
        report = run_confirmed("claw_free", g, constant_spec(g, 2), a=2, b=2, star_order=3)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"

    def test_low_degree_fails(self):
        g = star(3)
        report = check_theorem_claw_free(g, constant_spec(g, 1), 1, 1, 2)
        assert not hypothesis_named(report, "min_degree").satisfied

    def test_octahedron_stability_fails(self):
        g = octahedron()
        report = check_theorem_claw_free(g, constant_spec(g, 2), 2, 2, 3)
        assert hypothesis_named(report, "star_free").satisfied
        assert not hypothesis_named(report, "stability").satisfied

    def test_domain(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            check_theorem_claw_free(g, constant_spec(g, 1), 1, 1, 5)


class TestStabilityConjecture:
    @pytest.mark.parametrize("delta, p", [(12, 4), (14, 4)])
    def test_refuted_on_g0(self, delta, p):
        built = build_g0(2, 3, 1, delta, p)
        assert built.f_total_even
        report = run_confirmed("stability_conjecture", built.graph, built.spec, a=2, b=3)
        assert report.hypotheses_met
        assert report.confirmation == "refuted"

    def test_holds_on_k5(self):
        g = complete_graph(5)
        report = run_confirmed("stability_conjecture", g, constant_spec(g, 2), a=2, b=2)
        assert report.hypotheses_met
        assert report.confirmation == "confirmed"

    def test_path_irrelevant(self):
        g = path(3)
        report = check_stability_conjecture(g, constant_spec(g, 1), 1, 1)
        assert not report.hypotheses_met


class TestEmpiricalValidate:
    def test_zero_trials(self):
        report = empirical_validate("main", 0, 0)
        assert report.hypotheses_met == 0
        assert report.discrepancies == []

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            empirical_validate("nonsense", 1, 0)

    def test_main_campaign_sample(self):
        report = empirical_validate("main", 60, 42)
        assert report.hypotheses_met > 0
        assert report.confirmed == report.hypotheses_met
        assert report.discrepancies == []

    def test_deterministic(self):
        a = empirical_validate("main", 20, 7)
        b = empirical_validate("main", 20, 7)
        assert a.to_dict() == b.to_dict()


NOT_EVALUATED = "not evaluated (prior hypothesis failed)"


def _refuse(*args, **kwargs):
    raise AssertionError("exponential routine called behind a failed polynomial row")


class TestExponentialRowsWaitForPolynomialRows:
    """An exponential row (alpha or odd-toughness) runs only when every
    polynomial row of its table holds; otherwise it reads "not evaluated"."""

    @pytest.mark.parametrize("name, g, f, params, failed", [
        # f(X) = 7 is odd; alpha = 1 and no cutset, so both exponential rows would hold
        ("main", complete_graph(7), constant_spec(complete_graph(7), 1),
         {"a": 1, "b": 2, "toughness_max_n": invariants.TOUGHNESS_MAX_N}, {"f_total_even"}),
        ("kappa_corollary", complete_graph(7), constant_spec(complete_graph(7), 1),
         {"a": 1, "b": 2}, {"f_total_even"}),
        # |X| = 9 is odd; kappa = 8 >= (r+1)^2/2 and alpha = 1 <= 6
        ("regular_connectivity", complete_graph(9), None, {"r": 3}, {"even_order"}),
        # f = 3 > b at two vertices; alpha = 1 <= 4/3
        ("claw_free", complete_graph(8), DegreeSpec((3, 2, 2, 2, 2, 2, 2, 3)),
         {"a": 2, "b": 2, "star_order": 3}, {"f_range"}),
    ])
    def test_no_scan_behind_a_failed_polynomial_row(self, monkeypatch, name, g, f, params,
                                                    failed):
        theorem, namespace = theorems.THEOREMS[name], SimpleNamespace(**params)
        exponential = [row for row in theorem.rows if row[1]]
        for binding in ("stability_number", "is_t_odd_tough"):
            monkeypatch.setattr(theorems, binding, _refuse)
        report = theorem.check(g, f, namespace)
        assert {h.name for h in report.hypotheses if not h.satisfied} == (
            failed | {row[0] for row in exponential})
        assert all(hypothesis_named(report, row[0]).observed == NOT_EVALUATED
                   for row in exponential)
        assert report.prediction == "no prediction"
        monkeypatch.undo()
        facts = theorems._Facts(g, f, namespace)
        assert all(evaluate(facts)[1] for _, _, evaluate in exponential)

    def test_rule_on_seeded_corpus(self):
        """Every exponential row reads "not evaluated" exactly when some
        polynomial row failed, and its own evaluation otherwise."""
        seen = {name: set() for name in theorems.THEOREMS}
        for i, g in enumerate(seeded_corpus(12, 6, 10, seed=37)):
            for a, b, r, star_order in ((1, 2, 1, 2), (2, 3, 3, 3)):
                params = SimpleNamespace(a=a, b=b, r=r, star_order=star_order,
                                         toughness_max_n=invariants.TOUGHNESS_MAX_N)
                for f in (random_degree_spec(g, a, b, i), random_degree_spec(g, 1, 3, i)):
                    for name, theorem in theorems.THEOREMS.items():
                        report = theorem.check(g, f, params)
                        blocked = not all(h.satisfied for h, row in zip(report.hypotheses,
                                                                        theorem.rows)
                                          if not row[1])
                        seen[name].add(blocked)
                        facts = theorems._Facts(g, f, params)
                        for h, (_, exponential, evaluate) in zip(report.hypotheses,
                                                                 theorem.rows):
                            if exponential:
                                want = (NOT_EVALUATED, False) if blocked else evaluate(facts)
                                assert (h.observed, h.satisfied) == want, (name, i)
        assert seen.pop("ab_factor") == {False}
        assert all(both == {False, True} for both in seen.values()), seen

    @pytest.mark.parametrize("name, n, params", [
        ("regular_connectivity", 150, {"r": 3}),
        ("claw_free", 160, {"a": 2, "b": 2, "star_order": 3}),
    ])
    def test_failed_polynomial_row_decides_at_scale(self, name, n, params):
        g = random_connected_graph(n, 0.1, 1)
        f = random_degree_spec(g, 1, 3, 2)
        started = time.perf_counter()
        report = theorems.THEOREMS[name].check(g, f, SimpleNamespace(**params))
        assert time.perf_counter() - started < 1
        assert hypothesis_named(report, "stability").observed == NOT_EVALUATED
        assert report.prediction == "no prediction"


class TestRelabelling:
    def test_alpha_kappa_and_every_theorem(self):
        """alpha, kappa and every theorem's rows and confirmation do not
        change under a random relabelling, on n = 6-13 graphs, and the
        relabelled graph's alpha witness is an independent set of alpha
        vertices."""
        rng = random.Random(23)
        runs = met = 0
        for _ in range(200):
            n = rng.randint(6, 13)
            g = random_connected_graph(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng.randrange(2**31))
            a, b = rng.choice(((1, 2), (1, 3), (2, 3), (2, 4)))
            f = random_degree_spec(g, a, b, rng.randrange(2**31))
            perm = list(range(n))
            rng.shuffle(perm)
            h = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            f_h = [0] * n
            for v, fv in enumerate(f.values):
                f_h[perm[v]] = fv
            f_h = DegreeSpec(tuple(f_h))
            alpha, witness = invariants.stability_number(h)
            assert alpha == invariants.stability_number(g)[0] == len(witness)
            assert not any(h.has_edge(u, v) for u, v in combinations(witness, 2))
            assert invariants.vertex_connectivity(h) == invariants.vertex_connectivity(g)
            params = SimpleNamespace(a=a, b=b, r=rng.choice((1, 2, 3)),
                                     star_order=rng.choice((2, 3)), confirm=True,
                                     toughness_max_n=invariants.TOUGHNESS_MAX_N)
            for theorem in theorems.THEOREMS.values():
                if theorem.outside(params) is None:
                    report = theorem.run(g, f, params)
                    assert theorem.run(h, f_h, params).to_dict() == report.to_dict(), (
                        theorem.name, g.edges(), f.values)
                    runs += 1
                    met += report.hypotheses_met
        assert runs > 1000 and met > 100, (runs, met)
