import random
import time
from fractions import Fraction
from math import ceil

import pytest
from conftest import brute_vertex_connectivity, run_confirmed, seeded_corpus

from ffactors import invariants
from ffactors.constructions import build_g0, g0_desk_instance, stability_bound
from ffactors.graph import (
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
        """The stability row and the odd-toughness scan share one search."""
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
        assert len(calls) == 1

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
