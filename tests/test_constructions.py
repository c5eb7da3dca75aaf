from fractions import Fraction

import pytest

from conftest import brute_force_f_factor
from ffactors.constructions import (
    build_g0,
    build_g1,
    g0_desk_instance,
    stability_bound,
)
from ffactors.graph import min_degree
from ffactors.invariants import stability_number
from ffactors.solver import find_f_factor
from ffactors.tutte import deficiency


def g0_paper_preset(a: int, b: int, k: int = 1) -> dict[str, int]:
    """Parameters in the large-minimum-degree regime delta >= (b+1)^3 + b.

    p is the largest value not exceeding the stability bound that keeps
    f(X) even and p > a*k; raises if no such p exists.
    """
    delta = (b + 1) ** 3 + b
    if delta % 2 == 1:
        delta += 1
    bound = stability_bound(a, b, delta)
    p = int(bound)
    comp_size = delta + 1

    def f_even(p_: int) -> bool:
        return (a * k + b * p_ * comp_size) % 2 == 0

    while p > a * k and not f_even(p):
        p -= 1
    if p <= a * k:
        raise ValueError("no admissible p in the preset regime for these a, b, k")
    return {"a": a, "b": b, "k": k, "delta": delta, "p": p}


def necessity_margin(a: int, b: int, delta: int) -> tuple[Fraction, Fraction]:
    """(stability bound, slack) for the r = (b+1)/2 specialization of the
    join family, documenting how close the bound is to best possible."""
    if b % 2 == 0:
        raise ValueError("b must be odd")
    if b < 3:
        raise ValueError("need b >= 3")
    if delta < b:
        raise ValueError("need delta >= b")
    return stability_bound(a, b, delta), Fraction(2 * a, b + 1)


class TestStabilityBound:
    def test_desk_arithmetic(self):
        assert stability_bound(1, 3, 12) == Fraction(9, 4)

    def test_zero_at_delta_equals_b(self):
        assert stability_bound(5, 3, 3) == 0
        assert stability_bound(2, 2, 2) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            stability_bound(1, 1, 5)
        with pytest.raises(ValueError):
            stability_bound(1, 3, 2)


class TestBuildG0:
    def test_preconditions(self):
        with pytest.raises(ValueError, match="odd"):
            build_g0(1, 2, 1, 12, 2)
        with pytest.raises(ValueError, match="even"):
            build_g0(1, 3, 1, 11, 2)
        with pytest.raises(ValueError, match="k"):
            build_g0(1, 3, 3, 12, 2)
        with pytest.raises(ValueError, match="p"):
            build_g0(1, 3, 1, 12, 1)

    def test_parity_reported_not_assumed(self):
        # a*k odd against even b-part: f(X) odd, nonexistence by parity alone
        built = build_g0(1, 3, 1, 12, 2)
        assert built.f_total == 1 + 3 * 26
        assert not built.f_total_even
        assert built.expected_existence is False
        assert built.nonexistence_reason == "parity"
        assert built.witness_pair is None

    def test_structure_recomputed(self):
        built = build_g0(1, 3, 1, 12, 3)
        g = built.graph
        assert g.n == 1 + 3 * 13
        assert stability_number(g)[0] == 3
        assert min_degree(g) == 12
        assert built.f_total_even
        # stability hypothesis not met at this scale: 3 > 9/4
        assert built.extras["stability_hypothesis_met"] is False
        assert built.nonexistence_reason == "deficiency"
        assert built.witness_pair.delta == 1 * 1 - 3

    def test_desk_instance_meets_stability_hypothesis(self):
        built = g0_desk_instance()
        a, k, p = (built.params[x] for x in ("a", "k", "p"))
        assert built.extras["stability_hypothesis_met"] is True
        assert p > a * k
        assert built.f_total_even
        pair = built.witness_pair
        rep = deficiency(built.graph, pair.s, pair.t, built.spec)
        assert rep.delta == a * k - p < 0

    def test_deterministic(self):
        assert build_g0(1, 3, 1, 12, 3).graph == build_g0(1, 3, 1, 12, 3).graph


class TestG0PaperPreset:
    def test_regime_and_admissibility(self):
        params = g0_paper_preset(1, 3)
        assert params["delta"] >= (3 + 1) ** 3 + 3
        assert params["delta"] % 2 == 0
        a, b, k, delta, p = (params[x] for x in ("a", "b", "k", "delta", "p"))
        assert p > a * k
        assert p <= stability_bound(a, b, delta)
        assert (a * k + b * p * (delta + 1)) % 2 == 0

    def test_preset_instance_is_refutation(self):
        built = build_g0(**g0_paper_preset(1, 3))
        assert built.extras["stability_hypothesis_met"] is True
        assert built.expected_existence is False
        assert built.nonexistence_reason == "deficiency"
        assert built.witness_pair.delta < 0


class TestBuildG1:
    def test_preconditions(self):
        with pytest.raises(ValueError, match="b > r"):
            build_g1(1, 2, 2, 5, 2)
        with pytest.raises(ValueError, match="delta"):
            build_g1(1, 3, 2, 1, 2)

    def test_tightness_instance(self):
        built = build_g1(1, 3, 2, 5, 2)
        g = built.graph
        assert g.n == 8 and g.m == 24
        assert stability_number(g)[0] == 2
        assert min_degree(g) == 5
        assert built.f_total == 16 and built.f_total_even
        assert built.extras["threshold"] == 1
        assert built.expected_existence is False
        assert built.witness_pair.delta == -4
        assert find_f_factor(g, built.spec) is None
        assert brute_force_f_factor(g, built.spec) is None

    def test_below_threshold_no_prediction(self):
        built = build_g1(1, 3, 2, 9, 1)
        assert built.extras["threshold"] == 2
        assert built.expected_existence is None

    def test_recomputed_quantities(self):
        for params in [(1, 3, 2, 5, 2), (2, 4, 3, 7, 3), (1, 3, 2, 6, 4)]:
            built = build_g1(*params)
            a, b, r, delta, alpha = params
            assert stability_number(built.graph)[0] == alpha
            assert min_degree(built.graph) == delta
            assert built.f_total == a * (delta - r + 1) + b * alpha * r

    def test_strict_chain_flag(self):
        assert build_g1(1, 3, 2, 5, 2).extras["strict_chain"] is False
        assert build_g1(1, 5, 2, 6, 7).extras["strict_chain"] is True


class TestNecessityMargin:
    def test_direct_substitution(self):
        assert necessity_margin(1, 3, 12) == (Fraction(9, 4), Fraction(1, 2))

    def test_delta_equals_b(self):
        assert necessity_margin(4, 3, 3) == (Fraction(0), Fraction(2))

    def test_second_case(self):
        assert necessity_margin(2, 5, 10) == (Fraction(10, 9), Fraction(2, 3))

    def test_even_b_rejected(self):
        with pytest.raises(ValueError):
            necessity_margin(1, 4, 10)
