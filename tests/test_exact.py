"""Closed-form laws: single/joint events, count moments, record times/values.

Derived expectations were computed by the independent oracles (permutation
enumeration for event probabilities, hand rational sums for harmonic-type
quantities, recursion quadrature for bounded events) and then frozen here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr


def test_single_event_is_one_over_cardinality(total5, partial_plan):
    assert pr.record_prob(total5, 3) == Fraction(1, 3)
    assert pr.record_prob(total5, 1) == 1
    assert pr.record_prob(partial_plan, 2) == Fraction(1, 4)


def test_joint_is_product_of_odds(total5, partial_plan):
    assert pr.joint_record_prob(total5, (2, 3, 5)) == Fraction(1, 30)
    # frozen from the permutation oracle on the (2,4,5) partial plan
    assert pr.joint_record_prob(partial_plan, (1, 2)) == Fraction(1, 8)
    assert pr.joint_record_prob(partial_plan, (1, 2, 3)) == Fraction(1, 40)


def test_joint_requires_increasing_positions(total5):
    with pytest.raises(pr.EmptySelection):
        pr.joint_record_prob(total5, (3, 2))
    with pytest.raises(pr.IndexOutOfRange):
        pr.joint_record_prob(total5, (1, 9))


def test_harmonic_number():
    assert pr.harmonic_number(10) == Fraction(7381, 2520)
    assert pr.harmonic_number(1) == 1


def test_count_moments_total_comparison():
    stats = pr.record_count_moments(pr.total_comparison_plan(10), 10)
    assert stats.mean == Fraction(7381, 2520)  # H_10
    # var = H_10 - H_10^(2), hand rational sum
    h2 = sum((Fraction(1, k * k) for k in range(1, 11)), Fraction(0))
    assert stats.variance == Fraction(7381, 2520) - h2
    assert stats.variance == Fraction(350339, 254016)
    assert 0 <= stats.variance <= stats.mean


def test_count_moments_respect_horizon(partial_plan):
    stats = pr.record_count_moments(partial_plan, 4)
    # only indices 2 and 4 are reached
    assert stats.positions_used == 2
    assert stats.mean == Fraction(1, 2) + Fraction(1, 4)
    assert stats.variance == Fraction(1, 4) + Fraction(3, 16)


def _literal_sums(vplan, j):
    cards = [c for n, c in zip(vplan.indices, vplan.cardinalities) if n <= j]
    s1 = sum((Fraction(1, c) for c in cards), Fraction(0))
    s2 = sum((Fraction(1, c * c) for c in cards), Fraction(0))
    return len(cards), s1, s1 - s2


def test_reciprocal_sums_match_literal_sums_on_long_total_plan():
    plan = pr.total_comparison_plan(10_000)
    used, mean, variance = _literal_sums(plan, 10_000)
    assert pr.harmonic_number(10_000) == mean
    assert pr.cumulative_intensity(plan, 10_000) == mean
    stats = pr.record_count_moments(plan, 10_000)
    assert (stats.positions_used, stats.mean, stats.variance) == (used, mean, variance)


def test_reciprocal_sums_match_literal_sums_on_random_plans(partial_plan):
    rng = np.random.default_rng(20181)
    below_first = 0
    for _ in range(200):
        raw = pr.random_compatible_plan(rng, max_index=int(rng.integers(1, 40)))
        vplan = pr.as_validated(raw)
        for j in range(1, vplan.max_index + 2):
            used, mean, variance = _literal_sums(vplan, j)
            below_first += used == 0
            assert pr.cumulative_intensity(raw, j) == mean
            stats = pr.record_count_moments(raw, j)
            assert (stats.positions_used, stats.mean, stats.variance) == (used, mean, variance)
    # the empty sum (j below n_1) is exercised, and it is an exact zero
    assert below_first > 0
    stats = pr.record_count_moments(partial_plan, 1)
    assert (stats.positions_used, stats.mean, stats.variance) == (0, 0, 0)
    assert type(stats.mean) is Fraction and type(pr.cumulative_intensity(partial_plan, 1)) is Fraction


def test_record_time_pmf_total_comparison():
    # classic: P(L(2) = n) = 1/(n(n-1)) for total comparison
    pmf = pr.record_time_pmf(pr.total_comparison_plan(10), 2)
    assert pmf.probability_at(2) == Fraction(1, 2)
    assert pmf.probability_at(4) == Fraction(1, 12)
    assert pmf.probability_at(10) == Fraction(1, 90)
    assert pmf.residual == Fraction(1, 10)
    assert pmf.entries[0].position == 2  # no entries below position r


def test_record_time_pmf_is_a_sub_distribution(partial_plan):
    for r in (1, 2, 3):
        pmf = pr.record_time_pmf(partial_plan, r)
        total = sum((e.probability for e in pmf.entries), Fraction(0))
        assert total + pmf.residual == 1
        assert all(e.probability >= 0 for e in pmf.entries)
    with pytest.raises(pr.RankTooLarge):
        pr.record_time_pmf(partial_plan, 4)


def test_first_record_is_immediate_when_first_set_is_empty(total5):
    pmf = pr.record_time_pmf(total5, 1)
    assert pmf.probability_at(1) == 1
    assert pmf.residual == 0


def test_record_value_cdf_first_record_uniform(total5):
    # L(1) = 1 with c = 1: P(value < x) = F(x)
    iv = pr.record_value_cdf(total5, 1, 0.3, pr.uniform01())
    assert iv.lower == pytest.approx(0.3, abs=1e-15)
    assert iv.upper == iv.lower  # t_max is the full plan: exact law


def test_record_value_cdf_matches_log_closed_form():
    # uniform, r=2, total comparison: sum x^n/(n(n-1)) = x + (1-x)ln(1-x)
    plan = pr.total_comparison_plan(2000)
    for x in (0.25, 0.5, 0.75):
        iv = pr.record_value_cdf(plan, 2, x, pr.uniform01())
        closed = x + (1.0 - x) * math.log1p(-x)
        assert iv.lower == pytest.approx(closed, abs=1e-12)


def test_record_value_cdf_truncation_bracket():
    plan = pr.total_comparison_plan(1000)
    iv = pr.record_value_cdf(plan, 2, 0.5, pr.uniform01(), t_max=200)
    full = pr.record_value_cdf(plan, 2, 0.5, pr.uniform01())
    assert iv.lower <= full.lower <= iv.upper
    # tail bound: residual (1/200) * F(x)^201 is astronomically small here
    assert iv.width < 1e-12
    assert iv.width <= float(Fraction(1, 200)) * 0.5**201 + 1e-300


def test_exponent_conventions_differ_off_total_plans():
    # chained plan: c(n_t) = t but n_t = 2t-1, so the conventions diverge
    plan = pr.chained_plan(range(1, 80, 2))
    u = pr.uniform01()
    by_card = pr.record_value_cdf(plan, 2, 0.5, u, exponent="cardinality")
    by_time = pr.record_value_cdf(plan, 2, 0.5, u, exponent="time_index")
    assert abs(by_card.lower - by_time.lower) > 0.02
    with pytest.raises(ValueError):
        pr.record_value_cdf(plan, 2, 0.5, u, exponent="bogus")


def test_bounded_joint_matches_recursion_quadrature(total5):
    # frozen from quadrature_bounded: positions (2,3), x=0.8, smoothstep
    s = pr.smoothstep_density()
    val = pr.joint_record_prob_bounded(total5, (2, 3), 0.8, s)
    assert val == pytest.approx(0.11988718933333338, abs=1e-15)
    assert val == pytest.approx(pr.quadrature_bounded(total5, (2, 3), 0.8, s), abs=1e-9)


def test_bounded_joint_at_support_top_recovers_joint(total5):
    for positions in ((2,), (2, 3), (1, 4, 5)):
        full = pr.joint_record_prob_bounded(total5, positions, 1.0, pr.uniform01())
        assert full == pytest.approx(float(pr.joint_record_prob(total5, positions)), abs=1e-15)
