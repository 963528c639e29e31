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
from reference import quadrature_bounded


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
    # H_j is the intensity of the total plan on 1..j
    assert pr.cumulative_intensity(pr.total_comparison_plan(10), 10) == Fraction(7381, 2520)
    assert pr.cumulative_intensity(pr.total_comparison_plan(1), 1) == 1


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
    (iv,) = pr.record_value_cdf(pr.record_time_pmf(total5, 1), [0.3], pr.uniform01())
    assert iv.lower == pytest.approx(0.3, abs=1e-15)
    assert iv.upper == iv.lower  # t_max is the full plan: exact law


@pytest.mark.parametrize("t_max", [50, 400])
@pytest.mark.parametrize(
    "name", ["uniform01", "power(2)", "power(3)", "smoothstep", "triangular", "truncated_ramp(1/2)"]
)
def test_record_value_cdf_matches_log_closed_form(name, t_max):
    # total comparison: P(R_r <= x) = 1 - (1 - F) sum_{k<r} (-ln(1 - F))^k / k!
    # (Nevzorov, Records: Mathematical Theory, 2001); every later term carries
    # an exponent above t_max, so the bracket of the truncated series holds it
    density = pr.builtin(name)
    plan = pr.total_comparison_plan(t_max + 1)
    xs = (0.2, 0.5, 0.8, 0.95)
    for r in (1, 2, 3, 5):
        brackets = pr.record_value_cdf(pr.record_time_pmf(plan, r, t_max), xs, density)
        for x, iv in zip(xs, brackets):
            fx = float(density.cdf(x))
            log_term = -math.log1p(-fx)
            closed = 1.0 - (1.0 - fx) * math.fsum(
                log_term**k / math.factorial(k) for k in range(r)
            )
            assert iv.lower - 1e-12 <= closed <= iv.upper + 1e-12, (r, x, iv, closed)


def test_record_value_cdf_truncation_bracket():
    plan = pr.total_comparison_plan(1000)
    u = pr.uniform01()
    pmf = pr.record_time_pmf(plan, 2, t_max=200)
    full_pmf = pr.record_time_pmf(plan, 2)
    assert (pmf.next_cardinality, full_pmf.next_cardinality) == (201, None)
    (iv,) = pr.record_value_cdf(pmf, [0.5], u)
    (full,) = pr.record_value_cdf(full_pmf, [0.5], u)
    assert iv.lower <= full.lower <= iv.upper
    # tail bound: residual (1/200) * F(x)^201 is astronomically small here
    assert iv.width < 1e-12
    assert iv.width <= float(Fraction(1, 200)) * 0.5**201 + 1e-300
    # one call over a grid gives the intervals of one call per cutoff
    assert pr.record_value_cdf(pmf, [0.25, 0.5], u)[1] == iv


def test_bounded_joint_matches_recursion_quadrature(total5):
    # frozen from quadrature_bounded: positions (2,3), x=0.8, smoothstep
    s = pr.smoothstep_density()
    val = pr.joint_record_prob_bounded(total5, (2, 3), 0.8, s)
    assert val == pytest.approx(0.11988718933333338, abs=1e-15)
    assert val == pytest.approx(quadrature_bounded(total5, (2, 3), 0.8, s), abs=1e-9)


def test_bounded_joint_at_support_top_recovers_joint(total5):
    for positions in ((2,), (2, 3), (1, 4, 5)):
        full = pr.joint_record_prob_bounded(total5, positions, 1.0, pr.uniform01())
        assert full == pytest.approx(float(pr.joint_record_prob(total5, positions)), abs=1e-15)
