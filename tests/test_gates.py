"""Statistical gates: p-value validity, the family level, calibration and power."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr
from partial_records import gates


def _run(plan, density, n, seed, **kw):
    return pr.run(pr.SimConfig(plan=plan, density=density, replications=n, master_seed=seed, **kw))


def _exact_two_sided(hits, n, p):
    """min(1, 2 min(P(X <= hits), P(X >= hits))) for X ~ Binomial(n, p)."""
    from scipy.special import bdtr, bdtrc

    hits = np.asarray(hits)
    lower = bdtr(hits, n, p)
    upper = np.where(hits > 0, bdtrc(np.maximum(hits - 1, 0), n, p), 1.0)
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


@pytest.mark.parametrize("n", [1, 2, 7, 50, 333, 2000, 20_000, 200_000])
@pytest.mark.parametrize("p", [1e-4, 1 / 604, 0.01, 0.1, 1 / 3, 0.5, 0.9, 0.999])
def test_chernoff_p_value_is_at_least_the_exact_binomial_p_value(n, p):
    if n <= 2000:
        hits = np.arange(n + 1)
    else:  # both tails and the middle, every count within 12 sd, and the ends
        sd = math.sqrt(n * p * (1 - p))
        near = np.arange(math.floor(n * p - 12 * sd - 2), math.ceil(n * p + 12 * sd + 3))
        hits = np.unique(np.clip(np.concatenate([near, [0, 1, 2, n - 2, n - 1, n]]), 0, n))
    chernoff = gates.binomial_p_values(hits, n, p)
    exact = _exact_two_sided(hits, n, p)
    assert np.all((chernoff >= 0) & (chernoff <= 1))
    # at hits = 0 and hits = n the bound equals the exact tails 2(1 - p)^n and 2p^n,
    # so the two sides may differ there by their rounding (scipy's about 1e-11)
    assert np.all(chernoff >= exact * (1 - 1e-9)), hits[chernoff < exact * (1 - 1e-9)]


def test_chernoff_p_value_at_certain_and_impossible_counts():
    # position 1 of a plan has c = 1: a record in every replication
    assert gates.binomial_p_values([10, 9, 0], 10, 1.0).tolist() == [1.0, 0.0, 0.0]
    assert gates.binomial_p_values(0, 10, 0.5) == pytest.approx(2 * 0.5**10)
    assert gates.binomial_p_values(5, 10, 0.5) == 1.0


def test_gate_reports_the_first_smallest_p_value():
    g = gates.gate("positions", [0.1, 0.3, 0.2, 0.3], [0.5, 1e-3, 0.2, 1e-3], 1e-2, indexed=True)
    assert g == gates.Gate("positions", 0.3, 1e-3, 1e-2, 2, False)
    g = gates.gate("count_mean", [0.25], [0.04], 1e-2)
    assert (g.worst_position, g.passed) == (None, True)


def test_every_test_runs_at_the_sidak_level_of_the_family(total5):
    density = pr.smoothstep_density()
    result = _run(total5, density, 5000, 3, joint_positions=(2, 3), r_max=2)
    moments = pr.record_count_moments(total5, 5)
    alpha = math.erfc(4 / math.sqrt(2))  # 2 Phi(-4)
    curve = pr.record_value_ecdf(result, 2, [0.5])
    (bracket,) = pr.record_value_cdf(pr.record_time_pmf(total5, 2), [0.5], density)
    ecdf = (curve.ecdf, [bracket.lower], [bracket.upper])
    for joint, grid, tests in [(None, None, 6), (Fraction(1, 6), None, 7),
                               (Fraction(1, 6), ecdf, 8)]:
        p_values, passes, family = gates.simulation_gates(result, 4.0, moments, joint, grid)
        level = 1 - (1 - alpha) ** (1 / tests)
        assert [g.level for g in family] == pytest.approx([level] * len(family), rel=1e-12)
        assert [g.name for g in family][:2] == ["positions", "count_mean"]
        assert len(family) == 2 + (joint is not None) + (grid is not None)
        assert passes.tolist() == (p_values > family[0].level).tolist()
        assert all(g.passed for g in family)


def test_correct_long_plan_passes_every_gate_on_20_seeds():
    plan = pr.total_comparison_plan(1500)
    density = pr.smoothstep_density()
    moments = pr.record_count_moments(plan, 1500)
    smallest = []
    for seed in range(1, 21):
        _, passes, family = gates.simulation_gates(_run(plan, density, 2000, seed), 4.0, moments)
        assert passes.all() and all(g.passed for g in family), (seed, family)
        smallest.append(min(g.p_value for g in family))
    # the 1501 tests run at about 4.2e-8 each; correct code stays far above it
    assert min(smallest) > 100 * family[0].level


@pytest.mark.parametrize("off_by", [-1, 1])
def test_a_cardinality_off_by_one_fails_the_position_gate(off_by):
    plan = pr.total_comparison_plan(50)
    result = _run(plan, pr.smoothstep_density(), 20_000, 8)
    cards = list(plan.cardinalities)
    cards[2] += off_by  # c(n_3) = 3 claimed as 2 or 4
    wrong = dataclasses.replace(plan, cardinalities=tuple(cards))
    config = dataclasses.replace(result.config, plan=wrong)
    mis_specified = dataclasses.replace(result, config=config)
    moments = pr.record_count_moments(wrong, 50)
    _, passes, family = gates.simulation_gates(mis_specified, 4.0, moments)
    assert passes.tolist() == [t != 3 for t in range(1, 51)]
    assert (family[0].passed, family[0].worst_position) == (False, 3)
    assert family[0].p_value < 1e-30


def test_a_wrong_joint_target_fails_the_joint_gate(partial_plan):
    result = _run(partial_plan, pr.power_density(2), 100_000, 77, joint_positions=(1, 2, 3))
    moments = pr.record_count_moments(partial_plan, 5)
    for target, ok in [(Fraction(1, 40), True), (Fraction(1, 30), False)]:
        _, _, family = gates.simulation_gates(result, 4.0, moments, joint_target=target)
        assert family[-1].name == "joint"
        assert family[-1].passed is ok


def test_the_wrong_exponent_convention_fails_the_ecdf_gate():
    # on a chained plan c(n_t) = t differs from n_t, and only the cardinality is
    # right; the law with the raw time index n_t is computed here as a foil
    plan = pr.chained_plan([1, 3, 5, 9])
    density = pr.uniform01()
    result = _run(plan, density, 50_000, 12, r_max=2)
    moments = pr.record_count_moments(plan, 9)
    curve = pr.record_value_ecdf(result, 2, [0.3, 0.5, 0.7, 0.9])
    pmf = pr.record_time_pmf(plan, 2)
    law = [iv.lower for iv in pr.record_value_cdf(pmf, curve.grid, density)]
    foil = [
        math.fsum(float(e.probability) * float(density.cdf(x)) ** e.time_index
                  for e in pmf.entries)
        for x in curve.grid
    ]
    for series, ok in [(law, True), (foil, False)]:
        ecdf = (curve.ecdf, series, series)
        _, _, family = gates.simulation_gates(result, 4.0, moments, ecdf=ecdf)
        assert family[-1].name == "record_value_ecdf"
        assert family[-1].passed is ok
        assert 1 <= family[-1].worst_position <= 4


def test_ecdf_gate_is_the_dkw_test_of_the_distance_outside_the_bracket(total5):
    result = _run(total5, pr.uniform01(), 1000, 5)
    moments = pr.record_count_moments(total5, 5)
    values, lowers, uppers = [0.2, 0.5, 0.9], [0.1, 0.55, 0.8], [0.3, 0.6, 0.85]
    _, _, family = gates.simulation_gates(result, 4.0, moments, ecdf=(values, lowers, uppers))
    ecdf_gate = family[-1]
    assert ecdf_gate.name == "record_value_ecdf"
    assert ecdf_gate.worst_position == 2  # the first of the two points 0.05 outside
    assert ecdf_gate.deviation == pytest.approx(0.05)
    assert ecdf_gate.p_value == pytest.approx(2 * math.exp(-2 * 1000 * 0.05**2))
    # the gate passes exactly inside the DKW radius at its level
    radius = math.sqrt(math.log(2 / ecdf_gate.level) / (2 * result.n))
    for distance, ok in [(0.99 * radius, True), (1.01 * radius, False)]:
        ecdf = ([0.5 + distance], [0.4], [0.5])
        _, _, family = gates.simulation_gates(result, 4.0, moments, ecdf=ecdf)
        assert family[-1].passed is ok
