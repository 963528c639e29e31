"""Statistical gates of a simulation run, under one family false-fail level.

A run is k tests: each position, the count mean, and when asked for, the
joint event and the record-value ecdf.  A test passes when its p-value exceeds
the Sidak (1967) level 1 - (1 - alpha)^(1/k) of alpha = 2 Phi(-z), so a correct
run fails with probability about alpha at any plan length.  Hit counts get the
Chernoff p-value min(1, 2 exp(-n KL(h/n || p))), valid at every n and p; the
count mean a normal tail; the ecdf one DKW test over the whole curve,
2 exp(-2 n d^2) with Massart's (1990) constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gate:
    """One test at its smallest p-value; deviation is |observed - target|
    there (outside the series bracket, for the ecdf), worst_position its
    1-based position or grid point, None for a single statistic."""

    name: str
    deviation: float
    p_value: float
    level: float
    worst_position: int | None
    passed: bool


def gate(name, deviations, p_values, level, indexed=False):
    """The Gate of one test from its per-point deviations and p-values."""
    worst = int(np.argmin(p_values))
    p_value = float(p_values[worst])
    at = worst + 1 if indexed else None
    return Gate(name, float(deviations[worst]), p_value, level, at, p_value > level)


def binomial_p_values(hits, n, p):
    """Two-sided Chernoff p-values of hit counts of Binomial(n, p)."""
    q = np.asarray(hits, dtype=float) / n
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0
        kl = np.where(q > 0, q * np.log(q / p), 0.0)
        kl += np.where(q < 1, (1 - q) * (np.log1p(-q) - np.log1p(-p)), 0.0)
    return np.minimum(1.0, 2.0 * np.exp(-n * kl))


def simulation_gates(result, z, moments, joint_target=None, ecdf=None):
    """A run's gates, and each position's p-value and verdict.

    moments are the exact count moments at the horizon, joint_target the
    exact joint probability, and ecdf (values, lowers, uppers): the
    record-value ecdf over its grid and the series bracket of its law.
    """
    tests = result.horizon + 1 + (joint_target is not None) + (ecdf is not None)
    alpha = math.erfc(z / math.sqrt(2.0))
    level = -math.expm1(math.log1p(-alpha) / tests)
    target = 1.0 / np.asarray(result.plan.cardinalities[: result.horizon], dtype=float)
    hits = np.asarray(result.event_counts, dtype=float)
    p_values = binomial_p_values(hits, result.n, target)
    gates = [gate("positions", np.abs(hits / result.n - target), p_values, level, indexed=True)]
    deviation = abs(result.count_mean - moments.mean_float)
    scale = math.sqrt(2.0 * moments.variance_float / result.n)
    p_value = math.erfc(deviation / scale) if scale else float(deviation == 0)
    gates.append(gate("count_mean", [deviation], [p_value], level))
    if joint_target is not None:
        p_value = binomial_p_values(result.joint_count, result.n, float(joint_target))
        deviation = abs(result.joint_frequency - float(joint_target))
        gates.append(gate("joint", [deviation], [p_value], level))
    if ecdf is not None:
        values, lowers, uppers = map(np.asarray, ecdf)
        outside = np.maximum(0.0, np.maximum(lowers - values, values - uppers))
        p_value = np.minimum(1.0, 2.0 * np.exp(-2.0 * result.n * outside**2))
        gates.append(gate("record_value_ecdf", outside, p_value, level, indexed=True))
    return p_values, p_values > level, gates
