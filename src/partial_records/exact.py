"""Closed-form record laws for compatible plans under a continuous density.

Everything here is distribution-free except the record-value CDF: for a
compatible plan the record indicators at positions t = 1..T are independent
Bernoulli(1/c(n_t)), which gives exact rational answers for single events,
joint events, and the count moments, and makes the r-th record time L(r) the
r-th success time of an independent-but-not-identical Bernoulli sequence.

The record-value law mixes in the density: conditionally on the r-th record
happening at position t with cutoff x, the record value falls below x with
probability F(x) raised to the number of values the record had to beat plus
itself, i.e. exponent c(n_t).  The raw time index n_t agrees with it only
on total-comparison plans; the quadrature oracle and Monte Carlo checks on a
chained plan tell the two apart.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange, RankTooLarge
from .plan import _index, as_validated, check_positions


def _split(terms, merge):
    """Merge neighbouring terms pairwise until one is left.

    Binary splitting: quasi-linear for exact sums where adding term by term
    is quadratic, because the big numbers meet only near the top.
    """
    while len(terms) > 1:
        merged = list(map(merge, terms[::2], terms[1::2]))
        merged.extend(terms[2 * len(merged):])
        terms = merged
    return terms[0]


def _merge_sum(x, y):
    # (a, b) stands for a / b, with b the lcm of the term's cardinalities
    (a, b), (c, d) = x, y
    g = math.gcd(b, d)
    return a * (d // g) + c * (b // g), b // g * d


def _reciprocal_sum(cardinalities):
    """Sum of 1/c over the cardinalities, as an exact Fraction."""
    numerator, denominator = _split([(1, c) for c in cardinalities] or [(0, 1)], _merge_sum)
    return Fraction(numerator, denominator)


def _merge_sum_and_squares(x, y):
    # (a, b, l) stands for a / l and b / l**2, with l the lcm of the term's
    # cardinalities
    (a, b, l), (c, d, m) = x, y
    g = math.gcd(l, m)
    f, h = m // g, l // g
    return a * f + c * h, b * f * f + d * h * h, l * f


def harmonic_number(j):
    """H_j = 1 + 1/2 + ... + 1/j as an exact Fraction."""
    j = _index(j, "j")
    if j < 1:
        raise IndexOutOfRange(f"need j >= 1, got {j}")
    return _reciprocal_sum(range(1, j + 1))


def cumulative_intensity(plan, j):
    """I_j = sum of 1/c(n_t) over n_t <= j: the expected record count, exact."""
    vplan = as_validated(plan)
    j = _index(j, "j")
    if j < 1:
        raise IndexOutOfRange(f"horizon j={j} must be at least 1")
    return _reciprocal_sum(vplan.cardinalities[: bisect_right(vplan.indices, j)])


def record_prob(plan, t):
    """P(record at position t) = 1/c(n_t)."""
    vplan = as_validated(plan)
    (t,) = check_positions(vplan, (t,))
    return Fraction(1, vplan.cardinality(t))


def joint_record_prob(plan, positions):
    """P(records at every selected position) = product of 1/c(n_t).

    Holds by mutual independence of the record events along a compatible
    plan; positions must be strictly increasing.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    return Fraction(1, math.prod(vplan.cardinality(t) for t in positions))


def joint_record_prob_bounded(plan, positions, x, density):
    """P(records at the selected positions, with the last value below x).

    Equals the unconstrained joint probability times F(x)^c(n_t) at the last
    selected position t.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    base = joint_record_prob(vplan, positions)
    fx = float(density.cdf(x))
    return float(base) * fx ** vplan.cardinality(positions[-1])


@dataclass(frozen=True)
class RecordCountStats:
    """Exact moments of the record count R_j over sequence indices <= j."""

    j: int
    positions_used: int
    mean: Fraction
    variance: Fraction

    @property
    def mean_float(self):
        return float(self.mean)

    @property
    def variance_float(self):
        return float(self.variance)


def record_count_moments(plan, j):
    """Mean and variance of the number of records among indices <= j.

    mean = I_j = sum 1/c(n_t); variance = sum (1/c)(1 - 1/c), both over
    positions with n_t <= j.  Variance never exceeds the mean.
    """
    vplan = as_validated(plan)
    j = _index(j, "j")
    if j < 1:
        raise IndexOutOfRange(f"need j >= 1, got {j}")
    used = bisect_right(vplan.indices, j)
    # sum 1/c = a / l and sum 1/c**2 = b / l**2 over one lcm l of the cardinalities
    terms = [(1, 1, c) for c in vplan.cardinalities[:used]] or [(0, 0, 1)]
    a, b, l = _split(terms, _merge_sum_and_squares)
    mean, variance = Fraction(a, l), Fraction(a * l - b, l * l)
    return RecordCountStats(j=j, positions_used=used, mean=mean, variance=variance)


@dataclass(frozen=True)
class PmfEntry:
    """P(L(r) = n_t): the r-th record happens exactly at position t."""

    position: int
    time_index: int
    cardinality: int
    probability: Fraction


@dataclass(frozen=True)
class RecordTimePmf:
    r: int
    t_max: int
    entries: tuple[PmfEntry, ...]
    residual: Fraction  # P(fewer than r records within positions 1..t_max)
    next_cardinality: int | None  # c(n_{t_max+1}); None when t_max is the last position

    def probability_at(self, t):
        for entry in self.entries:
            if entry.position == t:
                return entry.probability
        return Fraction(0)


def record_time_pmf(plan, r, t_max=None):
    """Distribution of the r-th record time over plan positions 1..t_max.

    L(r) is the r-th success time of independent Bernoulli(1/c(n_t)) trials.
    Computed by exact forward substitution on the number of successes so far
    (states capped at r-1 once a trajectory is still short of r).  Entries
    start at position r since fewer trials cannot carry r successes.
    """
    vplan = as_validated(plan)
    r = _index(r, "record rank r")
    if r < 1:
        raise RankTooLarge(f"record rank must be >= 1, got {r}")
    t_max = vplan.length if t_max is None else _index(t_max, "t_max")
    if not 1 <= t_max <= vplan.length:
        raise IndexOutOfRange(f"t_max {t_max} not in 1..{vplan.length}")
    if r > t_max:
        raise RankTooLarge(f"rank {r} cannot occur within {t_max} positions")

    # state[s] = P(exactly s records so far, s < r)
    state = [Fraction(1)] + [Fraction(0)] * (r - 1)
    entries = []
    for t in range(1, t_max + 1):
        c = vplan.cardinality(t)
        p = Fraction(1, c)
        hit = state[r - 1] * p
        if t >= r:
            entries.append(PmfEntry(t, vplan.index(t), c, hit))
        for s in range(r - 1, 0, -1):
            state[s] = state[s] * (1 - p) + state[s - 1] * p
        state[0] = state[0] * (1 - p)
    residual = sum(state, Fraction(0))
    assert residual + sum((e.probability for e in entries), Fraction(0)) == 1
    next_cardinality = vplan.cardinality(t_max + 1) if t_max < vplan.length else None
    return RecordTimePmf(r, t_max, tuple(entries), residual, next_cardinality)


@dataclass(frozen=True)
class CdfInterval:
    """Two-sided truncation bracket for a series evaluated to t_max terms."""

    lower: float
    upper: float

    @property
    def width(self):
        return self.upper - self.lower


def record_value_cdf(pmf, xs, density):
    """P(r-th record occurs by position t_max and its value is below x), per x.

    Series sum of F(x)^c(n_t) * P(L(r) = n_t) over the entries of a
    record_time_pmf, one CdfInterval per cutoff in xs.  When t_max is the
    final plan position this is the exact (sub-probability) law, so the
    bracket collapses; when the plan extends past t_max every omitted term
    carries an exponent at least c(n_{t_max+1}), so the tail the full plan
    would add is at most residual * F(x)^c(n_{t_max+1}).
    """
    terms = [(float(e.probability), e.cardinality) for e in pmf.entries]
    residual = float(pmf.residual)
    intervals = []
    for x in xs:
        fx = float(density.cdf(x))
        lower = math.fsum(p * fx**c for p, c in terms)
        tail = 0.0 if pmf.next_cardinality is None else residual * fx**pmf.next_cardinality
        intervals.append(CdfInterval(lower=lower, upper=min(1.0, lower + tail)))
    return tuple(intervals)
