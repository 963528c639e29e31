"""Discrete approximation of record laws on the grid {0, 1/m, ..., M}.

A density f on [0, M] induces atoms g_m(l) proportional to f(l/m) at the
grid points l/m.  Records under the discrete model use strict exceedance, so
ties (which now have positive probability) break against a new record.  Key
quantities:

* G_m(l) = sum of g_m(l1) over l1 < l, the strictly-below prefix mass;
* theta(l) = (1/m) * sum over l1 < l of F^{r-1}(l1/m) f(l1/m), the left
  Riemann sum of the integral F^r(l/m)/r that drives the continuous laws;
* an exact forward recursion for joint record probabilities, whose value
  converges to the continuous product formula at rate O(1/m) with constant
  controlled by the density's smoothness bound.

One rule picks the arithmetic: a density carrying its Fraction hooks (a
DensitySpec has both pdf_fraction and cdf_fraction or neither) is evaluated
in exact rationals, any other density in floats.  _grid applies the rule;
every sum and prefix below keeps the grid's number type, so exact grid
identities (and the deviations themselves) are free of rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    BadParams,
    IndexOutOfRange,
    NonIntegerGrid,
    UnboundedSupport,
    ZeroMass,
)
from .plan import as_validated, check_positions
from . import exact as _exact


@dataclass(frozen=True)
class DiscreteModel:
    """Normalized atoms of a density sampled on {l/m : l = 0..top_index}."""

    m: int
    density_name: str
    masses: tuple
    prefix: tuple  # prefix[l] = sum of masses strictly below atom l, length top+2
    exact: bool

    @property
    def atom_count(self):
        return len(self.masses)

    @property
    def top_index(self):
        return len(self.masses) - 1

    def atom_value(self, l):
        if not 0 <= l <= self.top_index:
            raise IndexOutOfRange(f"atom {l} not in 0..{self.top_index}")
        return _number(self.exact)(l) / self.m

    def mass(self, l):
        if not 0 <= l <= self.top_index:
            raise IndexOutOfRange(f"atom {l} not in 0..{self.top_index}")
        return self.masses[l]

    def below(self, l):
        """G_m(l): total mass strictly below atom l, for l in 0..top_index+1."""
        if not 0 <= l <= self.top_index + 1:
            raise IndexOutOfRange(f"l={l} not in 0..{self.top_index + 1}")
        return self.prefix[l]


def _number(exact):
    """The number type of the discrete layer: Fraction when exact, else float."""
    return Fraction if exact else float


def _sum(values, exact):
    """Exact total of Fractions, or the correctly rounded total of floats."""
    return sum(values, Fraction(0)) if exact else math.fsum(values)


def _prefix(values, exact):
    """Running sums [0, v_0, v_0 + v_1, ...] of the strictly earlier values."""
    return list(accumulate(values, initial=_number(exact)(0)))


def _grid_top(density, m):
    if not density.bounded:
        raise UnboundedSupport("discretization needs a bounded support")
    top = density.support_upper * m
    rounded = round(top)
    if abs(top - rounded) > 1e-9 or rounded < 1:
        raise NonIntegerGrid(
            f"support bound {density.support_upper} times m={m} is not a positive integer"
        )
    return int(rounded)


def _grid(density, m):
    """(m, exact, pdf, cdf) with pdf[l] = f(l/m) for l = 0..top and cdf[l] =
    F(l/m) for l = 0..top+1 (1 past the support), evaluated once."""
    m = int(m)
    if m < 1:
        raise BadParams(f"grid resolution m must be >= 1, got {m}")
    top = _grid_top(density, m)
    exact = density.pdf_fraction is not None
    num = _number(exact)
    pdf, cdf = (density.pdf_fraction, density.cdf_fraction) if exact else (density.pdf, density.cdf)
    xs = [num(l) / m for l in range(top + 1)]
    return m, exact, [num(pdf(x)) for x in xs], [num(cdf(x)) for x in xs] + [num(1)]


def _model(density, m, exact, pdf):
    total = _sum(pdf, exact)
    if total <= 0:
        raise ZeroMass(f"{density.name} vanishes on the whole m={m} grid")
    masses = tuple(v / total for v in pdf)
    prefix = _prefix(masses, exact)
    prefix[-1] = _number(exact)(1)  # exact already; absorbs float rounding
    return DiscreteModel(m, density.name, masses, tuple(prefix), exact)


def discretize(density, m):
    """Build the discrete model with atoms proportional to f(l/m)."""
    m, exact, pdf, _ = _grid(density, m)
    return _model(density, m, exact, pdf)


def _riemann(exact, pdf, cdf, r):
    """sum_{l1 < l} F^(r-1)(l1/m) f(l1/m) for l = 0..top+1."""
    return _prefix([c ** (r - 1) * f for f, c in zip(pdf, cdf)], exact)


def theta(density, m, l, r=1):
    """Left Riemann sum (1/m) * sum_{l1 < l} F^(r-1)(l1/m) f(l1/m).

    Approximates F^r(l/m)/r, the limit object behind the discrete record
    laws.  l may run to top_index+1 (the full-grid sum).
    """
    m, exact, pdf, cdf = _grid(density, m)
    if not 0 <= l <= len(pdf):
        raise IndexOutOfRange(f"l={l} not in 0..{len(pdf)}")
    if r < 1:
        raise BadParams(f"power r must be >= 1, got {r}")
    return _riemann(exact, pdf, cdf, r)[l] / m


@dataclass(frozen=True)
class LemmaDeviation:
    """Worst grid deviation of one discrete-vs-continuous identity."""

    relation: str
    r: int
    m: int
    deviation: object  # Fraction when exact, else float
    argmax_l: int

    @property
    def deviation_float(self):
        return float(self.deviation)

    @property
    def scaled(self):
        """m * deviation, the quantity the O(1/m) bound keeps bounded."""
        return self.m * self.deviation


def lemma_checks(density, m, r=1):
    """Deviations of the three grid identities underlying the O(1/m) rate.

    normalization:       (1/m) sum f(l/m)            vs  1
    riemann_theta:       theta(l)                    vs  F^r(l/m)/r
    weighted_power_sum:  sum_{l1<l} G^(r-1)(l1)g(l1) vs  F^r(l/m)/r
    cum_vs_cdf:          G_m(l)                      vs  F(l/m)

    Maxima are over the atom grid l = 0..top_index (normalization is a
    single full-grid deviation, reported with argmax_l = top_index + 1).
    Exact rational when the density has Fraction hooks.  Returns
    {relation: LemmaDeviation}.
    """
    if r < 1:
        raise BadParams(f"power r must be >= 1, got {r}")
    m, exact, pdf, cdf = _grid(density, m)
    model = _model(density, m, exact, pdf)
    atoms = range(len(pdf))

    def worst(name, deviations):
        arg = max(atoms, key=deviations.__getitem__)
        return LemmaDeviation(name, r, m, deviations[arg], arg)

    target = [cdf[l] ** r / r for l in atoms]
    riemann = _riemann(exact, pdf, cdf, r)
    weighted = _prefix([g ** (r - 1) * v for g, v in zip(model.prefix, model.masses)], exact)
    normalization = abs(_sum(pdf, exact) / m - _number(exact)(1))
    return {
        "normalization": LemmaDeviation("normalization", r, m, normalization, len(pdf)),
        "riemann_theta": worst("riemann_theta", [abs(riemann[l] / m - target[l]) for l in atoms]),
        "weighted_power_sum": worst(
            "weighted_power_sum", [abs(weighted[l] - target[l]) for l in atoms]
        ),
        "cum_vs_cdf": worst("cum_vs_cdf", [abs(model.prefix[l] - cdf[l]) for l in atoms]),
    }


def record_point_masses(plan, positions, model):
    """b[l] = P(all selected events hold and the last selected value is atom l).

    Forward recursion: at each level the new value must strictly exceed the
    comparison values added since the previous level (prefix mass G to the
    power of the cardinality gap minus one) and the previous level's value
    (its strictly-below cumulative).
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    g = model.masses
    big_g = model.prefix
    atoms = model.atom_count

    level = None  # cumulative of previous level's point masses, strictly below
    prev_card = 0
    point = None
    for t in positions:
        gap = vplan.cardinality(t) - prev_card - 1
        if level is None:
            point = [big_g[l] ** gap * g[l] for l in range(atoms)]
        else:
            point = [big_g[l] ** gap * g[l] * level[l] for l in range(atoms)]
        level = _prefix(point, model.exact)
        prev_card = vplan.cardinality(t)
    return tuple(point)


def joint_record_prob_discrete(plan, positions, model):
    """P(records at all selected positions) under the discrete model.

    Exact rational when the model is exact; converges to the continuous
    product of 1/c(n_t) as m grows, with error O(1/m).
    """
    return _sum(record_point_masses(plan, positions, model), model.exact)


def bounded_profile(plan, positions, model):
    """B(l) = P(all selected events hold, last value strictly below atom l).

    Length top_index + 2; B(top+1) is the unconditional joint probability.
    """
    return tuple(_prefix(record_point_masses(plan, positions, model), model.exact))


def profile_vs_continuous(plan, positions, model, density):
    """Compare the discrete bounded profile to the continuous candidate laws.

    The continuous candidate at cutoff l/m is prod(1/c) * F(l/m)^e with the
    exponent e at the last selected position read either as the cardinality
    c(n_t) or the raw time index n_t.  Returns the max deviation over the
    grid for both conventions; the one vanishing as m grows identifies the
    correct exponent.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    profile = bounded_profile(vplan, positions, model)
    base = _exact.joint_record_prob(vplan, positions)
    *_, cdf = _grid(density, model.m)

    out = {}
    for convention in _exact.EXPONENT_CONVENTIONS:
        e = _exact._exponent(vplan, positions[-1], convention)
        out[convention] = max(
            abs(float(b) - float(base) * float(c) ** e) for b, c in zip(profile, cdf)
        )
    return out


@dataclass(frozen=True)
class SweepRow:
    """One resolution step of the discrete-vs-continuous error sweep."""

    m: int
    discrete: object
    continuous: object
    abs_error: object

    @property
    def scaled(self):
        return self.m * self.abs_error


def error_sweep(plan, positions, density, m_values):
    """Discrete joint probability against the continuous product over m.

    The scaled column m * |error| staying bounded is the O(1/m) guarantee
    in action; rows are exact rationals when the density has hooks.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    target = _exact.joint_record_prob(vplan, positions)
    rows = []
    for m in m_values:
        model = discretize(density, m)
        value = joint_record_prob_discrete(vplan, positions, model)
        # float - Fraction converts the Fraction, so a float model gets float errors
        err = abs(value - target)
        rows.append(SweepRow(m=int(m), discrete=value, continuous=target, abs_error=err))
    return tuple(rows)
