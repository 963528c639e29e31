"""Discrete approximation of record laws on the grid {0, 1/m, ..., M}.

A density f on [0, M] induces atoms g_m(l) proportional to f(l/m) at the
grid points l/m.  Records under the discrete model use strict exceedance, so
ties (which now have positive probability) break against a new record.  Key
quantities:

* G_m(l) = sum of g_m(l1) over l1 < l, the strictly-below prefix mass;
* theta(l) = (1/m) * sum over l1 < l of F^{r-1}(l1/m) f(l1/m), the left
  Riemann sum of the integral F^r(l/m)/r that drives the continuous laws;
* an exact forward recursion for joint record probabilities, below the
  continuous product formula by at most error_bound, an explicit O(1/m)
  bound that reads the model only through its largest atom.

The layer has one arithmetic, integers.  _grid samples the pdf and cdf
once per (density, m) as integer numerators over one denominator each, in
lowest terms: a density with polynomial pieces (built by
distributions.rational_density) exactly, any other density through its
float samples, each of which is a dyadic rational n / 2^k taken as it is.
The DiscreteModel gives atom l the mass weights[l] / scale, the pdf
numerators over their sum.  The recursion, the lemma checks and the
exhaustive oracle work on those integers, _deviations cross-multiplies the
two sides of a lemma identity onto one denominator, and a Fraction is built
only for each returned value, so no result carries rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import (
    BadParams,
    NonIntegerGrid,
    UnboundedSupport,
    ZeroMass,
)
from .plan import _index, as_validated, check_positions
from . import exact as _exact


@dataclass(frozen=True)
class DiscreteModel:
    """Atoms of a density sampled on {l/m : l = 0..atom_count-1}.

    Atom l has mass weights[l] / scale, and below[l] / scale is the mass
    strictly below atom l (length atom_count + 1): integer weights over
    their sum.
    """

    m: int
    density_name: str
    weights: tuple
    below: tuple
    scale: int

    @property
    def atom_count(self):
        return len(self.weights)


def _deviations(lhs, rhs):
    """|lhs - rhs| at each l as (numerators, denominator), each side given as
    (numerators, denominator).  The sides cross-multiply onto one
    denominator, so the largest numerator is the worst l."""
    (a, a_den), (b, b_den) = lhs, rhs
    return [abs(x * b_den - y * a_den) for x, y in zip(a, b)], a_den * b_den


def _check_power(r):
    r = _index(r, "power r")
    if r < 1:
        raise BadParams(f"power r must be >= 1, got {r}")
    return r


def _grid_top(density, m):
    """The last atom index M*m; rejects m < 1 and supports m does not divide."""
    if m < 1:
        raise BadParams(f"grid resolution m must be >= 1, got {m}")
    if not density.bounded:
        raise UnboundedSupport("discretization needs a bounded support")
    top = density.support_upper * m
    rounded = round(top)
    if abs(top - rounded) > 1e-9 or rounded < 1:
        raise NonIntegerGrid(
            f"support bound {density.support_upper} times m={m} is not a positive integer"
        )
    return int(rounded)


class _Grid(NamedTuple):
    """f(l/m) = pdf[l]/pdf_den for l = 0..top and F(l/m) = cdf[l]/cdf_den for
    l = 0..top+1 (1 past the support), integer numerators in lowest terms."""

    m: int
    pdf: tuple
    pdf_den: int
    cdf: tuple
    cdf_den: int


# A sweep evaluates each (density, m) grid once, for its model and for every
# lemma power; the bound keeps a long-lived process from holding every grid.
@lru_cache(maxsize=32)
def _grid(density, m):
    m = _index(m, "grid resolution m")
    top = _grid_top(density, m)
    pieces = density.pieces
    if pieces is None:
        xs = [float(l) / m for l in range(top + 1)]
        pdf, pdf_den = _dyadic(density, "pdf", [density.pdf(x) for x in xs])
        cdf, cdf_den = _dyadic(density, "cdf", [density.cdf(x) for x in xs])
    else:
        pdf, pdf_den = pieces.grid(pieces.pdf, m, top + 1)
        cdf, cdf_den = pieces.grid(pieces.cdf, m, top + 1)
    return _Grid(m, pdf, pdf_den, cdf + (cdf_den,), cdf_den)


def _dyadic(density, name, samples):
    """(numerators, denominator) in lowest terms of the float samples of the
    density's pdf or cdf (name).  A float is n / 2^k exactly, so the samples
    share the largest 2^k, over which a sample with that k keeps its odd n.
    pdf samples must be finite and >= 0, cdf ones finite."""
    ratios = []
    for l, v in enumerate(map(float, samples)):
        if not math.isfinite(v) or (name == "pdf" and v < 0):
            raise BadParams(f"{density.name} {name} at grid index l={l} is {v!r}")
        ratios.append(v.as_integer_ratio())
    den = max(d for _, d in ratios)
    return tuple(n * (den // d) for n, d in ratios), den


def _total(density, grid):
    """The pdf numerators' sum S, so atom l has mass pdf[l]/S."""
    total = sum(grid.pdf)
    if total <= 0:
        raise ZeroMass(f"{density.name} vanishes on the whole m={grid.m} grid")
    return total


def _model(density, grid):
    total = _total(density, grid)
    below = tuple(accumulate(grid.pdf, initial=0))
    return DiscreteModel(grid.m, density.name, grid.pdf, below, total)


def discretize(density, m):
    """Build the discrete model with atoms proportional to f(l/m)."""
    return _model(density, _grid(density, m))


def _riemann(grid, r):
    """(numerators, denominator) of (1/m) sum_{l1 < l} F^(r-1)(l1/m) f(l1/m)
    for l = 0..top+1."""
    terms = (c ** (r - 1) * f for f, c in zip(grid.pdf, grid.cdf))
    return (
        list(accumulate(terms, initial=0)),
        grid.m * grid.pdf_den * grid.cdf_den ** (r - 1),
    )


@dataclass(frozen=True)
class LemmaDeviation:
    """Worst grid deviation of one discrete-vs-continuous identity."""

    relation: str
    r: int
    m: int
    deviation: Fraction
    argmax_l: int

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

    Maxima are over the atom grid l = 0..atom_count-1 (normalization is a
    single full-grid deviation, reported with argmax_l = atom_count), and
    argmax_l is the first maximal l.  Returns {relation: LemmaDeviation},
    each deviation an exact Fraction.
    """
    r = _check_power(r)
    grid = _grid(density, m)
    model = _model(density, grid)
    atoms = range(model.atom_count)
    g, below, scale = model.weights, model.below, model.scale
    weighted = accumulate((b ** (r - 1) * v for b, v in zip(below, g)), initial=0)
    target = [c**r for c in grid.cdf]  # over r cdf_den^r: F^r(l/m)/r
    relations = {  # name: (numerators, denominator) of each side
        "riemann_theta": (_riemann(grid, r), (target, r * grid.cdf_den**r)),
        "weighted_power_sum": ((list(weighted), scale**r), (target, r * grid.cdf_den**r)),
        "cum_vs_cdf": ((below, scale), (grid.cdf, grid.cdf_den)),
    }

    riemann_total = ([_total(density, grid)], grid.m * grid.pdf_den)  # (1/m) sum f(l/m)
    values, den = _deviations(riemann_total, ([1], 1))
    out = {
        "normalization": LemmaDeviation(
            "normalization", r, grid.m, Fraction(values[0], den), len(atoms)
        )
    }
    for name, (lhs, rhs) in relations.items():
        values, den = _deviations(lhs, rhs)
        arg = max(atoms, key=values.__getitem__)
        out[name] = LemmaDeviation(name, r, grid.m, Fraction(values[arg], den), arg)
    return out


def _point_numerators(plan, positions, model):
    """(numerators, denominator) of b[l] = P(all selected events hold and
    the last selected value is atom l).

    Forward recursion: at each level the new value must strictly exceed the
    comparison values added since the previous level (prefix mass G to the
    power of the cardinality gap minus one) and the previous level's value
    (its strictly-below cumulative).  The model's masses are weights over
    its scale S, so a level with cardinality gap adds S^(gap+1) to the
    denominator.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    g, big_g, scale = model.weights, model.below, model.scale
    atoms = model.atom_count

    level = [1] * atoms  # previous level's point masses strictly below l; 1 before the first
    prev_card = 0
    den = 1
    for t in positions:
        gap = vplan.cardinality(t) - prev_card - 1
        point = [big_g[l] ** gap * g[l] * level[l] for l in range(atoms)]
        level = list(accumulate(point, initial=0))
        den *= scale ** (gap + 1)
        prev_card = vplan.cardinality(t)
    return point, den


def joint_record_prob_discrete(plan, positions, model):
    """P(records at all selected positions) under the discrete model.

    An exact rational, below the continuous product of 1/c(n_t) by at most
    error_bound.
    """
    point, den = _point_numerators(plan, positions, model)
    return Fraction(sum(point), den)


def bounded_profile(plan, positions, model):
    """B(l) = P(all selected events hold, last value strictly below atom l).

    Length atom_count + 1; the last entry is the unconditional joint probability.
    """
    point, den = _point_numerators(plan, positions, model)
    below = accumulate(point, initial=0)
    return tuple(Fraction(v, den) for v in below)


def error_bound(plan, positions, model):
    """Bound on P - P_m, P = prod 1/c_t over the selected cardinalities and
    P_m = joint_record_prob_discrete: with g = max(weights)/scale,

        0 <= P - P_m <= P (g/2) sum_{t: c_t >= 2} c_t prod_{s>t} c_s/(c_s - 1).

    Proof sketch.  The model is a uniform U under a non-decreasing step map,
    so a strict record of the atoms is one of the U's: P_m <= P.  Level t of
    the recursion takes K u^(c_t - 1), K = prod_{s<t} 1/c_s, at each atom's
    left end G(l); a trapezoid step on that convex integrand bounds the new
    defect below G(l) by K (g/2) G(l)^(c_t - 1), 0 if c_t = 1.  A defect
    d G(l)^(c_{t-1} - 1) carried from level t-1 enters as a left Riemann sum
    of d u^(c_t - 2), at most d G(l)^(c_t - 1)/(c_t - 1).  The recurrence
    d_t = K g/2 + d_{t-1}/(c_t - 1) unrolls to the bound at G = 1, which
    uniform01 attains at one c = 2.  The bound is a Fraction.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    cards = [vplan.cardinality(t) for t in positions]
    relative = Fraction(0)  # the sum over t; each later s scales it by c_s/(c_s - 1)
    for c in (c for c in cards if c > 1):
        relative = relative * Fraction(c, c - 1) + c
    bound = relative / (2 * math.prod(cards))
    return bound * Fraction(max(model.weights), model.scale)


@dataclass(frozen=True)
class SweepRow:
    """One resolution step of the discrete-vs-continuous error sweep."""

    m: int
    discrete: Fraction
    continuous: Fraction
    abs_error: Fraction
    bound: Fraction  # error_bound: the row passes when abs_error <= bound

    @property
    def scaled(self):
        return self.m * self.abs_error


def error_sweep(plan, positions, density, m_values):
    """Discrete joint probability against the continuous product over m.

    Each row carries its error_bound; every value is an exact rational.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    target = _exact.joint_record_prob(vplan, positions)
    rows = []
    for m in m_values:
        model = discretize(density, m)
        value = joint_record_prob_discrete(vplan, positions, model)
        bound = error_bound(vplan, positions, model)
        rows.append(SweepRow(model.m, value, target, abs(value - target), bound))
    return tuple(rows)
