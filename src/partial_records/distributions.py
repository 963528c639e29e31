"""Densities on [0, M]: built-in families and tabulated input.

Every density carries vectorized pdf/cdf/inverse_cdf callables.  A rational
family is defined once, as polynomial pieces with Fraction coefficients
between Fraction cuts (rational_density); its cdf pieces, float pdf/cdf and
breakpoints all derive from them, and the discrete approximation layer reads
the pieces to evaluate its grids in exact integers.  rational_density also
checks the pdf's sign exactly, as the discrete layer's error bound needs.

Support always starts at 0.  pdf evaluates to 0 outside [0, M] and cdf clips
to [0, 1], so grid scans may safely step slightly past the support.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadParams, InversionFailure, QuadratureFailure, UnknownFamily

TOL_ENDPOINT = 1e-10
TOL_NORMALIZATION = 1e-8
TOL_ROUNDTRIP = 1e-8

BUILTIN_FAMILIES = (
    "uniform01",
    "power(k)",
    "smoothstep",
    "triangular",
    "truncated_ramp(cap)",
)


def _horner(coefficients, x):
    """sum_k coefficients[k] * x^k, constant term first; exact for int or
    Fraction inputs, elementwise for numpy arrays."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


class Pieces(NamedTuple):
    """A piecewise polynomial density on [0, cuts[-1]]: on the piece from
    cuts[j] to cuts[j+1] the pdf is _horner(pdf[j], x) and the cdf
    _horner(cdf[j], x), with Fraction cuts and coefficients.  A point on a
    cut belongs to the piece on its left."""

    cuts: tuple
    pdf: tuple
    cdf: tuple

    def grid(self, polys, m, count):
        """(numerators, denominator) of polys (self.pdf or self.cdf) at l/m
        for l = 0..count-1, count <= cuts[-1]*m + 1, in lowest terms.

        Integer Horner over the denominator lcm(coefficient denominators) *
        m^degree, then one division by the gcd of all numerators and it."""
        degree = max(map(len, polys)) - 1
        lcm = math.lcm(*(c.denominator for poly in polys for c in poly))
        nums = []
        for cut, poly in zip(self.cuts[1:], polys):
            # c_k * lcm * m^(degree-k): Horner in l gives the value at l/m
            # times the denominator
            ints = [
                c.numerator * (lcm // c.denominator) * m ** (degree - k)
                for k, c in enumerate(poly)
            ]
            end = min(count, math.floor(cut * m) + 1)  # l/m <= cut
            nums.extend(_horner(ints, l) for l in range(len(nums), end))
        den = lcm * m**degree
        common = math.gcd(den, *nums)
        return tuple(v // common for v in nums), den // common


@dataclass(frozen=True)
class DensitySpec:
    """A continuous density on [0, support_upper] (inf for unbounded tails).

    pdf/cdf/inverse_cdf accept floats or numpy arrays; inverse_cdf must be
    non-decreasing, because simulation compares uniforms, and a pure
    function, because a run calls it from several threads at once on
    disjoint arrays (the built-in and tabulated densities are).
    pieces, set by rational_density, holds the exact piecewise polynomial
    pdf and cdf; with it the discrete layer stays in exact arithmetic.
    """

    name: str
    support_upper: float
    pdf: Callable
    cdf: Callable
    inverse_cdf: Callable
    pieces: Pieces | None = None
    # interior points where the pdf loses smoothness; quadrature splits here
    breakpoints: tuple = ()

    def __post_init__(self):
        # a tuple keeps the spec hashable, so discrete grids can be cached by it
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))

    @property
    def bounded(self):
        return math.isfinite(self.support_upper)

    def __repr__(self):
        return f"DensitySpec({self.name!r})"


def _masked(upper, inside):
    """Wrap an inside-the-support formula: 0 outside [0, upper]."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        ok = (x >= 0.0) & (x <= upper)
        safe = np.where(ok, x, 0.0)
        return np.where(ok, inside(safe), 0.0)

    return pdf


def _clipped_cdf(upper, inside):
    def cdf(x):
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, 0.0, upper)
        return np.clip(inside(clipped), 0.0, 1.0)

    return cdf


def _piecewise(cuts, polys):
    """Float evaluator of the pieces on [0, cuts[-1]]; searchsorted's left
    side gives a point on a cut the piece on its left."""
    inner = np.array([float(c) for c in cuts[1:-1]])
    width = max(map(len, polys))
    table = np.array([[float(c) for c in poly] + [0.0] * (width - len(poly)) for poly in polys])
    return lambda x: _horner(table[np.searchsorted(inner, x)].T, x)


def _bernstein(poly, lo, hi):
    """Bernstein coefficients of poly on [lo, hi], between whose least and greatest
    it lies there; b holds the power coefficients of poly(lo + (hi - lo) u)."""
    n = len(poly) - 1
    b = [(hi - lo) ** j * _horner([math.comb(k, j) * a for k, a in enumerate(poly)][j:], lo)
         for j in range(n + 1)]
    return [sum(b[j] * math.comb(i, j) / math.comb(n, j) for j in range(i + 1))
            for i in range(n + 1)]


def rational_density(name, cuts, pdf, inverse_cdf):
    """A density whose pdf is a polynomial between consecutive cuts.

    cuts rise from 0 to the support bound M; pdf[j] lists the coefficients
    (constant term first, each a Fraction or int) on the piece from cuts[j]
    to cuts[j+1].  The cdf pieces come by exact integration, the float
    pdf/cdf by Horner evaluation, the breakpoints from the interior cuts.
    Raises BadParams unless the pieces fit the cuts, the exact mass is 1 and
    no piece has a negative Bernstein coefficient (then f >= 0).
    """
    cuts = tuple(map(Fraction, cuts))
    pdf = tuple(tuple(map(Fraction, poly)) for poly in pdf)
    if cuts[:1] != (0,) or len(pdf) != len(cuts) - 1 or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise BadParams(f"{name}: cuts must rise from 0, one pdf piece between each pair")
    cdf, mass = [], Fraction(0)  # mass: the cdf at the piece's left cut
    for lo, hi, poly in zip(cuts, cuts[1:], pdf):
        if min(_bernstein(poly, lo, hi), default=0) < 0:
            raise BadParams(f"{name}: a negative Bernstein coefficient on [{lo}, {hi}]")
        anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(poly)]
        anti[0] = mass - _horner(anti, lo)
        cdf.append(tuple(anti))
        mass = _horner(anti, hi)
    if mass != 1:
        raise BadParams(f"{name}: the pdf has mass {mass}, not 1")
    upper = float(cuts[-1])
    return DensitySpec(
        name=name,
        support_upper=upper,
        pdf=_masked(upper, _piecewise(cuts, pdf)),
        cdf=_clipped_cdf(upper, _piecewise(cuts, cdf)),
        inverse_cdf=inverse_cdf,
        pieces=Pieces(cuts, pdf, tuple(cdf)),
        breakpoints=tuple(float(c) for c in cuts[1:-1]),
    )


def _clip01(u):
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0)


def uniform01():
    return rational_density("uniform01", (0, 1), [(1,)], _clip01)


def power_density(k):
    """f(x) = k x^(k-1) on [0, 1], F(x) = x^k.  Needs k >= 1."""
    k_frac = Fraction(k)
    if k_frac < 1:
        raise BadParams(f"power needs k >= 1, got {k}")
    kf = float(k_frac)
    if k_frac == 1:
        return uniform01()
    inverse = lambda u: np.power(_clip01(u), 1.0 / kf)
    if k_frac.denominator == 1:
        ki = k_frac.numerator
        return rational_density(f"power({ki})", (0, 1), [(0,) * (ki - 1) + (ki,)], inverse)
    return DensitySpec(
        name=f"power({kf})",
        support_upper=1.0,
        pdf=_masked(1.0, lambda x: kf * np.power(x, kf - 1.0)),
        cdf=_clipped_cdf(1.0, lambda x: np.power(x, kf)),
        inverse_cdf=inverse,
    )


def smoothstep_density():
    """f(x) = 6x(1-x) on [0, 1], F(x) = 3x^2 - 2x^3."""

    def inverse(u):
        # F(x) = u  <=>  x = 1/2 - sin(arcsin(1 - 2u)/3)
        return 0.5 - np.sin(np.arcsin(1.0 - 2.0 * _clip01(u)) / 3.0)

    return rational_density("smoothstep", (0, 1), [(0, 6, -6)], inverse)


def triangular_density():
    """Symmetric triangle on [0, 1] peaking at 1/2."""

    def inverse(u):
        u = _clip01(u)
        lo = np.sqrt(np.maximum(u, 0.0) / 2.0)
        hi = 1.0 - np.sqrt(np.maximum(1.0 - u, 0.0) / 2.0)
        return np.where(u <= 0.5, lo, hi)

    return rational_density("triangular", (0, Fraction(1, 2), 1), [(0, 4), (4, -4)], inverse)


def truncated_ramp_density(cap=Fraction(1, 2)):
    """f(x) proportional to min(x, cap) on [0, 1].  Needs 0 < cap <= 1.

    Normalizer Z = cap - cap^2/2.  Continuous but with a kink at x = cap.
    """
    cap_frac = Fraction(cap)
    if not 0 < cap_frac <= 1:
        raise BadParams(f"truncated_ramp needs 0 < cap <= 1, got {cap}")
    z_frac = cap_frac - cap_frac * cap_frac / 2
    capf, zf = float(cap_frac), float(z_frac)
    u_knee = float(cap_frac * cap_frac / 2 / z_frac)

    def inverse(u):
        u = _clip01(u)
        lo = np.sqrt(np.maximum(2.0 * zf * u, 0.0))
        hi = capf / 2.0 + zf * u / capf
        return np.where(u <= u_knee, lo, hi)

    ramp, flat = (0, 1 / z_frac), (cap_frac / z_frac,)
    cuts, pdf = ((0, cap_frac, 1), [ramp, flat]) if cap_frac < 1 else ((0, 1), [ramp])
    return rational_density(f"truncated_ramp({cap_frac})", cuts, pdf, inverse)


_NAME_RE = re.compile(r"^([a-z][a-z0-9_]*)(?:\((.*)\))?$")


def builtin(name):
    """Resolve a built-in density by name, e.g. 'uniform01' or 'power(2)'."""
    match = _NAME_RE.match(name.strip())
    if match is None:
        raise UnknownFamily(f"cannot parse density name {name!r}")
    family, argstr = match.group(1), match.group(2)
    args = []
    if argstr is not None and argstr.strip():
        for piece in argstr.split(","):
            try:
                args.append(Fraction(piece.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise BadParams(f"bad parameter {piece.strip()!r} in {name!r}") from exc

    factories = {  # family: (factory, fewest and most parameters)
        "uniform01": (uniform01, 0, 0),
        "power": (power_density, 1, 1),
        "smoothstep": (smoothstep_density, 0, 0),
        "triangular": (triangular_density, 0, 0),
        "truncated_ramp": (truncated_ramp_density, 0, 1),
    }
    if family not in factories:
        raise UnknownFamily(
            f"unknown density family {family!r}; built-ins: {', '.join(BUILTIN_FAMILIES)}"
        )
    factory, fewest, most = factories[family]
    if not fewest <= len(args) <= most:
        raise BadParams(f"{family} takes {fewest} to {most} parameters, got {len(args)}")
    return factory(*args)


def _bisect_inverse(cdf, upper):
    def inverse(u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if u.size == 0:
            return u
        lo = np.zeros_like(u)
        hi = np.full_like(u, upper)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = np.asarray(cdf(mid)) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        x = 0.5 * (lo + hi)
        gap = np.max(np.abs(np.asarray(cdf(x)) - u))
        if gap > 1e-9:
            raise InversionFailure(f"bisection residual {gap:.3e} exceeds 1e-9")
        return x[0] if scalar else x

    return inverse


def tabulated_density(xs, fs, name="tabulated"):
    """Build a density from samples (x_i, f(x_i)) by monotone cubic interpolation.

    Grid must start at 0 and increase strictly; values must be nonnegative
    with positive total mass.  The interpolant is renormalized to integral 1,
    the cdf is its antiderivative, and the inverse is solved by bisection.
    """
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 3:
        raise BadParams("need matching 1-d arrays with at least 3 points")
    if xs[0] != 0.0:
        raise BadParams(f"grid must start at 0, got {xs[0]}")
    if np.any(np.diff(xs) <= 0):
        raise BadParams("grid must be strictly increasing")
    if np.any(fs < 0):
        raise BadParams("density values must be nonnegative")
    upper = float(xs[-1])

    shape = PchipInterpolator(xs, fs, extrapolate=False)
    anti = shape.antiderivative()
    total = float(anti(upper))
    if total <= 0:
        raise BadParams("tabulated density has zero total mass")

    pdf = _masked(upper, lambda x: np.maximum(np.asarray(shape(x)) / total, 0.0))
    cdf = _clipped_cdf(upper, lambda x: np.asarray(anti(x)) / total)

    spec = DensitySpec(
        name=name,
        support_upper=upper,
        pdf=pdf,
        cdf=cdf,
        inverse_cdf=_bisect_inverse(cdf, upper),
        breakpoints=tuple(float(v) for v in xs[1:-1]),
    )
    verify_density(spec)
    return spec


def tabulated_from_csv(path, name=None):
    """Load x,f(x) rows (optional header) into a tabulated density."""
    import csv

    xs, fs = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or not "".join(row).strip():
                continue
            try:
                x, f = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if not xs:
                    continue  # header row
                raise ValueError(f"{path}: bad row {row!r}")
            xs.append(x)
            fs.append(f)
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return tabulated_density(xs, fs, name=name or f"tabulated:{path}")


def verify_density(spec, grid_points=1001):
    """Check the contract a DensitySpec must satisfy; raise ValueError if broken.

    Bounded support: F(0)=0, F(M)=1, F nondecreasing on a grid, pdf integrates
    to 1 within 1e-8, and cdf(inverse_cdf(u)) returns u within 1e-8.
    """
    from scipy.integrate import quad

    problems = []
    if abs(float(spec.cdf(0.0))) > TOL_ENDPOINT:
        problems.append(f"cdf(0) = {float(spec.cdf(0.0)):.3e} != 0")
    if spec.bounded:
        upper = spec.support_upper
        top = float(spec.cdf(upper))
        if abs(top - 1.0) > TOL_ENDPOINT:
            problems.append(f"cdf({upper}) = {top} != 1")
        grid = np.linspace(0.0, upper, grid_points)
        vals = np.asarray(spec.cdf(grid))
        if np.any(np.diff(vals) < -TOL_ENDPOINT):
            problems.append("cdf is not nondecreasing")
        if np.any(np.asarray(spec.pdf(grid)) < 0):
            problems.append("pdf takes negative values")
        cuts = [b for b in spec.breakpoints if 0.0 < b < upper]
        try:
            # QUADPACK's adaptive Gauss-Kronrod; the breakpoints start the
            # partition, so the subinterval budget grows with their count
            mass, _, _, *failure = quad(
                lambda x: float(spec.pdf(x)), 0.0, upper, points=cuts,
                epsabs=1e-10, epsrel=0.0, limit=50 + len(cuts), full_output=1,
            )
            if failure:
                raise QuadratureFailure(failure[0])
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            problems.append(f"pdf quadrature failed: {exc}")
        else:
            if abs(mass - 1.0) > TOL_NORMALIZATION:
                problems.append(f"pdf integrates to {mass!r}, not 1")
        us = np.linspace(0.001, 0.999, 101)
        xs = np.asarray(spec.inverse_cdf(us))
        gap = float(np.max(np.abs(np.asarray(spec.cdf(xs)) - us)))
        if gap > TOL_ROUNDTRIP:
            problems.append(f"cdf(inverse_cdf(u)) off by {gap:.3e}")
    if problems:
        raise ValueError(f"density {spec.name!r} violates its contract: " + "; ".join(problems))
