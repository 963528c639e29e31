"""Densities on [0, M]: built-in families and tabulated input.

Every density carries vectorized pdf/cdf/inverse_cdf callables.  A rational
family is defined once, as polynomial pieces with Fraction coefficients
between Fraction cuts (rational_density); its cdf pieces and float pdf/cdf
derive from them, and the discrete approximation layer reads the pieces to
evaluate its grids in exact integers.  rational_density also checks the
pdf's sign exactly, as the discrete layer's error bound needs.  A tabulated
density is a monotone cubic (PCHIP) interpolant of its samples, normalized
to mass 1.  Both float forms go through one evaluator, _piecewise.

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

from .errors import BadParams, InversionFailure, UnknownFamily

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


def _piecewise(cuts, table, side="left"):
    """Float evaluator of pieces on [0, cuts[-1]]: on the piece from cuts[j]
    to cuts[j+1] the value at x is _horner(table[j], x - cuts[j]).  Local
    coordinates keep each piece's rounding to the size of its own values.
    A point on a cut takes the piece on that side: "left" for rational
    pieces, as Pieces does, "right" for tabulated ones, whose constant terms
    are the table's own samples."""
    cuts = np.array([float(c) for c in cuts])
    width = max(map(len, table))
    table = np.array([[float(c) for c in row] + [0.0] * (width - len(row)) for row in table])

    def evaluate(x):
        j = np.searchsorted(cuts[1:-1], x, side)
        return _horner(table[j].T, x - cuts[j])

    return evaluate


def _shift(poly, lo):
    """Power coefficients of poly(lo + s) in s, exact for Fraction inputs."""
    return [_horner([math.comb(k, j) * a for k, a in enumerate(poly)][j:], lo)
            for j in range(len(poly))]


def _bernstein(poly, lo, hi):
    """Bernstein coefficients of poly on [lo, hi], between whose least and greatest
    it lies there; b holds the power coefficients of poly(lo + (hi - lo) u)."""
    n = len(poly) - 1
    b = [(hi - lo) ** j * c for j, c in enumerate(_shift(poly, lo))]
    return [sum(b[j] * math.comb(i, j) / math.comb(n, j) for j in range(i + 1))
            for i in range(n + 1)]


def rational_density(name, cuts, pdf, inverse_cdf):
    """A density whose pdf is a polynomial between consecutive cuts.

    cuts rise from 0 to the support bound M; pdf[j] lists the coefficients
    (constant term first, each a Fraction or int) on the piece from cuts[j]
    to cuts[j+1].  The cdf pieces come by exact integration; the float
    pdf/cdf evaluate each piece Taylor-shifted exactly to its left cut and
    rounded once.
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

    def local(polys):
        return _piecewise(cuts, [_shift(poly, lo) for lo, poly in zip(cuts, polys)])

    return DensitySpec(
        name=name,
        support_upper=upper,
        pdf=_masked(upper, local(pdf)),
        cdf=_clipped_cdf(upper, local(cdf)),
        inverse_cdf=inverse_cdf,
        pieces=Pieces(cuts, pdf, tuple(cdf)),
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


def _pchip_end_slope(h0, h1, m0, m1):
    """SciPy's three-point end slope, set to 0 when its sign differs from the
    end secant m0's, and to 3 m0 when the secants differ in sign and it
    exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _pchip(xs, fs):
    """Local power coefficients, constant term first, of the monotone cubic
    (PCHIP) interpolant of fs at xs, one row per interval, with SciPy's
    PchipInterpolator slopes: interior ones the Fritsch-Butland weighted
    harmonic mean of the neighbouring secants, 0 where those differ in sign
    or one is 0."""
    h = np.diff(xs)
    m = np.diff(fs) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    left, right = np.where(flat, 1.0, m[:-1]), np.where(flat, 1.0, m[1:])
    slopes = np.empty_like(xs)
    with np.errstate(over="ignore"):  # a subnormal secant's reciprocal: slope 0
        slopes[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / left + w2 / right) / (w1 + w2)))
    slopes[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    slopes[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (slopes[:-1] + slopes[1:] - 2 * m) / h
    return np.stack([fs[:-1], slopes[:-1], (m - slopes[:-1]) / h - t, t / h], axis=1)


def tabulated_density(xs, fs, name="tabulated"):
    """Build a density from samples (x_i, f(x_i)) by monotone cubic interpolation.

    Grid must start at 0 and increase strictly; values must be finite and
    nonnegative with positive total mass.  The PCHIP interpolant is
    nonnegative between nonnegative samples.  Its antiderivative pieces
    start from the mass below their node, the whole table is divided by the
    total mass, and the inverse is solved by bisection.  f is first scaled
    by the power of two that brings its largest value into [1, 2), so that
    tiny or subnormal samples interpolate without overflow; the scaling is
    exact, bar the low bits of subnormal samples beside values of 2 or more,
    and the normalized density does not depend on it.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 3:
        raise BadParams("need matching 1-d arrays with at least 3 points")
    for column, values in (("x", xs), ("f", fs)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            row = int(bad[0])
            raise BadParams(f"tabulated {column} at row {row} is {float(values[row])!r}, not finite")
    if xs[0] != 0.0:
        raise BadParams(f"grid must start at 0, got {xs[0]}")
    if np.any(np.diff(xs) <= 0):
        raise BadParams("grid must be strictly increasing")
    if np.any(fs < 0):
        raise BadParams("density values must be nonnegative")
    upper = float(xs[-1])

    pdf_table = _pchip(xs, np.ldexp(fs, 1 - np.frexp(fs.max())[1]))  # max in [1, 2)
    terms = pdf_table / np.arange(1, 5)  # the antiderivative's s^1..s^4 coefficients
    h = np.diff(xs)
    below = np.concatenate([[0.0], np.cumsum(_horner(terms.T, h) * h)])
    total = below[-1]
    if total <= 0:
        raise BadParams("tabulated density has zero total mass")
    shape = _piecewise(xs, pdf_table / total, "right")
    pdf = _masked(upper, lambda x: np.maximum(shape(x), 0.0))
    cdf = _clipped_cdf(upper, _piecewise(xs, np.column_stack([below[:-1], terms]) / total, "right"))
    return DensitySpec(
        name=name,
        support_upper=upper,
        pdf=pdf,
        cdf=cdf,
        inverse_cdf=_bisect_inverse(cdf, upper),
    )


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
