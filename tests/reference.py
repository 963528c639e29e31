"""Numerical references for the tests, built on SciPy.

The package itself needs only NumPy; these checkers integrate with SciPy's
quadrature to give the tests an answer that shares no code with the
package's own.

* verify_density checks the contract a DensitySpec must satisfy.
* quadrature_bounded integrates the defining recursion for joint record
  events whose last value falls below x: level k conditions on the value z
  at the k-th selected position, multiplies the density f(z) by F(z) raised
  to the number of additional comparisons that must fall below z, and
  integrates the previous level against it.
"""

import numpy as np
from scipy.integrate import cumulative_simpson, quad

import partial_records as pr

TOL_ENDPOINT = 1e-10
TOL_NORMALIZATION = 1e-8
TOL_ROUNDTRIP = 1e-8


def verify_density(spec, cuts=None, grid_points=1001):
    """Check the contract a DensitySpec must satisfy; raise ValueError if broken.

    Bounded support: F(0)=0, F(M)=1, F nondecreasing on a grid, pdf >= 0 there,
    pdf integrates to 1 within 1e-8, and cdf(inverse_cdf(u)) returns u within
    1e-8.  cuts, the interior points where the pdf loses smoothness, start
    the quadrature's partition; they default to the interior cuts of the
    density's pieces.
    """
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
        if cuts is None:
            cuts = spec.pieces.cuts[1:-1] if spec.pieces is not None else ()
        cuts = [float(b) for b in cuts if 0.0 < b < upper]
        # QUADPACK's adaptive Gauss-Kronrod; the cuts start the partition,
        # so the subinterval budget grows with their count
        mass, _, _, *failure = quad(
            lambda x: float(spec.pdf(x)), 0.0, upper, points=cuts,
            epsabs=1e-10, epsrel=0.0, limit=50 + len(cuts), full_output=1,
        )
        if failure:
            problems.append(f"pdf quadrature failed: {failure[0]}")
        elif abs(mass - 1.0) > TOL_NORMALIZATION:
            problems.append(f"pdf integrates to {mass!r}, not 1")
        us = np.linspace(0.001, 0.999, 101)
        xs = np.asarray(spec.inverse_cdf(us))
        gap = float(np.max(np.abs(np.asarray(spec.cdf(xs)) - us)))
        if gap > TOL_ROUNDTRIP:
            problems.append(f"cdf(inverse_cdf(u)) off by {gap:.3e}")
    if problems:
        raise ValueError(f"density {spec.name!r} violates its contract: " + "; ".join(problems))


def quadrature_bounded(plan, positions, x, density, tol=1e-10, max_cells=1 << 16):
    """Numerically integrate P(all selected events hold, last value < x).

    Builds the level functions B_k(z) on a uniform grid by cumulative
    Simpson integration, doubling the grid until two refinements agree to
    tol, and raises RuntimeError if they never do.  Independent of the
    closed-form product and of the record-value exponent c(n_t) it is used
    to check.  The first grid has 1024 cells, so max_cells below 2048 leaves
    nothing to compare it with and raises BadParams.
    """
    cells = 1024
    if max_cells < 2 * cells:
        raise pr.BadParams(f"max_cells must be at least {2 * cells}, got {max_cells}")
    vplan = pr.as_validated(plan)
    positions = pr.check_positions(vplan, positions)
    if x <= 0:
        raise ValueError(f"cutoff must be positive, got {x}")
    upper = min(float(x), density.support_upper)

    cards = [vplan.cardinality(t) for t in positions]
    previous = None
    while cells <= max_cells:
        z = np.linspace(0.0, upper, cells + 1)
        fs = np.asarray(density.pdf(z), dtype=float)
        cdfs = np.asarray(density.cdf(z), dtype=float)
        level = 1.0
        prev_card = 0
        for c in cards:
            integrand = np.power(cdfs, c - prev_card - 1) * fs * level
            level = cumulative_simpson(integrand, x=z, initial=0.0)
            prev_card = c
        value = float(level[-1])
        if previous is not None and abs(value - previous) < tol:
            return value
        previous = value
        cells *= 2
    raise RuntimeError(
        f"no convergence below {tol} within {max_cells} cells (last delta "
        f"{abs(value - previous):.3e})"
    )
