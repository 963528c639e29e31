"""Built-in density families, rational pieces, the tabulated constructor, and inverse transforms."""

import math
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr
from reference import verify_density


ALL_BUILTINS = ("uniform01", "power(2)", "power(3)", "smoothstep", "triangular", "truncated_ramp(1/2)")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_every_builtin_satisfies_the_density_contract(name):
    verify_density(pr.builtin(name))


def _exact(spec, which, x, m=8):
    """The exact pdf or cdf at x = l/m, read from the density's pieces."""
    l = x * m
    assert l.denominator == 1
    nums, den = spec.pieces.grid(getattr(spec.pieces, which), m, l.numerator + 1)
    return Fraction(nums[-1], den)


def _step(cuts=(0, Fraction(1, 2), 1), pdf=((Fraction(1, 2),), (Fraction(3, 2),))):
    """f = 1/2 up to x = 1/2, then 3/2: F(x) = x/2, then (3x - 1)/2."""

    def inverse(u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0.25, 2.0 * u, (2.0 * u + 1.0) / 3.0)

    return pr.rational_density("step", cuts, pdf, inverse)


def test_rational_density_rejects_a_mass_other_than_one():
    with pytest.raises(pr.BadParams, match="mass 2, not 1"):
        _step(pdf=((1,), (3,)))
    with pytest.raises(pr.BadParams, match="mass 1/2, not 1"):
        pr.rational_density("half", (0, 1), [(0, 1)], lambda u: u)
    for cuts in [(), (Fraction(1, 4), 1), (0, 1, Fraction(1, 2)), (0, 1)]:
        with pytest.raises(pr.BadParams, match="cuts must rise from 0"):
            _step(cuts=cuts)


def test_rational_density_rejects_a_negative_bernstein_coefficient():
    # mass 1, but 3 - 4x < 0 past x = 3/4: Bernstein coefficients 3 and -1
    with pytest.raises(pr.BadParams, match=r"negative Bernstein coefficient on \[0, 1\]"):
        pr.rational_density("neg", (0, 1), [(3, -4)], lambda u: u)
    # mass 1 again; only the second piece, 3 - 4x on [1/2, 1], dips below 0
    with pytest.raises(pr.BadParams, match=r"on \[1/2, 1\]"):
        _step(pdf=((2,), (3, -4)))
    # coefficients 0 at the ends, where f = 0, still pass
    names = ["uniform01", "smoothstep", "triangular", "power(2)", "power(3)", "power(6)"]
    for name in names + [f"truncated_ramp({cap})" for cap in ("1/3", "1/2", "7/10", "1")]:
        assert pr.builtin(name).pieces is not None


def test_a_point_on_a_cut_takes_the_left_piece():
    step = _step()
    verify_density(step)
    assert step.pieces.cdf == ((0, Fraction(1, 2)), (Fraction(-1, 2), Fraction(3, 2)))
    assert float(step.pdf(0.5)) == 0.5 and float(step.pdf(0.5 + 1e-12)) == 1.5
    assert [float(v) for v in step.pdf(np.array([0.0, 0.5, 1.0]))] == [0.5, 0.5, 1.5]
    assert step.pieces.grid(step.pieces.pdf, 4, 5) == ((1, 1, 1, 3, 3), 2)
    assert step.pieces.grid(step.pieces.cdf, 4, 5) == ((0, 1, 2, 5, 8), 8)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_pieces_agree_with_float_path(name):
    spec = pr.builtin(name)
    for k in range(0, 9):
        x = Fraction(k, 8)
        assert abs(float(_exact(spec, "pdf", x)) - float(spec.pdf(float(x)))) < 1e-12
        assert abs(float(_exact(spec, "cdf", x)) - float(spec.cdf(float(x)))) < 1e-12


def test_smoothstep_values():
    s = pr.smoothstep_density()
    assert s.pieces.cdf == ((0, 0, 3, -2),)
    assert _exact(s, "cdf", Fraction(1, 2)) == Fraction(1, 2)
    assert _exact(s, "pdf", Fraction(1, 2)) == Fraction(3, 2)
    assert float(s.inverse_cdf(0.5)) == pytest.approx(0.5, abs=1e-14)


def test_power_cdf_and_inverse():
    p2 = pr.power_density(2)
    assert p2.pieces.cdf == ((0, 0, 1),)
    assert _exact(p2, "cdf", Fraction(3, 4)) == Fraction(9, 16)
    assert float(p2.inverse_cdf(0.25)) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(pr.BadParams):
        pr.power_density(0.5)
    # non-integer exponents have no polynomial pieces and unbounded f' near 0
    p15 = pr.power_density(1.5)
    assert p15.pieces is None


def test_large_integer_power_takes_the_closed_forms():
    # exact pieces cost O(k^2) Fraction work: 1.6 s at k = 300
    assert pr.builtin(f"power({pr.distributions.EXACT_POWER_MAX})").pieces is not None
    for k in (pr.distributions.EXACT_POWER_MAX + 1, 1000, 100_000_000):
        spec = pr.builtin(f"power({k})")
        assert spec.name == f"power({k})" and spec.pieces is None
        # x^k amplifies the rounding of x by k
        assert float(spec.cdf(0.5 ** (1 / k))) == pytest.approx(0.5, rel=k * 1e-15)
        assert float(spec.inverse_cdf(0.5)) == pytest.approx(0.5 ** (1 / k), rel=1e-12)
        assert float(spec.pdf(1.0)) == k
    verify_density(pr.builtin("power(1000)"))


def test_truncated_ramp_piecewise_forms():
    ramp = pr.truncated_ramp_density(Fraction(1, 2))
    # Z = 1/2 - 1/8 = 3/8
    assert ramp.pieces.cuts == (0, Fraction(1, 2), 1)
    assert _exact(ramp, "cdf", Fraction(1, 2)) == Fraction(1, 3)
    assert _exact(ramp, "cdf", Fraction(3, 4)) == Fraction(1, 3) + Fraction(1, 2) * Fraction(1, 4) / Fraction(3, 8)
    assert _exact(ramp, "pdf", Fraction(3, 4)) == Fraction(1, 2) / Fraction(3, 8)
    # cap = 1 is the plain ramp 2x: one piece, no breakpoint
    full = pr.truncated_ramp_density(1)
    assert full.pieces.cuts == (0, 1) and full.pieces.pdf == ((0, 2),)
    with pytest.raises(pr.BadParams):
        pr.truncated_ramp_density(Fraction(3, 2))


def test_pdf_and_cdf_defined_outside_support():
    for name in ALL_BUILTINS:
        spec = pr.builtin(name)
        assert float(spec.pdf(-0.25)) == 0.0
        assert float(spec.pdf(1.25)) == 0.0
        assert float(spec.cdf(-0.25)) == 0.0
        assert float(spec.cdf(1.25)) == 1.0


def test_builtin_parser_errors():
    with pytest.raises(pr.UnknownFamily):
        pr.builtin("gaussian")
    with pytest.raises(pr.BadParams):
        pr.builtin("power(2,3)")
    with pytest.raises(pr.BadParams):
        pr.builtin("uniform01(2)")
    with pytest.raises(pr.BadParams):
        pr.builtin("power(x)")
    for name in ("power(1e400)", f"power({10**400})"):  # beyond the float range
        with pytest.raises(pr.BadParams, match="largest float"):
            pr.builtin(name)


def test_builtin_parses_fraction_and_decimal_args():
    assert pr.builtin("truncated_ramp(0.5)").name == "truncated_ramp(1/2)"
    assert _exact(pr.builtin("power(2)"), "cdf", Fraction(1, 2)) == Fraction(1, 4)


def test_sampling_is_inverse_transform(rng):
    spec = pr.smoothstep_density()
    u = rng.random(1000)
    x = np.asarray(spec.inverse_cdf(u))
    order = np.argsort(u)
    assert np.all(np.diff(x[order]) >= 0)
    assert float(np.max(np.abs(np.asarray(spec.cdf(x)) - u))) < 1e-12
    assert np.asarray(spec.inverse_cdf(rng.random(0))).shape == (0,)


def test_sample_moments_within_tolerance(rng):
    # smoothstep mean 1/2, var 1/20; n=200000 keeps 4 sigma tiny
    x = np.asarray(pr.smoothstep_density().inverse_cdf(rng.random(200_000)))
    se = math.sqrt(0.05 / 200_000)
    assert abs(x.mean() - 0.5) < 4 * se
    assert np.all((x >= 0) & (x <= 1))


def test_tabulated_density_reproduces_smoothstep():
    grid = np.linspace(0.0, 1.0, 201)
    s = pr.smoothstep_density()
    tab = pr.tabulated_density(grid, np.asarray(s.pdf(grid)), name="tab-smooth")
    xs = np.linspace(0.0, 1.0, 97)
    assert float(np.max(np.abs(np.asarray(tab.cdf(xs)) - np.asarray(s.cdf(xs))))) < 1e-6
    us = np.linspace(0.01, 0.99, 37)
    assert float(np.max(np.abs(np.asarray(tab.cdf(tab.inverse_cdf(us))) - us))) < 1e-8


def test_tabulated_inverse_accepts_empty_input():
    tab = pr.tabulated_density(np.linspace(0, 1, 51), np.ones(51))
    x = tab.inverse_cdf(np.empty(0))
    assert x.shape == (0,) and x.dtype == float


def test_tabulated_rejects_bad_grids():
    with pytest.raises(pr.BadParams):
        pr.tabulated_density([0.5, 1.0, 1.5], [1, 1, 1])  # must start at 0
    with pytest.raises(pr.BadParams):
        pr.tabulated_density([0.0, 0.5, 0.5], [1, 1, 1])
    with pytest.raises(pr.BadParams):
        pr.tabulated_density([0.0, 0.5, 1.0], [1, -1, 1])
    with pytest.raises(pr.BadParams):
        pr.tabulated_density([0.0, 0.5, 1.0], [0, 0, 0])


@pytest.mark.parametrize("column", ["x", "f"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabulated_rejects_non_finite_values_by_column_and_row(column, bad):
    table = {"x": [0.0, 0.5, 1.0, 1.5], "f": [1.0, 2.0, 1.0, 0.5]}
    table[column][2] = bad
    with pytest.raises(pr.BadParams, match=rf"tabulated {column} at row 2 is {bad!r}, not finite"):
        pr.tabulated_density(table["x"], table["f"])


def _random_table(rng):
    """A table of 3 to 40 nodes, on a uniform or an uneven grid, with
    magnitudes from 1e-5 to 1e5 and a stretch of zeros in most of them."""
    n = int(rng.integers(3, 41))
    steps = rng.uniform(0.05, 1.0, n - 1) if rng.random() < 0.5 else np.full(n - 1, rng.uniform(0.05, 1.0))
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    fs = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-5, 5)
    if rng.random() < 0.7:
        start = int(rng.integers(0, n))
        fs[start:start + int(rng.integers(1, n))] = 0.0
    if fs.max() == 0:
        fs[-1] = 1.0
    return xs, fs


def test_tabulated_density_matches_scipy_pchip(rng):
    from scipy.interpolate import PchipInterpolator

    for _ in range(300):
        xs, fs = _random_table(rng)
        tab = pr.tabulated_density(xs, fs)
        shape = PchipInterpolator(xs, fs)
        anti = shape.antiderivative()
        total = anti(xs[-1])
        at = np.concatenate([xs, rng.uniform(0.0, xs[-1], 200)])
        want_pdf = np.maximum(shape(at) / total, 0.0)
        assert np.max(np.abs(tab.pdf(at) - want_pdf)) <= 1e-13 * max(1.0, want_pdf.max())
        assert np.max(np.abs(tab.cdf(at) - np.clip(anti(at) / total, 0.0, 1.0))) <= 1e-13


def test_random_tables_satisfy_the_density_contract(rng):
    for _ in range(20):
        xs, fs = _random_table(rng)
        verify_density(pr.tabulated_density(xs, fs), cuts=xs[1:-1])


def test_tiny_and_subnormal_tables_build_without_overflow():
    plain = pr.tabulated_density([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])
    at = np.linspace(0.0, 1.0, 101)
    for top in (1e-300, 1e-320, 5e-324):
        tiny = pr.tabulated_density([0.0, 0.5, 1.0], [0.0, 0.0, top])
        assert np.max(np.abs(tiny.cdf(at) - plain.cdf(at))) <= 1e-15
        assert np.max(np.abs(tiny.cdf(tiny.inverse_cdf(at)) - at)) <= 1e-9


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "density.csv"
    rows = ["x,f"] + [f"{x},{6*x*(1-x)}" for x in np.linspace(0, 1, 101)]
    path.write_text("\n".join(rows) + "\n")
    spec = pr.tabulated_from_csv(path)
    assert spec.bounded and spec.support_upper == 1.0
    assert float(spec.cdf(0.5)) == pytest.approx(0.5, abs=1e-6)
