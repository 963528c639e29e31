"""Built-in density families, the tabulated constructor, and sampling."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr


ALL_BUILTINS = ("uniform01", "power(2)", "power(3)", "smoothstep", "triangular", "truncated_ramp(1/2)")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_every_builtin_satisfies_the_density_contract(name):
    pr.verify_density(pr.builtin(name))


def test_verify_density_accepts_a_cusp_at_zero():
    # f(x) = 1.5 sqrt(x) has an unbounded derivative at 0
    pr.verify_density(pr.builtin("power(3/2)"))


def test_verify_density_rejects_a_pdf_integrating_to_two():
    u = pr.uniform01()
    doubled = dataclasses.replace(
        u, name="doubled", pdf=lambda x: 2.0 * np.asarray(u.pdf(x)),
        pdf_fraction=None, cdf_fraction=None,
    )
    with pytest.raises(ValueError, match="integrates to"):
        pr.verify_density(doubled)


@pytest.mark.parametrize("hook", ["pdf_fraction", "cdf_fraction"])
def test_fraction_hooks_come_in_pairs(hook):
    with pytest.raises(pr.BadParams):
        dataclasses.replace(pr.uniform01(), **{hook: None})


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_fraction_hooks_agree_with_float_path(name):
    spec = pr.builtin(name)
    for k in range(0, 9):
        x = Fraction(k, 8)
        assert abs(float(spec.pdf_fraction(x)) - float(spec.pdf(float(x)))) < 1e-12
        assert abs(float(spec.cdf_fraction(x)) - float(spec.cdf(float(x)))) < 1e-12


def test_smoothstep_values():
    s = pr.smoothstep_density()
    assert s.cdf_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert s.pdf_fraction(Fraction(1, 2)) == Fraction(3, 2)
    assert float(s.inverse_cdf(0.5)) == pytest.approx(0.5, abs=1e-14)
    assert s.smoothness_bound == 6.0


def test_power_cdf_and_inverse():
    p2 = pr.power_density(2)
    assert p2.cdf_fraction(Fraction(3, 4)) == Fraction(9, 16)
    assert float(p2.inverse_cdf(0.25)) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(pr.BadParams):
        pr.power_density(0.5)
    # non-integer exponents have no rational hooks and unbounded f' near 0
    p15 = pr.power_density(1.5)
    assert p15.pdf_fraction is None
    assert p15.smoothness_bound is None


def test_truncated_ramp_piecewise_forms():
    ramp = pr.truncated_ramp_density(Fraction(1, 2))
    # Z = 1/2 - 1/8 = 3/8
    assert ramp.cdf_fraction(Fraction(1, 2)) == Fraction(1, 3)
    assert ramp.cdf_fraction(Fraction(3, 4)) == Fraction(1, 3) + Fraction(1, 2) * Fraction(1, 4) / Fraction(3, 8)
    assert ramp.pdf_fraction(Fraction(3, 4)) == Fraction(1, 2) / Fraction(3, 8)
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


def test_builtin_parses_fraction_and_decimal_args():
    assert pr.builtin("truncated_ramp(0.5)").name == "truncated_ramp(1/2)"
    assert pr.builtin("power(2)").cdf_fraction(Fraction(1, 2)) == Fraction(1, 4)


def test_sampling_is_inverse_transform(rng):
    spec = pr.smoothstep_density()
    raw = np.random.default_rng(99).random(1000)
    expected = np.asarray(spec.inverse_cdf(raw))
    got = pr.sample(spec, np.random.default_rng(99), 1000)
    assert np.array_equal(got, expected)
    assert pr.sample(spec, rng, 0).shape == (0,)


def test_sample_moments_within_tolerance(rng):
    # smoothstep mean 1/2, var 1/20; n=200000 keeps 4 sigma tiny
    x = pr.sample(pr.smoothstep_density(), rng, 200_000)
    se = math.sqrt(0.05 / 200_000)
    assert abs(x.mean() - 0.5) < 4 * se
    assert np.all((x >= 0) & (x <= 1))


def test_tabulated_density_reproduces_smoothstep():
    grid = np.linspace(0.0, 1.0, 201)
    s = pr.smoothstep_density()
    tab = pr.tabulated_density(grid, np.asarray(s.pdf(grid)), name="tab-smooth")
    assert tab.smoothness_is_estimate
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


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "density.csv"
    rows = ["x,f"] + [f"{x},{6*x*(1-x)}" for x in np.linspace(0, 1, 101)]
    path.write_text("\n".join(rows) + "\n")
    spec = pr.tabulated_from_csv(path)
    assert spec.bounded and spec.support_upper == 1.0
    assert float(spec.cdf(0.5)) == pytest.approx(0.5, abs=1e-6)
