"""The test-only SciPy references themselves: the density contract checker
and the recursion quadrature."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr
from reference import quadrature_bounded, verify_density


def test_verify_density_accepts_a_cusp_at_zero():
    # f(x) = 1.5 sqrt(x) has an unbounded derivative at 0
    verify_density(pr.builtin("power(3/2)"))


def test_verify_density_rejects_a_pdf_integrating_to_two():
    u = pr.uniform01()
    doubled = dataclasses.replace(
        u, name="doubled", pdf=lambda x: 2.0 * np.asarray(u.pdf(x)), pieces=None
    )
    with pytest.raises(ValueError, match="integrates to"):
        verify_density(doubled)


def test_quadrature_recovers_base_closed_form(total5):
    # single event with cutoff: integral of F^(c-1) f = F(x)^c / c
    u = pr.uniform01()
    for t, x in ((2, 0.5), (3, 0.9), (5, 0.3)):
        c = total5.cardinality(t)
        got = quadrature_bounded(total5, (t,), x, u)
        assert got == pytest.approx(x**c / c, abs=1e-9)


def test_quadrature_matches_product_times_power(partial_plan):
    # independent check of the bounded closed form on a non-total plan
    s = pr.smoothstep_density()
    fx = float(s.cdf(0.7))
    got = quadrature_bounded(partial_plan, (1, 2), 0.7, s)
    want = float(Fraction(1, 8)) * fx**4  # exponent c(n_2) = 4
    assert got == pytest.approx(want, abs=1e-9)
    # a case where cardinality and time index disagree: chained (1,3,5)
    chained = pr.chained_plan([1, 3, 5])
    got = quadrature_bounded(chained, (2, 3), 0.7, s)
    by_card = float(Fraction(1, 6)) * fx**3
    by_time = float(Fraction(1, 6)) * fx**5
    assert got == pytest.approx(by_card, abs=1e-9)
    assert abs(got - by_time) > 1e-3


def test_quadrature_rejects_nonpositive_cutoff(total5):
    with pytest.raises(ValueError, match="cutoff must be positive"):
        quadrature_bounded(total5, (2,), 0.0, pr.uniform01())


def test_quadrature_needs_room_for_one_refinement():
    # the first grid has 1024 cells; convergence compares it with 2048
    plan = pr.total_comparison_plan(3)
    for max_cells in (512, 2047):
        with pytest.raises(pr.BadParams):
            quadrature_bounded(plan, (2,), 0.5, pr.uniform01(), max_cells=max_cells)
    got = quadrature_bounded(plan, (2,), 0.5, pr.uniform01(), max_cells=2048)
    assert got == pytest.approx(0.125, abs=1e-12)
