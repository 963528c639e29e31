"""Grid discretization, the exact recursion, and O(1/m) convergence.

Derived values were confirmed against the exhaustive discrete oracle before
freezing (see test_oracle.py for the oracle's own pinning).
"""

import functools
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

import partial_records as pr


def _masses(model):
    """A model's atom masses and strictly-below masses as Fractions."""
    return (
        [Fraction(w, model.scale) for w in model.weights],
        [Fraction(b, model.scale) for b in model.below],
    )


@functools.cache
def _float_sampled():
    """Densities with no polynomial pieces: the discrete layer reads their
    float samples, each an exact dyadic rational."""
    grid = np.linspace(0.0, 1.0, 51)
    return (
        pr.power_density(Fraction(3, 2)),
        pr.tabulated_density(grid, 6 * grid * (1 - grid), name="tab-smoothstep"),
        pr.tabulated_density(grid, np.ones(51), name="tab-flat"),  # uniform atoms
    )


def _sampled_grid(density, m):
    """The float samples f(l/m) and F(l/m) as Fractions, F(1 + 1/m) = 1 appended."""
    xs = [l / m for l in range(m + 1)]
    pdf = [Fraction(float(density.pdf(x))) for x in xs]
    return pdf, [Fraction(float(density.cdf(x))) for x in xs] + [Fraction(1)]


def test_discretize_uniform_masses():
    model = pr.discretize(pr.uniform01(), 4)
    assert model.weights == (1,) * 5 and model.scale == 5
    assert model.atom_count == 5
    masses, below = _masses(model)
    assert masses == [Fraction(1, 5)] * 5
    assert below[0] == 0
    assert below[3] == Fraction(3, 5)
    assert below[5] == 1


def test_discretize_triangular_masses():
    model = pr.discretize(pr.triangular_density(), 4)
    # f at 0, 1/4, 1/2, 3/4, 1 is 0, 1, 2, 1, 0 before normalization
    assert _masses(model)[0] == [0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 0]


def test_discretize_float_samples_are_dyadic_weights():
    tab = _float_sampled()[1]
    model = pr.discretize(tab, 6)
    samples, _ = _sampled_grid(tab, 6)
    # one power of two carries every sample to its integer weight, and no
    # smaller one does: the weights are the samples in lowest terms
    den = Fraction(model.weights[1]) / samples[1]
    assert den.denominator == 1 and den.numerator.bit_count() == 1
    assert model.weights == tuple(v * den for v in samples)
    assert all(type(w) is int for w in model.weights)
    assert math.gcd(den.numerator, *model.weights) == 1
    assert model.below == tuple(accumulate(model.weights, initial=0))
    assert model.below[-1] == model.scale == sum(model.weights)


def test_discretize_rejects_non_finite_or_negative_samples():
    def spec(pdf, cdf):
        return pr.DensitySpec(name="bad", support_upper=1.0, pdf=pdf, cdf=cdf,
                              inverse_cdf=lambda u: u)

    # f(x) = 1/(2 sqrt(x)) is a density, but its sample at 0 is infinite
    inverse_sqrt = spec(lambda x: 0.5 / math.sqrt(x) if x > 0 else math.inf, math.sqrt)
    with pytest.raises(pr.BadParams, match=r"pdf at grid index l=0 is inf"):
        pr.discretize(inverse_sqrt, 4)
    negative = spec(lambda x: 1.5 - 2 * x, lambda x: x)
    with pytest.raises(pr.BadParams, match=r"pdf at grid index l=4 is -0.5"):
        pr.discretize(negative, 4)
    undefined = spec(lambda x: 1.0, lambda x: math.nan if x == 0.5 else x)
    with pytest.raises(pr.BadParams, match=r"cdf at grid index l=2 is nan"):
        pr.discretize(undefined, 4)


def test_discretize_rejections():
    with pytest.raises(pr.ZeroMass):
        pr.discretize(pr.smoothstep_density(), 1)  # f(0) = f(1) = 0
    with pytest.raises(pr.BadParams):
        pr.discretize(pr.uniform01(), 0)
    unbounded = pr.DensitySpec(
        name="expish",
        support_upper=float("inf"),
        pdf=lambda x: np.exp(-np.asarray(x, dtype=float)),
        cdf=lambda x: 1.0 - np.exp(-np.asarray(x, dtype=float)),
        inverse_cdf=lambda u: -np.log1p(-np.asarray(u, dtype=float)),
    )
    with pytest.raises(pr.UnboundedSupport):
        pr.discretize(unbounded, 4)


def test_single_event_uniform_closed_form():
    # frozen after exhaustive enumeration: P_m = m / (2(m+1)) for c = 2
    plan = pr.total_comparison_plan(3)
    for m in (2, 10, 64):
        model = pr.discretize(pr.uniform01(), m)
        assert pr.joint_record_prob_discrete(plan, (2,), model) == Fraction(m, 2 * (m + 1))
    assert pr.joint_record_prob_discrete(
        plan, (2,), pr.discretize(pr.uniform01(), 2)
    ) == Fraction(1, 3)


def test_joint_recursion_matches_exhaustive_oracle(total5):
    densities = (pr.uniform01(), pr.power_density(2), pr.smoothstep_density())
    for density in densities:
        for m in (2, 5):
            if density.name == "smoothstep" and m == 1:
                continue
            model = pr.discretize(density, m)
            for positions in ((2,), (3,), (2, 3), (2, 4), (2, 3, 4)):
                dp = pr.joint_record_prob_discrete(total5, positions, model)
                oracle = pr.exhaustive_discrete_joint(total5, positions, model)
                assert dp == oracle, (density.name, m, positions)


def test_uniform_m2_joint_frozen_value():
    plan = pr.total_comparison_plan(3)
    model = pr.discretize(pr.uniform01(), 2)
    assert pr.joint_record_prob_discrete(plan, (2, 3), model) == Fraction(1, 27)


def test_smoothstep_m8_frozen_value(total5):
    model = pr.discretize(pr.smoothstep_density(), 8)
    assert pr.joint_record_prob_discrete(total5, (2, 3), model) == Fraction(14479, 148176)


def test_lemma_uniform_closed_forms():
    # frozen closed forms: dev(cum_vs_cdf) = 1/(m+1), dev(normalization) = 1/m,
    # theta at r=1 is exact on the grid
    for m in (8, 16, 128):
        checks = pr.lemma_checks(pr.uniform01(), m, r=1)
        assert checks["cum_vs_cdf"].deviation == Fraction(1, m + 1)
        assert checks["weighted_power_sum"].deviation == Fraction(1, m + 1)
        assert checks["normalization"].deviation == Fraction(1, m)
        assert checks["riemann_theta"].deviation == 0


def test_lemma_smoothstep_normalization_is_inverse_square():
    # sum f(l/m)/m = 1 - 1/m^2 exactly, so the doubling ratio is exactly 1/4
    for m in (8, 32):
        checks = pr.lemma_checks(pr.smoothstep_density(), m, r=1)
        assert checks["normalization"].deviation == Fraction(1, m * m)


def test_lemma_deviations_scale_like_one_over_m(three_densities):
    for density in three_densities:
        for r in (1, 2):
            small = pr.lemma_checks(density, 32, r=r)
            big = pr.lemma_checks(density, 64, r=r)
            for name in small:
                a, b = small[name].deviation, big[name].deviation
                if float(a) < 1e-14 and float(b) < 1e-14:
                    continue
                assert Fraction(1, 4) <= Fraction(b) / Fraction(a) <= Fraction(9, 10)


def test_error_sweep_uniform_closed_form():
    plan = pr.total_comparison_plan(3)
    rows = pr.error_sweep(plan, (2,), pr.uniform01(), (8, 16, 32, 64))
    for row in rows:
        assert row.abs_error == Fraction(1, 2 * (row.m + 1))
        assert Fraction(2, 5) < row.scaled < Fraction(1, 2)


def test_error_sweep_decreases_and_stays_scaled(total5):
    rows = pr.error_sweep(total5, (2, 3), pr.smoothstep_density(), (8, 16, 32, 64, 128))
    errors = [float(r.abs_error) for r in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    scaled = [float(r.scaled) for r in rows]
    assert max(scaled) / min(scaled) < 4.0


def test_bounded_profile_and_exponent_report(total5):
    s = pr.smoothstep_density()
    model = pr.discretize(s, 256)
    cdf = [float(s.cdf(l / 256)) for l in range(model.atom_count)] + [1.0]

    def deviation(plan, exponent):
        """Max distance of the bounded profile from prod(1/c) F(l/m)^exponent."""
        profile = pr.bounded_profile(plan, (2, 3), model)
        base = float(pr.joint_record_prob(plan, (2, 3)))
        return max(abs(float(b) - base * f**exponent) for b, f in zip(profile, cdf))

    profile = pr.bounded_profile(total5, (2, 3), model)
    assert profile[0] == 0
    assert profile[-1] == pr.joint_record_prob_discrete(total5, (2, 3), model)
    assert all(b >= a for a, b in zip(profile, profile[1:]))
    assert deviation(total5, 3) < 0.02
    # on a chained plan the law's exponent c(n_3) = 3 converges, and the raw
    # time index n_3 = 9, computed here as a foil, does not
    chained = pr.chained_plan([1, 4, 9])
    assert deviation(chained, 3) < 0.02
    assert deviation(chained, 9) > 0.05


# Reference formulas: one Fraction per grid value and per operation, so the
# integer-numerator arithmetic of the library is checked against the plain
# definitions of each lemma relation, theta and the forward recursion.


def _ramp(cap):
    """pdf and cdf of truncated_ramp(cap): f proportional to min(x, cap)."""
    z = cap - cap * cap / 2

    def cdf(x):
        return (x * x / 2 if x <= cap else cap * cap / 2 + cap * (x - cap)) / z

    return lambda x: min(x, cap) / z, cdf


# hand-written closed forms (pdf, cdf) on [0, 1], independent of the pieces
# the library integrates; truncated_ramp(1/3) has its kink off every dyadic grid
CLOSED_FORMS = {
    "uniform01": (lambda x: Fraction(1), lambda x: x),
    "power(2)": (lambda x: 2 * x, lambda x: x * x),
    "smoothstep": (lambda x: 6 * x * (1 - x), lambda x: x * x * (3 - 2 * x)),
    "triangular": (
        lambda x: 4 * x if x <= Fraction(1, 2) else 4 * (1 - x),
        lambda x: 2 * x * x if x <= Fraction(1, 2) else 1 - 2 * (1 - x) ** 2,
    ),
    "truncated_ramp": _ramp(Fraction(1, 2)),
    "truncated_ramp(1/3)": _ramp(Fraction(1, 3)),
}
EXACT_BUILTINS = tuple(CLOSED_FORMS)


def _reference_prefix(values):
    return list(accumulate(values, initial=Fraction(0)))


def _reference_grid(name, m):
    pdf, cdf = CLOSED_FORMS[name]
    xs = [Fraction(l, m) for l in range(m + 1)]
    return [pdf(x) for x in xs], [cdf(x) for x in xs] + [Fraction(1)]


def _reference_theta(pdf, cdf, m, r):
    return [s / m for s in _reference_prefix([c ** (r - 1) * f for f, c in zip(pdf, cdf)])]


def _reference_lemma(pdf, cdf, m, r):
    total = sum(pdf, Fraction(0))
    masses = [v / total for v in pdf]
    below = _reference_prefix(masses)
    atoms = range(len(pdf))
    target = [cdf[l] ** r / r for l in atoms]
    theta = _reference_theta(pdf, cdf, m, r)
    weighted = _reference_prefix([g ** (r - 1) * v for g, v in zip(below, masses)])

    def worst(deviations):
        arg = max(atoms, key=deviations.__getitem__)  # the first maximal l
        return deviations[arg], arg

    return {
        "normalization": (abs(total / m - 1), len(pdf)),
        "riemann_theta": worst([abs(theta[l] - target[l]) for l in atoms]),
        "weighted_power_sum": worst([abs(weighted[l] - target[l]) for l in atoms]),
        "cum_vs_cdf": worst([abs(below[l] - cdf[l]) for l in atoms]),
    }


def _reference_point_masses(plan, positions, model):
    masses, below = _masses(model)
    point, level, prev = None, None, 0
    for t in positions:
        gap = plan.cardinality(t) - prev - 1
        point = [below[l] ** gap * masses[l] for l in range(model.atom_count)]
        if level is not None:
            point = [p * b for p, b in zip(point, level)]
        level = _reference_prefix(point)
        prev = plan.cardinality(t)
    return point


def test_lemma_and_theta_equal_fraction_reference():
    for name in EXACT_BUILTINS:
        density = pr.builtin(name)
        for m in (2, 3, 8, 64):
            pdf, cdf = _reference_grid(name, m)
            pieces = density.pieces
            for polys, values in ((pieces.pdf, pdf), (pieces.cdf, cdf[:-1])):
                # integer numerators over the least common denominator
                den = math.lcm(*(v.denominator for v in values))
                assert pieces.grid(polys, m, m + 1) == (tuple(v * den for v in values), den)
            _assert_lemma_and_theta(density, m, pdf, cdf)
    for density in _float_sampled():
        for m in (2, 3, 8, 64):
            _assert_lemma_and_theta(density, m, *_sampled_grid(density, m))


def _assert_lemma_and_theta(density, m, pdf, cdf):
    """The model and lemma_checks, whose riemann_theta side is theta, against
    the reference on the grid values pdf and cdf."""
    masses = [v / sum(pdf) for v in pdf]
    assert _masses(pr.discretize(density, m)) == (masses, _reference_prefix(masses))
    for r in (1, 2, 3):
        got = pr.lemma_checks(density, m, r)
        assert {k: (v.deviation, v.argmax_l) for k, v in got.items()} == _reference_lemma(
            pdf, cdf, m, r), (density.name, m, r)


def test_recursion_equals_reference_on_random_plans():
    rng = np.random.default_rng(20261018)
    densities = [pr.builtin(name) for name in EXACT_BUILTINS] + list(_float_sampled())
    for i in range(9 * len(densities)):
        plan = pr.as_validated(pr.random_compatible_plan(rng, max_index=8))
        count = int(rng.integers(1, plan.length + 1))
        positions = tuple(sorted(int(t) + 1 for t in rng.choice(plan.length, count, replace=False)))
        density = densities[i % len(densities)]
        model = pr.discretize(density, int(rng.choice([2, 3, 5, 8])))
        point = _reference_point_masses(plan, positions, model)
        assert pr.bounded_profile(plan, positions, model) == tuple(_reference_prefix(point))
        joint = pr.joint_record_prob_discrete(plan, positions, model)
        assert joint == sum(point, Fraction(0))
        assert type(joint) is Fraction


# error_bound against its formula written out term by term:
# P (g/2) sum_{t: c_t >= 2} c_t prod_{s>t} c_s/(c_s - 1), P = prod 1/c_t


def _reference_bound(plan, positions, g):
    cards = [plan.cardinality(t) for t in positions]
    terms = [c * math.prod(Fraction(s, s - 1) for s in cards[i + 1:])
             for i, c in enumerate(cards) if c >= 2]
    return sum(terms, Fraction(0)) * g / 2 / math.prod(cards)


def test_error_bound_holds_exactly_on_random_plans():
    rng = np.random.default_rng(20261020)
    densities = [pr.builtin(name) for name in EXACT_BUILTINS] + list(_float_sampled())
    models = [
        pr.discretize(density, m)
        for density in densities
        for m in (1, 2, 3, 5, 8, 64)
        # f(0) = f(1) = 0: the m = 1 grid has no mass
        if not (m == 1 and density.name in ("smoothstep", "triangular", "tab-smoothstep"))
    ]
    for _ in range(30):
        plan = pr.as_validated(pr.random_compatible_plan(rng, max_index=8))
        count = int(rng.integers(1, plan.length + 1))
        positions = tuple(sorted(int(t) + 1 for t in rng.choice(plan.length, count, replace=False)))
        target = pr.joint_record_prob(plan, positions)
        for model in models:
            discrete = sum(_reference_point_masses(plan, positions, model), Fraction(0))
            bound = pr.error_bound(plan, positions, model)
            assert bound == _reference_bound(plan, positions, max(_masses(model)[0]))
            assert 0 <= target - discrete <= bound, (model.density_name, model.m, positions)


def test_error_bound_holds_exactly_on_float_sampled_models():
    plan = pr.total_comparison_plan(6)
    for density in _float_sampled():
        for m in (2, 3, 8, 64):
            model = pr.discretize(density, m)
            for positions in ((1,), (2,), (2, 3), (3, 6), (1, 2, 3, 4, 5, 6)):
                discrete = pr.joint_record_prob_discrete(plan, positions, model)
                bound = pr.error_bound(plan, positions, model)
                assert bound == _reference_bound(plan, positions, max(_masses(model)[0]))
                assert 0 <= pr.joint_record_prob(plan, positions) - discrete <= bound
            # position 1 is always a record: P_m = 1 and the bound is 0
            assert pr.joint_record_prob_discrete(plan, (1,), model) == 1
            assert pr.error_bound(plan, (1,), model) == 0
    # uniform atoms attain the bound at c = 2, as uniform01 does
    flat = pr.discretize(_float_sampled()[2], 64)
    gap = Fraction(1, 2) - pr.joint_record_prob_discrete(plan, (2,), flat)
    assert gap == pr.error_bound(plan, (2,), flat) == Fraction(1, 130)


def test_worst_case_dyadic_denominators_stay_exact():
    # samples of 1e-300, or a subnormal 5e-324, put the weights over about
    # 2^1075: the longest integers the float-sampled grids can produce
    grid = np.linspace(0.0, 1.0, 33)  # dyadic nodes, so every m below samples them
    subnormal = np.ones(33)
    subnormal[16] = 5e-324
    densities = (
        pr.tabulated_density(grid, np.where(grid < 0.5, 1e-300, 1.0), name="tab-tiny"),
        pr.tabulated_density(grid, subnormal, name="tab-subnormal"),
    )
    plan = pr.total_comparison_plan(50)
    for density in densities:
        for m in (8, 64):
            assert pr.discretize(density, m).scale.bit_length() > 1040
            _assert_lemma_and_theta(density, m, *_sampled_grid(density, m))
        for positions in ((1,), (2, 3), (3, 6), (10, 50)):
            for row in pr.error_sweep(plan, positions, density, (8, 64, 1024)):
                assert type(row.discrete) is Fraction and type(row.bound) is Fraction
                assert row.abs_error == row.continuous - row.discrete
                assert 0 <= row.abs_error <= row.bound, (density.name, row.m, positions)


def test_error_bound_is_attained_by_uniform01_at_c_2():
    plan = pr.total_comparison_plan(3)
    for m in (1, 2, 8, 64):
        model = pr.discretize(pr.uniform01(), m)
        gap = Fraction(1, 2) - pr.joint_record_prob_discrete(plan, (2,), model)
        assert gap == pr.error_bound(plan, (2,), model) == Fraction(1, 2 * (m + 1))
    assert gap == Fraction(1, 130)


def test_error_bound_needs_its_product_factor():
    # (g/2) sum c_t, without prod c_s/(c_s - 1), fails on consecutive positions
    plan = pr.total_comparison_plan(6)
    positions = (1, 2, 3, 4, 5, 6)
    model = pr.discretize(pr.uniform01(), 64)
    gap = Fraction(1, 720) - pr.joint_record_prob_discrete(plan, positions, model)
    naive = Fraction(1, 720) * Fraction(1, 65) / 2 * sum(range(2, 7))
    assert round(float(gap / naive), 3) == 1.374
    assert gap <= pr.error_bound(plan, positions, model)
