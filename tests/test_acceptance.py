"""Acceptance suite: eight end-to-end gates, one printed line each.

Every gate compares library results against an independent reference
(permutation enumeration, exhaustive discrete enumeration, closed forms, or
fixed-seed Monte Carlo at 4 sigma / DKW radii) at pinned tolerances.  Gates
print their verdict so a plain `pytest -v -s tests/test_acceptance.py` reads
as a checklist.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import partial_records as pr


def _verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. product formula vs permutation oracle, exact equality

def test_criterion_1_product_formula_vs_permutation_oracle():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    plans = 0
    subsets = 0
    worst = None
    while plans < 500:
        raw = pr.random_compatible_plan(rng, max_index=8)
        vplan = pr.validate(raw)
        assert isinstance(vplan, pr.ValidatedPlan)
        plans += 1
        table = pr.exact_joint_table(vplan)
        for subset, enumerated in table.items():
            subsets += 1
            target = pr.joint_record_prob(vplan, subset)
            if enumerated != target:
                worst = (vplan.indices, subset, enumerated, target)
                break
        if worst:
            break
    elapsed = time.monotonic() - started
    ok = worst is None and elapsed < 60.0
    _verdict(
        1,
        "product formula vs permutation oracle",
        ok,
        f"{plans} random plans, {subsets} subsets, exact equality, {elapsed:.1f}s"
        + (f", first mismatch {worst}" if worst else ""),
    )


# ---------------------------------------------------------------------------
# 2. distribution-free odds on a chained plan, three densities, 4 sigma

def test_criterion_2_distribution_free_frequencies():
    plan = pr.chained_plan([1, 3, 5])
    n = 1_000_000
    failures = []
    for seed, density in zip(
        (2101, 2102, 2103),
        (pr.uniform01(), pr.power_density(2), pr.smoothstep_density()),
    ):
        cfg = pr.SimConfig(
            plan=plan, density=density, replications=n, master_seed=seed,
            joint_positions=(1, 2, 3),
        )
        result = pr.run(cfg)
        for t in (1, 2, 3):
            p = 1.0 / plan.cardinality(t)
            radius = 4.0 * math.sqrt(p * (1.0 - p) / n)
            gap = abs(result.event_frequency(t) - p)
            if gap > radius:
                failures.append((density.name, t, gap, radius))
        target = float(pr.joint_record_prob(plan, (1, 2, 3)))
        radius = 4.0 * math.sqrt(target * (1.0 - target) / n)
        gap = abs(result.joint_frequency - target)
        if gap > radius:
            failures.append((density.name, "joint", gap, radius))
    _verdict(
        2,
        "distribution-free odds at 4 sigma",
        not failures,
        f"chained (1,3,5), n={n}, 3 densities, per-position and joint"
        + (f"; misses: {failures}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 3. count moments at j=100 and the strong-law ratio at j=100000

def test_criterion_3_count_moments_and_strong_law():
    plan = pr.total_comparison_plan(100)
    n = 100_000
    result = pr.run(
        pr.SimConfig(plan=plan, density=pr.power_density(2), replications=n, master_seed=31)
    )
    stats = pr.record_count_moments(plan, 100)
    mean_radius = 4.0 * math.sqrt(stats.variance_float / n)
    mean_ok = abs(result.count_mean - stats.mean_float) <= mean_radius

    # sampling error of the sample variance via the exact fourth cumulant of
    # the independent-Bernoulli sum: var(s^2) ~ (k4 + 2 sigma^4) / n
    k4 = float(
        sum(
            (
                Fraction(1, c) * (1 - Fraction(1, c))
                * (1 - 6 * Fraction(1, c) * (1 - Fraction(1, c)))
                for c in plan.cardinalities
            ),
            Fraction(0),
        )
    )
    var_radius = 4.0 * math.sqrt((k4 + 2.0 * stats.variance_float**2) / n)
    var_ok = abs(result.count_variance - stats.variance_float) <= var_radius

    big = pr.total_comparison_plan(100_000)
    big_run = pr.run(
        pr.SimConfig(
            plan=big, density=pr.uniform01(), replications=200, master_seed=32,
            checkpoints=(100_000,),
        )
    )
    (point,) = pr.strong_law_trajectory(big_run)
    ratio_ok = abs(point.ratio - 1.0) < 0.08

    ok = mean_ok and var_ok and ratio_ok
    _verdict(
        3,
        "count moments and strong law",
        ok,
        f"j=100 mean gap {abs(result.count_mean - stats.mean_float):.4f} (radius {mean_radius:.4f}), "
        f"variance gap {abs(result.count_variance - stats.variance_float):.4f} (radius {var_radius:.4f}), "
        f"j=100000 ratio {point.ratio:.5f} within 0.08",
    )


# ---------------------------------------------------------------------------
# 4. second-record value law: series vs ecdf, and exponent discrimination

def test_criterion_4_record_value_law_and_exponent():
    t_max = 200
    plan = pr.total_comparison_plan(1000)
    n = 400_000
    quantiles = (0.1, 0.25, 0.5, 0.75, 0.9)
    worst_fit = 0.0
    widths = []
    pmf = pr.record_time_pmf(plan, 2, t_max)
    for seed, density in zip(
        (4101, 4102, 4103),
        (pr.uniform01(), pr.power_density(2), pr.smoothstep_density()),
    ):
        result = pr.run(
            pr.SimConfig(
                plan=plan, density=density, replications=n, master_seed=seed,
                horizon=t_max, r_max=2,
            )
        )
        grid = [float(density.inverse_cdf(q)) for q in quantiles]
        curve = pr.record_value_ecdf(result, 2, grid)
        for value, interval in zip(curve.ecdf, pr.record_value_cdf(pmf, curve.grid, density)):
            widths.append(interval.width)
            worst_fit = max(worst_fit, abs(value - interval.lower))
    series_ok = worst_fit <= 0.005 and max(widths) < 1e-4

    # chained plan where c(n_t) = t but n_t = 2t-1: the law's exponent c(n_t)
    # fits, and the raw time index n_t, computed here as a foil, does not
    chained = pr.chained_plan(range(1, 80, 2))
    density = pr.uniform01()
    n_big = 1_000_000
    result = pr.run(
        pr.SimConfig(plan=chained, density=density, replications=n_big, master_seed=4104, r_max=2)
    )
    grid = [0.2, 0.35, 0.5, 0.65, 0.8]
    curve = pr.record_value_ecdf(result, 2, grid)
    pmf = pr.record_time_pmf(chained, 2)
    fit_card = max(
        abs(v - iv.lower)
        for v, iv in zip(curve.ecdf, pr.record_value_cdf(pmf, curve.grid, density))
    )
    fit_time = max(
        abs(v - math.fsum(float(e.probability) * float(density.cdf(x)) ** e.time_index
                          for e in pmf.entries))
        for x, v in zip(curve.grid, curve.ecdf)
    )
    discriminated = fit_card <= 0.005 and fit_time > 0.02

    ok = series_ok and discriminated
    _verdict(
        4,
        "record-value series and exponent discrimination",
        ok,
        f"truncated series (t_max={t_max}) worst gap {worst_fit:.5f} <= 0.005, "
        f"bracket width {max(widths):.2e} < 1e-4; chained-40 fit: cardinality "
        f"{fit_card:.5f} <= 0.005, time_index {fit_time:.5f} > 0.02",
    )


# ---------------------------------------------------------------------------
# 5. discrete recursion vs exhaustive enumeration, exact equality

def _small_plan_catalog(max_index=4, max_positions=3):
    catalog = []
    index_pool = range(1, max_index + 1)
    for size in range(1, max_positions + 1):
        for indices in itertools.combinations(index_pool, size):
            partial = [(tuple(), frozenset())]
            for t, n in enumerate(indices, start=1):
                grown = []
                for sets, last in partial:
                    if t == 1:
                        base = frozenset()
                    else:
                        base = last | {indices[t - 2]}
                    pool = sorted(set(range(1, n)) - base)
                    for extra_size in range(len(pool) + 1):
                        for extra in itertools.combinations(pool, extra_size):
                            cur = base | set(extra)
                            grown.append((sets + (cur,), cur))
                partial = grown
            for sets, _last in partial:
                catalog.append(pr.ComparisonPlan(indices, sets))
    return catalog


def test_criterion_5_discrete_recursion_vs_exhaustive():
    catalog = _small_plan_catalog()
    densities = (pr.uniform01(), pr.power_density(2), pr.smoothstep_density())
    checked = 0
    skipped = 0
    mismatch = None
    for raw in catalog:
        vplan = pr.validate(raw)
        assert isinstance(vplan, pr.ValidatedPlan)
        position_sets = [
            subset
            for size in range(1, vplan.length + 1)
            for subset in itertools.combinations(range(1, vplan.length + 1), size)
        ]
        for density in densities:
            for m in range(1, 7):
                try:
                    model = pr.discretize(density, m)
                except pr.ZeroMass:
                    skipped += 1
                    continue
                for positions in position_sets:
                    dp = pr.joint_record_prob_discrete(vplan, positions, model)
                    oracle = pr.exhaustive_discrete_joint(vplan, positions, model)
                    checked += 1
                    if dp != oracle:
                        mismatch = (raw.indices, positions, density.name, m, dp, oracle)
                        break
                if mismatch:
                    break
            if mismatch:
                break
        if mismatch:
            break
    ok = mismatch is None and checked > 1000
    _verdict(
        5,
        "discrete recursion equals exhaustive enumeration",
        ok,
        f"{len(catalog)} plans (max index 4, <=3 positions), m in 1..6, 3 densities, "
        f"{checked} exact comparisons, {skipped} zero-mass grids skipped"
        + (f"; mismatch {mismatch}" if mismatch else ""),
    )


# ---------------------------------------------------------------------------
# 6. O(1/m) error: uniform closed form and factor-4 scaled band

def test_criterion_6_error_rate_closed_form_and_band():
    plan3 = pr.total_comparison_plan(3)
    ms = (8, 16, 32, 64, 128, 256, 512, 1024)
    uniform_rows = pr.error_sweep(plan3, (2,), pr.uniform01(), ms)
    uniform_ok = all(
        row.discrete == Fraction(row.m, 2 * (row.m + 1))
        and row.abs_error == Fraction(1, 2 * (row.m + 1))
        and Fraction(2, 5) <= row.scaled < Fraction(1, 2)
        for row in uniform_rows
    )

    band_ok = True
    details = []
    for density in (pr.power_density(2), pr.smoothstep_density()):
        rows = pr.error_sweep(plan3, (2, 3), density, ms)
        errors = [float(r.abs_error) for r in rows]
        scaled = [float(r.scaled) for r in rows]
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        ratio = max(scaled) / min(scaled)
        band_ok &= decreasing and ratio < 4.0
        details.append(f"{density.name} scaled in [{min(scaled):.3f},{max(scaled):.3f}]")

    ok = uniform_ok and band_ok
    _verdict(
        6,
        "O(1/m) error closed form and scaled band",
        ok,
        f"uniform error exactly 1/(2(m+1)) over m in {ms[0]}..{ms[-1]}; "
        + "; ".join(details)
        + " (factor-4 band, decreasing)",
    )


# ---------------------------------------------------------------------------
# 7. grid-identity deviations halve (within [0.25, 0.9]) as m doubles

def test_criterion_7_lemma_doubling_ratios():
    ms = (16, 32, 64, 128, 256, 512, 1024)
    lo, hi = Fraction(1, 4), Fraction(9, 10)
    densities = (pr.uniform01(), pr.power_density(2), pr.smoothstep_density())
    violations = []
    pairs = 0
    exact_zero = 0
    for density in densities:
        for r in (1, 2, 3):
            checks = [pr.lemma_checks(density, m, r) for m in ms]
            for prev, cur in zip(checks, checks[1:]):
                for name in prev:
                    a, b = prev[name].deviation, cur[name].deviation
                    if float(a) < 1e-14 and float(b) < 1e-14:
                        exact_zero += 1
                        continue
                    pairs += 1
                    ratio = Fraction(b) / Fraction(a)
                    if not lo <= ratio <= hi:
                        violations.append((density.name, r, name, prev[name].m, float(ratio)))

    # uniform rows must match their closed forms exactly
    closed_ok = all(
        pr.lemma_checks(pr.uniform01(), m, 1)["cum_vs_cdf"].deviation == Fraction(1, m + 1)
        and pr.lemma_checks(pr.uniform01(), m, 1)["normalization"].deviation == Fraction(1, m)
        and pr.lemma_checks(pr.uniform01(), m, 1)["riemann_theta"].deviation == 0
        for m in ms
    )

    ok = not violations and closed_ok and pairs > 100
    _verdict(
        7,
        "grid-identity deviations halve as m doubles",
        ok,
        f"{pairs} doubling ratios in [0.25, 0.9] over m {ms[0]}..{ms[-1]}, r in 1..3, "
        f"3 densities ({exact_zero} exact-zero rows); uniform closed forms exact"
        + (f"; violations: {violations[:4]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# 8. CLI byte determinism across thread environments

def test_criterion_8_cli_byte_determinism(tmp_path):
    plan_path = tmp_path / "plan.json"
    pr.save_plan_file(pr.total_comparison_plan(6), plan_path)
    outputs = []
    for label, threads in (("one", "1"), ("four", "4")):
        out_dir = tmp_path / label
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "partial_records.cli", "simulate",
                "--plan", str(plan_path),
                "--density", "smoothstep",
                "--n", "100000",
                "--seed", "88",
                "--positions", "2,4",
                "--r", "2",
                "--grid", "0.25,0.5,0.75",
                "--checkpoints", "auto",
                "--out", str(out_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            {
                name: (out_dir / name).read_bytes()
                for name in ("summary.json", "freq.csv", "ecdf.csv", "trajectory.csv")
            }
        )
    same = all(outputs[0][name] == outputs[1][name] for name in outputs[0])
    _verdict(
        8,
        "CLI byte determinism across thread counts",
        same,
        "simulate outputs identical under OMP_NUM_THREADS=1 and 4 "
        f"({len(outputs[0])} files, n=100000)",
    )
