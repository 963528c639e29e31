"""Simulation engine: determinism, replay, and statistical agreement."""

import dataclasses
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr
from partial_records import simulate


def _config(plan, density, n, seed, **kw):
    return pr.SimConfig(plan=plan, density=density, replications=n, master_seed=seed, **kw)


def _two_point():
    # rounds every uniform to 0 or 1: a non-injective inverse with exact ties
    return pr.DensitySpec(
        name="two-point",
        support_upper=1.0,
        pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        cdf=lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0),
        inverse_cdf=lambda u: np.round(np.asarray(u, dtype=float)),
    )


def _value_domain_run(config):
    """Reference engine: transform whole columns, compare values, scan ranks."""
    vplan, horizon, n, joint, r_max, checkpoints = config.resolved()
    seed, density = config.master_seed, config.density
    running_max, counts = np.full(n, -np.inf), np.zeros(n, dtype=np.int64)
    joint_mask = np.ones(n, dtype=bool)
    times = {r: np.zeros(n, dtype=np.int32) for r in range(1, r_max + 1)}
    values = {r: np.full(n, np.nan) for r in range(1, r_max + 1)}
    event_counts, stats, ties, candidate = [], [], 0, None
    for t in range(1, horizon + 1):
        for idx in vplan.fresh_sets[t - 1]:
            np.maximum(running_max, pr.column(seed, idx, n, density), out=running_max)
        if candidate is not None:
            np.maximum(running_max, candidate, out=running_max)
        candidate = pr.column(seed, vplan.index(t), n, density)
        ties += int(np.count_nonzero(candidate == running_max))
        indicator = candidate > running_max
        event_counts.append(int(np.count_nonzero(indicator)))
        counts += indicator
        if t in joint:
            joint_mask &= indicator
        for r in times:
            hit = indicator & (counts == r)
            times[r][hit] = t
            values[r][hit] = candidate[hit]
        if t in checkpoints:
            stats.append((t, vplan.index(t), int(counts.sum())))
    return dict(event_counts=tuple(event_counts), joint_count=int(np.count_nonzero(joint_mask)),
                count_sum=int(counts.sum()), count_sq_sum=int((counts**2).sum()), ties=ties,
                stats=stats, times=times, values=values)


@pytest.mark.parametrize("plan_name", ["total5", "partial_plan", "chained"])
@pytest.mark.parametrize(
    "density",
    [pr.smoothstep_density(), pr.power_density(2), pr.triangular_density(), _two_point()],
    ids=lambda d: d.name,
)
def test_rank_domain_run_equals_value_domain_reference(request, plan_name, density):
    plan = pr.chained_plan([1, 3, 5, 9]) if plan_name == "chained" else request.getfixturevalue(plan_name)
    cfg = _config(plan, density, 20_000, 41, joint_positions=(1, 2, 3), r_max=2, checkpoints=(1, 3))
    _assert_equals_reference(pr.run(cfg), _value_domain_run(cfg))


def _assert_equals_reference(result, ref):
    assert result.event_counts == ref["event_counts"]
    assert result.joint_count == ref["joint_count"]
    assert (result.count_sum, result.count_sq_sum) == (ref["count_sum"], ref["count_sq_sum"])
    assert [dataclasses.astuple(s) for s in result.checkpoint_stats] == ref["stats"]
    for r in (1, 2):
        assert result.times_of_record(r).tobytes() == ref["times"][r].tobytes()
        assert result.values_of_record(r).tobytes() == ref["values"][r].tobytes()
    assert result.tie_count <= ref["ties"]


def _force_blocks(monkeypatch, count):
    monkeypatch.setattr(simulate, "_block_count", lambda n: count)


# CHUNK for n replications: a block of width w <= n tallies max(1, CHUNK // w)
# rows at a time, so "few-rows" gives three or more and "one-row" gives one
_CHUNKS = {"one-row": lambda n: 1, "few-rows": lambda n: 3 * n, "default": lambda n: simulate.CHUNK}


def _force_chunk(monkeypatch, name, n):
    monkeypatch.setattr(simulate, "CHUNK", _CHUNKS[name](n))


@pytest.mark.parametrize("chunk", list(_CHUNKS))
@pytest.mark.parametrize("n", [5, 10_001])  # n < 4 * blocks; n not a multiple of 4
@pytest.mark.parametrize("blocks", [1, 2, 3, 7])
@pytest.mark.parametrize("plan_name", ["total5", "partial_plan", "chained"])
@pytest.mark.parametrize(
    "density",
    [pr.smoothstep_density(), pr.power_density(2), pr.triangular_density(), _two_point()],
    ids=lambda d: d.name,
)
def test_block_split_equals_value_domain_reference(
    request, monkeypatch, plan_name, density, blocks, n, chunk
):
    plan = pr.chained_plan([1, 3, 5, 9]) if plan_name == "chained" else request.getfixturevalue(plan_name)
    cfg = _config(plan, density, n, 41, joint_positions=(1, 2, 3), r_max=2, checkpoints=(1, 3))
    _force_blocks(monkeypatch, blocks)
    _force_chunk(monkeypatch, chunk, n)
    _assert_equals_reference(pr.run(cfg), _value_domain_run(cfg))


@pytest.mark.parametrize("chunk", list(_CHUNKS))
def test_long_plan_with_few_replications_equals_value_domain_reference(monkeypatch, chunk):
    # with a few rows per chunk, most chunks past the first few hundred
    # positions have no active column
    cfg = _config(pr.total_comparison_plan(3000), pr.smoothstep_density(), 64, 17,
                  joint_positions=(1, 2, 3), r_max=2, checkpoints=(1, 3, 2999))
    _force_chunk(monkeypatch, chunk, 64)
    _assert_equals_reference(pr.run(cfg), _value_domain_run(cfg))


@pytest.mark.parametrize("chunk", list(_CHUNKS))
def test_fresh_draws_end_the_chunk_before_them(monkeypatch, rng, chunk):
    # fresh sets between multi-row chunks, and one of six indices (5..10, at
    # position 4) that is larger than a few-row buffer
    indices = (2, 3, 4, 11, 12, 13)
    wide = pr.ComparisonPlan(indices, tuple(frozenset(range(1, n)) for n in indices))
    plans = [wide] + [pr.random_compatible_plan(rng, max_index=40) for _ in range(6)]
    for case, plan in enumerate(plans):
        vplan = pr.as_validated(plan)
        last = vplan.length
        cfg = _config(vplan, pr.smoothstep_density(), 4001, case,
                      joint_positions=tuple(sorted({1, last})), r_max=min(2, last),
                      checkpoints=(last,))
        _force_chunk(monkeypatch, chunk, cfg.replications)
        _assert_equals_reference(pr.run(cfg), _value_domain_run(cfg))


@pytest.mark.parametrize("chunk", list(_CHUNKS))
def test_equal_uniforms_count_every_tie(monkeypatch, chunk):
    # uniforms rounded down to eighths tie often; with the identity inverse
    # the value-domain reference counts exactly the same ties
    draw = simulate._KeyedStreams.uniforms

    def coarse(self, time_index, count=None, out=None):
        u = draw(self, time_index, count, out)
        np.floor(u * 8, out=u)
        u /= 8
        return u

    monkeypatch.setattr(simulate._KeyedStreams, "uniforms", coarse)
    _force_chunk(monkeypatch, chunk, 2001)
    for plan in (pr.total_comparison_plan(40), pr.chained_plan([1, 3, 5, 9])):
        cfg = _config(plan, pr.uniform01(), 2001, 3, joint_positions=(1, 2, 3), r_max=2,
                      checkpoints=(1, 3))
        result, ref = pr.run(cfg), _value_domain_run(cfg)
        _assert_equals_reference(result, ref)
        assert result.tie_count == ref["ties"] > 0


def _fields(result):
    """Every RunResult field, with arrays as their bytes."""
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, dict):
            value = {key: (array.dtype.str, array.tobytes()) for key, array in value.items()}
        out[f.name] = value
    return out


def test_block_count_leaves_every_field_of_random_plans_unchanged(monkeypatch, rng):
    densities = (pr.smoothstep_density(), _two_point())
    for case in range(60):
        vplan = pr.as_validated(pr.random_compatible_plan(rng, max_index=int(rng.integers(2, 30))))
        n = int(rng.choice([1, 3, 4, 5, 1023, 4097]))
        cfg = _config(vplan, densities[case % 2], n, case,
                      joint_positions=tuple(sorted({1, vplan.length})),
                      r_max=min(2, vplan.length), checkpoints=(vplan.length,))
        _force_blocks(monkeypatch, 1)
        single = _fields(pr.run(cfg))
        _force_blocks(monkeypatch, 3)
        assert _fields(pr.run(cfg)) == single, (case, vplan.indices, n)


def test_more_blocks_than_cores_with_fast_thread_switching(monkeypatch, partial_plan):
    # blocks write disjoint columns of shared arrays; a lost or misplaced
    # write under frequent switches would change some field
    cfg = _config(partial_plan, pr.smoothstep_density(), 7 * 4096 + 3, 23,
                  joint_positions=(1, 3), r_max=3, checkpoints=(2, 3))
    _force_blocks(monkeypatch, 1)
    single = _fields(pr.run(cfg))
    _force_blocks(monkeypatch, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        for _ in range(5):
            assert _fields(pr.run(cfg)) == single
        assert time.monotonic() - started < 60
    finally:
        sys.setswitchinterval(interval)


def test_blocks_tile_the_replications_in_near_equal_ranges():
    for n in (1, 3, 4, 5, 1023, 4097, 200_003):
        for count in (1, 2, 3, 7):
            bounds = simulate._blocks(n, count)
            assert 1 <= len(bounds) <= count
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(bounds, bounds[1:]))
            assert all(lo < hi for lo, hi in bounds)
            sizes = [hi - lo for lo, hi in bounds]
            assert max(sizes) - min(sizes) <= 1
    assert len(simulate._blocks(10_001, 7)) == 7


def test_block_count_follows_usable_cpus_and_min_block(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    assert simulate._block_count(2 * simulate.MIN_BLOCK - 1) == 1
    assert simulate._block_count(2 * simulate.MIN_BLOCK) == 2
    assert simulate._block_count(10 * simulate.MIN_BLOCK) == 3
    assert simulate._block_count(1) == 1


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 5)
    assert simulate._usable_cpus() == 5
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1


@pytest.mark.parametrize("blocks", [2, 3])
def test_replay_agrees_with_batch_at_block_boundaries(monkeypatch, total5, blocks):
    s = pr.smoothstep_density()
    n = 10_001
    cfg = _config(total5, s, n, 19, r_max=5)
    _force_blocks(monkeypatch, blocks)
    result = pr.run(cfg)
    boundaries = [lo for lo, _hi in simulate._blocks(n, blocks)[1:]]
    assert len(boundaries) == blocks - 1
    for k in sorted({k for lo in boundaries for k in (lo - 1, lo, lo + 1)}):
        rep = pr.replay(cfg, k)
        batch = {int(result.times_of_record(r)[k]): result.values_of_record(r)[k]
                 for r in range(1, 6) if result.times_of_record(r)[k] > 0}
        assert set(batch) == {t for t, b in enumerate(rep.indicators, start=1) if b}, k
        for t, value in batch.items():
            assert value == rep.draws[total5.index(t)], (k, t)


def _failing_inverse(u):
    raise pr.InversionFailure("no inverse for this stream")


@pytest.mark.parametrize("blocks", [1, 3])
def test_inversion_failure_in_a_block_reaches_the_caller(monkeypatch, total5, blocks):
    density = dataclasses.replace(pr.uniform01(), inverse_cdf=_failing_inverse)
    _force_blocks(monkeypatch, blocks)
    with pytest.raises(pr.InversionFailure, match="^no inverse for this stream$"):
        pr.run(_config(total5, density, 10_001, 1))


def test_run_transforms_only_record_hits():
    smooth = pr.smoothstep_density()
    transformed = []

    def counting_inverse(u):
        transformed.append(np.size(u))
        return smooth.inverse_cdf(u)

    density = dataclasses.replace(smooth, inverse_cdf=counting_inverse)
    result = pr.run(_config(pr.total_comparison_plan(100), density, 20_000, 8, r_max=2))
    # n * horizon = 2e6 values would pass through a value-domain engine
    assert sum(transformed) <= 2 * sum(result.event_counts)


def test_column_matches_a_fresh_jumped_pcg64dxsm_in_any_order():
    u = pr.uniform01()
    for order in ([4, 1, 9], [9, 4, 4, 1], [1, 9, 1, 4, 9]):
        for idx in order:
            fresh = np.random.Generator(np.random.PCG64DXSM(7).jumped(idx)).random(100)
            assert pr.column(7, idx, 100, u).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("lo", [1, 3, 5, 10_001])
def test_streams_from_replication_lo_are_the_fresh_stream_from_element_lo(lo):
    streams = simulate._KeyedStreams(7, first=lo)
    for idx, count in ((4, 10), (1, 3), (9, 50), (4, 1), (2**40, 7)):
        fresh = np.random.Generator(np.random.PCG64DXSM(7).jumped(idx)).random(lo + count)
        assert streams.uniforms(idx, count).tobytes() == fresh[lo:].tobytes()


@pytest.mark.parametrize("other", [2, 1 + 2**10, 1 + 2**20])
def test_stream_1_is_uncorrelated_with_nearby_and_power_of_two_streams(other):
    n = 200_000
    u = pr.uniform01()
    r = np.corrcoef(pr.column(2024, 1, n, u), pr.column(2024, other, n, u))[0, 1]
    assert abs(r) * math.sqrt(n) < 5


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
def test_a_seed_must_be_a_non_negative_integer(total5, seed):
    with pytest.raises(ValueError, match="master_seed"):
        pr.run(_config(total5, pr.uniform01(), 10, seed))
    with pytest.raises(ValueError, match="master_seed"):
        pr.replay(_config(total5, pr.uniform01(), 10, seed), 0)


@pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), 2**64, 2**200])
def test_every_non_negative_integer_is_a_seed(total5, seed):
    cfg = _config(total5, pr.uniform01(), 10, seed, r_max=1)
    first = pr.run(cfg).values_of_record(1)
    assert first.tobytes() == pr.column(seed, 1, 10, pr.uniform01()).tobytes()
    assert pr.replay(cfg, 9).draws[1] == first[9]


@pytest.mark.parametrize("k", [0, 1, 3, 4, 5, 17, 123_457])
def test_replay_jumps_to_replication_k(partial_plan, k):
    s = pr.smoothstep_density()
    rep = pr.replay(_config(partial_plan, s, k + 1, 3), k)
    for idx, value in rep.draws.items():
        assert value == pr.column(3, idx, k + 1, s)[k]


def test_columns_are_prefix_stable():
    u = pr.uniform01()
    long = pr.column(7, 3, 1000, u)
    short = pr.column(7, 3, 100, u)
    assert np.array_equal(long[:100], short)
    # different key, different stream
    other = pr.column(7, 4, 100, u)
    assert not np.array_equal(short, other)
    assert np.array_equal(pr.column(8, 3, 100, u), pr.column(8, 3, 100, u))


def test_identical_configs_give_identical_results(total5):
    s = pr.smoothstep_density()
    a = pr.run(_config(total5, s, 20_000, 11, joint_positions=(2, 3), r_max=2))
    b = pr.run(_config(total5, s, 20_000, 11, joint_positions=(2, 3), r_max=2))
    assert a.event_counts == b.event_counts
    assert a.joint_count == b.joint_count
    assert a.count_sum == b.count_sum and a.count_sq_sum == b.count_sq_sum
    assert np.array_equal(a.values_of_record(2), b.values_of_record(2), equal_nan=True)


def test_extending_n_preserves_prefix_counts(total5):
    # replication k's draws do not depend on how many replications run
    u = pr.uniform01()
    small = pr.run(_config(total5, u, 1_000, 5, r_max=1))
    big = pr.run(_config(total5, u, 5_000, 5, r_max=1))
    assert np.array_equal(
        small.values_of_record(1), big.values_of_record(1)[:1_000], equal_nan=True
    )


def test_replay_matches_batch(total5):
    s = pr.smoothstep_density()
    cfg = _config(total5, s, 5_000, 123, r_max=3)
    result = pr.run(cfg)
    for k in (0, 1, 17, 4_999):
        rep = pr.replay(cfg, k)
        # the first three record positions must agree with the batch arrays
        batch_positions = {
            int(result.times_of_record(r)[k])
            for r in (1, 2, 3)
            if result.times_of_record(r)[k] > 0
        }
        replay_positions = {i + 1 for i, b in enumerate(rep.indicators) if b}
        assert batch_positions <= replay_positions
        if len(replay_positions) <= 3:
            assert batch_positions == replay_positions
    # exact tally agreement on a complete small run
    small = _config(total5, s, 300, 123)
    assert pr.run(small).count_sum == sum(
        pr.replay(small, k).record_count for k in range(300)
    )


def test_replay_on_partial_plan_regenerates_only_drawn_indices(partial_plan):
    cfg = _config(partial_plan, pr.uniform01(), 10, 3)
    rep = pr.replay(cfg, 4)
    assert set(rep.draws) == {1, 2, 3, 4, 5}
    assert len(rep.indicators) == 3


def _replay_by_materialized_sets(config, k):
    """Replay as first written: draw element k of every index in C(n_h) and
    n_h, then compare each candidate with the maximum over its comparison
    set, materialized afresh at every position."""
    vplan = pr.as_validated(config.plan)
    horizon = config.horizon or vplan.length
    indices = sorted(vplan.comparison_set(horizon) | {vplan.index(horizon)})
    draws = {i: float(pr.column(config.master_seed, i, k + 1, config.density)[k]) for i in indices}
    indicators = tuple(
        draws[vplan.index(t)] > max((draws[e] for e in vplan.comparison_set(t)), default=-math.inf)
        for t in range(1, horizon + 1)
    )
    return draws, indicators


def test_replay_matches_materialized_set_reference():
    plan = pr.as_validated(
        pr.random_compatible_plan(np.random.default_rng(2), max_index=600, max_positions=400)
    )
    # a few hundred positions, and fresh members below the previous index
    assert plan.length > 300
    assert any(f and min(f) < n for n, f in zip(plan.indices, plan.fresh_sets[1:]))
    for horizon in (None, plan.length // 2):
        cfg = _config(plan, pr.uniform01(), 20, 5, horizon=horizon)
        for k in (0, 7, 19):
            rep = pr.replay(cfg, k)
            draws, indicators = _replay_by_materialized_sets(cfg, k)
            assert list(rep.draws.items()) == list(draws.items())
            assert rep.indicators == indicators


def test_replay_is_linear_in_the_horizon():
    # rebuilding C(n_t) at each position took minutes here; one pass takes
    # well under a second
    cfg = _config(pr.total_comparison_plan(20_000), pr.uniform01(), 1, 1)
    started = time.monotonic()
    rep = pr.replay(cfg, 0)
    assert time.monotonic() - started < 10
    assert len(rep.draws) == len(rep.indicators) == 20_000 and rep.indicators[0]


def test_event_frequencies_within_four_sigma(three_densities, total5):
    # distribution-free law: every density must reproduce the same odds
    for density in three_densities:
        result = pr.run(_config(total5, density, 200_000, 2024))
        for t in range(1, 6):
            p = 1.0 / total5.cardinality(t)
            se = math.sqrt(p * (1 - p) / result.n)
            assert abs(result.event_frequency(t) - p) <= 4 * se + 1e-12, (density.name, t)


def test_joint_and_count_moments_within_four_sigma(partial_plan):
    density = pr.power_density(2)
    cfg = _config(partial_plan, density, 400_000, 77, joint_positions=(1, 2, 3))
    result = pr.run(cfg)
    target = float(Fraction(1, 40))
    se = math.sqrt(target * (1 - target) / result.n)
    assert abs(result.joint_frequency - target) <= 4 * se
    stats = pr.record_count_moments(partial_plan, 5)
    se_mean = math.sqrt(stats.variance_float / result.n)
    assert abs(result.count_mean - stats.mean_float) <= 4 * se_mean
    assert result.count_variance == pytest.approx(stats.variance_float, rel=0.05)


def test_record_value_ecdf_against_series(total5):
    s = pr.smoothstep_density()
    cfg = _config(total5, s, 200_000, 31, r_max=2)
    result = pr.run(cfg)
    curve = pr.record_value_ecdf(result, 2, [0.3, 0.6, 0.9])
    radius = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * result.n))  # DKW at level 1e-6
    pmf = pr.record_time_pmf(total5, 2)
    for value, iv in zip(curve.ecdf, pr.record_value_cdf(pmf, curve.grid, s)):
        assert iv.lower - radius <= value <= iv.upper + radius
    # replications with no second record never enter the numerator
    assert curve.ecdf[-1] <= curve.with_record / result.n
    assert curve.no_record_fraction == pytest.approx(
        float(pmf.residual), abs=4 * math.sqrt(0.25 / result.n)
    )


def test_strong_law_checkpoints(total5):
    plan = pr.total_comparison_plan(2000)
    cfg = _config(plan, pr.uniform01(), 400, 9, horizon=2000, checkpoints=(10, 100, 2000))
    result = pr.run(cfg)
    points = pr.strong_law_trajectory(result)
    assert [pt.position for pt in points] == [10, 100, 2000]
    final = points[-1]
    assert final.intensity == pytest.approx(
        float(pr.cumulative_intensity(plan, 2000)), abs=1e-9
    )
    assert abs(final.ratio - 1.0) <= final.ci_radius


def test_ties_counted_on_discrete_valued_streams(total5):
    # a two-point inverse forces exact float collisions
    result = pr.run(_config(total5, _two_point(), 2_000, 1))
    assert result.tie_count > 0


def test_config_validation(total5):
    with pytest.raises(pr.IndexOutOfRange):
        pr.run(_config(total5, pr.uniform01(), 10, 1, horizon=9))
    with pytest.raises(pr.RankTooLarge):
        pr.run(_config(total5, pr.uniform01(), 10, 1, r_max=6))
    with pytest.raises(pr.IndexOutOfRange):
        pr.run(_config(total5, pr.uniform01(), 10, 1, joint_positions=(2, 3), horizon=2))
    with pytest.raises(ValueError):
        pr.run(_config(total5, pr.uniform01(), 0, 1))
    with pytest.raises(pr.RankTooLarge):
        pr.run(_config(total5, pr.uniform01(), 10, 1)).values_of_record(1)
