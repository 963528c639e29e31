"""Monte Carlo estimation of record events with replayable keyed streams.

Determinism policy: the value at sequence index i in replication k is
inverse_cdf(u), where u is element k of PCG64DXSM(master_seed).jumped(i).
A run keeps one generator and seeks it to each column with one `advance`.
Any single draw can be regenerated after the fact for auditing.

Chunks: nested comparison sets mean one running maximum per replication
suffices.  A block draws its columns in plan order into chunks of
max(1, CHUNK // width) rows, one candidate column per row, and tallies each
chunk at once; a chunk ends after position 1, at each joint position, at
the horizon, when its rows are full, and before a position with
fresh comparison indices, whose draws go straight into the running maximum
ahead of the chunk.  The maximum only grows along a chunk, so only
replications with a row at or above their chunk-start maximum can hit or tie
there, and late in a long plan most chunks have none.  No output byte depends
on CHUNK.

Blocks: replications are independent, so `run` splits 0..n-1 into near-equal
contiguous blocks, one per usable CPU once each block holds at least
MIN_BLOCK replications, and runs each block's pass over the positions on its
own thread (the draws, ufuncs and indexing release the GIL).  A block that
starts at replication lo draws elements lo.. of every stream.  Each block
writes its columns of the record time and value arrays in place, and every
other tally is an exact integer summed over replications, so the
merged result is bit-identical for every block count, thread count and
memory layout.

Rank domain: inverse_cdf must be non-decreasing, so the maximum of the values
is the transform of the maximum uniform, and a value can exceed it only if its
uniform does.  The running maximum and the candidates therefore stay uniforms,
and inverse_cdf is applied only to the hits (candidates whose uniform exceeds
the running maximum before them) and to that maximum at those hits.  A hit is a
record when its value exceeds the maximum's value.  tie_count counts the
candidates whose uniform equals the running maximum plus the hits whose value
equals it (a non-injective inverse); equal values at a smaller uniform never
change an indicator and are not counted.

The tallies are what `gates` tests against the exact laws; the ratio
R_j / I_j of `strong_law_trajectory` tends to 1 almost surely.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain

import numpy as np

from .errors import IndexOutOfRange, RankTooLarge
from .plan import _index, as_validated, check_positions

# Fewest replications per block: below it a thread costs more than it saves.
MIN_BLOCK = 2**14
# Most draws a block holds before it tallies them: max(1, CHUNK // width)
# rows of its `width` replications.
CHUNK = 2**16
# The step of NumPy's PCG64DXSM.jumped: (phi - 1) * 2**128, made odd.
JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# The stream contract, as run outputs record it.
STREAMS = "PCG64DXSM(seed).jumped(time_index)"


class _KeyedStreams:
    """The streams of one master seed, read through one seekable generator.

    Stream i is PCG64DXSM(master_seed).jumped(i), NumPy's documented way to
    build non-overlapping parallel streams: its element k is offset
    i * JUMP + k of one sequence.  A power-of-two step would leave two
    streams' LCG states sharing their low bits; odd JUMP does not.  `_at` is
    the offset of the next draw, and a seek is one `advance` from it.
    """

    def __init__(self, master_seed, first=0):
        self._bitgen = np.random.PCG64DXSM(master_seed)
        self._generator = np.random.Generator(self._bitgen)
        self._first = first
        self._at = 0

    def uniforms(self, time_index, count=None, out=None):
        """`count` uniforms of one stream from replication `first` on (or fill `out`)."""
        offset = time_index * JUMP + self._first
        self._bitgen.advance((offset - self._at) % 2**128)
        u = self._generator.random(count, out=out)
        self._at = offset + u.size
        return u


def column(master_seed, time_index, count, density):
    """The first `count` replication values at one sequence index.

    Elements 0..count-1 of PCG64DXSM(master_seed).jumped(time_index), so
    any prefix of a longer run reproduces exactly.
    """
    u = _KeyedStreams(master_seed).uniforms(time_index, int(count))
    return np.asarray(density.inverse_cdf(u), dtype=float)


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a run's output bytes.

    horizon defaults to the full plan; joint_positions selects an extra
    all-events tally; r_max tracks times and values of the first r_max
    records per replication; checkpoints are positions at which running
    count sums are snapshotted for the strong-law trajectory.
    """

    plan: object
    density: object
    replications: int
    master_seed: int
    horizon: int | None = None
    joint_positions: tuple = ()
    r_max: int = 0
    checkpoints: tuple = ()
    z: float = 4.0

    def resolved(self):
        vplan = as_validated(self.plan)
        horizon = vplan.length if self.horizon is None else _index(self.horizon, "horizon")
        if not 1 <= horizon <= vplan.length:
            raise IndexOutOfRange(f"horizon {horizon} not in 1..{vplan.length}")
        n = _index(self.replications, "replications")
        if n < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if _index(self.master_seed, "master_seed") < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        joint = tuple(check_positions(vplan, self.joint_positions)) if self.joint_positions else ()
        if joint and joint[-1] > horizon:
            raise IndexOutOfRange(f"joint position {joint[-1]} beyond horizon {horizon}")
        r_max = _index(self.r_max, "r_max")
        if r_max < 0 or r_max > horizon:
            raise RankTooLarge(f"r_max {r_max} not in 0..{horizon}")
        checkpoints = tuple(sorted({_index(t, "a checkpoint") for t in self.checkpoints}))
        if checkpoints and not (1 <= checkpoints[0] and checkpoints[-1] <= horizon):
            raise IndexOutOfRange(f"checkpoints {checkpoints} outside 1..{horizon}")
        return vplan, horizon, n, joint, r_max, checkpoints


@dataclass(frozen=True)
class CheckpointStat:
    """Running exact tallies of the record count at one plan position."""

    position: int
    time_index: int
    count_sum: int


@dataclass(frozen=True)
class RunResult:
    """Exact integer tallies of one run.

    tie_count counts, summed over positions, the candidates whose uniform
    equals the running maximum's uniform and the candidates whose uniform
    exceeds it but whose value equals the maximum's value.  Neither is a
    record.  It is 0 unless inverse_cdf is non-injective or a uniform repeats.
    """

    config: SimConfig
    n: int
    horizon: int
    event_counts: tuple[int, ...]
    joint_count: int | None
    count_sum: int
    count_sq_sum: int
    tie_count: int
    checkpoint_stats: tuple[CheckpointStat, ...]
    record_times: dict = field(repr=False, default_factory=dict)
    record_values: dict = field(repr=False, default_factory=dict)

    @property
    def plan(self):
        return as_validated(self.config.plan)

    def event_frequency(self, t):
        if not 1 <= t <= self.horizon:
            raise IndexOutOfRange(f"position {t} not in 1..{self.horizon}")
        return self.event_counts[t - 1] / self.n

    @property
    def joint_frequency(self):
        return None if self.joint_count is None else self.joint_count / self.n

    @property
    def count_mean(self):
        return self.count_sum / self.n

    @property
    def count_variance(self):
        """Unbiased sample variance from the exact integer tallies."""
        if self.n < 2:
            return 0.0
        num = Fraction(self.count_sq_sum) - Fraction(self.count_sum) ** 2 / self.n
        return float(num / (self.n - 1))

    def times_of_record(self, r):
        if r not in self.record_times:
            raise RankTooLarge(f"rank {r} was not tracked (r_max too small)")
        return self.record_times[r]

    def values_of_record(self, r):
        if r not in self.record_values:
            raise RankTooLarge(f"rank {r} was not tracked (r_max too small)")
        return self.record_values[r]


class _Tally:
    """Exact record tallies of one block of replications.

    `times` and `values` are the block's columns of the run's output arrays
    (views), so a block writes its record times and values in place.
    """

    def __init__(self, inverse, times, values):
        self.inverse = inverse
        self.counts = np.zeros(times.shape[1], dtype=np.int32)
        self.times, self.values = times, values
        self.event_counts = []
        self.joint_count = None
        self.ties = 0

    def chunk(self, t, rows, running_max, compared):
        """Tally the positions of one chunk, the last at t, and return the
        record replications of position t.

        `rows` are the chunk's candidate draws in plan order, one row per
        position: uniforms, like `running_max`, which holds the maximum
        before the first row and is raised past the last row here.
        `compared` applies to one-row chunks only and says whether the
        position's comparison set is non-empty; only position 1 may have an
        empty one, and it is always alone in its chunk.  Only the hits are
        transformed.
        """
        if len(rows) == 1:  # one candidate: its hits come straight from its row
            row = rows[0]
            cols = np.flatnonzero(row > running_max)
            self.ties += int(np.count_nonzero(row == running_max))
            if cols.size:
                max_u = running_max[cols] if compared else None
                hit_values, record = self._values(row[cols], max_u)
                running_max[cols] = row[cols]
                if record is not None:
                    cols = cols[record]
                rank = self.counts[cols] + 1
                self.counts[cols] = rank
                self._record(rank, cols, t, hit_values)
            self.event_counts.append(cols.size)
            return cols

        # The maximum only grows along the chunk, so a column none of whose
        # rows reaches its chunk-start maximum has no hit and no tie.
        active = np.flatnonzero(rows.max(axis=0) >= running_max)
        if not active.size:
            self.event_counts.extend([0] * len(rows))
            return active
        drawn = rows[:, active] if active.size < rows.shape[1] else rows
        prefix = np.empty_like(drawn)  # prefix[i]: the maximum before row i
        prefix[0] = running_max[active]
        prefix[1:] = drawn[:-1]
        np.maximum.accumulate(prefix, axis=0, out=prefix)
        running_max[active] = np.maximum(prefix[-1], drawn[-1])
        self.ties += int(np.count_nonzero(drawn == prefix))
        which, at = np.nonzero(drawn > prefix)  # row-major, so `which` ascends
        if which.size:
            hit_u, max_u = drawn[which, at], prefix[which, at]
            del drawn, prefix  # early chunks hold many hits: free these first
            hit_values, record = self._values(hit_u, max_u)
            which, at = which[record], at[record]
            # a record's rank: its column's count before the chunk plus the
            # column's records up to its row
            seen = np.zeros((len(rows), active.size), dtype=np.int32)
            seen[which, at] = 1
            np.cumsum(seen, axis=0, out=seen)
            cols = active[at]
            rank = self.counts[cols] + seen[which, at]
            self.counts[active] += seen[-1]
            self._record(rank, cols, which + (t + 1 - len(rows)), hit_values)
        self.event_counts.extend(np.bincount(which, minlength=len(rows)).tolist())
        return active[at[np.searchsorted(which, len(rows) - 1):]]

    def _values(self, hit_u, max_u):
        """The hits' values, and which of them exceed their maximum's value
        (None when there is no maximum)."""
        hit_values = np.asarray(self.inverse(hit_u), dtype=float)
        if max_u is None:
            return hit_values, None
        max_values = np.asarray(self.inverse(max_u), dtype=float)
        self.ties += int(np.count_nonzero(hit_values == max_values))
        record = hit_values > max_values
        return hit_values[record], record

    def _record(self, rank, cols, when, values):
        """Keep the times and values of records of rank up to r_max."""
        tracked = rank <= len(self.times)
        if not tracked.all():  # never early on, where hits are many
            rank, cols, values = rank[tracked], cols[tracked], values[tracked]
            when = when[tracked] if np.ndim(when) else when
        self.times[rank - 1, cols] = when
        self.values[rank - 1, cols] = values


def _usable_cpus():
    """CPUs this process may run on; affinity masks and cpusets count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _block_count(n):
    """One block per usable CPU, but none shorter than MIN_BLOCK."""
    return max(1, min(_usable_cpus(), n // MIN_BLOCK))


def _blocks(n, count):
    """min(n, count) contiguous [lo, hi) ranges covering 0..n-1, whose
    lengths differ by at most 1."""
    count = min(n, count)
    cuts = [n * b // count for b in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_block(config, vplan, horizon, joint, times, values, bounds):
    """The pass over plan positions for replications lo..hi-1; returns its _Tally."""
    lo, hi = bounds
    streams = _KeyedStreams(config.master_seed, lo)
    tally = _Tally(config.density.inverse_cdf, times[:, lo:hi], values[:, lo:hi])
    running_max = np.full(hi - lo, -np.inf)  # uniforms, like the candidates
    rows = np.empty((max(1, CHUNK // (hi - lo)), hi - lo))
    used = 0  # rows filled in the open chunk
    stops = {1, horizon} | joint
    joint_hits = None

    fresh_sets = vplan.fresh_sets
    positions = zip(vplan.indices[:horizon], vplan.cardinalities, fresh_sets)
    for t, (time_index, cardinality, fresh_set) in enumerate(positions, start=1):
        for idx in fresh_set:  # only a chunk's first position has fresh draws
            np.maximum(running_max, streams.uniforms(idx, out=rows[0]), out=running_max)
        streams.uniforms(time_index, out=rows[used])
        used += 1
        if t in stops or used == len(rows) or fresh_sets[t]:
            hits = tally.chunk(t, rows[:used], running_max, cardinality > 1)
            used = 0
            if t in joint:
                joint_hits = (hits if joint_hits is None
                              else np.intersect1d(joint_hits, hits, assume_unique=True))
    tally.joint_count = None if joint_hits is None else joint_hits.size
    return tally


def run(config):
    """Execute the full pass over plan positions.  See module docstring."""
    vplan, horizon, n, joint, r_max, checkpoints = config.resolved()
    times = np.zeros((r_max, n), dtype=np.int32)
    values = np.full((r_max, n), np.nan)
    block = partial(_run_block, config, vplan, horizon, set(joint), times, values)
    bounds = _blocks(n, _block_count(n))
    if len(bounds) == 1:
        parts = [block(bounds[0])]
    else:
        with ThreadPoolExecutor(len(bounds)) as pool:
            parts = list(pool.map(block, bounds))

    # every tally is a Python int, so the merge order cannot change a sum
    def total(name):
        return sum(getattr(part, name) for part in parts)

    # a replication's record count is the number of positions where it sets
    # a record, so the count sum up to position t is a prefix sum of the
    # event counts, and the final counts give the sum of squares
    event_counts = tuple(map(sum, zip(*(part.event_counts for part in parts))))
    count_sums = (0, *accumulate(event_counts))
    stats = [CheckpointStat(t, vplan.indices[t - 1], count_sums[t]) for t in checkpoints]
    return RunResult(
        config=config,
        n=n,
        horizon=horizon,
        event_counts=event_counts,
        joint_count=total("joint_count") if joint else None,
        count_sum=count_sums[-1],
        count_sq_sum=sum(int(np.square(part.counts, dtype=np.int64).sum()) for part in parts),
        tie_count=total("ties"),
        checkpoint_stats=tuple(stats),
        record_times={r: times[r - 1] for r in range(1, r_max + 1)},
        record_values={r: values[r - 1] for r in range(1, r_max + 1)},
    )


@dataclass(frozen=True)
class RecordValueCurve:
    """Sub-probability ecdf of the r-th record value over a cutoff grid.

    Replications with no r-th record within the horizon count in n but never
    in the numerator, matching the truncated series convention.
    """

    r: int
    n: int
    grid: tuple[float, ...]
    ecdf: tuple[float, ...]
    with_record: int

    @property
    def no_record_fraction(self):
        return 1.0 - self.with_record / self.n


def record_value_ecdf(result, r, grid):
    """Empirical P(r-th record occurred and its value < x) on a grid."""
    vals = result.values_of_record(r)
    grid = tuple(float(x) for x in grid)
    ecdf = tuple(
        int(np.count_nonzero(vals < x)) / result.n for x in grid
    )
    with_record = int(np.count_nonzero(~np.isnan(vals)))
    return RecordValueCurve(r=r, n=result.n, grid=grid, ecdf=ecdf, with_record=with_record)


@dataclass(frozen=True)
class TrajectoryPoint:
    """Strong-law diagnostics at one checkpoint position."""

    position: int
    time_index: int
    mean_count: float
    intensity: float
    ratio: float
    ci_radius: float


def strong_law_trajectory(result):
    """R/I ratio with a CLT radius at each checkpoint of a finished run.

    Intensities and variances come from the exact per-position formulas but
    are accumulated in floats; the ratio tends to 1 almost surely as the
    intensity diverges.
    """
    vplan = result.plan
    inv_c = [1.0 / c for c in vplan.cardinalities]
    points = []
    for stat in result.checkpoint_stats:
        t = stat.position
        intensity = math.fsum(inv_c[:t])
        variance = math.fsum(p * (1.0 - p) for p in inv_c[:t])
        mean = stat.count_sum / result.n
        radius = result.config.z * math.sqrt(variance / result.n) / intensity
        points.append(
            TrajectoryPoint(
                position=t,
                time_index=stat.time_index,
                mean_count=mean,
                intensity=intensity,
                ratio=mean / intensity,
                ci_radius=radius,
            )
        )
    return tuple(points)


@dataclass(frozen=True)
class Replay:
    """One replication's draws and indicators, regenerated from keys."""

    replication: int
    draws: dict
    indicators: tuple[bool, ...]

    @property
    def record_count(self):
        return sum(self.indicators)


def replay(config, replication):
    """Recompute replication k of a run from its keyed draws.

    Used to audit batch results: jumps each keyed stream to element k and
    compares in the value domain, so it checks the batch pass independently.
    """
    vplan, horizon, n, _joint, _r_max, _checkpoints = config.resolved()
    k = _index(replication, "replication")
    if not 0 <= k < n:
        raise IndexOutOfRange(f"replication {k} not in 0..{n - 1}")
    streams = _KeyedStreams(config.master_seed, k)
    positions = list(zip(vplan.indices[:horizon], vplan.fresh_sets))
    indices = sorted(chain.from_iterable((i, *fresh) for i, fresh in positions))
    u = np.concatenate([streams.uniforms(idx, 1) for idx in indices])
    draws = dict(zip(indices, np.asarray(config.density.inverse_cdf(u), dtype=float).tolist()))
    # C(n_t) is C(n_{t-1}), n_{t-1} and the fresh members, so one running
    # maximum of their values serves every position
    best = -math.inf
    indicators = []
    for time_index, fresh in positions:
        best = max([best, *(draws[e] for e in fresh)])
        indicators.append(draws[time_index] > best)
        best = max(best, draws[time_index])
    return Replay(replication=k, draws=draws, indicators=tuple(indicators))
