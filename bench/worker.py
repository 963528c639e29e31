"""Repetitions of a benchmark workload, in one fresh process.

    python3 bench/worker.py --workload NAME --seed N --work DIR --result FILE
                            --spawn-ns NS --seconds S --deadline D --min-reps K
                            [--trace] [--spans FILE]
    python3 bench/worker.py --startup-only --spawn-ns NS

bench/run.py starts one worker per run.  The worker imports `partial_records`
from the checkout's `src/` and then repeats the workload until --seconds:
each repetition generates the workload's inputs from the seed, runs the
workload's operations in order as one closed-loop caller and checks every
output against the exact law.  The first repetition is a warm-up: it is
checked, but its times are not reported.  Before each repetition the
package's process-local caches (such as the permutation table in
`partial_records.oracle`) are emptied, so every repetition starts them cold,
as a CLI user does.  The package is used only through
`partial_records.cli.main(argv)` and its public library functions.  The
worker writes one JSON result with every repetition.  With --startup-only it
only times its own start: interpreter start through the imports.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import bdtr, bdtrc, ndtri  # noqa: E402

import partial_records  # noqa: E402
from partial_records import cli, distributions, exact, plan, simulate  # noqa: E402

import tracing  # noqa: E402

# Family-wise false-fail level of the statistical checks of one simulate op,
# split over its tests by the Sidak correction.  Each run checks a few dozen
# ops, so a correct program fails a run with probability below 1e-4.
FAMILY_ALPHA = 1e-6
STRONG_LAW_TOL = 0.08  # |R_j / I_j - 1| at the last checkpoint
FLOAT_TOL = 1e-12  # float summaries of exact rationals
SCALED_ERROR_MAX = 1.0  # m * |discrete - continuous| in the discrete sweep

# Independent closed forms of the densities the workloads use.
CDF = {
    "uniform01": lambda x: x,
    "power(2)": lambda x: x * x,
    "smoothstep": lambda x: x * x * (3.0 - 2.0 * x),
}


@dataclass
class Op:
    label: str
    span: str  # traced-run span around the call
    call: Callable[[], object]
    check: Callable[[object, dict], list]  # failure reasons; adds output counts
    rep_positions: int = 0  # record indicators evaluated: replications x positions
    plan_bytes: int = 0  # size of the plan file the op loads


# ---------------------------------------------------------------------------
# exact laws of total plans (c(n_t) = t), computed without the package


def sidak(level, tests):
    """Per-test level that keeps `tests` independent tests at family level `level`."""
    return -math.expm1(math.log1p(-level) / tests)


def binomial_outliers(hits, n, p, level):
    """Indices of hit counts in either tail of Binomial(n, p) beyond `level` / 2."""
    hits = np.asarray(hits, dtype=float)
    lower = bdtr(hits, n, p)  # P(X <= k)
    upper = np.where(hits > 0, bdtrc(hits - 1, n, p), 1.0)  # P(X >= k)
    return np.flatnonzero(np.minimum(lower, upper) <= level / 2)


def total_moments(horizon):
    """Mean and variance of the record count over positions 1..horizon."""
    mean = math.fsum(1.0 / k for k in range(1, horizon + 1))
    var = math.fsum(1.0 / k - 1.0 / (k * k) for k in range(1, horizon + 1))
    return mean, var


def total_record_time_pmf(r, t_max):
    """{t: P(L(r) = t)} for t = r..t_max.

    Record events at positions t are independent Bernoulli(1/t), and position 1
    is always a record.  L(2) = t needs no record at 2..t-1, which gives
    1/(t(t-1)); L(3) = t needs exactly one there, which gives H_{t-2}/(t(t-1)).
    """
    if r == 2:
        return {t: Fraction(1, t * (t - 1)) for t in range(2, t_max + 1)}
    if r == 3:
        pmf, h = {}, Fraction(0)
        for t in range(3, t_max + 1):
            h += Fraction(1, t - 2)
            pmf[t] = h / (t * (t - 1))
        return pmf
    raise ValueError(f"no closed form for r={r}")


def fraction_text(f):
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# calls and checks


def cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return call


def read_outputs(out_dir, names, stdout, outputs):
    """Parsed output files, or the reason some are missing."""
    missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return None, [f"missing output files {missing}"]
    outputs["cli.output_bytes"] += len(stdout) + sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in names
    )
    parsed = {}
    for n in names:
        with open(os.path.join(out_dir, n), encoding="utf-8") as fh:
            parsed[n] = json.load(fh) if n.endswith(".json") else list(csv.DictReader(fh))
    return parsed, []


def check_cli_simulate(out_dir, n, horizon, density, joint=(), r=None, grid=(), trajectory=False):
    names = ["freq.csv", "summary.json"]
    names += ["ecdf.csv"] if grid else []
    names += ["trajectory.csv"] if trajectory else []
    tests = horizon + 1 + bool(joint) + bool(grid)  # positions, count mean, joint, ecdf band
    level = sidak(FAMILY_ALPHA, tests)

    def check(res, outputs):
        code, stdout, stderr = res
        # Exit 1 is the CLI's own 4-sigma verdict, which false-fails on long
        # plans; it is recorded as cli.gate_fail_positions, not as a failure.
        if code not in (0, 1):
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        files, reasons = read_outputs(out_dir, names, stdout, outputs)
        if reasons:
            return reasons
        rows = files["freq.csv"]
        outputs["cli.gate_fail_positions"] += sum(row["pass"] == "0" for row in rows)
        positions = [int(row["position"]) for row in rows]
        if positions != list(range(1, horizon + 1)) or any(
            int(row["cardinality"]) != int(row["position"]) or int(row["n"]) != n for row in rows
        ):
            return ["freq.csv does not list the plan's positions, cardinalities and n"]
        hits = [int(row["hits"]) for row in rows]
        reasons += position_hit_reasons(hits, n, level)
        summary = files["summary.json"]
        reasons += count_reasons(summary["count"]["mean"], summary["count"], n, horizon, level)
        if joint:
            target = Fraction(1, math.prod(joint))
            got = summary["joint"]
            if got["target_fraction"] != fraction_text(target):
                reasons.append(f"joint target {got['target_fraction']} != {fraction_text(target)}")
            if binomial_outliers([got["hits"]], n, float(target), level).size:
                reasons.append(f"joint hits {got['hits']} outside the exact-binomial bound")
        if grid:
            pmf = total_record_time_pmf(r, horizon)
            radius = math.sqrt(math.log(2.0 / level) / (2.0 * n))  # DKW
            for row in files["ecdf.csv"]:
                fx = CDF[density](float(row["x"]))
                series = math.fsum(float(p) * fx**t for t, p in pmf.items())
                if abs(float(row["ecdf"]) - series) > radius:
                    reasons.append(f"ecdf at x={row['x']} is {row['ecdf']}, law {series:.6f}")
        if trajectory:
            last = files["trajectory.csv"][-1]
            reasons += strong_law_reasons(
                float(last["ratio"]), float(last["intensity"]), int(last["position"])
            )
        return reasons

    return check


def position_hit_reasons(hits, n, level):
    t = np.arange(1, len(hits) + 1)
    bad = binomial_outliers(hits, n, 1.0 / t, level)
    if bad.size:
        return [f"{bad.size} positions outside the exact-binomial bound, first {bad[0] + 1}"]
    return []


def count_reasons(sample_mean, targets, n, horizon, level):
    mean, var = total_moments(horizon)
    reasons = []
    if abs(targets["mean_target"] - mean) > FLOAT_TOL:
        reasons.append(f"count mean target {targets['mean_target']} != {mean}")
    if abs(targets["variance_target"] - var) > FLOAT_TOL:
        reasons.append(f"count variance target {targets['variance_target']} != {var}")
    if abs(sample_mean - mean) > -ndtri(level / 2) * math.sqrt(var / n):
        reasons.append(f"count mean {sample_mean} too far from {mean}")
    return reasons


def strong_law_reasons(ratio, intensity, position):
    reasons = []
    if abs(intensity - total_moments(position)[0]) > FLOAT_TOL:
        reasons.append(f"intensity {intensity} at position {position} != H_{position}")
    if abs(ratio - 1.0) > STRONG_LAW_TOL:
        reasons.append(f"strong-law ratio {ratio} not within {STRONG_LAW_TOL} of 1")
    return reasons


# ---------------------------------------------------------------------------
# workloads: each generates its inputs under `work` and returns its ops


def derived_seed(seed, label):
    return random.Random(f"{seed}:{label}").randrange(2**31)


def saved_total_plan(work, j):
    path = os.path.join(work, f"total{j}.json")
    plan.save_plan_file(plan.total_comparison_plan(j), path)
    return path, os.path.getsize(path)


def cli_simulate_op(label, work, path, size, density, n, horizon, seed, extra=(), **check):
    out_dir = os.path.join(work, label.replace(" ", "-").replace("(", "").replace(")", ""))
    argv = ["simulate", "--plan", path, "--density", density, "--n", str(n),
            "--seed", str(derived_seed(seed, label)), *extra, "--out", out_dir]
    return Op(label, "cli.simulate", cli_call(argv),
              check_cli_simulate(out_dir, n, horizon, density, **check),
              rep_positions=n * horizon, plan_bytes=size)


def mc_wide(seed, work):
    """Small plan, many replications: per-element draw, transform and tally."""
    n, horizon = 200_000, 200
    path, size = saved_total_plan(work, horizon)
    extra = ("--positions", "2,5", "--r", "2", "--grid", "0.25,0.5,0.75", "--checkpoints", "auto")
    return [
        cli_simulate_op(f"simulate {d}", work, path, size, d, n, horizon, seed, extra,
                        joint=(2, 5), r=2, grid=(0.25, 0.5, 0.75), trajectory=True)
        for d in ("uniform01", "power(2)", "smoothstep")
    ]


def mc_long(seed, work):
    """Long plans, few replications: plan I/O and per-column cost."""
    # Sized so that a repetition takes about 5 s: a run's median then rests
    # on seven or more repetitions.
    cli_len, cli_n = 1500, 20_000  # a 5.6 MB plan file
    # 400 replications cost about what 200 do here (per-column set-up
    # dominates) and keep the fixed strong-law check 5.8 sigma wide.
    run_len, run_n = 50_000, 400
    path, size = saved_total_plan(work, cli_len)
    config = simulate.SimConfig(
        plan=plan.total_comparison_plan(run_len), density=distributions.builtin("uniform01"),
        replications=run_n, master_seed=derived_seed(seed, "run"), checkpoints=(run_len,),
    )

    def call():
        result = simulate.run(config)
        return result, simulate.strong_law_trajectory(result)

    def check(res, outputs):
        result, points = res
        if result.n != run_n or result.horizon != run_len:
            return ["run covered the wrong replications or horizon"]
        reasons = position_hit_reasons(result.event_counts, run_n, sidak(FAMILY_ALPHA, run_len))
        last = points[-1]
        return reasons + strong_law_reasons(last.ratio, last.intensity, last.position)

    return [
        cli_simulate_op(f"simulate total({cli_len})", work, path, size, "uniform01",
                        cli_n, cli_len, seed),
        Op(f"run total({run_len})", "lib.run", call, check, rep_positions=run_n * run_len),
    ]


def exact_grid(seed, work):
    """No random draws: exact rationals, discrete grids and the permutation oracle."""
    p1000, s1000 = saved_total_plan(work, 1000)
    p3, s3 = saved_total_plan(work, 3)
    p10, s10 = saved_total_plan(work, 10)
    moments_plan = plan.total_comparison_plan(20_000)
    x = round(random.Random(f"{seed}:x").uniform(0.25, 0.75), 6)
    positions = (1, 2, 3, 10, 100)
    r, t_max = 3, 1000

    def check_exact(res, outputs):
        code, stdout, stderr = res
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        outputs["cli.output_bytes"] += len(stdout)
        out = json.loads(stdout)
        reasons = []
        probs = [row["probability"]["fraction"] for row in out["per_position"]]
        if probs != [f"1/{t}" for t in positions]:
            reasons.append(f"per-position odds {probs}")
        joint = Fraction(1, math.prod(positions))
        if out["joint"]["fraction"] != fraction_text(joint):
            reasons.append(f"joint {out['joint']['fraction']} != {fraction_text(joint)}")
        fx = CDF["smoothstep"](x)
        bounded = float(joint) * fx ** positions[-1]
        if not math.isclose(out["bounded"]["value"], bounded, rel_tol=FLOAT_TOL):
            reasons.append(f"bounded {out['bounded']['value']} != {bounded}")
        pmf = total_record_time_pmf(r, t_max)
        entries = {e["position"]: Fraction(e["probability"]["fraction"])
                   for e in out["record_time"]["entries"]}
        if entries != pmf:
            reasons.append("record-time entries differ from the closed form")
        if sum(entries.values(), Fraction(out["record_time"]["residual"]["fraction"])) != 1:
            reasons.append("record-time entries plus residual != 1")
        value = math.fsum(float(p) * fx**t for t, p in pmf.items())
        got = out["record_value"]
        if abs(got["lower"] - value) > FLOAT_TOL or got["upper"] != got["lower"]:
            reasons.append(f"record value [{got['lower']}, {got['upper']}] != {value}")
        return reasons

    m_values = tuple(8 << i for i in range(8))

    def check_sweep(out_dir):
        def check(res, outputs):
            code, stdout, stderr = res
            if code != 0:
                return [f"exit code {code}: {stderr.strip()[-200:]}"]
            files, reasons = read_outputs(out_dir, ["sweep.csv", "lemma.csv", "summary.json"],
                                          stdout, outputs)
            if reasons:
                return reasons
            rows = files["sweep.csv"]
            if [int(row["m"]) for row in rows] != list(m_values):
                return ["sweep.csv does not list every m"]
            for row in rows:
                discrete = float(row["discrete"])
                if float(row["continuous"]) != 1 / 6:
                    reasons.append(f"continuous {row['continuous']} != 1/6")
                if abs(abs(discrete - 1 / 6) - float(row["abs_error"])) > FLOAT_TOL:
                    reasons.append(f"abs_error at m={row['m']} is not |discrete - 1/6|")
                if float(row["scaled_error"]) > SCALED_ERROR_MAX:
                    reasons.append(f"m * error {row['scaled_error']} at m={row['m']}")
            if len(files["lemma.csv"]) != len(m_values) * 3 * 4:
                reasons.append("lemma.csv misses rows")
            if not files["summary.json"]["pass"]:
                reasons.append("convergence slope above -0.7")
            return reasons

        return check

    def check_oracle(res, outputs):
        code, stdout, stderr = res
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        outputs["cli.output_bytes"] += len(stdout)
        out = json.loads(stdout)
        if out["subsets"] != 2**10 - 1 or out["mismatches"] != 0:
            return [f"{out['subsets']} subsets, {out['mismatches']} mismatches"]
        for row in out["rows"]:
            product = fraction_text(Fraction(1, math.prod(row["positions"])))
            if row["product"] != product or row["enumerated"] != product:
                return [f"subset {row['positions']}: {row['enumerated']} != {product}"]
        return []

    def check_moments(stats, outputs):
        mean, var = total_moments(20_000)
        if stats.positions_used != 20_000:
            return [f"moments used {stats.positions_used} positions"]
        if abs(stats.mean_float - mean) > FLOAT_TOL or abs(stats.variance_float - var) > FLOAT_TOL:
            return [f"moments ({stats.mean_float}, {stats.variance_float}) != ({mean}, {var})"]
        return []

    ops = [
        Op("exact total(1000)", "cli.exact",
           cli_call(["exact", "--plan", p1000, "--positions", ",".join(map(str, positions)),
                     "--r", str(r), "--t-max", str(t_max), "--x", repr(x),
                     "--density", "smoothstep"]),
           check_exact, plan_bytes=s1000),
    ]
    for density in ("smoothstep", "power(2)"):
        out_dir = os.path.join(work, "sweep-" + density.replace("(", "").replace(")", ""))
        argv = ["discrete-sweep", "--plan", p3, "--positions", "2,3", "--density", density,
                "--m", ",".join(map(str, m_values)), "--r-values", "1,2,3", "--out", out_dir]
        ops.append(Op(f"discrete-sweep {density}", "cli.discrete-sweep", cli_call(argv),
                      check_sweep(out_dir), plan_bytes=s3))
    ops.append(Op("oracle-check total(10)", "cli.oracle-check",
                  cli_call(["oracle-check", "--plan", p10, "--max-index", "10"]),
                  check_oracle, rep_positions=math.factorial(10) * 10, plan_bytes=s10))
    ops.append(Op("moments total(20000)", "lib.record_count_moments",
                  lambda: exact.record_count_moments(moments_plan, 20_000), check_moments))
    return ops


WORKLOADS = {"mc_wide": mc_wide, "mc_long": mc_long, "exact_grid": exact_grid}


# ---------------------------------------------------------------------------


def run_ops(ops, tracer):
    outputs = {"cli.output_bytes": 0, "cli.gate_fail_positions": 0, "plan.file_bytes": 0}
    records = []
    for op in ops:
        call = tracer.wrap(op.span, op.call) if tracer else op.call
        res, reasons = None, []
        t0 = time.perf_counter()
        try:
            res = call()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
        if not reasons:
            try:
                reasons = op.check(res, outputs)
            except (KeyError, ValueError, TypeError, IndexError, ArithmeticError, OSError) as exc:
                reasons = [f"malformed output: {type(exc).__name__}: {exc}"]
        del res
        outputs["plan.file_bytes"] += op.plan_bytes
        records.append({"op": op.label, "seconds": seconds, "failures": reasons})
    return records, outputs


def clear_caches():
    """Empty the package's process-local caches, so each repetition starts cold.

    That covers every `functools` cache and every module-level dict named
    `*_CACHE` (such as `oracle._PERM_CACHE`), whichever modules define them.
    """
    for name, module in list(sys.modules.items()):
        if name != "partial_records" and not name.startswith("partial_records."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def run_rep(workload, seed, work, k, traced):
    """One repetition: generate the inputs, run and check the ops."""
    rep_dir = os.path.join(work, f"rep{k}")
    os.makedirs(rep_dir)
    clear_caches()
    gc.collect()  # garbage of the previous repetition is not this one's cost
    tracer = tracing.Tracer() if traced else None
    uninstall = tracing.install(tracer) if tracer else None
    try:
        t0 = time.perf_counter()
        ops = WORKLOADS[workload](seed, rep_dir)
        inputs_s = time.perf_counter() - t0
        records, outputs = run_ops(ops, tracer)
    finally:
        if uninstall:
            uninstall()
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep = {
        "traced": traced,
        "inputs_s": inputs_s,
        "wall_s": math.fsum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rep_positions": sum(op.rep_positions for op in ops),
        "attempted": len(records),
        "failed": sum(bool(r["failures"]) for r in records),
        "ops": records,
    }
    if tracer:
        rep["layers"] = tracing.layer_metrics(tracer, outputs)
        rep["spans"] = {name: row for name, row in sorted(tracer.reduce().items())}
    return rep, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawn-ns", type=int, required=True, dest="spawn_ns",
                        help="time.monotonic_ns() just before this process was started")
    parser.add_argument("--startup-only", action="store_true", dest="startup_only",
                        help="print the seconds from --spawn-ns through the imports, and exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work", help="directory for generated inputs and outputs")
    parser.add_argument("--result", help="JSON result file")
    parser.add_argument("--seconds", type=float,
                        help="start no repetition that would end later than this")
    parser.add_argument("--deadline", type=float,
                        help="start no repetition that would end later than this, "
                             "even below --min-reps")
    parser.add_argument("--min-reps", type=int, dest="min_reps",
                        help="timed repetitions to make within --deadline")
    parser.add_argument("--trace", action="store_true",
                        help="trace every other timed repetition")
    parser.add_argument("--spans", default=None, help="file for every span of a traced repetition")
    args = parser.parse_args(argv)

    startup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    if args.startup_only:
        print(repr(startup_s))
        return 0
    needed = ("workload", "seed", "work", "result", "seconds", "deadline", "min_reps")
    missing = [name for name in needed if getattr(args, name) is None]
    if missing:
        parser.error(f"missing {', '.join('--' + m.replace('_', '-') for m in missing)}")
    start = time.monotonic() - startup_s
    reps, last_tracer = [], None
    while True:
        elapsed = time.monotonic() - start
        longest = max((r["elapsed_s"] for r in reps), default=0.0)
        timed = len(reps) - 1  # the first repetition is the warm-up
        if elapsed + longest > (args.seconds if timed >= args.min_reps else args.deadline):
            break
        # The warm-up is untraced; then a traced run alternates traced and
        # untraced repetitions, so tracing overhead is a paired difference.
        traced = args.trace and timed >= 0 and timed % 2 == 0
        t0 = time.monotonic()
        rep, tracer = run_rep(args.workload, args.seed, args.work, len(reps), traced)
        rep.update(warmup=not reps, elapsed_s=time.monotonic() - t0)
        reps.append(rep)
        last_tracer = tracer or last_tracer

    if last_tracer and args.spans:
        last_tracer.dump(args.spans)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "startup_s": startup_s,
        "reps": reps,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "partial_records": partial_records.__version__,
        },
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
