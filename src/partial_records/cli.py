"""Command-line interface.

Subcommands: validate, exact, simulate, discrete-sweep, oracle-check.
Exit codes: 0 success (and all statistical gates passed), 1 domain failure
(validation violations, gate misses, a discrete-sweep error above its
error_bound, oracle mismatches, an inverse cdf whose bisection misses its
residual bound), 2 usage, file, or parse errors, a malformed tabulated
density included.  simulate's gates (the gates module) share one family
false-fail bound, 2 Phi(-z), at any plan length.

Output files are written with fixed column order, '\n' line endings, and
17-significant-digit floats, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import discrete as _discrete
from . import distributions as _distributions
from . import exact as _exact
from . import gates as _gates
from . import oracle as _oracle
from . import plan as _plan
from . import simulate as _simulate
from .errors import InversionFailure, PartialRecordsError, PlanValidationError

SCHEMA_VERSION = 2


def _fmt(x):
    return "%.17g" % float(x)


def _frac_obj(value):
    f = Fraction(value)
    return {"fraction": f"{f.numerator}/{f.denominator}", "float": float(f)}


def _parse_list(text, what, kind=int):
    try:
        items = tuple(kind(p) for p in text.split(",") if p.strip())
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{what} must be a comma-separated {noun} list, got {text!r}")
    if not items:
        raise ValueError(f"{what} is empty")
    return items


def _resolve_density(token):
    if token.startswith("tab:"):
        return _distributions.tabulated_from_csv(token[4:])
    return _distributions.builtin(token)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# validate

def cmd_validate(args):
    try:
        result = _plan.validate(_plan.load_plan_file(args.plan))
    except PlanValidationError as exc:
        # a canonical-form file is checked while it loads
        result = exc.report
    if isinstance(result, _plan.ValidationReport):
        for violation in result.violations:
            print(violation)
        print(f"INVALID ({len(result)} violations)")
        return 1
    print("position,time_index,cardinality,record_probability")
    for t in range(1, result.length + 1):
        c = result.cardinality(t)
        print(f"{t},{result.index(t)},{c},1/{c}")
    intensity = _exact.cumulative_intensity(result, result.max_index)
    print(
        f"VALID positions={result.length} "
        f"intensity={intensity.numerator}/{intensity.denominator} "
        f"({_fmt(float(intensity))})"
    )
    return 0


# ---------------------------------------------------------------------------
# exact

def cmd_exact(args):
    if args.t_max is not None and args.r is None:
        raise ValueError("--t-max needs --r")
    if args.x is not None and not math.isfinite(args.x):
        raise ValueError(f"--x must be a finite number, got {args.x}")
    vplan = _plan.as_validated(_plan.load_plan_file(args.plan))
    positions = _parse_list(args.positions, "--positions")
    out = {
        "schema": SCHEMA_VERSION,
        "command": "exact",
        "plan_hash": _plan.plan_hash(vplan),
        "positions": list(positions),
        "per_position": [
            {
                "position": t,
                "time_index": vplan.index(t),
                "cardinality": vplan.cardinality(t),
                "probability": _frac_obj(_exact.record_prob(vplan, t)),
            }
            for t in positions
        ],
        "joint": _frac_obj(_exact.joint_record_prob(vplan, positions)),
    }

    density = _resolve_density(args.density) if args.density else None
    if args.x is not None:
        if density is None:
            raise ValueError("--x needs --density")
        out["bounded"] = {
            "x": args.x,
            "density": density.name,
            "value": _exact.joint_record_prob_bounded(vplan, positions, args.x, density),
        }
    if args.r is not None:
        pmf = _exact.record_time_pmf(vplan, args.r, args.t_max)
        out["record_time"] = {
            "r": pmf.r,
            "t_max": pmf.t_max,
            "entries": [
                {
                    "position": e.position,
                    "time_index": e.time_index,
                    "probability": _frac_obj(e.probability),
                }
                for e in pmf.entries
            ],
            "residual": _frac_obj(pmf.residual),
        }
        if args.x is not None:
            (interval,) = _exact.record_value_cdf(pmf, [args.x], density)
            out["record_value"] = {
                "x": args.x,
                "lower": interval.lower,
                "upper": interval.upper,
            }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# simulate

def _auto_checkpoints(horizon):
    points = set(range(1, min(horizon, 64) + 1))
    t = 64
    while t < horizon:
        t = min(horizon, max(t + 1, int(t * 1.3)))
        points.add(t)
    points.add(horizon)
    return tuple(sorted(points))


def cmd_simulate(args):
    vplan = _plan.as_validated(_plan.load_plan_file(args.plan))
    density = _resolve_density(args.density)
    horizon = args.horizon if args.horizon is not None else vplan.length
    joint = _parse_list(args.positions, "--positions") if args.positions else ()
    grid = _parse_list(args.grid, "--grid", float) if args.grid else ()
    if grid and (args.r is None or args.r < 1):
        raise ValueError("--grid needs --r >= 1")
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"--grid must hold finite numbers, got {args.grid!r}")
    if not (math.isfinite(args.z) and args.z > 0):
        raise ValueError(f"--z must be a positive finite number, got {args.z}")
    if args.checkpoints is None:
        checkpoints = ()
    elif args.checkpoints == "auto":
        checkpoints = _auto_checkpoints(horizon)
    else:
        checkpoints = _parse_list(args.checkpoints, "--checkpoints")

    config = _simulate.SimConfig(
        plan=vplan,
        density=density,
        replications=args.n,
        master_seed=args.seed,
        horizon=horizon,
        joint_positions=joint,
        r_max=args.r or 0,
        checkpoints=checkpoints,
        z=args.z,
    )
    result = _simulate.run(config)
    moments = _exact.record_count_moments(vplan, vplan.index(result.horizon))
    summary = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "plan_hash": _plan.plan_hash(vplan),
        "density": density.name,
        "n": result.n,
        "seed": args.seed,
        "streams": _simulate.STREAMS,
        "horizon": result.horizon,
        "z": args.z,
        "tie_count": result.tie_count,
        "count": {
            "mean": result.count_mean,
            "mean_target": moments.mean_float,
            "variance": result.count_variance,
            "variance_target": moments.variance_float,
        },
    }

    joint_target = ecdf = None
    if joint:
        joint_target = _exact.joint_record_prob(vplan, joint)
        summary["joint"] = {
            "positions": list(joint),
            "hits": result.joint_count,
            "freq": result.joint_frequency,
            "target": float(joint_target),
            "target_fraction": f"{joint_target.numerator}/{joint_target.denominator}",
        }

    if grid:
        curve = _simulate.record_value_ecdf(result, args.r, grid)
        pmf = _exact.record_time_pmf(vplan, args.r, result.horizon)
        intervals = _exact.record_value_cdf(pmf, curve.grid, density)
        ecdf = (curve.ecdf, [i.lower for i in intervals], [i.upper for i in intervals])
        _write_csv(
            os.path.join(args.out, "ecdf.csv"),
            ["x", "ecdf", "series_lower", "series_upper"],
            [
                [_fmt(x), _fmt(value), _fmt(i.lower), _fmt(i.upper)]
                for x, value, i in zip(curve.grid, curve.ecdf, intervals)
            ],
        )
        summary["record_value"] = {
            "r": args.r,
            "grid_points": len(grid),
            "no_record_fraction": curve.no_record_fraction,
        }

    p_values, passes, gates = _gates.simulation_gates(result, args.z, moments, joint_target, ecdf)
    freq_rows = []
    for t in range(1, result.horizon + 1):
        target = 1 / vplan.cardinality(t)
        freq = result.event_frequency(t)
        freq_rows.append(
            [
                t,
                vplan.index(t),
                vplan.cardinality(t),
                result.event_counts[t - 1],
                result.n,
                _fmt(freq),
                _fmt(target),
                _fmt(abs(freq - target)),
                _fmt(p_values[t - 1]),
                int(passes[t - 1]),
            ]
        )
    _write_csv(
        os.path.join(args.out, "freq.csv"),
        [
            "position",
            "time_index",
            "cardinality",
            "hits",
            "n",
            "freq",
            "target",
            "abs_error",
            "p_value",
            "pass",
        ],
        freq_rows,
    )

    if checkpoints:
        points = _simulate.strong_law_trajectory(result)
        _write_csv(
            os.path.join(args.out, "trajectory.csv"),
            ["position", "time_index", "mean_count", "intensity", "ratio", "ci_radius"],
            [
                [
                    pt.position,
                    pt.time_index,
                    _fmt(pt.mean_count),
                    _fmt(pt.intensity),
                    _fmt(pt.ratio),
                    _fmt(pt.ci_radius),
                ]
                for pt in points
            ],
        )
        summary["trajectory"] = {
            "checkpoints": len(points),
            "final_ratio": points[-1].ratio,
            "final_ci_radius": points[-1].ci_radius,
        }

    summary["gates"] = [vars(g) for g in gates]
    summary["pass"] = all(g.passed for g in gates)
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"{'PASS' if summary['pass'] else 'FAIL'} -> {args.out}")
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# discrete-sweep

def cmd_discrete_sweep(args):
    vplan = _plan.as_validated(_plan.load_plan_file(args.plan))
    density = _resolve_density(args.density)
    positions = _parse_list(args.positions, "--positions")
    m_values = _parse_list(args.m, "--m")
    r_values = _parse_list(args.r_values, "--r-values")
    # a bad list fails here, before the sweep's work and its first write
    for m in m_values:
        _discrete._grid_top(density, m)
    for r in r_values:
        _discrete._check_power(r)

    rows = _discrete.error_sweep(vplan, positions, density, m_values)
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        ["m", "discrete", "continuous", "abs_error", "scaled_error", "bound"],
        [[row.m, *map(_fmt, (row.discrete, row.continuous, row.abs_error, row.scaled, row.bound))]
         for row in rows],
    )

    _write_csv(
        os.path.join(args.out, "lemma.csv"),
        ["relation", "r", "m", "deviation", "scaled", "argmax_l"],
        [
            [name, r, m, _fmt(dev.deviation), _fmt(dev.scaled), dev.argmax_l]
            for m in m_values
            for r in r_values
            for name, dev in sorted(_discrete.lemma_checks(density, m, r).items())
        ],
    )

    passed = all(row.abs_error <= row.bound for row in rows)
    summary = {
        "schema": SCHEMA_VERSION,
        "command": "discrete-sweep",
        "plan_hash": _plan.plan_hash(vplan),
        "density": density.name,
        "positions": list(positions),
        "m_values": list(m_values),
        "r_values": list(r_values),
        "max_scaled_error": max(float(row.scaled) for row in rows),
        "pass": passed,
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"{'PASS' if passed else 'FAIL'} -> {args.out}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# oracle-check

def cmd_oracle_check(args):
    vplan = _plan.as_validated(_plan.load_plan_file(args.plan))
    table = _oracle.exact_joint_table(vplan, max_indices=args.max_index)
    rows = []
    for subset in sorted(table, key=lambda s: (len(s), s)):
        target = _exact.joint_record_prob(vplan, subset)
        got = table[subset]
        rows.append(
            {
                "positions": list(subset),
                "product": f"{target.numerator}/{target.denominator}",
                "enumerated": f"{got.numerator}/{got.denominator}",
                "match": got == target,
            }
        )
    mismatches = sum(not row["match"] for row in rows)
    out = {
        "schema": SCHEMA_VERSION,
        "command": "oracle-check",
        "plan_hash": _plan.plan_hash(vplan),
        "subsets": len(rows),
        "mismatches": mismatches,
        "rows": rows,
        "pass": mismatches == 0,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if mismatches == 0 else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="partial-records",
        description="Record events from partial comparisons: exact laws, "
        "simulation, and discrete approximation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check plan compatibility, print the odds table")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("exact", help="closed-form probabilities for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--positions", required=True, help="comma list, e.g. 1,3,4")
    p.add_argument("--x", type=float, default=None, help="value cutoff for the last position")
    p.add_argument("--density", default=None, help="density name or tab:file.csv")
    p.add_argument("--r", type=int, default=None, help="record rank for time/value laws")
    p.add_argument("--t-max", type=int, default=None, dest="t_max")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo run with statistical gates")
    p.add_argument("--plan", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True, help="replications")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--positions", default=None, help="joint-event positions")
    p.add_argument("--r", type=int, default=None, help="track the r-th record")
    p.add_argument("--grid", default=None, help="cutoff grid for the record-value ecdf")
    p.add_argument("--checkpoints", default=None, help="'auto' or comma list of positions")
    p.add_argument("--z", type=float, default=4.0, help="gates' false-fail bound 2 Phi(-z)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("discrete-sweep", help="grid-approximation error sweep")
    p.add_argument("--plan", required=True)
    p.add_argument("--positions", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--m", required=True, help="comma list of grid resolutions")
    p.add_argument("--r-values", default="1,2,3", dest="r_values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_discrete_sweep)

    p = sub.add_parser("oracle-check", help="product formula vs exhaustive enumeration")
    p.add_argument("--plan", required=True)
    p.add_argument(
        "--max-index",
        type=int,
        default=8,
        dest="max_index",
        help="cap on the number of relevant indices (default %(default)s, hard "
        f"limit {_oracle._PERM_LIMIT}); k relevant indices means enumerating all "
        "k! orderings",
    )
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out"):
            os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except InversionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PlanValidationError as exc:
        print(f"error: plan failed validation:\n{exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, IndexError, PartialRecordsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
