"""Benchmark of the partial_records package: one command, every metric.

    python3 bench/run.py --workload mc_wide --seed 1 --seconds 44 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 44 --trace 0

Run it from the root of a checkout; it needs nothing but that checkout.  A
run starts one fresh worker process (bench/worker.py), which repeats the
workload's operation list until about --seconds seconds into the run, after
one warm-up repetition.  The run reports the median over the timed
repetitions of each metric named in BENCHMARK.json: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  An untraced run first
times a few more worker starts, for the start-up part of setup_s.  A traced
run alternates traced and untraced repetitions, so it can also report the
tracing overhead.  Every operation's output is checked against the exact
law; `failed` counts the operations that raised, exited with code 2, wrote
no output, or disagreed with the law.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Results and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mc_wide", "mc_long", "exact_grid")
DEADLINE_S = 160  # a run must end within 180 s, whatever --seconds says
MIN_REPS = {False: 3, True: 2}  # untraced; traced (one traced, one untraced)
STARTUPS = 4  # extra fresh worker starts per run, timed for setup_s
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def code_facts():
    """Machine and code facts recorded beside the numbers."""
    src = os.path.join(ROOT, "src")
    lines, digest = 0, hashlib.sha256()
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):  # git would otherwise search parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit or "unknown (not a git checkout)",
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def spawn(argv, timeout):
    """Run a worker to its end; the spawn time goes in as --spawn-ns."""
    return subprocess.run(
        argv + ["--spawn-ns", str(time.monotonic_ns())],
        cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True,
        timeout=timeout,
    )


def run_workload(workload, seed, seconds, trace):
    """Time STARTUPS worker starts (untraced runs only), then let one worker
    repeat the workload until about --seconds seconds into the run.

    Returns the repetitions (the warm-up first), the start-up times (the
    repeating worker's last), the worker's versions, and the errors that cost
    repetitions.  A worker killed on timeout has been reaped by subprocess.run.
    """
    start = time.monotonic()
    startups = []
    for _ in range(0 if trace else STARTUPS):
        try:
            proc = spawn([sys.executable, WORKER, "--startup-only"], DEADLINE_S / 4)
        except subprocess.TimeoutExpired:
            return [], [], {}, [f"start-up worker killed after {DEADLINE_S / 4:.0f} s"]
        if proc.returncode != 0:
            return [], [], {}, [f"start-up worker exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}"]
        startups.append(float(proc.stdout))

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{workload}-{seed}")
    result_path = os.path.join(OUT, f"reps-{workload}-{seed}.json")
    shutil.rmtree(work, ignore_errors=True)
    used = time.monotonic() - start
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--work", work, "--result", result_path, "--seconds", str(seconds - used),
            "--deadline", str(DEADLINE_S - 10 - used), "--min-reps", str(MIN_REPS[trace])]
    if trace:
        argv += ["--trace", "--spans", os.path.join(OUT, f"{workload}-seed{seed}-spans.json")]
    try:
        proc = spawn(argv, DEADLINE_S - used)
        if proc.returncode != 0:
            return [], [], {}, [f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        return [], [], {}, [f"worker killed after {DEADLINE_S - used:.0f} s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)
    return result["reps"], startups + [result["startup_s"]], result["versions"], []


def metrics_of(reps, startups, trace):
    """The samples of every metric of one workload: {name: [value per repetition]}.

    Set-up has two parts, timed separately: a fresh worker's start through
    its imports, and one repetition's input generation.  Its one sample is
    the sum of their medians.
    """
    timed = [r for r in reps if not r["warmup"]]
    plain = [r for r in timed if not r["traced"]]
    if not trace:
        return {
            "setup_s": [statistics.median(startups)
                        + statistics.median(r["inputs_s"] for r in plain)],
            "wall_s": [r["wall_s"] for r in plain],
            "rep_positions_per_s": [r["rep_positions"] / r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
    traced = [r for r in timed if r["traced"]]
    out = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    out["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain)]
    return out


def report(workload, seed, seconds, trace, facts, spec):
    """Run one workload and print its metrics; return (attempted, failed, metrics, usable)."""
    reps, startups, versions, errors = run_workload(workload, seed, seconds, trace)
    attempted = sum(r["attempted"] for r in reps) + len(errors)
    failed = sum(r["failed"] for r in reps) + len(errors)
    for error in errors:
        print(f"{workload}: {error}", file=sys.stderr)
    for rep in reps:
        for op in rep["ops"]:
            for reason in op["failures"]:
                print(f"{workload}: FAILED {op['op']}: {reason}", file=sys.stderr)
    metrics = {}
    timed = [r for r in reps if not r["warmup"]]
    usable = any(not r["traced"] for r in timed) and (
        not trace or any(r["traced"] for r in timed))
    if usable:
        samples = metrics_of(reps, startups, trace)
        for m in spec["per_layer" if trace else "end_to_end"]:
            values = samples[m["name"]]
            value = statistics.median(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            spread = ""
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
            print(f"{workload:10s} {m['name']:36s} {value:14.6g} {m['unit']}{spread}")
    print(f"{workload:10s} {'fail_frac':36s} {failed / max(attempted, 1):14.6g} ratio"
          f"  ({failed} failed ops / {attempted} attempted ops)")
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "facts": {**facts, **versions},
              "attempted": attempted, "failed": failed, "errors": errors,
              "metrics": metrics, "startups": startups, "reps": reps}
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return attempted, failed, metrics, bool(usable)


def main(argv=None):
    parser = argparse.ArgumentParser(description="partial_records benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "partial_records", "cli.py"), WORKER,
              os.path.join(ROOT, "BENCHMARK.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a partial_records checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    facts = code_facts()
    print("facts " + json.dumps(facts, sort_keys=True))

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics, usable = {}, True
    for workload in names:
        a, f, m, ok = report(workload, args.seed, args.seconds, trace, facts, spec)
        attempted, failed, usable = attempted + a, failed + f, usable and ok
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    correct = usable and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
