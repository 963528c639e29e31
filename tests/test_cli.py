"""Command-line interface: outputs, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from collections import Counter

import pytest

import partial_records as pr
from partial_records import cli, discrete, simulate
from partial_records.cli import main


@pytest.fixture
def total6_file(tmp_path):
    path = tmp_path / "total6.json"
    pr.save_plan_file(pr.total_comparison_plan(6), path)
    return str(path)


@pytest.fixture
def bad_plan_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"indices": [1, 3, 2], "comparison_sets": [[], [1], [1, 3]]}')
    return str(path)


def test_validate_ok(capsys, total6_file):
    assert main(["validate", "--plan", total6_file]) == 0
    out = capsys.readouterr().out
    assert "VALID positions=6" in out
    assert "intensity=49/20" in out


def test_validate_reports_violations(capsys, bad_plan_file):
    assert main(["validate", "--plan", bad_plan_file]) == 1
    out = capsys.readouterr().out
    assert "NotStrictlyIncreasingIndices" in out
    assert "INVALID" in out


def test_missing_file_is_exit_2(capsys, tmp_path):
    assert main(["validate", "--plan", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{oops")
    assert main(["validate", "--plan", str(path)]) == 2


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["exact"])  # missing required arguments
    assert info.value.code == 2


def test_exact_json_output(capsys, total6_file):
    code = main(
        [
            "exact",
            "--plan", total6_file,
            "--positions", "2,3",
            "--x", "0.8",
            "--density", "smoothstep",
            "--r", "2",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["joint"]["fraction"] == "1/6"
    assert data["bounded"]["value"] == pytest.approx(0.11988718933333338, abs=1e-15)
    assert data["record_time"]["residual"]["fraction"] == "1/6"
    assert data["record_value"]["lower"] <= data["record_value"]["upper"]


def test_exact_t_max_without_r_is_a_usage_error(capsys, total6_file):
    argv = ["exact", "--plan", total6_file, "--positions", "2", "--t-max", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--t-max needs --r" in captured.err
    assert main(argv + ["--r", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["record_time"]["t_max"] == 4


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_exact_rejects_a_non_finite_cutoff(capsys, total6_file, x):
    argv = ["exact", "--plan", total6_file, "--positions", "2", "--density", "smoothstep",
            "--r", "1", f"--x={x}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--x must be a finite number" in captured.err


def test_exact_invalid_plan_is_exit_2(capsys, bad_plan_file):
    assert main(["exact", "--plan", bad_plan_file, "--positions", "1"]) == 2


def test_exact_formerly_oversized_plan_is_exit_0(capsys, monkeypatch, total6_file):
    # total(7000) has more than 20M comparison-set entries
    plan = pr.total_comparison_plan(7000)
    monkeypatch.setattr(pr.plan, "load_plan_file", lambda path: plan)
    assert main(["exact", "--plan", total6_file, "--positions", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["plan_hash"] == pr.plan_hash(plan)


def test_large_plan_is_saved_loaded_hashed_and_run_without_materializing(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("a comparison set was materialized")

    monkeypatch.setattr(pr.ValidatedPlan, "comparison_set", refuse)
    monkeypatch.setattr(pr.ValidatedPlan, "to_comparison_plan", refuse)
    plan = pr.total_comparison_plan(100_000)
    path = tmp_path / "total.json"
    pr.save_plan_file(plan, path)
    assert path.stat().st_size < 2_000_000
    assert pr.load_plan_file(path) == plan
    digest = pr.plan_hash(plan)
    assert main(["exact", "--plan", str(path), "--positions", "1,100000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plan_hash"] == digest
    assert out["joint"]["fraction"] == "1/100000"


def _write_plan(tmp_path, obj):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"fresh": [[]], "indices": [True]}, "indices must be a list of integers"),
        ({"fresh": [[]], "indices": [2.0]}, "indices must be a list of integers"),
        ({"fresh": [["1"]], "indices": [2]}, r"fresh\[0\] must be a list of integers"),
        ({"fresh": [[[1]]], "indices": [2]}, r"fresh\[0\] must be a list of integers"),
        ({"fresh": [[True]], "indices": [2]}, r"fresh\[0\] must be a list of integers"),
        ({"fresh": [[1, 1]], "indices": [3]}, r"fresh\[0\] has duplicate entries"),
        ({"fresh": [[], [1]], "indices": [1, 3]}, r"fresh\[1\] repeats earlier members \[1\]"),
        ({"fresh": [[1], [1]], "indices": [2, 4]}, r"fresh\[1\] repeats earlier members \[1\]"),
        ({"fresh": [[]], "indices": [1, 2]}, "2 indices but 1 fresh sets"),
        ({"fresh": [], "indices": []}, "at least one index"),
        ({"fresh": [[]], "comparison_sets": [[]], "indices": [1]}, "both"),
    ],
)
def test_canonical_form_rejects_malformed_input(tmp_path, capsys, obj, message):
    with pytest.raises(ValueError, match=message) as info:
        pr.plan_from_json_dict(obj)
    assert not isinstance(info.value, pr.PlanValidationError)
    assert main(["validate", "--plan", _write_plan(tmp_path, obj)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, report",
    [
        ({"fresh": [[], []], "indices": [3, 3]},
         "[NotStrictlyIncreasingIndices] position 2: index 3 does not exceed predecessor 3"),
        ({"fresh": [[]], "indices": [0]},
         "[NotStrictlyIncreasingIndices] position 1: index 0 is below 1"),
        ({"fresh": [[1], [0, 4]], "indices": [2, 4]},
         "[SetOutOfRange] position 2: elements [0, 4] outside 1..3"),
    ],
)
def test_canonical_form_violations_are_reported(tmp_path, capsys, obj, report):
    path = _write_plan(tmp_path, obj)
    assert main(["validate", "--plan", path]) == 1
    assert capsys.readouterr().out == f"{report}\nINVALID (1 violations)\n"
    assert main(["exact", "--plan", path, "--positions", "1"]) == 2


def test_exact_unknown_density_is_exit_2(capsys, total6_file):
    code = main(
        ["exact", "--plan", total6_file, "--positions", "2", "--x", "0.5", "--density", "nope"]
    )
    assert code == 2
    # a k beyond the float range is bad input too, not a traceback
    code = main(
        ["exact", "--plan", total6_file, "--positions", "2", "--x", "0.5",
         "--density", "power(1e400)"]
    )
    assert code == 2
    assert "largest float" in capsys.readouterr().err


def test_simulate_outputs_and_gates(tmp_path, capsys, total6_file):
    out_dir = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--plan", total6_file,
            "--density", "power(2)",
            "--n", "50000",
            "--seed", "7",
            "--positions", "2,3",
            "--r", "2",
            "--grid", "0.25,0.5,0.75",
            "--checkpoints", "auto",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["joint"]["target_fraction"] == "1/6"
    freq_lines = (out_dir / "freq.csv").read_text().strip().splitlines()
    assert len(freq_lines) == 7  # header + 6 positions
    assert freq_lines[0].startswith("position,time_index,")
    assert (out_dir / "ecdf.csv").exists()
    assert (out_dir / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "options",
    [["--r", "0", "--grid", "0.5"], ["--z", "-4"], ["--z", "0"], ["--z", "nan"], ["--z", "inf"],
     ["--r", "2", "--grid", "nan,0.5"], ["--r", "2", "--grid", "0.5,inf"],
     ["--r", "2", "--grid=-inf"], ["--seed", "-1"]],
)
def test_simulate_rejects_bad_options_before_the_run(tmp_path, capsys, total6_file, options):
    out_dir = tmp_path / "run"
    argv = ["simulate", "--plan", total6_file, "--density", "uniform01", "--n", "1000",
            "--seed", "1", *options, "--out", str(out_dir)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_simulate_takes_a_seed_of_2_to_the_64_and_records_its_streams(tmp_path, total6_file):
    out_dir = tmp_path / "run"
    argv = ["simulate", "--plan", total6_file, "--density", "uniform01", "--n", "1000",
            "--seed", str(2**64), "--out", str(out_dir)]
    assert main(argv) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 2**64
    assert summary["streams"] == "PCG64DXSM(seed).jumped(time_index)"


def test_simulate_deterministic_bytes(tmp_path, total6_file):
    args = [
        "simulate",
        "--plan", total6_file,
        "--density", "smoothstep",
        "--n", "20000",
        "--seed", "42",
        "--positions", "2,3",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("freq.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_bytes_do_not_depend_on_the_block_split(tmp_path, monkeypatch, total6_file):
    args = ["simulate", "--plan", total6_file, "--density", "smoothstep", "--n", "100000",
            "--seed", "5", "--positions", "2,3", "--r", "2", "--grid", "0.25,0.5,0.75",
            "--checkpoints", "auto"]
    names = ("summary.json", "freq.csv", "ecdf.csv", "trajectory.csv")
    outputs = []
    for blocks in (1, 3):
        monkeypatch.setattr(simulate, "_block_count", lambda n: blocks)
        out_dir = tmp_path / f"blocks{blocks}"
        assert main(args + ["--out", str(out_dir)]) == 0
        outputs.append([(out_dir / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def test_each_command_builds_one_record_time_pmf(tmp_path, capsys, monkeypatch, total6_file):
    calls = []
    build = cli._exact.record_time_pmf
    monkeypatch.setattr(cli._exact, "record_time_pmf",
                        lambda *args: calls.append(args) or build(*args))
    grid = ",".join(str(k / 20) for k in range(1, 20))
    simulate_argv = ["simulate", "--plan", total6_file, "--density", "smoothstep", "--n", "2000",
                     "--seed", "5", "--r", "2", "--grid", grid, "--out", str(tmp_path / "run")]
    assert main(simulate_argv) == 0
    assert len((tmp_path / "run" / "ecdf.csv").read_text().splitlines()) == 1 + 19
    assert len(calls) == 1
    exact_argv = ["exact", "--plan", total6_file, "--positions", "2", "--r", "2", "--x", "0.5",
                  "--density", "smoothstep"]
    assert main(exact_argv) == 0
    assert len(calls) == 2
    # the record-value exponent is c(n_t); there is no option to choose another
    for argv in (simulate_argv, exact_argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--exponent", "time_index"])
        assert info.value.code == 2


@pytest.mark.parametrize("blocks", [1, 3])
def test_simulate_inversion_failure_writes_nothing(tmp_path, capsys, monkeypatch, total6_file,
                                                   blocks):
    def inverse(u):
        raise pr.InversionFailure("no inverse for this stream")

    failing = dataclasses.replace(pr.uniform01(), inverse_cdf=inverse)
    monkeypatch.setattr(cli, "_resolve_density", lambda token: failing)
    monkeypatch.setattr(simulate, "_block_count", lambda n: blocks)
    out_dir = tmp_path / "run"
    argv = ["simulate", "--plan", total6_file, "--density", "uniform01", "--n", "10001",
            "--seed", "1", "--out", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: no inverse for this stream\n"
    assert list(out_dir.iterdir()) == []


def test_import_loads_no_scipy_module(tmp_path, total6_file):
    # importing the package, then exact, discrete-sweep and simulate (with
    # every gate) on a built-in and on a tabulated density
    table = tmp_path / "smooth.csv"
    table.write_text("".join(f"{x / 50},{6 * (x / 50) * (1 - x / 50)}\n" for x in range(51)))
    runs = []
    for k, density in enumerate(["smoothstep", f"tab:{table}"]):
        runs += [
            ["exact", "--plan", total6_file, "--positions", "2,3", "--r", "2", "--x", "0.5",
             "--density", density],
            ["discrete-sweep", "--plan", total6_file, "--positions", "2,3", "--density", density,
             "--m", "8,16", "--out", str(tmp_path / f"sweep{k}")],
            ["simulate", "--plan", total6_file, "--density", density, "--n", "1000", "--seed", "1",
             "--positions", "2,3", "--r", "2", "--grid", "0.5", "--out", str(tmp_path / f"run{k}")],
        ]
    code = ("import sys, partial_records, partial_records.cli; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(scipy()); "
            f"codes = [partial_records.cli.main(argv) for argv in {runs!r}]; "
            "print(codes); print(scipy())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-2:] == [str([0] * len(runs)), "[]"]


def test_tiny_or_subnormal_table_runs_exact_under_warnings_as_errors(tmp_path, total6_file):
    # interpolating f = (0, 0, 1e-320) as it stands overflows a slope's reciprocal
    table = tmp_path / "tiny.csv"
    table.write_text("0,0\n0.5,0\n1,1e-320\n")
    argv = ["exact", "--plan", total6_file, "--positions", "2,3", "--r", "2", "--x", "0.5",
            "--density", f"tab:{table}"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "partial_records.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    plain = tmp_path / "plain.csv"
    plain.write_text("0,0\n0.5,0\n1,1\n")
    assert json.loads(proc.stdout)["bounded"]["value"] == pytest.approx(
        pr.joint_record_prob_bounded(pr.total_comparison_plan(6), (2, 3), 0.5,
                                     pr.tabulated_from_csv(plain)), abs=1e-15)


@pytest.mark.parametrize("row, message", [("nan,1", "tabulated x at row 1 is nan"),
                                          ("0.5,inf", "tabulated f at row 1 is inf")])
def test_non_finite_table_value_is_exit_2(tmp_path, capsys, total6_file, row, message):
    table = tmp_path / "bad.csv"
    table.write_text(f"x,f\n0,1\n{row}\n1,1\n")
    argv = ["exact", "--plan", total6_file, "--positions", "2", "--x", "0.5",
            "--density", f"tab:{table}"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("j, n, seed", [(1500, 2000, 5), (3000, 20_000, 5), (3000, 20_000, 6)])
def test_simulate_passes_correct_long_plans(tmp_path, capsys, j, n, seed):
    # the normal-approximation 4-sigma gate without a multiplicity correction
    # failed each of these correct runs at one position
    plan_file = tmp_path / "plan.json"
    pr.save_plan_file(pr.total_comparison_plan(j), plan_file)
    out_dir = tmp_path / "run"
    argv = ["simulate", "--plan", str(plan_file), "--density", "smoothstep", "--n", str(n),
            "--seed", str(seed), "--out", str(out_dir)]
    assert main(argv) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is True
    assert [g["name"] for g in summary["gates"]] == ["positions", "count_mean"]


def test_simulate_reports_one_gates_list(tmp_path, total6_file):
    out_dir = tmp_path / "run"
    argv = ["simulate", "--plan", total6_file, "--density", "smoothstep", "--n", "20000",
            "--seed", "3", "--positions", "2,3", "--r", "2", "--grid", "0.25,0.5",
            "--z", "3", "--out", str(out_dir)]
    assert main(argv) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    level = 1 - (1 - math.erfc(3 / math.sqrt(2))) ** (1 / 9)  # 6 positions + 3 tests
    assert [g["name"] for g in summary["gates"]] == [
        "positions", "count_mean", "joint", "record_value_ecdf"
    ]
    for g in summary["gates"]:
        assert set(g) == {"name", "deviation", "p_value", "level", "worst_position", "passed"}
        assert g["level"] == pytest.approx(level, rel=1e-12)
        assert g["passed"] is (g["p_value"] > g["level"])
    assert set(summary["count"]) == {"mean", "mean_target", "variance", "variance_target"}
    assert "pass" not in summary["joint"] and "ci_radius" not in summary["joint"]
    assert "pass" not in summary["record_value"]
    with open(out_dir / "freq.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["position", "time_index", "cardinality", "hits", "n", "freq",
                             "target", "abs_error", "p_value", "pass"]
    worst = min(rows, key=lambda row: float(row["p_value"]))
    assert int(worst["position"]) == summary["gates"][0]["worst_position"]
    assert float(worst["p_value"]) == summary["gates"][0]["p_value"]
    assert (out_dir / "ecdf.csv").read_text().splitlines()[0] == "x,ecdf,series_lower,series_upper"


def test_simulate_fails_a_run_that_misses_the_law(tmp_path, capsys, monkeypatch, total6_file):
    run = simulate.run

    def one_extra_record(config):  # position 3 off by 3 % of n, 9 of its sd
        result = run(config)
        counts = list(result.event_counts)
        counts[2] += 3 * result.n // 100
        return dataclasses.replace(result, event_counts=tuple(counts))

    monkeypatch.setattr(simulate, "run", one_extra_record)
    out_dir = tmp_path / "run"
    argv = ["simulate", "--plan", total6_file, "--density", "uniform01", "--n", "20000",
            "--seed", "1", "--out", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().out == f"FAIL -> {out_dir}\n"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is False
    assert (summary["gates"][0]["passed"], summary["gates"][0]["worst_position"]) == (False, 3)
    with open(out_dir / "freq.csv", newline="") as fh:
        assert [row["pass"] for row in csv.DictReader(fh)] == ["1", "1", "0", "1", "1", "1"]


def test_discrete_sweep_outputs(tmp_path, capsys, total6_file):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "discrete-sweep",
            "--plan", total6_file,
            "--positions", "2,3",
            "--density", "power(2)",
            "--m", "8,16,32,64",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is True
    with open(out_dir / "sweep.csv", newline="") as fh:
        sweep_rows = list(csv.DictReader(fh))
    assert len(sweep_rows) == 4
    assert all(float(row["abs_error"]) <= float(row["bound"]) for row in sweep_rows)
    lemma_lines = (out_dir / "lemma.csv").read_text().strip().splitlines()
    # header + 4 relations x 4 m values x 3 r values
    assert len(lemma_lines) == 1 + 4 * 4 * 3


def test_discrete_sweep_judges_each_row_by_its_bound(tmp_path, capsys, monkeypatch, total6_file):
    def sweep(out_dir):
        return main(["discrete-sweep", "--plan", total6_file, "--positions", "3,6",
                     "--density", "power(2)", "--m", "8", "--out", str(out_dir)])

    # one m, and error/bound is 0.63 there: a halved bound fails the one row
    assert sweep(tmp_path / "ok") == 0
    error_bound = discrete.error_bound
    monkeypatch.setattr(discrete, "error_bound", lambda *args: error_bound(*args) / 2)
    assert sweep(tmp_path / "halved") == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"FAIL -> {tmp_path / 'halved'}"
    assert json.loads((tmp_path / "halved" / "summary.json").read_text())["pass"] is False


def _sweep_argv(plan_file, out_dir, density="smoothstep", m="8,16,64", r_values="1,2,3"):
    return [
        "discrete-sweep",
        "--plan", plan_file,
        "--positions", "2,3",
        "--density", density,
        "--m", m,
        "--r-values", r_values,
        "--out", str(out_dir),
    ]


def _counting_density(monkeypatch):
    """smoothstep whose pieces count their grid calls per (pdf or cdf, m),
    resolved for any name."""
    calls = Counter()
    base = pr.smoothstep_density()

    class CountedPieces(type(base.pieces)):
        def grid(self, polys, m, count):
            calls["pdf" if polys is self.pdf else "cdf", m] += 1
            return super().grid(polys, m, count)

    density = dataclasses.replace(base, pieces=CountedPieces(*base.pieces))
    monkeypatch.setattr(cli, "_resolve_density", lambda token: density)
    return calls


def test_discrete_sweep_evaluates_each_grid_once(tmp_path, monkeypatch, total6_file):
    calls = _counting_density(monkeypatch)
    m_values = (8, 16, 64, 128)
    argv = _sweep_argv(total6_file, tmp_path / "sweep", m=",".join(map(str, m_values)))
    assert main(argv) == 0
    assert calls == {(polys, m): 1 for polys in ("pdf", "cdf") for m in m_values}


@pytest.mark.parametrize("m, r_values", [("8,1024", "1,0"), ("8,0", "1,2,3")])
def test_discrete_sweep_rejects_bad_params_before_work(
    tmp_path, capsys, monkeypatch, total6_file, m, r_values
):
    calls = _counting_density(monkeypatch)
    out_dir = tmp_path / "sweep"
    assert main(_sweep_argv(total6_file, out_dir, m=m, r_values=r_values)) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not calls
    assert list(out_dir.iterdir()) == []


# sha256 of the outputs; lemma.csv taken before exact grids moved to integer
# numerators, sweep.csv and summary.json since the sweep is judged by
# error_bound (its bound column; no slope or smoothness keys); smoothstep
# runs its polynomial pieces, power(3/2) its float samples taken as exact
# dyadic rationals (pinned since the float arithmetic and its 2^-52
# rounding allowance were removed)
SWEEP_DIGESTS = {
    "smoothstep": {
        "sweep.csv": "2370e1f00359b5a4f65ec0948e85709e843868eee00a87f12004bd5012dbb378",
        "lemma.csv": "16181ab9a3afdf80457777dc4f856e5452ae604624d6fd12a6688cd1ed621dca",
        "summary.json": "a5468a4af1e26d1d9f1c4518abe6f49fde99ced9b7f626b410c7560bba5e5f51",
    },
    "power(3/2)": {
        "sweep.csv": "efad31422335cfce2ad9b085b2e2e856c5400bcbe3850fffbc7f9a7d491610c2",
        "lemma.csv": "c2a52bd71ff6b071097bb7a63992395198c5240284ae403a82c3f2af87628da3",
        "summary.json": "c565980f92a0ae4bf7122adb9633dee52ed96e3c1b91baa98f8556b06024adf9",
    },
}


@pytest.mark.parametrize("density", sorted(SWEEP_DIGESTS))
def test_discrete_sweep_bytes_are_pinned(tmp_path, density):
    plan_file = tmp_path / "total3.json"
    pr.save_plan_file(pr.total_comparison_plan(3), plan_file)
    out_dir = tmp_path / "sweep"
    assert main(_sweep_argv(str(plan_file), out_dir, density=density)) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in SWEEP_DIGESTS[density]
    }
    assert digests == SWEEP_DIGESTS[density]


def test_oracle_check_passes(capsys, total6_file):
    assert main(["oracle-check", "--plan", total6_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["mismatches"] == 0
    assert data["subsets"] == 63


@pytest.mark.parametrize(
    "length, argv, cap",
    [(50, [], "cap 8"), (11, ["--max-index", "11"], "cap 10")],
)
def test_oracle_check_over_the_index_cap_is_exit_2(capsys, tmp_path, length, argv, cap):
    # a table over 50 positions is never sized: the cap is checked first
    path = tmp_path / "plan.json"
    pr.save_plan_file(pr.total_comparison_plan(length), path)
    assert main(["oracle-check", "--plan", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cap in captured.err


def test_cli_entrypoint_runs_as_module(total6_file):
    proc = subprocess.run(
        [sys.executable, "-m", "partial_records.cli", "validate", "--plan", total6_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "VALID" in proc.stdout
