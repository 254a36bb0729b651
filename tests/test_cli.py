import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rabi_balance
from rabi_balance import ModelParams, NotConverged, balance, cli, solve_rabi_ground, variational
from rabi_balance.cli import SWEEP_COLUMNS, main


def run_cli(args):
    return main(args)


def test_solve_plain_output(capsys):
    assert run_cli(["solve", "--lambda", "0.5", "--omega0", "1"]) == 0
    out = capsys.readouterr().out
    assert "energy = -0.6332942354616302" in out
    assert "parity_label = +1" in out
    assert "converged = True" in out


def test_solve_json_output(capsys):
    assert run_cli(["solve", "--lambda", "0", "--omega0", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["energy"] == pytest.approx(-0.5, abs=1e-12)
    assert data["converged"] is True


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["solve", "--omega0", "1"]) == 1
    assert "lambda" in capsys.readouterr().err


def test_bad_range_syntax_is_usage_error():
    assert run_cli(["solve", "--lambda", "0:1", "--omega0", "1"]) == 1
    assert run_cli(["solve", "--lambda", "zebra", "--omega0", "1"]) == 1


@pytest.mark.parametrize("args", [
    ["solve", "--lambda", "nan", "--omega0", "1"],
    ["solve", "--lambda", "inf", "--omega0", "1"],
    ["solve", "--lambda", "1", "--omega0", "1", "--omega", "inf"],
    ["solve", "--lambda", "1", "--omega0", "inf"],
    ["solve", "--lambda", "1", "--omega0", "nan"],
    ["converge", "--lambda", "nan", "--omega0", "1"],
    ["converge", "--lambda", "inf", "--omega0", "1"],
    ["converge", "--lambda", "1", "--omega0", "1", "--omega", "inf"],
    ["converge", "--lambda", "1", "--omega0", "inf"],
    ["sweep", "--lambda", "nan:1:2", "--omega0", "1", "--jobs", "1"],
    ["sweep", "--lambda", "0:inf:2", "--omega0", "1", "--jobs", "1"],
    ["sweep", "--lambda", "0:1:2", "--omega0", "0:inf:2", "--jobs", "1"],
    ["solve", "--lambda", "0.5", "--omega0", "1", "--tol", "nan"],
    ["solve", "--lambda", "0.5", "--omega0", "1", "--tol", "inf"],
])
def test_non_finite_input_is_usage_error(capsys, args):
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_single_point_command_rejects_ranges():
    assert run_cli(["solve", "--lambda", "0:1:3", "--omega0", "1"]) == 1


def test_unknown_format_is_usage_error(capsys):
    assert run_cli(["solve", "--lambda", "0.5", "--omega0", "1",
                    "--format", "xml"]) == 1
    capsys.readouterr()
    assert run_cli(["solve", "--lambda", "0.5", "--omega0", "1",
                    "--seed", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_nonconverged_solve_exits_2(capsys):
    code = run_cli(["solve", "--lambda", "2", "--omega0", "1", "--dim", "8"])
    assert code == 2
    out = capsys.readouterr().out
    assert "converged = False" in out  # best-effort fields still printed


def test_balance_report_passes(capsys):
    assert run_cli(["balance", "--lambda", "0.5", "--omega0", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert "p1" in data["report"]["properties"]
    assert "b2_literal" not in data["report"]["properties"]


def test_balance_paper_literal_adds_diagnostics(capsys):
    assert run_cli(["balance", "--lambda", "0.5", "--omega0", "1",
                    "--paper-literal"]) == 0
    data = json.loads(capsys.readouterr().out)
    props = data["report"]["properties"]
    assert {"b2_literal", "p4_literal", "wigner_energy_literal"} <= set(props)
    assert props["b2_literal"]["satisfied"] is False
    assert data["passed"] is True


def test_variational_json(capsys):
    assert run_cli(["variational", "--lambda", "0.5", "--omega0", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    res = data["result"]
    assert res["gap"] >= -1e-9
    assert res["grad_norm"] < 1e-6
    assert res["trial"]["beta"] == pytest.approx(-0.266, abs=1e-2)


def test_converge_table(capsys):
    assert run_cli(["converge", "--lambda", "1", "--omega0", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dim,e_exact,delta"
    first = lines[1].split(",")
    assert first[0] == "16"
    assert first[2] == ""  # no predecessor delta on the first row
    assert float(lines[-1].split(",")[2]) == pytest.approx(0.0, abs=1e-10)


def test_converge_unmet_tolerance_exits_2(capsys):
    assert run_cli(["converge", "--lambda", "2", "--omega0", "1",
                    "--dim", "32"]) == 2


def test_sweep_header_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "--lambda", "0:1:2", "--omega0", "0.5:1.5:2",
            "--jobs", "1"]
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 5
    # grid order: first swept axis slowest
    lam_col = [line.split(",")[1] for line in lines[1:]]
    assert lam_col == ["0", "0", "1", "1"]


def test_sweep_worker_pool_matches_serial(tmp_path):
    out_a = tmp_path / "serial.csv"
    out_b = tmp_path / "pool.csv"
    args = ["sweep", "--lambda", "0:1:2", "--omega0", "1"]
    assert run_cli(args + ["--jobs", "1", "--out", str(out_a)]) == 0
    assert run_cli(args + ["--jobs", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_agrees_with_solve(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--lambda", "0.5", "--omega0", "1",
                    "--jobs", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    cols = dict(zip(SWEEP_COLUMNS, row))
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=0.5, omega0=1.0))
    assert float(cols["e_exact"]) == pytest.approx(sol.energy, abs=1e-14)
    assert cols["parity_label"] == "+1"
    assert cols["p1_ok"] == "1" and cols["w_bound_ok"] == "1"


def test_sweep_json_format(capsys):
    assert run_cli(["sweep", "--lambda", "0.5", "--omega0", "1",
                    "--jobs", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert set(SWEEP_COLUMNS) <= set(rows[0])


def test_sweep_rejects_three_swept_axes():
    assert run_cli(["sweep", "--omega", "1:2:2", "--lambda", "0:1:2",
                    "--omega0", "0:1:2"]) == 1


def test_sweep_failure_leaves_no_file(tmp_path):
    out = tmp_path / "fail.csv"
    code = run_cli(["sweep", "--lambda", "1:2:2", "--omega0", "1",
                    "--dim", "8", "--jobs", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [
    ("lambda", "-1:1:2"),
    ("omega0", "-2:2:3"),
    ("omega", "0:1:2"),
])
def test_sweep_range_values_are_validated_before_any_point(monkeypatch, capsys,
                                                          axis, values):
    def no_point(task):
        raise AssertionError(f"grid point {task} ran before validation")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    args = {"omega": "1", "lambda": "0.5", "omega0": "1", axis: values}
    argv = ["sweep", "--jobs", "1"]
    for name, val in args.items():
        argv.append(f"--{name}={val}")
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {axis}: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_failure_names_the_grid_point(tmp_path, capsys, jobs):
    out = tmp_path / "fail.csv"
    code = run_cli(["sweep", "--lambda", "0:20:3", "--omega0", "1",
                    "--jobs", jobs, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("sweep failed at omega=1 lambda=10 omega0=1: not converged")


def _marking_point(task):
    # a stand-in grid point that leaves a marker when it starts; the
    # point at omega = RABI_TEST_FAILING fails at once, every other one
    # takes a while
    omega = task[0]
    (Path(os.environ["RABI_TEST_MARKERS"]) / f"{omega:g}").touch()
    if omega == float(os.environ["RABI_TEST_FAILING"]):
        raise NotConverged("not converged (stand-in)")
    time.sleep(0.5)
    return {}


@pytest.mark.skipif(multiprocessing.get_start_method() == "forkserver",
                    reason="a fork server started before the test lacks its environment")
@pytest.mark.parametrize("failing", ["1", "2"])
def test_pooled_sweep_starts_no_point_after_a_failure(tmp_path, monkeypatch, capsys,
                                                     failing):
    # failing = 2: the point after the first fails while the first still runs
    monkeypatch.setenv("RABI_TEST_MARKERS", str(tmp_path))
    monkeypatch.setenv("RABI_TEST_FAILING", failing)
    monkeypatch.setattr(cli, "_sweep_point", _marking_point)
    assert run_cli(["sweep", "--omega", "1:5:5", "--lambda", "0.5",
                    "--omega0", "1", "--jobs", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"sweep failed at omega={failing} lambda=0.5 omega0=1: "
                   "not converged (stand-in)"]
    started = sorted(p.name for p in tmp_path.iterdir())
    assert len(started) < 5
    assert started == ["1", "2"]  # the two points that were running


def _dying_point(task):
    # a stand-in grid point whose worker process dies at the point with
    # omega = 1 (the first); every other point leaves a marker and waits
    if task[0] == 1.0:
        os._exit(1)
    (Path(os.environ["RABI_TEST_MARKERS"]) / f"{task[0]:g}").touch()
    time.sleep(0.5)
    return {}


@pytest.mark.skipif(multiprocessing.get_start_method() == "forkserver",
                    reason="a fork server started before the test lacks its environment")
def test_pooled_sweep_reports_a_dead_worker(tmp_path, monkeypatch, capsys):
    markers = tmp_path / "markers"
    markers.mkdir()
    out = tmp_path / "sweep.csv"
    monkeypatch.setenv("RABI_TEST_MARKERS", str(markers))
    monkeypatch.setattr(cli, "_sweep_point", _dying_point)
    assert run_cli(["sweep", "--omega", "1:5:5", "--lambda", "0.5",
                    "--omega0", "1", "--jobs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["sweep failed at omega=1 lambda=0.5 omega0=1: "
                   "a worker process died"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["markers"]
    assert len(list(markers.iterdir())) < 4  # the pool stopped early


def test_sweep_point_builds_one_bundle_and_no_trial_state(monkeypatch):
    # the counters replace the builders in every module that imported them
    calls = []
    for fn in (balance.standard_observables, variational.trial_state):
        def counting(*args, _fn=fn):
            calls.append(_fn.__name__)
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("rabi_balance") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)

    cli._sweep_point((1.0, 2.0, 1.0, None, 1e-10))
    assert calls == ["standard_observables"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 5.0, "format": "json"}))
    assert run_cli(["solve", "--config", str(cfg), "--omega0", "1"]) == 0
    data = json.loads(capsys.readouterr().out)  # flag overrode omega0=5
    assert data["energy"] == pytest.approx(-0.6332942354616301, abs=1e-12)


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1.0, "lambda_max": 2}))
    assert run_cli(["solve", "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1.0, "seed": 1}))
    assert run_cli(["solve", "--config", str(cfg)]) == 1


def test_config_file_invalid_json_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    assert run_cli(["solve", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_into_missing_directory_is_usage_error(tmp_path, monkeypatch, capsys,
                                                   command):
    def no_point(task):
        raise AssertionError(f"grid point {task} ran before --out was checked")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    out = tmp_path / "missing" / "x.csv"
    assert run_cli([command, "--lambda", "1", "--omega0", "1", "--jobs", "1",
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_out_is_usage_error_and_leaves_no_tmp(tmp_path, capsys, command):
    target = tmp_path / "taken"
    target.mkdir()  # a directory where the output file should go
    assert run_cli([command, "--lambda", "0", "--omega0", "1", "--jobs", "1",
                    "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: cannot write ")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_config_out_must_be_a_path(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1.0, "out": 5}))
    assert run_cli(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: ")


@pytest.mark.parametrize("args, prefix", [
    # lam**2 and omega**2 on Python floats overflow in the balance report
    (["balance", "--lambda", "1e200", "--omega0", "1"], "numerical failure: "),
    (["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e300",
      "--jobs", "1"], "sweep failed at omega=1"),
], ids=["balance", "sweep"])
def test_huge_finite_input_is_numerical_failure(tmp_path, capsys, args, prefix):
    out = tmp_path / "out.txt"
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)
    assert "OverflowError: " in err[0]
    assert list(tmp_path.iterdir()) == []


def test_solve_out_file(tmp_path):
    out = tmp_path / "solve.txt"
    assert run_cli(["solve", "--lambda", "0", "--omega0", "1",
                    "--out", str(out)]) == 0
    assert "energy = -0.5" in out.read_text()


def test_console_script_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rabi_balance.cli", "solve",
         "--lambda", "0", "--omega0", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "energy = -0.5" in proc.stdout


def test_failure_line_is_short_for_huge_inputs(capsys):
    assert run_cli(["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e300",
                    "--jobs", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200
    assert err[0].startswith("sweep failed at omega=1e+300 lambda=0 omega0=1e+300: ")


def _child(args):
    # a fresh interpreter on the package under test, installed or not
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("args", [
    ["balance", "--lambda", "1e200", "--omega0", "1"],
    ["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e300", "--jobs", "1"],
    # sector chains beyond the float range (omega n) or with row sums beyond it (lam sqrt(n))
    ["solve", "--omega", "1e307", "--lambda", "0", "--omega0", "1"],
    ["converge", "--omega", "1e307", "--lambda", "0", "--omega0", "1"],
    ["variational", "--omega", "1e307", "--lambda", "1", "--omega0", "1"],
    ["solve", "--lambda", "1e307", "--omega0", "1"],
    ["sweep", "--omega", "1e307", "--lambda", "0", "--omega0", "1", "--jobs", "1"],
], ids=["balance", "sweep", "solve-omega", "converge-omega", "variational-omega",
        "solve-lambda", "sweep-omega"])
def test_overflow_prints_one_line_in_a_real_process(tmp_path, args):
    # pytest captures warnings in-process; only a real process shows
    # whether inf and NaN pass silently on their way to the OverflowError
    proc = _child(["-m", "rabi_balance.cli", *args, "--out", str(tmp_path / "out.txt")])
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "OverflowError: " in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about a third of the start-up of every command
    proc = _child(["-c", "import sys, rabi_balance.cli; "
                   "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_sparse_out():
    # the observables are band operators and trial states a recurrence
    proc = _child(["-c", "import sys, rabi_balance.cli; "
                   "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_and_sweep_load_no_scipy():
    # scipy is a test-only oracle; a solve and a sweep point load none of it
    proc = _child(["-c", "import sys; from rabi_balance.cli import main; "
                   "main(['solve', '--lambda', '0.5', '--omega0', '1']); "
                   "main(['sweep', '--lambda', '0.5', '--omega0', '1', '--jobs', '1']); "
                   "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
