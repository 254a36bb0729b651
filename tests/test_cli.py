import concurrent.futures
import contextlib
import gc
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabi_balance
from rabi_balance import (
    ModelParams,
    NotConverged,
    balance,
    cli,
    oracle,
    solve_rabi_ground,
    solver,
    variational,
)
from rabi_balance.cli import SWEEP_COLUMNS, main
from rabi_balance.fock import QuantumState
from rabi_balance.oracle import Observable

from conftest import assert_covariant, printed


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


def test_paper_literal_is_read_at_omega_itself(capsys):
    # the paper's printed b2 constant is not homogeneous in omega, so the
    # band printed at omega 2 is the dense oracle's at omega 2, not 1/omega
    # times the one at omega 1
    from rabi_balance.balance import literal_variants
    from rabi_balance.fock import FockRep
    from rabi_balance.oracle import full_report

    params = ModelParams(omega=2.0, lam=1.0, omega0=2.0)
    assert run_cli(["balance", "--omega", "2", "--lambda", "1", "--omega0", "2",
                    "--paper-literal"]) == 0
    props = json.loads(capsys.readouterr().out)["report"]["properties"]
    sol = solve_rabi_ground(params)
    want = literal_variants(params, full_report(sol.state, FockRep(sol.dim_used), params,
                                                sector=sol.parity, energy=sol.energy))
    for name, check in want.items():
        assert props[name]["satisfied"] is check.satisfied, name
        for edge in ("value", "lower", "upper"):
            assert props[name][edge] == pytest.approx(getattr(check, edge), rel=1e-12), name


@pytest.mark.parametrize("lam, omega0", [("0.5", "1"), ("3", "0.7"), ("6", "2"), ("1", "0")])
def test_balance_and_sweep_print_the_same_numbers(capsys, lam, omega0):
    # one evaluator: the balance report and the sweep row of a point agree bit for bit
    assert run_cli(["balance", "--lambda", lam, "--omega0", omega0]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert run_cli(["sweep", "--lambda", lam, "--omega0", omega0, "--jobs", "1",
                    "--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    b2 = report["properties"]["b2"]
    assert {name: row[name] for name in ("res_b1", "res_b7", "res_force", "var_qsx",
                                         "b2_lo", "b2_hi")} == {
        "res_b1": report["second_order"]["b1"], "res_b7": report["second_order"]["b7"],
        "res_force": report["first_order"]["force"], "var_qsx": b2["value"],
        "b2_lo": b2["lower"], "b2_hi": b2["upper"],
    }


def test_balance_builds_no_state_no_bundle_and_no_oracle(monkeypatch, capsys):
    # the report is sums over the sector vector: no QuantumState, no Observable,
    # and the oracle module is not imported (it is dropped from sys.modules first)
    calls = []
    for cls in (QuantumState, Observable):
        def counting(self, _cls=cls, _post_init=cls.__post_init__):
            calls.append(_cls.__name__)
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    monkeypatch.delitem(sys.modules, "rabi_balance.oracle")
    assert run_cli(["balance", "--lambda", "1", "--omega0", "2", "--paper-literal"]) == 0
    assert calls == []
    assert "rabi_balance.oracle" not in sys.modules
    assert json.loads(capsys.readouterr().out)["passed"] is True


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


def _set_usable_cpus(monkeypatch, count):
    # the CPUs this process may run on, as cli reads them: the cap of --jobs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_call(monkeypatch, count, cpus):
    # a platform with no sched_getaffinity: the CPU count, or 1 where it is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli._usable_cpus() == cpus


def test_sweep_worker_pool_matches_serial(tmp_path, monkeypatch):
    _set_usable_cpus(monkeypatch, 2)
    out_a = tmp_path / "serial.csv"
    out_b = tmp_path / "pool.csv"
    args = ["sweep", "--lambda", "0:1:2", "--omega0", "1"]
    assert run_cli(args + ["--jobs", "1", "--out", str(out_a)]) == 0
    assert run_cli(args + ["--jobs", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_pool_has_no_more_workers_than_points(monkeypatch, capsys):
    # threads stand in for processes, at most one per point; the pool records
    # the size it was asked for.  A thread cannot take the workers' SIGINT
    # initializer (signal.signal runs in the main thread only), so it is dropped.
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, initializer=None, initargs=()):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    _set_usable_cpus(monkeypatch, 64)
    assert run_cli(["sweep", "--lambda", "0:1:2", "--omega0", "1", "--jobs", "64"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert sizes == [2]
    _set_usable_cpus(monkeypatch, 2)
    assert run_cli(["sweep", "--lambda", "0:1:4", "--omega0", "1", "--jobs", "64"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert sizes == [2, 2]


# A sweep whose points cost nothing, so the child's peak RSS is what cmd_sweep
# holds; stdout's last line is that peak in kB.  It is the child's own VmHWM:
# Linux's ru_maxrss keeps, across exec, the peak of the process that forked it.
_CHEAP_SWEEP = """
import re, sys
from rabi_balance import cli

def cheap_point(task):
    omega, lam, omega0, _, _ = task
    row = {col: lam + k for k, col in enumerate(cli.SWEEP_COLUMNS)}
    row.update(omega=omega, omega0=omega0, dim_used=32, parity_label="+1")
    row.update(dict.fromkeys(cli.SWEEP_COLUMNS[-6:], True))
    return row

cli._sweep_point = cheap_point
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_runs_in_bounded_memory(tmp_path, fmt):
    # aim 3: memory stays bounded over a sweep of any length, so ten times the
    # points may not cost the sweep process a few MB more at its peak
    peaks = []
    for points in (10**3, 10**4):
        proc = _child(["-c", _CHEAP_SWEEP, "sweep", "--lambda", f"0:1:{points}", "--omega0", "1",
                       "--jobs", "1", "--format", fmt, "--out", str(tmp_path / f"sweep.{fmt}")])
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.splitlines()[-1]))
    assert peaks[1] - peaks[0] < 4 * 1024, peaks


_SLEEPING_SWEEP = """
import os, sys, time
from rabi_balance import cli

def sleeping_point(task):
    print("started", flush=True)
    time.sleep(0.5)
    return {}

cli._sweep_point = sleeping_point
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(multiprocessing.get_start_method() == "forkserver",
                    reason="a fork server's workers would not run the stand-in point")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupted_sweep_prints_one_line_and_leaves_no_file(tmp_path, jobs):
    # a terminal's Ctrl-C: SIGINT to the sweep's whole process group, pool workers included
    out = tmp_path / "sweep.csv"
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_SWEEP, "sweep", "--lambda", "0:1:100", "--omega0", "1",
         "--jobs", jobs, "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(True),
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == "started\n"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, err) == (130, "interrupted\n")
    assert list(tmp_path.iterdir()) == []


def test_interrupted_write_leaves_no_tmp_file(tmp_path, monkeypatch, capsys):
    # the interrupt comes after the .tmp file is written, before it is renamed
    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    out = tmp_path / "solve.txt"
    assert run_cli(["solve", "--lambda", "0", "--omega0", "1", "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("axes, message", [
    ({"lambda": "0:1:0", "omega0": "1:0:2"}, "lambda: range count must be >= 1, got 0"),
    ({"lambda": "1:0:2", "omega0": "1"}, "lambda: range min 1.0 exceeds max 0.0"),
    ({"lambda": "0.5", "omega0": "1:0:2"}, "omega0: range min 1.0 exceeds max 0.0"),
    # max - min overflows: the ends are checked before any value is built
    ({"lambda": "0", "omega0": "-1e308:1e308:3"}, "omega0: omega0 must be >= 0, got -1e+308"),
])
@pytest.mark.parametrize("form", ["flags", "config"])
def test_range_errors_name_their_axis(tmp_path, capsys, axes, message, form):
    if form == "flags":
        argv = ["sweep"] + [f"--{name}={val}" for name, val in axes.items()]
    else:
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({name: val if ":" in val else float(val)
                                   for name, val in axes.items()}))
        argv = ["sweep", "--config", str(cfg)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("axis, value", [("omega", "0"), ("lambda", "-1"), ("omega0", "-2")])
def test_single_point_axis_errors_name_the_axis(capsys, axis, value):
    # one check of an axis value serves every command, so the text cannot drift
    lines = {}
    for command in ("solve", "balance", "variational", "converge", "sweep"):
        scalars = {"omega": "1", "lambda": "1", "omega0": "1", axis: value}
        argv = [command, *(f"--{name}={val}" for name, val in scalars.items())]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {axis}: "), err
        lines[command] = err[0]
    assert len(set(lines.values())) == 1, lines


_MISSING = object()  # stands for a config path that does not exist


@pytest.mark.parametrize("argv, config, key", [
    (["solve", "--lambda", "0.5", "--omega0", "1", "--dim", "3"], None, "dim"),
    (["solve", "--lambda", "0.5"], None, "omega0"),
    (["solve"], {"lambda": 0.5, "omega0": 1, "format": "xml"}, "format"),
    (["sweep", "--lambda", "0.5", "--omega0", "1", "--format", "xml"], None, "format"),
    (["sweep", "--lambda", "0.5", "--omega0", "1", "--jobs", "0"], None, "jobs"),
    (["solve"], _MISSING, "config"),
    (["solve"], [{"lambda": 0.5, "omega0": 1}], "config"),
    (["sweep", "--lambda", "a:b:2", "--omega0", "1"], None, "lambda"),
    (["sweep", "--omega0", "1"], {"lambda": {"min": 0, "max": 1}}, "lambda"),
    (["sweep", "--omega0", "1"], {"lambda": {"min": 0, "max": 1, "count": 3, "step": 0.1}},
     "lambda"),
    # the converge ladder starts at 16 levels and needs two to compare, so a
    # maximum below 32 solves none or one
    (["converge", "--lambda", "1", "--omega0", "1", "--dim", "8"], None, "dim"),
    (["converge", "--lambda", "1", "--omega0", "1", "--dim", "16"], None, "dim"),
    (["converge", "--lambda", "1", "--omega0", "1", "--dim", "31"], None, "dim"),
], ids=["dim-3", "no-omega0", "format-xml", "format-xml-flag", "jobs-0", "config-missing",
        "config-array", "range-text", "range-no-count", "range-extra-key", "converge-dim-8",
        "converge-dim-16", "converge-dim-31"])
def test_usage_errors_are_one_line_naming_their_key(tmp_path, capsys, argv, config, key):
    cfg = tmp_path / "run.json"
    if config is not None:
        if config is not _MISSING:
            cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: "), err


def test_sweep_builds_each_range_axis_once(monkeypatch, capsys):
    built = []
    values = cli.AxisRange.values

    def counting(self):
        built.append(self)
        return values(self)

    monkeypatch.setattr(cli.AxisRange, "values", counting)
    assert run_cli(["sweep", "--lambda", "0:1:2", "--omega0", "0.5:1.5:2", "--jobs", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert built == [cli.AxisRange(0.0, 1.0, 2), cli.AxisRange(0.5, 1.5, 2)]


# |end| from subnormal to 1e308: a mantissa in [1, 10) times a power of ten, or 0
axis_end = st.one_of(
    st.just(0.0), st.just(5e-324),
    st.builds(lambda m, e, sign: sign * m * 10.0**e, st.floats(1.0, 9.99),
              st.integers(-323, 307), st.sampled_from((1.0, -1.0))),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(ends=st.tuples(axis_end, axis_end), count=st.integers(1, 1000))
@example(ends=(0.0, 5e-324), count=1000)  # the step underflows to 0
@example(ends=(-1e308, 1e308), count=3)  # max - min overflows
def test_axis_values_equal_numpy_linspace_bit_for_bit(ends, count):
    lo, hi = sorted(ends)
    with np.errstate(all="ignore"):  # hi - lo may overflow, in numpy and in Python alike
        want = np.linspace(lo, hi, count).tolist()
    assert [v.hex() for v in cli.AxisRange(lo, hi, count).values()] == [v.hex() for v in want]


@pytest.mark.parametrize("ranges", [
    {"lambda": "0:1:1000000000000"},
    {"lambda": "0:1:1000", "omega0": "0:1:1001"},
])
@pytest.mark.parametrize("form", ["flags", "config"])
def test_sweep_rejects_an_oversized_grid_before_building_it(tmp_path, monkeypatch, capsys,
                                                             ranges, form):
    def no_values(self):
        raise AssertionError(f"axis {self} built before the grid size was checked")

    monkeypatch.setattr(cli.AxisRange, "values", no_values)
    axes = {"lambda": "0.5", "omega0": "1", **ranges}
    if form == "flags":
        argv = ["sweep"] + [f"--{name}={val}" for name, val in axes.items()]
    else:
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({name: val if ":" in val else float(val)
                                   for name, val in axes.items()}))
        argv = ["sweep", "--config", str(cfg)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sweep: grid of ")
    assert str(cli.MAX_GRID_POINTS) in err[0]


@pytest.mark.parametrize("dim", [10**20, cli.MAX_FIXED_DIM + 1])
@pytest.mark.parametrize("form", ["flags", "config"])
@pytest.mark.parametrize("command", ["solve", "balance", "variational", "converge", "sweep"])
def test_dim_above_the_cap_is_rejected_before_any_chain(tmp_path, monkeypatch, capsys,
                                                         command, form, dim):
    def no_chain(*args):
        raise AssertionError("a sector chain was built")

    monkeypatch.setattr(solver, "sector_chain", no_chain)
    if form == "flags":
        argv = [command, "--lambda", "0.5", "--omega0", "1", "--dim", str(dim)]
    else:
        cfg = tmp_path / "dim.json"
        cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1, "dim": dim}))
        argv = [command, "--config", str(cfg)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: dim: must be <= {cli.MAX_FIXED_DIM}, got {dim}"]


@pytest.mark.parametrize("values, key", [
    ({"paper_literal": "false"}, "paper_literal"),
    ({"paper_literal": 0}, "paper_literal"),
    ({"dim": 40.9}, "dim"),
    ({"dim": 1e20}, "dim"),
    ({"dim": True}, "dim"),
    ({"jobs": 2.7}, "jobs"),
    ({"jobs": True}, "jobs"),
    # a range is the text its flag takes, "min:max:count", in a config file too
    ({"lambda": {"min": 0, "max": 1, "count": 3}}, "lambda"),
    ({"omega": {"min": 1, "max": 2, "count": 3}}, "omega"),
    ({"omega0": {"min": 0, "max": 1, "count": 3}}, "omega0"),
    ({"lambda": True}, "lambda"),
    ({"omega": True}, "omega"),
    ({"omega0": False}, "omega0"),
    ({"tol": True}, "tol"),
])
def test_config_value_of_the_wrong_json_type_is_rejected(tmp_path, monkeypatch, capsys,
                                                         values, key):
    # bool("false") is True, int(40.9) is 40 and float(True) is 1: none may pass
    def no_point(task):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1, **values}))
    command = "balance" if "paper_literal" in values else "sweep"  # the one reader of each key
    assert run_cli([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: "), err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_config_range_prints_what_its_flag_prints(tmp_path, capsys, fmt):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"lambda": "0:1:3", "omega0": 1, "format": fmt}))
    assert run_cli(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
    from_config = capsys.readouterr()
    argv = ["sweep", "--lambda", "0:1:3", "--omega0", "1", "--format", fmt, "--jobs", "1"]
    assert run_cli(argv) == 0
    assert capsys.readouterr() == from_config
    assert from_config.out and from_config.err == ""


def test_config_integer_of_too_many_digits_is_a_usage_error(tmp_path, capsys):
    # json.load raises a bare ValueError for an integer of over 4300 digits
    cfg = tmp_path / "digits.json"
    cfg.write_text('{"lambda": 0.5, "omega0": 1, "dim": ' + "1" * 5000 + "}")
    assert run_cli(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: "), err


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
    _set_usable_cpus(monkeypatch, 2)
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
    _set_usable_cpus(monkeypatch, 2)
    assert run_cli(["sweep", "--omega", "1:5:5", "--lambda", "0.5",
                    "--omega0", "1", "--jobs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["sweep failed at omega=1 lambda=0.5 omega0=1: "
                   "a worker process died"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["markers"]
    assert len(list(markers.iterdir())) < 4  # the pool stopped early


def test_sweep_point_builds_no_bundle_no_report_and_no_trial_state(monkeypatch):
    # a point's balance columns are sums over its sector vector; the
    # counters replace the builders in every module that imported them,
    # and count every QuantumState made
    calls = []
    post_init = QuantumState.__post_init__

    def counting_state(self):
        calls.append("QuantumState")
        post_init(self)

    monkeypatch.setattr(QuantumState, "__post_init__", counting_state)
    for fn in (oracle.standard_observables, oracle.full_report, oracle.trial_state):
        def counting(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("rabi_balance") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)

    row = cli._sweep_point((1.0, 2.0, 1.0, None, 1e-10))
    assert calls == []
    assert row["res_force"] == 0.0 and row["p1_ok"] and row["w_bound_ok"]


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


# Besides omega, lambda, omega0, dim, tol and out, the config keys (and so
# the flags) each command reads; every other option changes nothing it prints
_OWN_KEYS = {"solve": {"format"}, "balance": {"paper_literal"}, "variational": set(),
             "converge": set(), "sweep": {"format", "jobs"}}
_FOREIGN = [(command, key) for command, own in _OWN_KEYS.items()
            for key in ("format", "jobs", "paper_literal") if key not in own]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, key", _FOREIGN)
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                              command, key, form):
    # balance prints JSON and converge CSV whatever --format says: the
    # value given is the one the command would have ignored
    assert len(_FOREIGN) == 11
    value = {"format": "json" if command == "converge" else "csv", "jobs": 1,
             "paper_literal": True}[key]

    def no_point(*args, **kwargs):
        raise AssertionError("a point ran")

    # each command imports its layers when it runs: patch where they are defined
    for module, name in ((solver, "solve_rabi_ground"), (solver, "convergence_table"),
                         (variational, "minimize_energy"), (cli, "_sweep_point")):
        monkeypatch.setattr(module, name, no_point)
    out = tmp_path / "out.txt"
    flag = "--" + key.replace("_", "-")
    if form == "flag":
        argv = [command, "--lambda", "0.5", "--omega0", "1", "--out", str(out), flag]
        argv += [] if value is True else [str(value)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1, "out": str(out), key: value}))
        argv = [command, "--config", str(cfg)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and (flag if form == "flag" else key) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_OWN_KEYS))
def test_help_lists_exactly_the_options_the_command_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    keys = {"omega", "lambda", "omega0", "dim", "tol", "out", "config", "help",
            *_OWN_KEYS[command]}
    listed = set(re.findall(r"--([a-z][a-z0-9-]*)", capsys.readouterr().out))
    assert listed == {key.replace("_", "-") for key in keys}


_DEFAULTS = {"omega": 1.0, "lambda": None, "omega0": None, "dim": None, "tol": 1e-10,
             "out": None, "format": "csv", "jobs": None, "paper_literal": False}


@pytest.mark.parametrize("command", sorted(_OWN_KEYS))
def test_a_command_config_holds_exactly_its_own_keys(command):
    args = cli._build_parser().parse_args([command, "--lambda", "0.5", "--omega0", "2"])
    cfg = cli.build_config(args)
    own = {"omega", "lambda", "omega0", "dim", "tol", "out", *_OWN_KEYS[command]}
    assert cfg == {key: _DEFAULTS[key] for key in own} | {"lambda": 0.5, "omega0": 2.0}
    for key in _DEFAULTS.keys() - own:
        with pytest.raises(KeyError):
            cfg[key]


@pytest.mark.parametrize("key, err", [
    ("omega", "omega: expected a number or min:max:count, got None"),
    ("lambda", "lambda: required (flag --lambda or config key 'lambda')"),
    ("omega0", "omega0: required (flag --omega0 or config key 'omega0')"),
    ("dim", None),
    ("tol", "tol: expected a number, got None"),
    ("out", None),
    ("format", "format: must be csv or json, got None"),
    ("jobs", None),
    ("paper_literal", "paper_literal: expected true or false, got null"),
])
def test_an_explicit_null_in_a_config_file(tmp_path, capsys, key, err):
    # null is given, not absent: it reads as the default only where that is
    # None, and omega's 1.0 does not replace it
    command = "balance" if key == "paper_literal" else "sweep"  # the one reader of each key
    cfg = tmp_path / "null.json"
    runs = []
    for config in ({"lambda": 0.5, "omega0": 1}, {"lambda": 0.5, "omega0": 1, key: None}):
        cfg.write_text(json.dumps(config))
        code = run_cli([command, "--config", str(cfg)])
        runs.append((code, *capsys.readouterr()))
    if err is None:
        assert runs[1] == runs[0] and runs[0][0] == 0
    else:
        assert runs[1] == (1, "", f"error: {err}\n")


def test_help_prints_the_user_paragraphs_of_the_docstring(capsys):
    # the commands, the exit codes and the sweep's guarantees; the notes on
    # imports, the collector and BLAS threads stay in the docstring
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    exit_codes = cli.__doc__.split("\n\n")[1]
    assert exit_codes.startswith("Each command takes only") and "Exit\ncodes" in exit_codes
    assert exit_codes in out
    assert "``numerical failure: ...``" in exit_codes
    assert "Sweep output is reproducible byte for byte" in out
    assert "gc.freeze" in cli.__doc__ and "gc.freeze" not in out
    assert "BLAS" not in out


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
    assert run_cli([command, "--lambda", "1", "--omega0", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_out_is_usage_error_and_leaves_no_tmp(tmp_path, capsys, command):
    target = tmp_path / "taken"
    target.mkdir()  # a directory where the output file should go
    assert run_cli([command, "--lambda", "0", "--omega0", "1", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: cannot write ")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_that_is_not_a_regular_file_is_left_alone(tmp_path, monkeypatch, capsys, command):
    # writing PATH.tmp and renaming it over PATH would replace a FIFO or a device node
    def no_point(*args, **kwargs):
        raise AssertionError("a point ran before --out was checked")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    monkeypatch.setattr(solver, "solve_rabi_ground", no_point)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert run_cli([command, "--lambda", "0", "--omega0", "1", "--out", str(fifo)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: cannot write ")
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_config_out_must_be_a_path(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1.0, "out": 5}))
    assert run_cli(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out: ")


@pytest.mark.parametrize("out", ["a\0b.txt", "a\ud800b.txt"], ids=["nul", "surrogate"])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_config_out_that_no_file_name_holds_is_usage_error(tmp_path, monkeypatch, capsys,
                                                           command, out):
    # open() raises ValueError on a NUL and on a lone surrogate, which would
    # read as a numerical failure, and only once every point has run
    def no_point(*args, **kwargs):
        raise AssertionError("a point ran before out was checked")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    monkeypatch.setattr(solver, "solve_rabi_ground", no_point)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5, "omega0": 1, "out": out}))
    assert run_cli([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out: expected a path, got {out!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_write_is_usage_error_and_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                        command):
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    out = tmp_path / "out.txt"
    assert run_cli([command, "--lambda", "0", "--omega0", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: out: cannot write {out}: ")
    assert err[0].endswith("No space left on device")
    assert list(tmp_path.iterdir()) == []


def _in_units_of_omega(capsys, args):
    """The output of ``args``'s point in units of omega (at omega 1, on the ratios), and omega."""
    argv = list(args)
    where = {flag: argv.index(flag) + 1 for flag in ("--omega", "--lambda", "--omega0")}
    omega = float(argv[where["--omega"]])
    argv[where["--omega"]] = "1"
    for flag in ("--lambda", "--omega0"):
        argv[where[flag]] = repr(float(argv[where[flag]]) / omega)
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return printed(captured.out), omega


class _FullStdout:
    def write(self, text=""):
        raise OSError(28, "No space left on device")

    flush = write


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_write_to_stdout_is_one_line(monkeypatch, capsys, command):
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    args = [command, "--lambda", "0", "--omega0", "1"]
    assert run_cli(args + (["--jobs", "1"] if command == "sweep" else [])) == 1
    assert capsys.readouterr().err == (
        "error: cannot write to stdout: [Errno 28] No space left on device\n")


def _cli_env(buffered: bool) -> dict:
    """A child's environment: the package under test, and stdout buffered or not."""
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_failed_write_to_stdout_is_one_line_in_a_real_process(buffered):
    # buffered, the interpreter flushes stdout again at exit: that flush must
    # neither print "Exception ignored" nor turn the exit code into 120
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "rabi_balance.cli", "solve", "--lambda", "1", "--omega0", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=_cli_env(buffered),
        )
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write to stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_output_its_reader_cuts_short_is_a_failed_write(buffered):
    # as "| head -c 100": the sweep's 230 kB of JSON overfill the pipe, the
    # reader closes it after 100 bytes, and the write it cuts short fails;
    # unbuffered, the binary layer takes only part of the write, which the
    # text layer would drop without an error
    proc = subprocess.Popen(
        [sys.executable, "-m", "rabi_balance.cli", "sweep", "--lambda", "0", "--omega0",
         "0:1:400", "--dim", "16", "--jobs", "1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(buffered),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert len(head) == 100
    assert (proc.returncode, err.decode()) == (
        1, "error: cannot write to stdout: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("args, prefix", [
    # lam**2 on Python floats overflows in the balance report
    (["balance", "--lambda", "1e200", "--omega0", "1"], "numerical failure: "),
    # the unit point (0, 1) at omega 1e300 is solved in units of omega: no failure
    (["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e300",
      "--jobs", "1"], None),
], ids=["balance", "sweep"])
def test_huge_finite_input_is_numerical_failure(tmp_path, capsys, args, prefix):
    out = tmp_path / "out.txt"
    if prefix is None:
        assert run_cli(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert_covariant(printed(out.read_text()), *_in_units_of_omega(capsys, args),
                         "close")
        return
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)
    assert "OverflowError: " in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    # a variance whose mean squared overflows, a force amplitude sqrt(2 m omega) lam
    # beyond the float range, and a trial gradient whose norm overflows
    ["balance", "--omega", "5e-324", "--lambda", "1e-300", "--omega0", "0"],
    ["balance", "--omega", "1e100", "--lambda", "1e300", "--omega0", "0"],
    ["variational", "--omega", "5e-324", "--lambda", "1e200", "--omega0", "0"],
], ids=["variance", "f0", "grad-norm"])
def test_extreme_input_prints_no_numpy_warning(capsys, args):
    # the suite turns a RuntimeWarning into an error, so a numpy warning
    # on the way to the exit code fails here
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


_HUGE = ["--omega", "1e200", "--lambda", "1e200", "--omega0", "1"]


@pytest.mark.parametrize("args, path", [
    (["balance", *_HUGE], ("report", "second_order", "b7")),
    (["variational", *_HUGE], ("result", "b7_residual")),
    (["sweep", *_HUGE, "--format", "json", "--jobs", "1"], (0, "res_b7")),
], ids=["balance", "variational", "sweep"])
def test_json_output_is_strict_where_a_value_overflows(capsys, args, path):
    # b7 scales as omega^3 and overflows to inf at this point, while the checks,
    # read in units of omega, pass; strict JSON has no Infinity, so it prints null
    assert run_cli(args) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    value = data
    for key in path:
        value = value[key]
    assert value is None
    assert_covariant(data, *_in_units_of_omega(capsys, args), "close")


def test_balance_reads_a_double_commutator_against_the_square_of_the_scale(capsys):
    # E = -2.5e299 omega: the q_sigma_x double commutator's round-off is
    # 7e299, past RESIDUAL_TOL |E| but not RESIDUAL_TOL |E|^2, on a converged
    # state with every property satisfied
    assert run_cli(["balance", "--lambda", "1", "--omega0", "5e299"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True and data["solution"]["converged"] is True
    assert all(chk["satisfied"] for chk in data["report"]["properties"].values())


def test_a_one_level_state_has_a_finite_b7(capsys):
    # phi on one level has p_sy = 0, while f0 omega0 overflows in units of
    # omega: their product is 0, not inf * 0 = NaN
    point = ["--omega", "1e-8", "--lambda", "0.5", "--omega0", "1e300"]
    assert run_cli(["sweep", *point, "--jobs", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["res_b7"] == "5.0000000000000009e-09"
    assert run_cli(["balance", *point]) == 2  # its q_sigma_x residual overflows
    b7 = json.loads(capsys.readouterr().out)["report"]["second_order"]["b7"]
    assert b7 == 5.000000000000001e-09


def test_balance_holds_the_wigner_band_at_any_displacement(capsys):
    # (lam/omega)^2 = 25 exceeds dim/4 at dim 16: the displaced-frame band
    # needs no displacement operator, so it is still reported, and holds
    assert run_cli(["balance", "--lambda", "5", "--omega0", "1", "--dim", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["solution"]["converged"] is False and data["passed"] is False
    band = data["report"]["properties"]["wigner_energy"]
    assert band["satisfied"] is True
    assert band["lower"] == -25.5 and band["upper"] == -24.5
    assert band["value"] == pytest.approx(-25.0078, abs=1e-4)


def test_a_gap_within_the_ladders_rounding_is_no_failure(capsys):
    # E = -5e7 omega, where the ladder allows ROUNDING_ULPS ulps of E (4.8e-7):
    # on an AVX-512 CPU the optimum lies one ulp (7.45e-9) below E, which a
    # floor of 1e-9 omega alone read as a failure
    assert run_cli(["variational", "--lambda", "1", "--omega0", "1e8"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["gap"] >= -solver.ROUNDING_ULPS * math.ulp(result["exact_energy"])


def test_variational_prints_its_result_when_every_start_stalls(monkeypatch, capsys):
    monkeypatch.setattr(variational, "MAXFEV", 3)
    assert run_cli(["variational", "--lambda", "0.5", "--omega0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert set(data) == {"params", "result"}
    assert {"trial", "energy", "gap", "grad_norm"} <= set(data["result"])
    assert data["result"]["converged"] is False


@pytest.mark.parametrize("point, solve_code", [
    (["--lambda", "10", "--omega0", "1"], 2),  # the ladder does not converge by MAX_DIM
    # converged at dim 32 to the loose tol, and the trial energy lies 0.24 below it
    (["--lambda", "5", "--omega0", "1", "--tol", "10"], 0),
], ids=["not-converged", "below-exact"])
def test_variational_prints_its_result_where_the_exact_energy_fails_it(capsys, point,
                                                                       solve_code):
    assert run_cli(["solve", *point]) == solve_code
    capsys.readouterr()
    assert run_cli(["variational", *point]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    assert {"trial", "energy", "gap", "grad_norm"} <= set(result)
    assert (result["gap"] < -1e-9) == (solve_code == 0)


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
    # the unit point (0, 1) at omega 1e300 prints; a ratio beyond the float
    # range fails in one short line that names it
    args = ["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e300", "--jobs", "1"]
    assert run_cli(args) == 0
    out = printed(capsys.readouterr().out)
    assert_covariant(out, *_in_units_of_omega(capsys, args), "close")
    assert run_cli(["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e-300",
                    "--jobs", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["sweep failed at omega=1e-300 lambda=0 omega0=1e+300: "
                   "OverflowError: omega0 / omega is beyond the float range"]


def _child(args, text=True):
    # a fresh interpreter on the package under test, installed or not
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


_RANGE_ERROR = "OverflowError: Numerical result out of range"
_FSUM_ERROR = "ValueError: -inf + inf in fsum"
_RATIO_ERROR = "OverflowError: {} / omega is beyond the float range"


@pytest.mark.parametrize("args, error", [
    (["balance", "--lambda", "1e200", "--omega0", "1"], _RANGE_ERROR),
    # each point is solved in units of omega, where nothing overflows, and what
    # it prints is that point's output scaled, as at omega 1: no failure
    (["sweep", "--lambda", "0", "--omega0", "1e300", "--omega", "1e300", "--jobs", "1"], None),
    (["solve", "--omega", "1e307", "--lambda", "0", "--omega0", "1"], None),
    (["converge", "--omega", "1e307", "--lambda", "0", "--omega0", "1"], None),
    (["variational", "--omega", "1e307", "--lambda", "1", "--omega0", "1"], None),
    # a unit chain with row sums beyond the float range (lam sqrt(n))
    (["solve", "--lambda", "1e307", "--omega0", "1"], "OverflowError: "),
    (["sweep", "--omega", "1e307", "--lambda", "0", "--omega0", "1", "--jobs", "1"], None),
    (["sweep", "--lambda", "0.5", "--omega0", "1", "--omega", "1e300", "--jobs", "1"], None),
    (["sweep", "--omega", "1e200", "--lambda", "1e200", "--omega0", "1", "--jobs", "1"], None),
    (["balance", "--omega", "1e200", "--lambda", "1e200", "--omega0", "1"], None),
    (["variational", "--omega", "1e300", "--lambda", "0.5", "--omega0", "1"], None),
    # a float ** beyond the range (errno 34), where lam / omega is 1e300
    (["balance", "--omega", "1e-300", "--lambda", "1", "--omega0", "1"], _RANGE_ERROR),
    (["variational", "--omega", "1e-300", "--lambda", "1", "--omega0", "1"], _RANGE_ERROR),
    # a balance sum of -inf and inf, a ValueError of math.fsum
    (["balance", "--lambda", "1e154", "--omega0", "1e160"], _FSUM_ERROR),
    (["variational", "--lambda", "1e154", "--omega0", "1e160"], _FSUM_ERROR),
    (["sweep", "--lambda", "1e154", "--omega0", "1e160", "--tol", "1e300", "--jobs", "1"],
     _FSUM_ERROR),
    # a ratio beyond the float range, named
    (["balance", "--omega", "1e-300", "--lambda", "1e160", "--omega0", "0"],
     _RATIO_ERROR.format("lam")),
    (["variational", "--omega", "1e-310", "--lambda", "1e154", "--omega0", "1e160"],
     _RATIO_ERROR.format("lam")),
    (["sweep", "--omega", "1e-10", "--lambda", "1e300", "--omega0", "1e308", "--jobs", "1"],
     _RATIO_ERROR.format("lam")),
    (["solve", "--omega", "1e-300", "--lambda", "1", "--omega0", "1e10"],
     _RATIO_ERROR.format("omega0")),
], ids=["balance", "sweep", "solve-omega", "converge-omega", "variational-omega",
        "solve-lambda", "sweep-omega", "sweep-omega-errno", "sweep-both-errno",
        "balance-both-errno", "variational-omega-errno", "balance-tiny-omega",
        "variational-tiny-omega", "balance-fsum", "variational-fsum", "sweep-fsum",
        "balance-ratio", "variational-ratio", "sweep-ratio", "solve-ratio"])
def test_overflow_prints_one_line_in_a_real_process(tmp_path, capsys, args, error):
    # pytest captures warnings in-process; only a real process shows
    # whether inf and NaN pass silently on their way to the error, or to
    # output that prints them; the line names the error in words, never as
    # an (errno, strerror) tuple
    out = tmp_path / "out.txt"
    proc = _child(["-m", "rabi_balance.cli", *args, "--out", str(out)])
    if error is None:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert_covariant(printed(out.read_text()), *_in_units_of_omega(capsys, args), "close")
        return
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert error in proc.stderr
    if error != "OverflowError: ":
        assert proc.stderr.endswith(f": {error}\n"), proc.stderr
    assert "(34," not in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["solve", "--format", "json"], ["balance"],
                                     ["balance", "--paper-literal"], ["variational"]],
                         ids=["solve", "balance", "literal", "variational"])
def test_tiny_scale_reports_the_unit_scale_times_the_scale(capsys, command):
    # at omega = omega0 = 2^-600 and lam = 2^-600 or 2^-601, omega^2 and
    # omega^3 underflow to 0; every command computes in units of omega, so
    # the report is the one at scale 1, times 2^-600 for energies and 2^600
    # for Var(q sigma_x), and the degeneracy threshold is in units of omega,
    # so the parity label stays; abs=0, as approx's default abs of 1e-12
    # would pass any value near 2^-600
    def run(scale, coupling, code=0):
        point = ["--omega", repr(scale), "--lambda", repr(coupling * scale),
                 "--omega0", repr(scale)]
        assert run_cli([*command, *point]) == code
        return json.loads(capsys.readouterr().out)

    def times(value, scale=2.0**-600):
        return pytest.approx(value * scale, rel=1e-12, abs=0.0)

    for coupling in (1.0, 0.5):  # b1 is 0.0 at scale 1 on the first, 5.6e-17 on the second
        tiny, unit = run(2.0**-600, coupling), run(1.0, coupling)
        if command[0] == "solve":
            assert tiny["parity_label"] == unit["parity_label"] == "+1"
            assert tiny["sector_gap"] == times(unit["sector_gap"])
        elif command[0] == "variational":
            assert tiny["result"]["trial"] == unit["result"]["trial"]
            for key in ("energy", "b1_residual"):
                assert tiny["result"][key] == times(unit["result"][key]), key
        else:
            assert tiny["passed"] is True
            b1 = tiny["report"]["second_order"]["b1"]
            assert b1 == times(unit["report"]["second_order"]["b1"])
            props, want = tiny["report"]["properties"], unit["report"]["properties"]
            for name, scale in (("p1", 2.0**-600), ("b2", 2.0**600)):
                assert props[name]["satisfied"] is True
                for edge in ("value", "lower", "upper"):
                    assert props[name][edge] == times(want[name][edge], scale)
    # at lam = 10 the ladder does not converge by MAX_DIM at scale 1, and tol
    # is in units of omega, so it does not at scale 2^-600 either
    tiny, unit = run(2.0**-600, 10.0, code=2), run(1.0, 10.0, code=2)
    if command[0] == "variational":
        assert tiny["result"]["exact_energy"] == times(unit["result"]["exact_energy"])
    else:
        if command[0] == "balance":
            tiny, unit = tiny["solution"], unit["solution"]
        assert (tiny["converged"], tiny["dim_used"]) == (unit["converged"], unit["dim_used"])
        assert (unit["converged"], unit["dim_used"]) == (False, 256)
        assert tiny["energy"] == times(unit["energy"])


@pytest.mark.parametrize("omega", ["1e-310", "5e-324"])
def test_a_subnormal_omega_solves(capsys, omega):
    # solved in units of omega, where the chain and the degeneracy threshold
    # are those of omega 1; 1 / omega overflows, and Var(q sigma_x) prints null
    point = ["--omega", omega, "--lambda", "0", "--omega0", "0"]
    assert run_cli(["solve", "--format", "json", *point]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert sol["energy"] == sol["sector_gap"] == 0.0 and sol["converged"] is True
    assert sol["parity_label"] == "degenerate"
    assert run_cli(["converge", *point]) == 0
    assert capsys.readouterr().out == "dim,e_exact,delta\n16,0,\n32,0,0\n"
    assert run_cli(["variational", *point]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["energy"] == 0.0
    assert run_cli(["balance", *point]) == 0
    b2 = json.loads(capsys.readouterr().out)["report"]["properties"]["b2"]
    assert b2 == {"lower": None, "satisfied": True, "upper": None, "value": None}


@pytest.mark.parametrize("lam", ["1e160", "1e200"])
def test_huge_coupling_solve_is_best_effort_in_a_real_process(tmp_path, lam):
    # the chain's off-diagonal squares and pivot quotients leave the float
    # range unless the solver scales the chain; the best effort is printed,
    # with no warning, and the unconverged ladder exits 2
    out = tmp_path / "out.txt"
    proc = _child(["-m", "rabi_balance.cli", "solve", "--lambda", lam, "--omega0", "1",
                   "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert "converged = False" in out.read_text()


@pytest.mark.parametrize("lam", ["1e160", "1e200"])
def test_huge_coupling_solve_raises_no_runtime_warning(capsys, lam):
    # in-process, where the suite turns a RuntimeWarning into an error
    assert run_cli(["solve", "--lambda", lam, "--omega0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "dim_used = 256" in captured.out


def test_solve_and_sweep_call_no_dense_eigh(monkeypatch, capsys):
    # sector chains are solved in O(N) Python arithmetic: neither numpy's
    # dense eigh nor the BLAS threads it starts are on the solve path
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert run_cli(["solve", "--lambda", "0.5", "--omega0", "1"]) == 0
    assert run_cli(["solve", "--lambda", "6", "--omega0", "1"]) == 0
    assert run_cli(["sweep", "--lambda", "0.5", "--omega0", "1", "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


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


_COMMANDS_CHILD = """
import sys
from rabi_balance.cli import main

codes = [main([*cmd, "--lambda", "0.5", "--omega0", "1", "--out", sys.argv[1] + "/" + cmd[0]])
         for cmd in (["solve"], ["balance"], ["variational"], ["converge"],
                     ["sweep", "--jobs", "1"])]
print(codes, sorted(m for m in sys.modules if m.startswith("rabi_balance")))
"""


def test_cli_commands_leave_the_oracle_out(tmp_path):
    # every command runs on band operators and sector chains; the dense
    # oracle is for the tests alone
    proc = _child(["-c", _COMMANDS_CHILD, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("[0, 0, 0, 0, 0] ["), last
    assert "'rabi_balance.cli'" in last and "rabi_balance.oracle" not in last


ORACLE_NAMES = {
    "Observable", "build_full_hamiltonian", "build_ladder", "build_parity_operator",
    "build_quadratures", "build_reduced_hamiltonian", "displacement", "energy_numeric",
    "squeeze", "trial_property_compliance",
    # the operators' reads of a state, and the trial amplitudes as a state
    "expectation", "variance", "trial_state",
    # the balance suite on spin-boson states
    "b1_kinetic_balance", "b7_covariance_balance", "displaced_number", "first_order_residual",
    "full_report", "second_order_residual", "standard_observables", "wigner_energy_bounds",
    "wigner_origin",
}


RUNTIME_NAMES = {
    # balance, errors, model, solver, variational: what a library user imports
    "BalanceReport", "BoundCheck", "literal_variants", "report_passes", "sector_report",
    "AmplitudeTooLarge", "ConfigError", "DimensionMismatch", "EigDecompositionFailure",
    "NonHermitian", "NotConverged", "OptimizerStalled", "RabiError", "SectorRequired",
    "SqueezeTooLarge",
    "ModelParams",
    "GroundSolution", "convergence_table", "solve_rabi_ground",
    "TrialParams", "VariationalResult", "balance_residuals", "energy_closed_form",
    "minimize_energy", "stationarity_equals_balance",
}
FOCK_NAMES = {
    "BOSON", "SPIN_BOSON", "FockRep", "QuantumState", "embed_reduced_state",
    "extract_reduced_state", "fock_state", "infer_sector",
}
# the benchmark imports these from the root until it imports them from their modules
BENCH_ROOT_NAMES = {"FockRep", "build_full_hamiltonian", "full_report", "wigner_origin"}


def test_the_root_exports_the_runtime_and_the_oracle_keeps_its_names():
    from rabi_balance import fock, model, oracle

    assert len(rabi_balance.__all__) == len(RUNTIME_NAMES) == 25
    assert set(rabi_balance.__all__) == RUNTIME_NAMES
    runtime = {f"rabi_balance.{m}" for m in ("balance", "errors", "model", "solver", "variational")}
    for name in RUNTIME_NAMES:
        assert getattr(rabi_balance, name).__module__ in runtime, name
    for name in BENCH_ROOT_NAMES:
        home = fock if name in FOCK_NAMES else oracle
        assert getattr(rabi_balance, name) is getattr(home, name)
    for name in (ORACLE_NAMES | FOCK_NAMES) - BENCH_ROOT_NAMES:
        assert not hasattr(rabi_balance, name), name
    for home, names in ((fock, FOCK_NAMES), (oracle, ORACLE_NAMES)):
        for name in names:  # defined there (BOSON and SPIN_BOSON are strings)
            assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__
    # the runtime modules, fock included, neither define nor re-export an
    # operator, a dense construction or the spin-boson balance suite
    moved = ORACLE_NAMES | {"HERMITICITY_TOL", "SQUEEZE_MAX", "_generator", "_ladder_matrices",
                            "_unitary_from_generator", "ground_state", "sector_matrix",
                            "FIRST_ORDER_SET", "b7_terms", "force_balance",
                            "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY_2", "_check_dims"}
    for module in (fock, model, solver, variational, balance, cli):
        assert not moved & set(vars(module)), module.__name__


# argv[1] is "block" or "plain": blocked, any import of numpy raises ImportError
_STAR_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from rabi_balance import *

params = ModelParams(1.0, 0.5, 1.0)
sol = solve_rabi_ground(params)
print(report_passes(sector_report(sol.phi, sol.parity, params, sol.energy)), sol.energy)
print(sorted(name for name, module in sys.modules.items()
             if module is not None and (name == "numpy" or name.startswith("rabi_balance"))))
"""


@pytest.mark.parametrize("mode", ["block", "plain"])
def test_star_import_runs_the_runtime_without_numpy(mode):
    # the root's public names are the runtime's, which run on Python floats:
    # a star import then a solve and its balance report load neither numpy
    # nor the test oracle, and work where numpy cannot be imported
    proc = _child(["-c", _STAR_CHILD, mode])
    assert proc.returncode == 0, proc.stderr
    verdict, loaded = proc.stdout.splitlines()
    assert verdict == "True -0.6332942354616302"
    assert loaded == repr(["rabi_balance", "rabi_balance.balance", "rabi_balance.errors",
                           "rabi_balance.model", "rabi_balance.solver",
                           "rabi_balance.variational"])


_POOL_CHILD = """
import sys
from rabi_balance.cli import main

codes = [main([*cmd, "--lambda", "0.5", "--omega0", "1", "--out", sys.argv[1] + "/" + cmd[0]])
         for cmd in (["solve"], ["balance"], ["variational"], ["converge"],
                     ["sweep", "--lambda", "0:1:3", "--jobs", "1"])]
print(codes, sorted(m for m in sys.modules
                    if m.startswith("multiprocessing") or m == "concurrent.futures.process"))
"""


def test_commands_without_a_pool_load_no_pool_machinery(tmp_path):
    # concurrent.futures.process and multiprocessing cost start-up and
    # memory in every process; only a sweep on more than one worker loads them
    proc = _child(["-c", _POOL_CHILD, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


# argv[1] is "block" or "plain", the rest the CLI's arguments (none: the
# import alone).  Blocked, any import of numpy raises ImportError; plain,
# whether numpy loaded goes to stderr's last line, apart from stdout.
_NUMPY_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import rabi_balance.cli
try:
    code = rabi_balance.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
except SystemExit as exc:  # --help
    code = exc.code
sys.stdout.flush()
sys.stderr.write(f"\\nnumpy loaded: {sys.modules.get('numpy') is not None}\\n")
sys.exit(code)
"""

_POINT = ["--lambda", "0.5", "--omega0", "1"]


@pytest.mark.parametrize("args, code, loads_numpy", [
    ([], 0, False),
    (["--help"], 0, False),
    (["solve", "--omega0", "1"], 1, False),
    (["solve", *_POINT], 0, False),
    (["solve", *_POINT, "--format", "json"], 0, False),
    (["converge", *_POINT], 0, False),
    (["balance", *_POINT], 0, False),
    (["balance", *_POINT, "--paper-literal"], 0, False),
    # the trial simplex keeps numpy's exp and sinh, whose last bits its path
    # depends on: these two load numpy at its first energy
    (["sweep", *_POINT, "--jobs", "1"], 0, True),
    (["variational", *_POINT], 0, True),
], ids=["import", "help", "usage-error", "solve", "solve-json", "converge", "balance",
        "balance-paper-literal", "sweep", "variational"])
def test_only_the_simplex_loads_numpy(args, code, loads_numpy):
    # the sector solve, the balance report and the CLI run on Python floats:
    # with numpy unimportable they print the same bytes and exit alike
    plain = _child(["-c", _NUMPY_CHILD, "plain", *args], text=False)
    assert plain.returncode == code, plain.stderr
    assert plain.stderr.endswith(f"numpy loaded: {loads_numpy}\n".encode()), plain.stderr
    assert bool(plain.stdout) == (code == 0 and args != [])
    if not loads_numpy:
        blocked = _child(["-c", _NUMPY_CHILD, "block", *args], text=False)
        assert blocked.returncode == code, blocked.stderr
        assert blocked.stdout == plain.stdout


_BLOCKED_CHILD = """
import sys
sys.modules["numpy"] = None
from rabi_balance.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args, code, err", [
    (["variational", *_POINT], 1,
     ["error: variational needs the module numpy, which cannot be imported"]),
    (["sweep", *_POINT, "--jobs", "1"], 1,
     ["error: sweep needs the module numpy, which cannot be imported"]),
    (["solve", *_POINT], 0, []),
    (["converge", *_POINT], 0, []),
    (["balance", *_POINT], 0, []),
], ids=["variational", "sweep", "solve", "converge", "balance"])
def test_a_python_without_numpy_gets_one_line_not_a_traceback(args, code, err):
    # the trial simplex imports numpy at its first energy; where that fails,
    # the command says so in one line and exits 1, and the others still run
    proc = _child(["-c", _BLOCKED_CHILD, *args])
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines() == err
    assert bool(proc.stdout) == (code == 0)


def test_an_unimportable_module_is_one_line_in_process(monkeypatch, capsys):
    # main's handler for what the child above meets, without a child
    def needs_numpy(cfg):
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")

    monkeypatch.setitem(cli._COMMANDS, "sweep", (needs_numpy, *cli._COMMANDS["sweep"][1:]))
    assert run_cli(["sweep", *_POINT, "--jobs", "1"]) == 1
    assert capsys.readouterr() == ("", "error: sweep needs the module numpy, "
                                       "which cannot be imported\n")


# argv[1] is "block" or "plain", as for _NUMPY_CHILD; stdout's last line
# says whether numpy loaded.
_STATIONARITY_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from rabi_balance import ModelParams, TrialParams, stationarity_equals_balance
for point, trial in (((1.0, 0.5, 1.0), (-0.3, 0.2)), ((0.5, 2.0, 0.5), (-3.9, -0.1))):
    print(repr(stationarity_equals_balance(ModelParams(*point), TrialParams(*trial))))
print(sys.modules.get("numpy") is not None)
"""


def test_the_variational_residuals_load_no_numpy():
    # b1 and b7 read the trial's sector vector and not its energy, so the
    # gradient and both residuals run on Python floats, numpy or none
    blocked = _child(["-c", _STATIONARITY_CHILD, "block"])
    assert blocked.returncode == 0, blocked.stderr
    plain = _child(["-c", _STATIONARITY_CHILD, "plain"])
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout == blocked.stdout
    assert plain.stdout.splitlines()[-1] == "False"


# The CLI's records are named tuples: ``dataclasses`` and what it pulls in
# (``inspect``, ``ast``) cost start-up in every process and load nowhere on
# these paths.  Which of them loaded goes to stderr's last line.
_DATACLASS_CHILD = """
import sys
import rabi_balance.cli
code = rabi_balance.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
loaded = sorted(name for name in ("ast", "dataclasses", "inspect") if name in sys.modules)
sys.stderr.write(f"\\n{loaded}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("args", [
    [],
    ["solve", *_POINT],
    ["solve", *_POINT, "--format", "json"],
    ["converge", *_POINT],
    ["balance", *_POINT],
    ["balance", *_POINT, "--paper-literal"],
], ids=["import", "solve", "solve-json", "converge", "balance", "balance-paper-literal"])
def test_the_cli_loads_no_dataclasses(args):
    proc = _child(["-c", _DATACLASS_CHILD, *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"
    assert bool(proc.stdout) == (args != [])


# Importing the CLI loads no layer, so --help and a usage error load none;
# each command imports the layers it calls, and json only where JSON is read
# or printed.  Which of them loaded goes to stderr's last line.
_LAYERS_CHILD = """
import sys
import rabi_balance.cli
try:
    code = rabi_balance.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as exc:  # --help
    code = exc.code
sys.stdout.flush()
names = ("json", "rabi_balance.balance", "rabi_balance.solver", "rabi_balance.variational")
sys.stderr.write(f"\\n{[name for name in names if name in sys.modules]}\\n")
sys.exit(code)
"""
_SOLVER = ["rabi_balance.solver"]
_REPORT = ["rabi_balance.balance", "rabi_balance.solver"]
_OPTIMIZER = ["rabi_balance.balance", "rabi_balance.solver", "rabi_balance.variational"]
_GRID = ["sweep", "--lambda", "0:1:2", "--omega0", "1", "--jobs", "1"]


@pytest.mark.parametrize("args, code, loaded", [
    ([], 0, []),
    (["--help"], 0, []),
    (["solve", "--omega0", "1"], 1, []),
    (["solve", *_POINT], 0, _SOLVER),
    (["solve", *_POINT, "--format", "json"], 0, ["json", *_SOLVER]),
    (["converge", *_POINT], 0, _SOLVER),
    (["balance", *_POINT], 0, ["json", *_REPORT]),
    (["balance", *_POINT, "--paper-literal"], 0, ["json", *_REPORT]),
    (["variational", *_POINT], 0, ["json", *_OPTIMIZER]),
    (_GRID, 0, _OPTIMIZER),
    ([*_GRID, "--format", "json"], 0, ["json", *_OPTIMIZER]),
], ids=["import", "help", "usage-error", "solve", "solve-json", "converge", "balance",
        "balance-paper-literal", "variational", "sweep", "sweep-json"])
def test_each_command_loads_only_the_layers_it_runs(args, code, loaded):
    proc = _child(["-c", _LAYERS_CHILD, *args])
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == repr(loaded)
    assert bool(proc.stdout) == (code == 0 and args != [])


_LIBRARY_CHILD = """
import sys
from rabi_balance import ModelParams, solve_rabi_ground

sol = solve_rabi_ground(ModelParams(1, 0.5, 1))
phi = sol.phi
print(sys.modules.get("numpy") is not None)
sol.boson_state, sol.state
print(sys.modules.get("numpy") is not None)
"""


def test_a_solve_loads_numpy_only_for_its_states():
    # phi is a tuple of floats; the QuantumState forms load numpy when read
    proc = _child(["-c", _LIBRARY_CHILD])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_CHILD = """
import os
import re
{imports}
print([os.environ.get(var) for var in {names!r}])
"""


@pytest.mark.parametrize("preset, imports, expected", [
    (None, "import rabi_balance.cli", ["1", "1", "1"]),
    ("3", "import rabi_balance.cli", ["3", "1", "1"]),
    (None, "import rabi_balance\nfrom rabi_balance.oracle import full_report", [None, None, None]),
], ids=["cli", "cli-preset", "library"])
def test_cli_starts_numpy_with_one_blas_thread(monkeypatch, preset, imports, expected):
    # the CLI sets one BLAS thread before numpy loads, unless the environment
    # sets a count; the library leaves the environment alone
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    proc = _child(["-c", _BLAS_CHILD.format(imports=imports, names=_BLAS_VARS)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(expected)


_FREEZE_CHILD = """
import atexit
import gc
atexit.register(lambda: print(gc.get_freeze_count()))
{imports}
"""


@pytest.mark.parametrize("imports, frozen", [
    ("import rabi_balance.cli", True),
    ("import rabi_balance\nfrom rabi_balance import solve_rabi_ground", False),
], ids=["cli", "library"])
def test_cli_freezes_its_objects_at_exit_and_the_library_does_not(imports, frozen):
    # atexit runs handlers last in, first out: the child's handler, registered
    # before the import, runs after the CLI's and sees what it froze
    proc = _child(["-c", _FREEZE_CHILD.format(imports=imports)])
    assert proc.returncode == 0, proc.stderr
    assert (int(proc.stdout.splitlines()[-1]) > 0) == frozen


@pytest.fixture
def collector_off():
    """The cyclic collector off for the test, so ``gc.collect`` counts its cycles; then restored."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if collecting:
        gc.enable()


@pytest.mark.parametrize("task", [
    (1.0, 0.0, 1.0, None, 1e-10),
    (1.0, 0.5, 0.0, None, 1e-10),
    (1.0, 0.3, 2.0, None, 1e-10),
    (1.0, 5.0, 1.0, None, 1e-10),
    (1.0, 10.0, 1.0, None, 1e-10),  # NotConverged within MAX_DIM
], ids=["lam0", "omega0-0", "weak", "strong", "not-converged"])
def test_a_sweep_point_makes_no_cyclic_garbage(collector_off, task):
    # with the collector off, as a caller may run main, reference counting
    # alone frees everything a point makes only if nothing it makes is cyclic
    try:
        cli._sweep_point(task)
    except NotConverged:
        assert task[1] == 10.0
    assert gc.collect() == 0


def test_a_pooled_sweep_makes_no_cyclic_garbage(collector_off):
    import concurrent.futures.process  # noqa: F401  its first import makes cyclic garbage

    gc.collect()
    tasks = [(1.0, lam, 1.0, None, 1e-10) for lam in (0.0, 0.5, 1.0, 2.0)]
    assert len(list(cli._pool_map(tasks, 2))) == 4
    assert gc.collect() == 0


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["sweep", "--lambda", "0:1:2", "--omega0", "1", "--jobs", "1"], 0),
    (["sweep", "--lambda", "0:1:2", "--omega0", "1", "--jobs", "0"], 1),
    (["sweep", "--lambda", "10", "--omega0", "1", "--jobs", "1"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_main_runs_with_the_callers_collector_setting(monkeypatch, capsys, argv, code,
                                                       collecting):
    # main neither switches the collector nor leaves it changed: each point
    # runs with the caller's setting, on every exit code
    seen = []
    sweep_point = cli._sweep_point

    def recording(task):
        seen.append(gc.isenabled())
        return sweep_point(task)

    monkeypatch.setattr(cli, "_sweep_point", recording)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert run_cli(argv) == code
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [collecting] * {0: 2, 1: 0, 2: 1}[code]
    capsys.readouterr()


def test_help_restores_the_collector(capsys):
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        run_cli(["--help"])
    assert gc.isenabled()
    assert "rabi-balance" in capsys.readouterr().out
