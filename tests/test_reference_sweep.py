"""Sweep output against a stored reference, with tolerance on floats.

``tests/data/reference-sweep.csv`` was written by

    rabi-balance sweep --lambda 0:3:4 --omega0 0:2:3 --jobs 1

before the sector solver was moved to real dtype.  The grid covers the
degenerate omega0 = 0 line, weak coupling and Fock dimensions 32-128.
Byte identity holds across runs and ``--jobs`` (criterion 12), but not
across eigensolver changes, which move state-derived columns by
round-off; this test bounds that drift.

The optimum columns (``e_var``, ``beta_star``, ``gamma_star``) also
depend on the CPU: the trial simplex's energy calls numpy's ``exp`` and
``sinh``, whose last bit depends on the SIMD code numpy dispatches to.
The reference agrees with numpy 2.4.6 on an AVX-512 x86 CPU.  With
those features disabled (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``), the simplex takes another path at lambda=3 omega0=0 and
this test fails on ``beta_star``; so a failure on a runner without
AVX-512 is not by itself a regression.

glibc's dispatch does reach Python's ``math``, but no sweep byte: the
same grid, and the benchmark's sweep-weak grid, under
``GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA`` print the same CSV bytes.
numpy's switch is left out, as it moves the optimum columns.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabi_balance
from rabi_balance.cli import SWEEP_COLUMNS, main

REFERENCE = Path(__file__).parent / "data" / "reference-sweep.csv"
ARGS = ["sweep", "--lambda", "0:3:4", "--omega0", "0:2:3", "--jobs", "1"]
# the sweep-weak workload of bench/run.py at seed 0
SWEEP_WEAK = ["sweep", "--lambda", "0:1:8", "--omega0", "0:5:8", "--jobs", "1"]

EXACT = ("omega", "lambda", "omega0", "dim_used", "parity_label",
         *(c for c in SWEEP_COLUMNS if c.endswith("_ok")))
RESIDUALS = ("res_b1", "res_b7", "res_force")
REL_TOL = 1e-12
# Values that are sums of O(1) terms cancelling to near zero (a sector
# gap of 1e-8 between energies of 9, w00 of 3e-8) carry absolute
# round-off, so relative closeness is required only above this floor.
ABS_FLOOR = 1e-12
# times max(1, |e_exact|): balance.report_passes's bound on a first-order
# residual, and these are second-order ones, which it reads against its square
RESIDUAL_BOUND = 1e-7


def _rows(text):
    reader = csv.DictReader(text.splitlines())
    assert reader.fieldnames == SWEEP_COLUMNS
    return list(reader)


def test_sweep_matches_reference(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(ARGS + ["--out", str(out)]) == 0
    got, want = _rows(out.read_text()), _rows(REFERENCE.read_text())
    assert len(got) == len(want) == 12
    for new, ref in zip(got, want):
        where = f"lambda={ref['lambda']} omega0={ref['omega0']}"
        for col in EXACT:
            assert new[col] == ref[col], f"{where}: {col}"
        scale = max(1.0, abs(float(new["e_exact"])))
        for col in RESIDUALS:
            assert float(new[col]) < RESIDUAL_BOUND * scale, f"{where}: {col}"
        for col in (c for c in SWEEP_COLUMNS if c not in EXACT + RESIDUALS):
            a, b = float(new[col]), float(ref[col])
            assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), (
                f"{where}: {col} {a!r} vs {b!r}"
            )


# glibc's switch off its FMA code paths, for one child process: libm's exp and
# sinh then round some arguments differently
NO_FMA = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA"}
EXP_SAMPLE = "import math; print(*(math.exp(-2 + k / 2500).hex() for k in range(10001)))"


def _child(args, env=None):
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    return proc.stdout


def test_sweep_bytes_do_not_depend_on_glibc_fma_dispatch():
    # skipped where the switch leaves math.exp as it is (no FMA, or not glibc),
    # so that it never passes without having switched anything
    if _child(["-c", EXP_SAMPLE]) == _child(["-c", EXP_SAMPLE], NO_FMA):
        pytest.skip("glibc.cpu.hwcaps=-FMA does not change math.exp here")
    for grid in (ARGS, SWEEP_WEAK):
        args = ["-m", "rabi_balance.cli", *grid]
        assert _child(args, NO_FMA) == _child(args), grid
