"""The benchmark's traced pass still runs on the package's public layer functions.

``bench/trace_pass.py`` calls ``solve_rabi_ground``, ``full_report``,
``minimize_energy`` and ``wigner_origin`` and reads the solution's states
and the optimizer's iteration count; a change to any of them that the
script does not follow breaks the benchmark's per-layer split.  This runs
the script as the benchmark does, in a fresh interpreter on two points.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rabi_balance
from rabi_balance import ModelParams, minimize_energy, solve_rabi_ground

TRACE_PASS = Path(__file__).resolve().parents[1] / "bench" / "trace_pass.py"
POINTS = [[1.0, 0.5, 1.0], [1.0, 3.0, 0.5]]
SPANS = ("solver.solve", "balance.full_report", "variational.minimize_energy", "point")


def test_trace_pass_runs_on_the_package(tmp_path):
    spec = tmp_path / "points.json"
    spec.write_text(json.dumps({"points": POINTS, "tol": 1e-10}), encoding="utf-8")
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TRACE_PASS), str(spec)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)

    want = []
    for omega, lam, omega0 in POINTS:
        params = ModelParams(omega=omega, lam=lam, omega0=omega0)
        sol = solve_rabi_ground(params, tol=1e-10)
        var = minimize_energy(params, exact=sol)
        want.append({"dim_used": sol.dim_used, "e_exact": sol.energy, "e_var": var.energy,
                     "nm_iterations": var.iterations})
    assert out["rows"] == want
    assert [(s["name"], s["point"]) for s in out["spans"]] == [
        (name, i) for i in range(len(POINTS)) for name in SPANS]
    assert all(0.0 <= s["start"] <= s["end"] for s in out["spans"])
