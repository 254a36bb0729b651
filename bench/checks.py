"""Correctness checks on `rabi-balance sweep` CSV output.

Every check returns a list of problems; an empty list means the output
passed.  The checks are pure functions of the CSV text (plus, for the
oracle, the package's public Hamiltonian builder), so the self-test can
feed them corrupted rows without running the program.
"""

from __future__ import annotations

import csv
import io

COLUMNS = [
    "omega", "lambda", "omega0", "dim_used", "e_exact", "parity_label",
    "sector_gap", "e_var", "beta_star", "gamma_star", "gap", "res_b1",
    "res_b7", "res_force", "w00_exact", "w00_trial", "var_qsx", "b2_lo",
    "b2_hi", "p1_ok", "p2_ok", "p3_ok", "p4_ok", "b2_ok", "w_bound_ok",
]
OK_COLUMNS = [c for c in COLUMNS if c.endswith("_ok")]
RESIDUAL_COLUMNS = ("res_b1", "res_b7", "res_force")
RESIDUAL_TOL = 1e-7  # times max(1, |e_exact|), as in balance.report_passes
GAP_FLOOR = -1e-9  # trial energy may not sit below the exact ground
ORACLE_TOL = 1e-9  # times max(1, |e_exact|)

# Reference comparison.  Inputs, ints, labels and flags must match
# exactly.  Columns that come from the exact eigenvector move only by
# eigensolver round-off (a tridiagonal solver moves energies by ~7e-15).
# Columns that come from the optimum of the trial energy are located by
# Nelder-Mead to xatol 1e-8 / fatol 1e-10, so an equivalent optimizer may
# move them further; they get the optimizer's own precision.
EXACT_COLUMNS = ("omega", "lambda", "omega0", "dim_used", "parity_label", *OK_COLUMNS)
REL_TOL = {
    "e_exact": 1e-9, "sector_gap": 1e-9, "w00_exact": 1e-9, "var_qsx": 1e-9,
    "b2_lo": 1e-9, "b2_hi": 1e-9, "e_var": 1e-9, "gap": 1e-9,
    "beta_star": 1e-6, "gamma_star": 1e-6, "w00_trial": 1e-6,
}
ABS_FLOOR = 1e-12


def parse_rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != COLUMNS:
        raise ValueError(f"unexpected header {reader.fieldnames}")
    return list(reader)


def check_rows(text: str, grid: list[tuple[float, float, float]]) -> list[str]:
    """Header, grid order and the per-row physics checks."""
    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    problems = []
    for i, (row, point) in enumerate(zip(rows, grid)):
        try:
            where = f"row {i} (lambda={row['lambda']}, omega0={row['omega0']})"
            if tuple(float(row[c]) for c in ("omega", "lambda", "omega0")) != point:
                problems.append(f"{where}: not grid point {point}")
            bad_flags = [c for c in OK_COLUMNS if row[c] != "1"]
            if bad_flags:
                problems.append(f"{where}: flags not 1: {bad_flags}")
            scale = max(1.0, abs(float(row["e_exact"])))
            for col in RESIDUAL_COLUMNS:
                res = float(row[col])
                if not res < RESIDUAL_TOL * scale:
                    problems.append(f"{where}: {col} = {res:.3e}")
            gap = float(row["gap"])
            if not gap >= GAP_FLOOR:
                problems.append(f"{where}: gap = {gap:.3e}")
        except (TypeError, ValueError) as exc:
            problems.append(f"row {i}: unparsable ({exc})")
    return problems


def check_against_reference(text: str, reference: str) -> list[str]:
    """Value comparison with the stored reference output (see REL_TOL)."""
    try:
        rows, ref_rows = parse_rows(text), parse_rows(reference)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in EXACT_COLUMNS:
            if row[col] != ref[col]:
                problems.append(f"row {i}: {col} {row[col]} != reference {ref[col]}")
        for col, rtol in REL_TOL.items():
            try:
                got, want = float(row[col]), float(ref[col])
            except (TypeError, ValueError):
                problems.append(f"row {i}: {col} unparsable")
                continue
            if not abs(got - want) <= max(rtol * abs(want), ABS_FLOOR):
                problems.append(f"row {i}: {col} {got!r} vs reference {want!r}")
    return problems


def check_oracle(text: str, indices: list[int]) -> list[str]:
    """e_exact of the given rows against a dense full-space eigensolve.

    The oracle diagonalizes the 2N x 2N spin-boson Hamiltonian at the
    row's own dim_used, so it checks the parity-sector reduction and the
    eigensolver, not the truncation.
    """
    import numpy as np
    from rabi_balance import FockRep, ModelParams, build_full_hamiltonian

    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    for i in indices:
        if i >= len(rows):
            problems.append(f"oracle row {i} missing")
            continue
        row = rows[i]
        try:
            params = ModelParams(
                omega=float(row["omega"]), lam=float(row["lambda"]),
                omega0=float(row["omega0"]),
            )
            rep = FockRep(int(row["dim_used"]))
            e_exact = float(row["e_exact"])
        except (TypeError, ValueError) as exc:
            problems.append(f"oracle row {i}: unparsable ({exc})")
            continue
        e_dense = float(np.linalg.eigvalsh(build_full_hamiltonian(rep, params).matrix)[0])
        if not abs(e_exact - e_dense) <= ORACLE_TOL * max(1.0, abs(e_dense)):
            problems.append(f"oracle row {i}: e_exact {e_exact!r} vs dense {e_dense!r}")
    return problems
