"""Acceptance gate: every release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  The criteria freeze behavior at stated tolerances; they are
deliberately one test function per criterion so a failure names the
broken guarantee directly.
"""

import math
import time

import numpy as np
import pytest

from rabi_balance import (
    ModelParams,
    TrialParams,
    energy_closed_form,
    minimize_energy,
    solve_rabi_ground,
    stationarity_equals_balance,
)
from rabi_balance.fock import BOSON, FockRep, QuantumState, SPIN_BOSON
from rabi_balance.oracle import (
    Observable,
    b1_kinetic_balance,
    b7_covariance_balance,
    b7_terms,
    energy_numeric,
    full_report,
    second_order_residual,
    standard_observables,
    trial_state,
    wigner_origin,
)
from rabi_balance.cli import main as cli_main

_T0 = time.monotonic()

GRID_LAM = (0.0, 0.25, 0.5, 1.0, 2.0)
GRID_OM0 = (0.0, 0.5, 1.0, 2.0, 5.0)


def _verdict(num, label, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {word}")
    assert ok, f"criterion {num} ({label}) failed {detail}"


@pytest.fixture(scope="module")
def grid():
    """Converged ground solutions and balance reports on the 5x5 grid."""
    out = {}
    for lam in GRID_LAM:
        for om0 in GRID_OM0:
            p = ModelParams(omega=1.0, lam=lam, omega0=om0)
            sol = solve_rabi_ground(p)
            rep = FockRep(sol.dim_used)
            report = full_report(
                sol.state, rep, p,
                sector=sol.parity, energy=sol.energy, boson_state=sol.boson_state,
            )
            out[(lam, om0)] = (p, sol, report)
    return out


@pytest.fixture(scope="module")
def optima(grid):
    return {
        key: minimize_energy(p, exact=sol)
        for key, (p, sol, _) in grid.items()
    }


def test_criterion_01_uncoupled_ground_energy():
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=0.0, omega0=1.0))
    err = abs(sol.energy + 0.5)
    _verdict(1, "uncoupled ground energy -omega0/2", err < 1e-12, f"err={err:.2e}")


def test_criterion_02_zero_splitting_displaced_ground():
    worst_e = worst_gap = 0.0
    for lam in (0.25, 0.5, 1.0):
        sol = solve_rabi_ground(ModelParams(omega=1.0, lam=lam, omega0=0.0))
        worst_e = max(worst_e, abs(sol.energy + lam**2))
        worst_gap = max(worst_gap, sol.sector_gap)
    _verdict(2, "zero-splitting energy and sector degeneracy",
             worst_e < 1e-9 and worst_gap < 1e-9,
             f"energy err={worst_e:.2e} gap={worst_gap:.2e}")


def test_criterion_03_energy_band_on_grid(grid):
    worst = -np.inf
    for (lam, om0), (p, sol, _) in grid.items():
        lo = -om0 / 2 - lam**2
        hi = -om0 / 2
        excess = max(lo - sol.energy, sol.energy - hi)
        worst = max(worst, excess)
    _verdict(3, "ground energy inside [-omega0/2 - lam^2/omega, -omega0/2]",
             worst <= 1e-9, f"worst band excess={worst:.2e}")


def test_criterion_04_stationarity_residuals_on_grid(grid):
    worst1 = worst2 = 0.0
    for (lam, om0), (p, sol, report) in grid.items():
        worst1 = max(worst1, *(report.first_order[k] for k in
                               ("q", "p", "num", "q_sigma_x", "p_sigma_x",
                                "sigma_z", "sigma_y")))
        worst2 = max(worst2, report.second_order["q_sigma_x"],
                     report.second_order["omega_num"])
    _verdict(4, "first/second order commutator residuals on grid",
             worst1 < 1e-7 and worst2 < 1e-7,
             f"first={worst1:.2e} second={worst2:.2e}")


def test_criterion_05_properties_and_bounds_on_grid(grid):
    worst_margin = np.inf
    worst_b6 = 0.0
    failures = []
    for (lam, om0), (p, sol, report) in grid.items():
        for name, chk in report.properties.items():
            if name == "b6_identity":
                worst_b6 = max(worst_b6, abs(chk.value))
                if abs(chk.value) > 1e-8:
                    failures.append((lam, om0, name))
                continue
            worst_margin = min(worst_margin, chk.margin)
            if not chk.satisfied:
                failures.append((lam, om0, name))
    _verdict(5, "properties p2-p4, b2, and Wigner band on grid",
             not failures and worst_margin >= -1e-9,
             f"failures={failures} worst margin={worst_margin:.2e} "
             f"b6 gap={worst_b6:.2e}")


def test_criterion_06_balance_oracle_equality():
    rng = np.random.default_rng(611)
    p = ModelParams(omega=1.3, lam=0.7, omega0=0.9, mass=1.0)
    obs = standard_observables(FockRep(64), p)
    h = obs["hamiltonian"]
    q2 = Observable(obs["q"].matrix @ obs["q"].matrix)
    worst = 0.0
    for _ in range(100):
        v = np.zeros(128, dtype=complex)
        v[:96] = rng.normal(size=96) + 1j * rng.normal(size=96)
        st = QuantumState.from_vector(v, SPIN_BOSON)
        d1 = abs(b1_kinetic_balance(st, obs, p)
                 - 0.25 * p.mass * second_order_residual(h, q2, st))
        d7 = abs(b7_covariance_balance(st, obs, p)
                 - p.mass * p.omega * second_order_residual(h, obs["num"], st))
        worst = max(worst, d1, d7)
    _verdict(6, "literal b1/b7 equal scaled double commutators on 100 states",
             worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_07_closed_form_vs_numeric_grid():
    p = ModelParams(omega=1.0, lam=0.6, omega0=0.8)
    rep = FockRep(120)
    worst = 0.0
    for beta in np.linspace(-2.0, 2.0, 9):
        for gamma in np.linspace(-1.0, 1.0, 9):
            t = TrialParams(float(beta), float(gamma))
            worst = max(worst, abs(energy_closed_form(t, p)
                                   - energy_numeric(rep, t, p)))
    _verdict(7, "trial energy closed form vs matrix evaluation (9x9 box)",
             worst < 1e-8, f"worst={worst:.2e}")


def test_criterion_08_variational_bound(grid, optima):
    worst_gap = -np.inf
    exact_cases = []
    for (lam, om0), res in optima.items():
        worst_gap = max(worst_gap, -res.gap)
        if lam == 0.0 or om0 == 0.0:
            exact_cases.append(abs(res.gap))
    p = ModelParams(omega=1.0, lam=0.2, omega0=0.5)
    special = minimize_energy(p, solve_rabi_ground(p))
    rel = special.gap / abs(special.exact_energy)
    _verdict(8, "variational bound, exact limits, weak-coupling gap",
             worst_gap <= 1e-9 and max(exact_cases) <= 1e-9 and rel < 1e-2,
             f"bound excess={worst_gap:.2e} exact-limit gap={max(exact_cases):.2e} "
             f"rel gap={rel:.2e}")


def test_criterion_09_stationarity_equals_balance(grid, optima):
    worst_grad = worst_res = 0.0
    for key, res in optima.items():
        grad, b1, b7 = stationarity_equals_balance(grid[key][0], res.trial)
        worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
        worst_res = max(worst_res, b1, b7)
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    star = optima[(0.5, 1.0)].trial
    grad, _, _ = stationarity_equals_balance(
        p, TrialParams(star.beta + 0.1, star.gamma)
    )
    off = float(np.linalg.norm(grad))
    _verdict(9, "optima satisfy balance; perturbation breaks it",
             worst_grad < 1e-6 and worst_res < 1e-5 and off > 1e-3,
             f"grad={worst_grad:.2e} residual={worst_res:.2e} off={off:.2e}")


def test_criterion_10_anticorrelation_regime():
    p = ModelParams(omega=1.0, lam=0.1, omega0=10.0)
    sol = solve_rabi_ground(p)
    t = b7_terms(sol.state, standard_observables(FockRep(sol.dim_used), p), p)
    f0sq = p.f0**2
    ok = abs(t["fq_fe"]) < 0.1 * f0sq and t["p_dfe"] < -0.9 * f0sq
    _verdict(10, "force covariance anticorrelation at strong splitting", ok,
             f"fq_fe/F0^2={t['fq_fe'] / f0sq:.4f} p_dfe/F0^2={t['p_dfe'] / f0sq:.4f}")


def test_criterion_11_wigner_checks():
    rng = np.random.default_rng(1111)
    worst_w = 0.0
    for _ in range(1000):
        v = rng.normal(size=30) + 1j * rng.normal(size=30)
        st = QuantumState.from_vector(v, BOSON)
        worst_w = max(worst_w, abs(wigner_origin(st)))
    rep = FockRep(240)
    worst_par = 0.0
    for beta in (0.0, 1.0, -1.0, 2.0, -2.0):
        target = math.exp(-2.0 * beta**2)
        for gamma in (0.0, 0.5, -0.5, 1.0, -1.0):
            st = trial_state(rep, TrialParams(beta, gamma))
            worst_par = max(worst_par,
                            abs(0.5 * wigner_origin(st) - target))
    _verdict(11, "W(0,0) bounded by 2; trial parity e^{-2 beta^2}, gamma-free",
             worst_w <= 2.0 + 1e-12 and worst_par < 1e-9,
             f"max |W|={worst_w:.6f} parity err={worst_par:.2e}")


def test_criterion_12_reproducibility_and_runtime(tmp_path):
    args = ["sweep", "--omega", "1", "--lambda", "0:1:3",
            "--omega0", "0.5:1.5:3", "--jobs", "1"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(args + ["--out", str(out_a)])
    code_b = cli_main(args + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.monotonic() - _T0
    _verdict(12, "byte-identical sweep; suite under 3 CPU-minutes",
             code_a == 0 and code_b == 0 and identical and elapsed < 180.0,
             f"identical={identical} elapsed={elapsed:.1f}s")
    print(f"    (acceptance wall time {elapsed:.1f}s on one core)")
