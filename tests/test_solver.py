import math

import numpy as np
import pytest

from rabi_balance import (
    FockRep,
    ModelParams,
    NotConverged,
    Observable,
    build_full_hamiltonian,
    build_parity_operator,
    build_reduced_hamiltonian,
    convergence_table,
    expectation,
    solve_rabi_ground,
)
from rabi_balance import solver
from rabi_balance.solver import ground_state


def test_ground_state_of_diagonal_matrix_with_phase_fix():
    obs = Observable(np.diag([3.0, -2.0, 5.0]).astype(complex))
    energy, state = ground_state(obs)
    assert energy == pytest.approx(-2.0, abs=1e-14)
    # phase convention: largest-amplitude entry made real positive
    assert state.amplitudes[1] == pytest.approx(1.0, abs=1e-14)


def test_uncoupled_ground():
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=0.0, omega0=1.0))
    assert abs(sol.energy + 0.5) < 1e-12
    assert sol.parity_label == "+1"
    assert sol.sector_gap == pytest.approx(1.0, abs=1e-12)
    assert sol.converged


def test_zero_splitting_ground_is_displaced_oscillator():
    # omega0 = 0: E = -lam^2/omega, and the two sectors are degenerate
    for lam in (0.25, 0.5, 1.0):
        sol = solve_rabi_ground(ModelParams(omega=1.0, lam=lam, omega0=0.0))
        assert abs(sol.energy + lam**2) < 1e-9
        assert sol.parity_label == "degenerate"
        assert sol.parity == +1  # the +1 member is the reported representative
        assert sol.sector_gap < 1e-9


def test_scaling_of_ground_energy():
    # E(c omega, c lam, c omega0) = c E(omega, lam, omega0)
    base = solve_rabi_ground(ModelParams(omega=1.0, lam=0.6, omega0=0.9))
    scaled = solve_rabi_ground(ModelParams(omega=3.0, lam=1.8, omega0=2.7))
    assert scaled.energy == pytest.approx(3.0 * base.energy, abs=1e-9)


def test_energy_band():
    # -omega0/2 - lam^2/omega <= E <= -omega0/2
    for lam, om0 in ((0.3, 0.7), (1.0, 2.0), (2.0, 0.5)):
        sol = solve_rabi_ground(ModelParams(omega=1.0, lam=lam, omega0=om0))
        assert -om0 / 2 - lam**2 - 1e-9 <= sol.energy <= -om0 / 2 + 1e-9


def test_ground_state_is_parity_pure():
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=0.9, omega0=1.4))
    rep = FockRep(sol.dim_used)
    par = build_parity_operator(rep)
    assert expectation(sol.state, par).real == pytest.approx(sol.parity, abs=1e-12)
    # embedded boson state reproduces the full-space energy
    h = build_full_hamiltonian(rep, ModelParams(omega=1.0, lam=0.9, omega0=1.4))
    assert expectation(sol.state, h).real == pytest.approx(sol.energy, abs=1e-10)


def test_dimension_doubling_monotone_refinement():
    p = ModelParams(omega=1.0, lam=0.8, omega0=1.2)
    e64 = solve_rabi_ground(p, dim=64).energy
    e128 = solve_rabi_ground(p, dim=128).energy
    assert abs(e64 - e128) < 1e-12


def test_auto_mode_respects_max_dim():
    p = ModelParams(omega=1.0, lam=2.0, omega0=1.0)
    with pytest.raises(NotConverged) as err:
        solve_rabi_ground(p, max_dim=32)
    sol = err.value.solution  # best effort still attached
    assert sol.dim_used == 32
    assert not sol.converged
    assert abs(sol.energy_delta) > 1e-10


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError):
        solve_rabi_ground(ModelParams(omega=1.0, lam=0.5, omega0=1.0), tol=tol)


def test_fixed_dim_half_delta_check():
    p = ModelParams(omega=1.0, lam=2.0, omega0=1.0)
    with pytest.raises(NotConverged):
        solve_rabi_ground(p, dim=8)
    sol = solve_rabi_ground(p, dim=64)
    assert sol.converged
    assert abs(sol.energy_delta) < 1e-10


def test_convergence_table_shape_and_flags():
    p = ModelParams(omega=1.0, lam=1.0, omega0=1.0)
    rows, ok = convergence_table(p, tol=1e-10, max_dim=128)
    assert ok
    assert rows[0][0] == 16
    assert math.isnan(rows[0][2])  # no predecessor for the first row
    dims = [r[0] for r in rows]
    assert dims == sorted(dims)
    assert abs(rows[-1][2]) < 1e-10


@pytest.mark.parametrize("lam, dim, solves", [
    (0.5, None, 4),  # levels 16 and 32, two sectors each
    (6.0, None, 10),  # levels 16 to 256
    (0.5, 64, 4),  # fixed dim: dim // 2 and dim
])
def test_each_level_is_solved_once(monkeypatch, lam, dim, solves):
    dtypes = []
    eigh = solver.np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        dtypes.append(args[0].dtype)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(solver.np.linalg, "eigh", counting_eigh)
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=lam, omega0=1.0), dim=dim)
    assert sol.converged
    assert dtypes == [np.float64] * solves  # real sector chains only


@pytest.mark.parametrize("lam, omega0", [(0.7, 0.0), (0.5, 1.0), (6.0, 1.0)])
def test_solution_matches_dense_sector_oracle(lam, omega0):
    params = ModelParams(omega=1.0, lam=lam, omega0=omega0)
    sol = solve_rabi_ground(params)
    rep = FockRep(sol.dim_used)
    energy, phi = ground_state(build_reduced_hamiltonian(rep, params, sol.parity))
    assert abs(sol.energy - energy) < 1e-12
    overlap = np.vdot(phi.amplitudes, sol.boson_state.amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-12
