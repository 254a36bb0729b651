import math

import numpy as np
import pytest

from rabi_balance import (
    EigDecompositionFailure,
    ModelParams,
    NotConverged,
    convergence_table,
    solve_rabi_ground,
)
from rabi_balance.fock import FockRep
from rabi_balance.oracle import (
    Observable,
    build_full_hamiltonian,
    build_parity_operator,
    build_reduced_hamiltonian,
    expectation,
    ground_state,
    sector_matrix,
)
from rabi_balance import cli, solver
from rabi_balance.model import sector_chain


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


def test_auto_mode_respects_max_dim(monkeypatch):
    # the doubling budget is solver.MAX_DIM, read at call time
    monkeypatch.setattr(solver, "MAX_DIM", 32)
    p = ModelParams(omega=1.0, lam=2.0, omega0=1.0)
    with pytest.raises(NotConverged) as err:
        solve_rabi_ground(p)
    sol = err.value.solution  # best effort still attached
    assert sol.dim_used == 32
    assert not sol.converged
    assert abs(sol.energy_delta) > 1e-10


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError):
        solve_rabi_ground(ModelParams(omega=1.0, lam=0.5, omega0=1.0), tol=tol)


@pytest.mark.parametrize("command, omega, lam, omega0", [
    ("converge", 0.00010933700297796016, 0.19490346529036617, 4625636.665878542),
    ("solve", 0.0001918740251103786, 2.9939910384240107e-06, 66252651.805050515),
], ids=["converge", "solve"])
def test_ladder_stops_at_rounding_level(capsys, command, omega, lam, omega0):
    # |E| ~ 2e6 and 3e7: one ulp of E (4.7e-10 and 3.7e-9) exceeds the
    # default tol, and the converged energy wobbles by 1-2 ulps per level
    argv = [command, "--omega", repr(omega), "--lambda", repr(lam), "--omega0", repr(omega0)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if command == "solve":
        assert "converged = True" in out and "dim_used = 32" in out
    else:
        assert out.splitlines()[-1].startswith("32,")


def test_fixed_dim_half_delta_check():
    p = ModelParams(omega=1.0, lam=2.0, omega0=1.0)
    with pytest.raises(NotConverged):
        solve_rabi_ground(p, dim=8)
    sol = solve_rabi_ground(p, dim=64)
    assert sol.converged
    assert abs(sol.energy_delta) < 1e-10


@pytest.mark.parametrize("dim, max_dim, dims", [
    (8, 256, "dim 4 and 8"),
    (None, 32, "dim 16 and 32"),
], ids=["fixed", "auto"])
def test_not_converged_names_the_last_two_dims(monkeypatch, dim, max_dim, dims):
    # one ladder call and one message for the fixed and the automatic ladder
    monkeypatch.setattr(solver, "MAX_DIM", max_dim)
    with pytest.raises(NotConverged) as err:
        solve_rabi_ground(ModelParams(omega=1.0, lam=2.0, omega0=1.0), dim=dim)
    delta = err.value.solution.energy_delta
    assert str(err.value) == f"not converged to 1.0e-10: energy moved by {delta:.3e} between {dims}"


def test_fixed_dim_below_four_is_rejected():
    with pytest.raises(ValueError, match="fixed dim must be >= 4, got 3"):
        solve_rabi_ground(ModelParams(omega=1.0, lam=0.5, omega0=1.0), dim=3)


def test_convergence_table_shape_and_flags():
    p = ModelParams(omega=1.0, lam=1.0, omega0=1.0)
    rows, ok = convergence_table(p, tol=1e-10, max_dim=128)
    assert ok
    assert rows[0][0] == 16
    assert math.isnan(rows[0][2])  # no predecessor for the first row
    dims = [r[0] for r in rows]
    assert dims == sorted(dims)
    assert abs(rows[-1][2]) < 1e-10


@pytest.mark.parametrize("lam, dim, levels", [
    (0.5, None, [16, 16, 32, 32]),  # two sectors per level
    (6.0, None, [16, 16, 32, 32, 64, 64, 128, 128, 256, 256]),
    (0.5, 64, [32, 32, 64, 64]),  # fixed dim: dim // 2 and dim
], ids=["0.5-None-4", "6.0-None-10", "0.5-64-4"])
def test_each_level_is_solved_once(monkeypatch, lam, dim, levels):
    solved = []
    lowest_pair = solver._lowest_pair

    def counting(diag, off, start=None):
        solved.append(len(diag))
        return lowest_pair(diag, off, start)

    monkeypatch.setattr(solver, "_lowest_pair", counting)
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=lam, omega0=1.0), dim=dim)
    assert sol.converged
    assert solved == levels


@pytest.mark.parametrize("lam, dim", [
    (0.0, None), (1e-300, None), (0.5, None), (6.0, None), (0.5, 64),
])
def test_each_level_solves_the_chain_built_afresh(monkeypatch, lam, dim):
    # the ladder extends each sector's chain by the new levels' entries;
    # every level must see the chain sector_chain builds from level 0
    params = ModelParams(omega=1.0, lam=lam, omega0=1.0)
    chains = []
    lowest_pair = solver._lowest_pair

    def recording(diag, off, start=None):
        chains.append(repr((diag, off)))  # repr: bit for bit, the sign of a zero included
        return lowest_pair(diag, off, start)

    monkeypatch.setattr(solver, "_lowest_pair", recording)
    sol = solve_rabi_ground(params, dim=dim)
    levels = [16 * 2**k for k in range(len(chains) // 2)] if dim is None else [dim // 2, dim]
    assert len(chains) == 2 * len(levels) and levels[-1] == sol.dim_used
    expected = [repr(sector_chain(level, params, p)) for level in levels for p in (+1, -1)]
    assert chains == expected


def _sturm_count(diag, off, sigma):
    """Eigenvalues of the chain below sigma: negative pivots of its LDL^T, on floats."""
    count, q = 0, 1.0
    for i, a in enumerate(diag):
        q = a - sigma - (off[i - 1] ** 2 / q if i else 0.0)
        count += q < 0.0
    return count


def _check_lowest_pair(params, sector, energy, vec, isolated=True):
    """Dense-oracle agreement and the Sturm certificate of one sector solve."""
    dim = len(vec)
    want, phi = ground_state(build_reduced_hamiltonian(FockRep(dim), params, sector))
    assert abs(energy - want) < 1e-12
    assert abs(abs(np.vdot(phi.amplitudes, vec)) - 1.0) < 1e-12
    diag, off = sector_chain(dim, params, sector)
    m = 1e-9 * max(abs(energy), 1.0)
    assert _sturm_count(diag, off, energy - m) == 0
    assert _sturm_count(diag, off, energy + m) == (1 if isolated else 2)


@pytest.mark.parametrize("lam, omega0, sector, dim", [
    (0.0, 0.7, +1, 16),  # decoupled levels: a diagonal chain
    (0.0, 0.7, -1, 16),
    (0.4, 0.0, -1, 32),
    # E = -0.25 scales to -2^-10 exactly: a shift lands on the eigenvalue
    (0.5, 0.0, +1, 128),
    (0.5, 0.0, -1, 128),
    (0.5, 0.0, +1, 256),
    (0.5, 0.0, -1, 256),
    (6.0, 1.0, +1, 256),
    (6.0, 1.0, -1, 256),
])
def test_cold_sector_solve_matches_dense_oracle(lam, omega0, sector, dim):
    params = ModelParams(omega=1.0, lam=lam, omega0=omega0)
    energy, vec = solver._lowest_pair(*sector_chain(dim, params, sector))
    _check_lowest_pair(params, sector, energy, vec)


def test_degenerate_lowest_level_in_a_sector():
    # lam = 0, omega0 = omega: levels 0 and 1 of sector -1 both sit at omega0 / 2;
    # the solve returns the lower-index level, as the dense solve does
    params = ModelParams(omega=1.0, lam=0.0, omega0=1.0)
    energy, vec = solver._lowest_pair(*sector_chain(16, params, -1))
    assert energy == 0.5
    _check_lowest_pair(params, -1, energy, vec, isolated=False)


@pytest.mark.parametrize("omega", [1e20, 1e300])
def test_level_far_below_the_chain_norm_keeps_its_digits(omega):
    # E = -omega0/2 - lam^2/omega + ... is -0.5 to the last digit, while the
    # chain's norm is 16 omega: a residual relative to |E| (1e20) and the
    # split at negligible couplings (1e300) keep every digit of E
    sol = solve_rabi_ground(ModelParams(omega=omega, lam=1.0, omega0=1.0))
    assert sol.energy == -0.5
    assert sol.dim_used == 32 and sol.converged


def test_fixed_dim_512_starts_from_bisection(monkeypatch):
    bisected = []
    bisect = solver._Chain.bisect

    def counting(self, lo, hi, resolution):
        bisected.append(len(self.a))
        return bisect(self, lo, hi, resolution)

    monkeypatch.setattr(solver._Chain, "bisect", counting)
    params = ModelParams(omega=1.0, lam=3.0, omega0=1.0)
    sol = solve_rabi_ground(params, dim=512)
    assert bisected == [256, 256]  # the first level has no level below; 512 starts from it
    _check_lowest_pair(params, sol.parity, sol.energy, sol.boson_state.amplitudes)


def test_excited_start_falls_back_to_the_lowest_pair(monkeypatch):
    bisected = []
    bisect = solver._Chain.bisect

    def counting(self, lo, hi, resolution):
        bisected.append(resolution)
        return bisect(self, lo, hi, resolution)

    monkeypatch.setattr(solver._Chain, "bisect", counting)
    params = ModelParams(omega=1.0, lam=1.5, omega0=1.0)
    w, v = np.linalg.eigh(sector_matrix(64, params, +1))
    excited = (float(w[1]), v[:, 1])  # Rayleigh iteration from here converges to w[1]
    energy, vec = solver._lowest_pair(*sector_chain(64, params, +1), start=excited)
    assert bisected  # the certificate failed, so the solve fell back to bisection
    _check_lowest_pair(params, +1, energy, vec)


def test_uncertified_solve_raises_one_line(monkeypatch, capsys):
    from rabi_balance.cli import main

    monkeypatch.setattr(solver._Chain, "count", lambda self, sigma: 2)  # no certificate holds
    with pytest.raises(EigDecompositionFailure) as err:
        solver._lowest_pair(*sector_chain(16, ModelParams(omega=1.0, lam=0.5, omega0=1.0), +1))
    assert str(err.value) == "16-level chain: no lowest eigenpair passed the Sturm certificate"
    assert main(["solve", "--lambda", "0.5", "--omega0", "1"]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == ["numerical failure: " + str(err.value)]


@pytest.mark.parametrize("lam, omega0", [(0.7, 0.0), (0.5, 1.0), (6.0, 1.0)])
def test_solution_matches_dense_sector_oracle(lam, omega0):
    params = ModelParams(omega=1.0, lam=lam, omega0=omega0)
    sol = solve_rabi_ground(params)
    rep = FockRep(sol.dim_used)
    energy, phi = ground_state(build_reduced_hamiltonian(rep, params, sol.parity))
    assert abs(sol.energy - energy) < 1e-12
    overlap = np.vdot(phi.amplitudes, sol.boson_state.amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-12
