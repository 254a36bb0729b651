"""Exact diagonalization of the Rabi model with truncation control.

The ground state is found per parity sector: each sector is the real
symmetric N x N chain ``model.sector_matrix``, diagonalized with dense
real ``eigh`` (two N x N problems instead of one complex 2N x 2N one).
One doubling ladder solves both sectors at Fock dimension 16, 32, ...
until the global minimum moves by less than ``tol``; a fixed ``dim`` is
the same ladder over ``dim // 2`` and ``dim``.  Every level is solved
once, and the winning sector's eigenvector at the last level is lifted
back to the spin-boson space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.linalg

from .errors import EigDecompositionFailure, NonHermitian, NotConverged
from .fock import BOSON, Observable, QuantumState
from .model import ModelParams, embed_reduced_state, sector_matrix

START_DIM = 16
MAX_DIM = 256
DEGENERACY_TOL = 1e-9  # absolute sector gap below which the ground is degenerate


@dataclass(frozen=True)
class GroundSolution:
    """Converged (or best-effort) ground state of the full model.

    ``parity`` is the sector of the returned representative; at
    degenerate points (sector gap < 1e-9, e.g. omega0 = 0) the +1
    representative is returned and ``parity_label`` reads
    ``"degenerate"``.  ``boson_state`` is the sector eigenvector phi
    from which ``state`` was lifted.  ``energy_delta`` is the last
    change under dimension doubling.
    """

    energy: float
    state: QuantumState
    boson_state: QuantumState
    parity: int
    parity_label: str
    sector_gap: float
    dim_used: int
    converged: bool
    energy_delta: float


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec * np.conj(phase)


def _lowest_pair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    try:
        w, v = scipy.linalg.eigh(matrix)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigDecompositionFailure(str(exc)) from exc
    return float(w[0]), _phase_fixed(v[:, 0])


def ground_state(obs: Observable, kind: str = BOSON) -> tuple[float, QuantumState]:
    """Lowest eigenpair of a Hermitian observable.

    The eigenvector phase is fixed so its largest-modulus amplitude is
    real and positive.
    """
    if not obs.hermitian:
        raise NonHermitian("ground_state requires a Hermitian observable")
    energy, vec = _lowest_pair(obs.matrix)
    return energy, QuantumState(vec, kind)


def _doubling(params: ModelParams, tol: float, dims: Iterable[int]):
    """Solve both sectors at each of ``dims`` until the energy moves < ``tol``.

    Returns the rows (dim, energy, delta) of the levels solved, where
    energy is the lower sector energy and delta is nan on the first row;
    the two sector ground pairs of the last level; and whether it
    converged.
    """
    rows: list[tuple[int, float, float]] = []
    sectors: dict[int, tuple[float, np.ndarray]] = {}
    previous = np.nan
    for dim in dims:
        sectors = {p: _lowest_pair(sector_matrix(dim, params, p)) for p in (+1, -1)}
        energy = min(e for e, _ in sectors.values())
        rows.append((dim, energy, energy - previous))
        if abs(energy - previous) < tol:
            return rows, sectors, True
        previous = energy
    return rows, sectors, False


def _doubled_dims(max_dim: int) -> Iterator[int]:
    """16, 32, 64, ... up to ``max_dim``."""
    dim = START_DIM
    while dim <= max_dim:
        yield dim
        dim *= 2


def _solution(rows, sectors, converged: bool) -> GroundSolution:
    dim, _, delta = rows[-1]
    e_plus, phi_plus = sectors[+1]
    e_minus, phi_minus = sectors[-1]
    gap = e_minus - e_plus
    if abs(gap) < DEGENERACY_TOL:
        # degenerate pair: report the +1 representative
        parity, label = +1, "degenerate"
        energy, phi = e_plus, phi_plus
    elif e_plus <= e_minus:
        parity, label = +1, "+1"
        energy, phi = e_plus, phi_plus
    else:
        parity, label = -1, "-1"
        energy, phi = e_minus, phi_minus
    boson_state = QuantumState(phi, BOSON)
    return GroundSolution(
        energy=float(energy),
        state=embed_reduced_state(boson_state, parity),
        boson_state=boson_state,
        parity=parity,
        parity_label=label,
        sector_gap=float(gap),
        dim_used=dim,
        converged=converged,
        energy_delta=float(delta),
    )


def solve_rabi_ground(
    params: ModelParams,
    tol: float = 1e-10,
    max_dim: int = MAX_DIM,
    dim: int | None = None,
) -> GroundSolution:
    """Ground state of the full model with truncation convergence check.

    With ``dim=None`` the Fock dimension doubles from 16 until the
    global ground energy changes by less than ``tol``; otherwise the
    problem is solved at the fixed ``dim`` and the convergence check
    compares against ``dim // 2``.  Raises NotConverged (carrying the
    best-effort solution) when the budget is exhausted.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if dim is not None:
        if dim < 4:
            raise ValueError(f"fixed dim must be >= 4, got {dim}")
        sol = _solution(*_doubling(params, tol, (dim // 2, dim)))
        if not sol.converged:
            raise NotConverged(
                f"energy moved by {sol.energy_delta:.3e} between dim {dim // 2} and {dim}",
                solution=sol,
            )
        return sol

    if max_dim < START_DIM:
        raise ValueError(f"max_dim must be >= {START_DIM}, got {max_dim}")
    sol = _solution(*_doubling(params, tol, _doubled_dims(max_dim)))
    if not sol.converged:
        raise NotConverged(
            f"not converged to {tol:.1e} within max_dim {max_dim} "
            f"(last delta {sol.energy_delta:.3e})",
            solution=sol,
        )
    return sol


def convergence_table(
    params: ModelParams,
    tol: float = 1e-10,
    max_dim: int = MAX_DIM,
) -> tuple[list[tuple[int, float, float]], bool]:
    """Dimension-doubling trace: rows (dim, energy, delta), plus success flag.

    The first row has delta = nan.  Doubling stops at the first delta
    below ``tol`` or once ``max_dim`` is exceeded.
    """
    rows, _, converged = _doubling(params, tol, _doubled_dims(max_dim))
    return rows, converged
