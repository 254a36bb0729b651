"""Rabi-model parameters, the conserved parity, and sector reduction.

The full Hamiltonian on the spin-boson space (index ``i = 2 n + s``) is

    H = omega a^dag a  +  lam (a + a^dag) sigma_x  +  (omega0 / 2) sigma_z

with omega > 0, lam >= 0, omega0 >= 0.  It commutes with the parity

    P = -sigma_z cos(pi a^dag a),

so each eigenstate lives in a sector p = +1 or p = -1.  Within sector p
the model reduces to a boson-only operator

    H_p = omega a^dag a + lam (a + a^dag) - (omega0 / 2) p cos(pi a^dag a)

whose eigenvector phi lifts back to the full space as

    (1/sqrt 2) ( phi |+>_x  -  p cos(pi a^dag a) phi |->_x ),

i.e. the spin of the Fock component n is slaved to sigma_z = (-1)^(n+1) p.

In oscillator variables the coupling strength is F0 = sqrt(2 m omega) lam,
so that F0 q = lam (a + a^dag) identically.

``sector_chain`` gives H_p as two lists of floats, computed entry by
entry in Python; the solver takes them as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SectorRequired
from .fock import BOSON, SPIN_BOSON, QuantumState

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
SECTOR_TOL = 1e-8  # norm off the sector, or 1 - |<P>|, that still counts as in it


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; lam is the coupling, mass enters only via F0, q, p.

    Negative lam is rejected: the spectrum is invariant under
    lam -> -lam (conjugation by boson parity), so the parameter plane
    stays two-dimensional.
    """

    omega: float
    lam: float
    omega0: float
    mass: float = 1.0

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.omega0 < 0.0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if not self.mass > 0.0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        for name in ("omega", "lam", "omega0", "mass"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def f0(self) -> float:
        """Static force amplitude sqrt(2 m omega) lam."""
        return math.sqrt(2.0 * self.mass * self.omega) * self.lam


def check_sector(sector: int) -> int:
    if sector not in (+1, -1):
        raise ValueError(f"parity sector must be +1 or -1, got {sector!r}")
    return int(sector)


def sector_chain(dim: int, params: ModelParams, sector: int) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of the real symmetric chain H_p on levels 0..dim-1.

    The number operator enters as the product sqrt(n) sqrt(n), as in
    ``fock``, so every entry equals that of the complex ladder algebra.
    An entry beyond the float range is inf; the solver rejects that chain.
    """
    p = check_sector(sector)
    roots = [math.sqrt(n) for n in range(1, dim)]
    half = 0.5 * params.omega0 * p  # (omega0 / 2) p cos(pi n) is +half at even n
    diag = [params.omega * num - (-half if n % 2 else half)
            for n, num in enumerate([0.0, *(r * r for r in roots)])]
    return diag, [params.lam * r for r in roots]


def _spin_index(n: int, sector: int) -> int:
    # sigma_z component of Fock level n in sector p is (-1)^(n+1) p;
    # s = 0 encodes sigma_z = +1.
    sigma = -sector if n % 2 == 0 else sector
    return 0 if sigma == +1 else 1


def embed_reduced_state(phi: QuantumState, sector: int) -> QuantumState:
    """Lift a sector eigenvector to the full spin-boson space.

    Amplitude a_n goes to index 2 n + s with the spin slaved to the
    Fock parity, which reproduces
    (1/sqrt 2)(phi |+>_x - p cos(pi a^dag a) phi |->_x) in the sigma_z
    basis.  The result has <P> = p exactly.
    """
    p = check_sector(sector)
    if phi.kind != BOSON:
        raise DimensionMismatch("embed expects a boson-space state")
    n = phi.dim
    out = np.zeros(2 * n, dtype=complex)
    amps = phi.amplitudes
    even_spin = _spin_index(0, p)
    odd_spin = _spin_index(1, p)
    out[2 * np.arange(0, n, 2) + even_spin] = amps[0::2]
    out[2 * np.arange(1, n, 2) + odd_spin] = amps[1::2]
    return QuantumState(out, SPIN_BOSON)


def extract_reduced_state(psi: QuantumState, sector: int) -> QuantumState:
    """Inverse of ``embed_reduced_state`` on definite-parity states.

    Raises SectorRequired if more than ``SECTOR_TOL`` of the norm sits on spin
    components incompatible with ``sector``.
    """
    p = check_sector(sector)
    if psi.kind != SPIN_BOSON:
        raise DimensionMismatch("extract expects a spin_boson state")
    full = psi.amplitudes.reshape(-1, 2)
    n = full.shape[0]
    cols = np.where(np.arange(n) % 2 == 0, _spin_index(0, p), _spin_index(1, p))
    amps = full[np.arange(n), cols]
    leftover = 1.0 - float(np.linalg.norm(amps)) ** 2
    if leftover > SECTOR_TOL:
        raise SectorRequired(
            f"state is not in sector {p:+d}: {leftover:.3e} of the norm "
            "sits on the wrong spin components"
        )
    return QuantumState.from_vector(amps, BOSON)


def infer_sector(psi: QuantumState) -> int:
    """Sector label from <P>; raises SectorRequired when |<P>| < 1 - SECTOR_TOL."""
    if psi.kind != SPIN_BOSON:
        raise DimensionMismatch("sector inference expects a spin_boson state")
    full = psi.amplitudes.reshape(-1, 2)
    signs = (-1.0) ** np.arange(full.shape[0])
    # <P> with P = -sigma_z cos(pi n), both factors diagonal
    p_mean = float(np.sum(signs * (np.abs(full[:, 1]) ** 2 - np.abs(full[:, 0]) ** 2)))
    if abs(p_mean) < 1.0 - SECTOR_TOL:
        raise SectorRequired(
            f"<P> = {p_mean:.6f} is not within {SECTOR_TOL:.1e} of +-1; pass the "
            "sector explicitly"
        )
    return +1 if p_mean > 0 else -1
