"""Truncated Fock-space states and the lift of a sector vector.

``QuantumState`` is a normalized complex vector tagged with its space:
the boson space (length N) or the spin-boson space (length 2N, indexed
``i = 2 n + s``, where ``n`` is the Fock index and ``s = 0`` the
sigma_z = +1 spin component).  ``embed_reduced_state`` lifts a sector
vector (``model``) to the spin-boson space, and ``extract_reduced_state``
and ``infer_sector`` undo it.  The operators that act on these states,
and their conventions, are ``rabi_balance.oracle``'s.

The runtime hands out floats: the solver, the balance report and the
trial recurrence work on lists of floats.  Of the runtime, only
``GroundSolution.state`` and ``boson_state`` import this module, to wrap
a solved sector vector when a library caller reads them; no command
does, so the CLI never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SectorRequired
from .model import check_sector

BOSON = "boson"
SPIN_BOSON = "spin_boson"
SECTOR_TOL = 1e-8  # norm off the sector, or 1 - |<P>|, that still counts as in it


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockRep:
    """Boson space truncated to ``dim`` levels.

    ``working_dim`` is the enlarged space in which the oracle's matrix
    exponentials are evaluated before truncation; it defaults to
    ``2 * dim + 20``, which absorbs the leakage of displacements with
    |beta| <= 2 and squeezes with |gamma| <= 1 on the leading half
    block.  Only ``rabi_balance.oracle`` reads it; its trial states
    (``trial_state``) need no working space.
    """

    dim: int
    working_dim: int | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.working_dim is None:
            object.__setattr__(self, "working_dim", 2 * self.dim + 20)
        if self.working_dim < self.dim:
            raise ValueError(
                f"working_dim {self.working_dim} smaller than dim {self.dim}"
            )


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state over a tagged space.

    ``kind`` is ``"boson"`` (length N) or ``"spin_boson"`` (length 2N,
    indexed ``i = 2 n + s`` with s = 0 the sigma_z = +1 component).  The
    input vector must already be normalized to within 1e-6; it is then
    rescaled so the stored norm is exactly 1.  Use ``from_vector`` for
    un-normalized input.
    """

    amplitudes: np.ndarray
    kind: str = BOSON

    def __post_init__(self):
        if self.kind not in (BOSON, SPIN_BOSON):
            raise ValueError(f"unknown space tag {self.kind!r}")
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if self.kind == SPIN_BOSON and v.size % 2 != 0:
            raise DimensionMismatch("spin_boson vector length must be even")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm {norm} too far from 1; use from_vector")
        object.__setattr__(self, "amplitudes", _frozen(v / norm))

    @classmethod
    def from_vector(cls, vec, kind: str = BOSON) -> "QuantumState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / norm, kind)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def fock_state(dim: int, n: int, kind: str = BOSON) -> QuantumState:
    """Basis vector |n> of a ``dim``-dimensional space."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside 0..{dim - 1}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return QuantumState(v, kind)


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
