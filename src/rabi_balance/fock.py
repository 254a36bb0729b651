"""Truncated Fock-space representation: states, operators, expectations.

Conventions used throughout the package:

* annihilation ``a[m, n] = sqrt(n) * delta(m, n-1)``, creation is its
  conjugate transpose, number ``n = a^dag a`` holds exactly entrywise;
* boson parity is the diagonal ``(-1)^n``, i.e. ``cos(pi a^dag a)``;
* quadratures ``q = (a + a^dag) / sqrt(2 m omega)`` and
  ``p = i sqrt(m omega / 2) (a^dag - a)``;
* displacement ``D(beta) = exp(beta a^dag - conj(beta) a)`` and squeeze
  ``S(gamma) = exp(gamma (a^dag^2 - a^2) / 2)``.  With this squeeze sign,
  gamma > 0 stretches the position spread: ``Var(q)`` on ``S(gamma)|0>``
  is ``exp(2 gamma) / (2 m omega)``.

Trial states (``variational.trial_state``) come from the recurrence of
their Fock amplitudes.  ``BandOperator`` (boson bands times spin
matrices, applied in O(N)) is the operator form of the balance suite in
``rabi_balance.oracle``, which also holds the dense matrices and
unitaries; no command builds one, since the runtime works on sector
chains and real sector vectors as lists of floats.

Composite (spin-boson) vectors are indexed ``i = 2 n + s`` where ``n``
is the Fock index and ``s = 0`` is the sigma_z = +1 spin component.
``embed_reduced_state`` lifts a sector vector (``model``) to that space,
``extract_reduced_state`` and ``infer_sector`` undo it, and the Pauli
matrices act on ``s``.

This is the numpy module of the runtime (``oracle`` is the tests'): the
solver, the balance report and the trial recurrence work on lists of
floats and import it only to return a ``QuantumState``, so the CLI's
``solve``, ``converge`` and ``balance`` never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, NonHermitian, SectorRequired
from .model import SECTOR_TOL, check_sector

if TYPE_CHECKING:
    from .oracle import Observable

BOSON = "boson"
SPIN_BOSON = "spin_boson"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


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
    block.  Only ``rabi_balance.oracle`` reads it; the trial states of
    ``variational.trial_state`` need no working space.
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


class BandOperator:
    """Hermitian sum of (boson band) x (spin matrix) terms, applied in O(N).

    A term is ``((diag, upper), spin)``.  The real ``diag`` and the
    entries [n, n + 1] in ``upper`` (either may be None) make a band whose
    lower entries are conj(upper); ``spin`` is the identity or a Pauli
    matrix (width 2) or [[1]] (width 1, the boson space).  A vector is a
    (levels, width) array, index i = width n + s.  Terms merge into
    stripes ``(offset, swap, coef)``, each adding ``coef[n, s] v[n +
    offset, s ^ swap]`` to entry [n, s], in ascending offset: the column
    order of a matrix product.
    """

    hermitian = True

    def __init__(self, levels: int, terms):
        merged: dict[tuple[int, bool], np.ndarray] = {}
        for (diag, upper), spin in terms:
            cols = np.argmax(np.abs(spin), axis=1)
            factor = spin[np.arange(len(spin)), cols]
            lower = None if upper is None else np.conj(upper)
            for offset, band in ((-1, lower), (0, diag), (1, upper)):
                if band is not None:
                    coef = np.asarray(band)[:, None] * factor
                    key = (offset, bool(cols[0]))
                    merged[key] = merged[key] + coef if key in merged else coef
        self.levels, self.width, self.dim = levels, len(factor), levels * len(factor)
        self.stripes = [(k, s, c) for (k, s), c in sorted(merged.items())]  # keys are unique

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v; inf and NaN propagate silently, as through a matrix product."""
        x = v.reshape(self.levels, self.width)
        out = np.zeros(x.shape, dtype=complex)
        with np.errstate(all="ignore"):
            for offset, swap, coef in self.stripes:
                w = x[:, ::-1] if swap else x
                lo, hi = max(0, -offset), self.levels - max(0, offset)
                out[lo:hi] += coef * w[lo + offset:hi + offset]
        return out.reshape(-1)

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, column by column, on each access; for oracles and tests."""
        return _frozen(np.stack([self.apply(e) for e in np.eye(self.dim, dtype=complex)], 1))


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


def _ladder_bands(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The bands of a (sqrt(n), n = 1..dim-1) and of a^dag a (as sqrt(n) sqrt(n))."""
    root = np.sqrt(np.arange(1, dim))
    return root, np.concatenate(([0.0], root * root))


def _check_dims(state: QuantumState, obs: BandOperator | Observable):
    if state.dim != obs.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} vs operator dim {obs.dim}"
        )


def expectation(state: QuantumState, obs: BandOperator | Observable) -> complex:
    """<psi| M |psi>.  Real up to ~1e-16 scale when M is Hermitian."""
    _check_dims(state, obs)
    v = state.amplitudes
    return complex(np.vdot(v, obs.apply(v)))


def variance(state: QuantumState, obs: BandOperator | Observable) -> float:
    """<M^2> - <M>^2 for Hermitian M; nonnegative by construction."""
    if not obs.hermitian:
        raise NonHermitian("variance requires a Hermitian observable")
    _check_dims(state, obs)
    v = state.amplitudes
    w = obs.apply(v)
    # Python floats: an overflow gives inf or NaN without a numpy warning
    mean = float(np.vdot(v, w).real)
    second = float(np.vdot(w, w).real)  # <M psi | M psi> = <M^2> for Hermitian M
    return second - mean * mean


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
