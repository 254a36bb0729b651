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
their Fock amplitudes.  The dense unitaries ``displacement`` and
``squeeze`` are the tests' oracle: the exponential of the dense
generator (``_generator``) by eigendecomposition in ``working_dim``
(exactly unitary there), cut to ``dim``.  Only the leading columns of
the cut are reliable: a displaced column n spreads by about
2 |beta| sqrt(n) levels, a squeezed one by a factor e^{2 |gamma|}.  At
beta = 1 the leading half block of a dim-40 cut is clean to 1e-8; at
gamma = 0.3 the leading quarter block is.

Operators on the sweep path are ``BandOperator``s, applied in O(N); the
dense ``build_ladder`` and ``Observable`` serve the tests and oracles.

Composite (spin-boson) vectors are indexed ``i = 2 n + s`` where ``n``
is the Fock index and ``s = 0`` is the sigma_z = +1 spin component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AmplitudeTooLarge,
    DimensionMismatch,
    NonHermitian,
    SqueezeTooLarge,
)

if TYPE_CHECKING:
    from .model import ModelParams

HERMITICITY_TOL = 1e-12
SQUEEZE_MAX = 2.0

BOSON = "boson"
SPIN_BOSON = "spin_boson"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockRep:
    """Boson space truncated to ``dim`` levels.

    ``working_dim`` is the enlarged space in which matrix exponentials
    are evaluated before truncation; it defaults to ``2 * dim + 20``,
    which absorbs the leakage of displacements with |beta| <= 2 and
    squeezes with |gamma| <= 1 on the leading half block.
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
class Observable:
    """Dense matrix with an explicit hermiticity promise.

    The input is stored as a read-only complex array.  When
    ``hermitian`` is True the constructor enforces
    ``max|M - M^dag| < 1e-12``; operators like displacements set it to
    False and skip the check.
    """

    matrix: np.ndarray
    hermitian: bool = True

    def __post_init__(self):
        m = _frozen(np.array(self.matrix, dtype=complex))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if self.hermitian:
            defect = float(np.max(np.abs(m - m.conj().T)))
            if defect >= HERMITICITY_TOL:
                raise NonHermitian(f"hermiticity defect {defect:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v."""
        return self.matrix @ v


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


Operator = Observable | BandOperator


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


@lru_cache(maxsize=None)
def _ladder_matrices(dim: int):
    n_vals = np.arange(dim)
    ann = np.zeros((dim, dim), dtype=complex)
    ann[n_vals[:-1], n_vals[1:]] = np.sqrt(n_vals[1:])
    cre = ann.conj().T.copy()
    num = cre @ ann  # the product itself, so num == a^dag a entrywise
    par = np.diag(((-1.0) ** n_vals).astype(complex))
    return tuple(_frozen(m) for m in (ann, cre, num, par))


def build_ladder(rep: FockRep):
    """Return (annihilation, creation, number, boson parity) at ``rep.dim``.

    Entries are exact: ``creation @ annihilation`` equals the number
    matrix entrywise, and conjugating the ladder operators with the
    parity matrix flips their sign exactly.  Only the last row/column
    carry the truncation artifact (``[a, a^dag] - 1`` is nonzero there).
    """
    ann, cre, num, par = _ladder_matrices(rep.dim)
    return (
        Observable(ann, hermitian=False),
        Observable(cre, hermitian=False),
        Observable(num),
        Observable(par),
    )


def _ladder_bands(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The bands of a (sqrt(n), n = 1..dim-1) and of a^dag a (as sqrt(n) sqrt(n))."""
    root = np.sqrt(np.arange(1, dim))
    return root, np.concatenate(([0.0], root * root))


def build_quadratures(rep: FockRep, params: "ModelParams"):
    """Position/momentum pair for oscillator mass ``m`` and frequency ``omega``.

    ``[q, p] = i`` holds on the leading (N-1) block; the last row and
    column are polluted by truncation.
    """
    m, omega = float(params.mass), float(params.omega)
    if m <= 0.0 or omega <= 0.0:
        raise ValueError(f"need mass > 0 and omega > 0, got m={m}, omega={omega}")
    ann, cre, _, _ = _ladder_matrices(rep.dim)
    q = (ann + cre) / np.sqrt(2.0 * m * omega)
    p = 1j * np.sqrt(m * omega / 2.0) * (cre - ann)
    return Observable(q), Observable(p)


def _generator(dim: int, kind: str, par1: float, par2: float = 0.0) -> np.ndarray:
    """Dense anti-Hermitian generator G at ``dim``, so that exp(G) is D or S.

    ``kind`` "displace": G = beta a^dag - conj(beta) a, beta = par1 + i par2;
    ``kind`` "squeeze": G = gamma (a^dag^2 - a^2) / 2, gamma = par1.
    """
    ann, cre, _, _ = _ladder_matrices(dim)
    if kind == "displace":
        beta = complex(par1, par2) if par2 else par1  # real beta keeps G real
        return beta * cre - np.conj(beta) * ann
    if kind == "squeeze":
        return 0.5 * par1 * (cre @ cre - ann @ ann)
    raise ValueError(kind)


def _unitary_from_generator(dim: int, kind: str, par1: float, par2: float):
    """Dense exp(G) of ``_generator``, via eigh of the Hermitian i*G.

    The result is unitary to machine precision at ``dim``.  It is the
    oracle behind ``displacement`` and ``squeeze`` and the trial-state
    tests; nothing caches it.
    """
    herm = 1j * _generator(dim, kind, par1, par2)
    w, v = np.linalg.eigh(herm)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return _frozen(u)


def displacement(rep: FockRep, beta: complex) -> Observable:
    """Truncated displacement D(beta) = exp(beta a^dag - conj(beta) a).

    Built in ``rep.working_dim`` (exactly unitary there), then cut to
    ``rep.dim``.  Requires ``|beta|^2 <= working_dim / 4`` so the
    displaced support stays inside the working space; the leading half
    block of the cut matrix is then unitary to ~1e-8 for |beta| <= 2
    with the default working_dim.
    """
    beta = complex(beta)
    if abs(beta) ** 2 > rep.working_dim / 4.0:
        raise AmplitudeTooLarge(
            f"|beta|^2 = {abs(beta) ** 2:.3g} exceeds working_dim/4 = "
            f"{rep.working_dim / 4.0:.3g}"
        )
    u = _unitary_from_generator(rep.working_dim, "displace", beta.real, beta.imag)
    return Observable(u[: rep.dim, : rep.dim], hermitian=False)


def squeeze(rep: FockRep, gamma: float) -> Observable:
    """Truncated squeeze S(gamma) = exp(gamma (a^dag^2 - a^2) / 2).

    gamma is real with |gamma| <= 2 (beyond that the Fock tail decays
    too slowly for any practical truncation).  The generator preserves
    parity, so entries with odd n - m vanish.
    """
    gamma = float(gamma)
    if abs(gamma) > SQUEEZE_MAX:
        raise SqueezeTooLarge(f"|gamma| = {abs(gamma)} exceeds {SQUEEZE_MAX}")
    u = _unitary_from_generator(rep.working_dim, "squeeze", gamma, 0.0)
    return Observable(u[: rep.dim, : rep.dim], hermitian=False)


def _check_dims(state: QuantumState, obs: Operator):
    if state.dim != obs.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} vs operator dim {obs.dim}"
        )


def expectation(state: QuantumState, obs: Operator) -> complex:
    """<psi| M |psi>.  Real up to ~1e-16 scale when M is Hermitian."""
    _check_dims(state, obs)
    v = state.amplitudes
    return complex(np.vdot(v, obs.apply(v)))


def variance(state: QuantumState, obs: Operator) -> float:
    """<M^2> - <M>^2 for Hermitian M; nonnegative by construction."""
    if not obs.hermitian:
        raise NonHermitian("variance requires a Hermitian observable")
    _check_dims(state, obs)
    v = state.amplitudes
    w = obs.apply(v)
    mean = np.vdot(v, w).real
    second = np.vdot(w, w).real  # <M psi | M psi> = <M^2> for Hermitian M
    return float(second - mean * mean)

