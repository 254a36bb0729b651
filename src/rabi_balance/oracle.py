"""Dense matrices: the tests' independent oracle for the band and chain code.

Every dense construction of the package lives here (``BandOperator.matrix``
only stacks the columns its band form gives), and only this module knows
the dense format: spin-boson matrices are ``np.kron(boson, spin)``, so
index ``i = 2 n + s``; entries are complex; and the unitaries
``displacement`` and ``squeeze`` are the exponential of the dense
generator (``_generator``) by eigendecomposition in ``working_dim``
(exactly unitary there), cut to ``dim``.  Only the leading columns of the
cut are reliable: a displaced column n spreads by about 2 |beta| sqrt(n)
levels, a squeezed one by a factor e^{2 |gamma|}.  At beta = 1 the
leading half block of a dim-40 cut is clean to 1e-8; at gamma = 0.3 the
leading quarter block is.

The runtime modules never import this one, and no CLI command loads it;
the package root resolves its public names on first access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import BoundCheck, _b2, _b6, _identity, _property_checks, standard_observables
from .errors import AmplitudeTooLarge, EigDecompositionFailure, NonHermitian, SqueezeTooLarge
from .fock import BOSON, FockRep, QuantumState, _frozen, expectation
from .model import IDENTITY_2, SIGMA_X, SIGMA_Z, ModelParams, embed_reduced_state, sector_chain
from .variational import TrialParams, trial_state

HERMITICITY_TOL = 1e-12
SQUEEZE_MAX = 2.0


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


def build_quadratures(rep: FockRep, params: ModelParams):
    """Position/momentum pair for oscillator mass ``m`` and frequency ``omega``.

    ``[q, p] = i`` holds on the leading (N-1) block; the last row and
    column are polluted by truncation.
    """
    m, omega = params.mass, params.omega
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


def build_full_hamiltonian(rep: FockRep, params: ModelParams) -> Observable:
    """Dense H on the 2N spin-boson space, ordering i = 2 n + s, from ``np.kron``.

    The ``eigvalsh`` oracle of the tests and the benchmark checks,
    independent of the band form in ``balance.standard_observables``.
    """
    ann, cre, num, _ = _ladder_matrices(rep.dim)
    return Observable(
        params.omega * np.kron(num, IDENTITY_2)
        + params.lam * np.kron(ann + cre, SIGMA_X)
        + 0.5 * params.omega0 * np.kron(np.eye(rep.dim), SIGMA_Z)
    )


def build_parity_operator(rep: FockRep) -> Observable:
    """P = -sigma_z cos(pi a^dag a); diagonal, squares to the identity."""
    _, _, _, par = _ladder_matrices(rep.dim)
    return Observable(-np.kron(par, SIGMA_Z))


def sector_matrix(dim: int, params: ModelParams, sector: int) -> np.ndarray:
    """Real symmetric tridiagonal matrix of H_p on Fock levels 0..dim-1."""
    diag, off = sector_chain(dim, params, sector)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def build_reduced_hamiltonian(rep: FockRep, params: ModelParams, sector: int) -> Observable:
    """Boson-only Hamiltonian of the parity sector ``sector``."""
    return Observable(sector_matrix(rep.dim, params, sector))


def ground_state(obs: Observable) -> tuple[float, QuantumState]:
    """Lowest eigenpair of a Hermitian observable on the boson space.

    The eigenvector phase is fixed so its largest-modulus amplitude is
    real and positive.
    """
    if not obs.hermitian:
        raise NonHermitian("ground_state requires a Hermitian observable")
    matrix = obs.matrix
    with np.errstate(over="ignore"):
        bound = np.abs(matrix).sum(axis=1).max()  # bounds every |eigenvalue|
    if not np.isfinite(bound):
        raise OverflowError(f"{len(matrix)}-level matrix has row sums beyond the float range")
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigDecompositionFailure(str(exc)) from exc
    vec = v[:, 0]
    k = int(np.argmax(np.abs(vec)))
    return float(w[0]), QuantumState(vec * np.conj(vec[k] / abs(vec[k])), BOSON)


def energy_numeric(rep: FockRep, trial: TrialParams, params: ModelParams) -> float:
    """Matrix-element evaluation of the same energy, for cross-checking.

    The expectation is taken in rep.working_dim rather than rep.dim:
    this function is the truncation-clean oracle for the closed form,
    and the working space is sized so that the trial state keeps a
    negligible tail above it over the whole parameter box.  Cutting to
    rep.dim first would poison the corners of the box (a stretched
    state at beta = 2, gamma = 1 keeps ~2e-5 of its weight above Fock
    level 120) and turn a formula check into a truncation check.
    """
    wide = FockRep(rep.working_dim, working_dim=rep.working_dim)
    state = trial_state(wide, trial)
    h = build_reduced_hamiltonian(wide, params, +1)
    return expectation(state, h).real


def trial_property_compliance(
    rep: FockRep, trial: TrialParams, params: ModelParams
) -> dict[str, BoundCheck]:
    """p1..p4 plus the variance bound evaluated on the embedded trial state.

    Off-optimum trial states may legitimately fail some bounds (p1's
    upper edge most visibly); failures are reported via ``satisfied``,
    never raised.
    """
    psi = embed_reduced_state(trial_state(rep, trial), +1)
    energy = energy_numeric(rep, trial, params)
    obs = standard_observables(rep, params)
    checks = _property_checks(psi, obs, params, +1, energy, paper_literal=False)
    checks["b2"] = _b2(psi, obs, params, paper_literal=False)
    checks["b6_identity"] = _identity(_b6(psi, obs, +1))
    return checks
