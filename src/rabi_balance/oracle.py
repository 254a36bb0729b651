"""The tests' independent oracle: operators, dense matrices and the spin-boson balance suite.

Every operator of the package lives here, with its conventions:

* annihilation ``a[m, n] = sqrt(n) * delta(m, n-1)``, creation is its
  conjugate transpose, number ``n = a^dag a`` holds exactly entrywise;
* boson parity is the diagonal ``(-1)^n``, i.e. ``cos(pi a^dag a)``;
* quadratures ``q = (a + a^dag) / sqrt(2 m omega)`` and
  ``p = i sqrt(m omega / 2) (a^dag - a)``;
* displacement ``D(beta) = exp(beta a^dag - conj(beta) a)`` and squeeze
  ``S(gamma) = exp(gamma (a^dag^2 - a^2) / 2)``.  With this squeeze sign,
  gamma > 0 stretches the position spread: ``Var(q)`` on ``S(gamma)|0>``
  is ``exp(2 gamma) / (2 m omega)``;
* the Pauli matrices act on the spin index ``s`` of a spin-boson vector
  (``fock``: ``i = 2 n + s``, s = 0 the sigma_z = +1 component).

Every operator is an ``Observable``, a dense matrix, and ``expectation``
and ``variance`` read a ``QuantumState`` through it.  Spin-boson
matrices are ``np.kron(boson, spin)``, so index ``i = 2 n + s``; entries
are complex; and the unitaries ``displacement`` and ``squeeze`` are the
exponential of the dense generator (``_generator``) by eigendecomposition
in ``working_dim`` (exactly unitary there), cut to ``dim``.  Only the
leading columns of the cut are reliable: a displaced column n spreads by
about 2 |beta| sqrt(n) levels, a squeezed one by a factor e^{2 |gamma|}.
At beta = 1 the leading half block of a dim-40 cut is clean to 1e-8; at
gamma = 0.3 the leading quarter block is.  ``trial_state`` wraps the
runtime's trial amplitudes (Yuen's recurrence, a list of floats) as a
``QuantumState``, and the tests hold it against these unitaries.

The balance suite here (``full_report`` and its checks) works on any
spin-boson ``QuantumState``, with the observables and H as the dense
``np.kron`` matrices of ``standard_observables``, built once per
(dim, params) and handed to every check; ``balance.sector_report``
computes the same report from sums over a sector vector, and the tests
compare the two, with and without the printed variants
``balance.literal_variants`` adds.  The arbitrary-state checks (b1, b7,
force, ``b7_terms``) also serve states of no definite parity.

The runtime modules never import this one, and no CLI command loads it;
its names are imported from here.  The package root resolves only the
three the benchmark imports from it, and exports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import (BalanceReport, BoundCheck, _b2_bound, _b2_constant, _identity,
                      _property_bounds, _wigner_band)
from .errors import (AmplitudeTooLarge, DimensionMismatch, EigDecompositionFailure, NonHermitian,
                     SqueezeTooLarge)
from .fock import (BOSON, SPIN_BOSON, FockRep, QuantumState, _frozen, embed_reduced_state,
                   extract_reduced_state, infer_sector)
from .model import ModelParams, check_sector, sector_chain
from .variational import TrialParams, _trial_amplitudes

HERMITICITY_TOL = 1e-12
SQUEEZE_MAX = 2.0

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


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


def _check_dims(state: QuantumState, obs: Observable):
    if state.dim != obs.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} vs operator dim {obs.dim}"
        )


def expectation(state: QuantumState, obs: Observable) -> complex:
    """<psi| M |psi>.  Real up to ~1e-16 scale when M is Hermitian."""
    _check_dims(state, obs)
    v = state.amplitudes
    return complex(np.vdot(v, obs.apply(v)))


def variance(state: QuantumState, obs: Observable) -> float:
    """<M^2> - <M>^2 for Hermitian M, unclamped.

    The two terms are separate sums, so on a state of near-zero spread the
    difference can round below zero by a few ulps of <M>^2: -2.8e-14, two
    ulps of E^2 = 81, for H on the ground state at lam 3, omega0 0.5.  No
    clamp: the b6 identity reads the raw difference.
    """
    if not obs.hermitian:
        raise NonHermitian("variance requires a Hermitian observable")
    _check_dims(state, obs)
    v = state.amplitudes
    w = obs.apply(v)
    # Python floats: an overflow gives inf or NaN without a numpy warning
    mean = float(np.vdot(v, w).real)
    second = float(np.vdot(w, w).real)  # <M psi | M psi> = <M^2> for Hermitian M
    return second - mean * mean


def trial_state(rep: FockRep, trial: TrialParams) -> QuantumState:
    """S(gamma) D(beta) |0> cut to levels 0..rep.dim-1, the runtime's amplitudes as a state."""
    return QuantumState(_trial_amplitudes(rep.dim, trial.beta, trial.gamma), BOSON)


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

    The ``eigvalsh`` oracle of the tests and the benchmark checks, and
    the ``"hamiltonian"`` of ``standard_observables`` below.
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


# --- the balance suite on any spin-boson state: the reference of balance.sector_report


def standard_observables(rep: FockRep, params: ModelParams) -> dict[str, Observable]:
    """The observable bundle of one (dim, params): dense ``np.kron(boson, spin)`` matrices.

    The spin-boson observables of the residual grid, the full
    Hamiltonian (``build_full_hamiltonian``) under ``"hamiltonian"``, and
    the boson-space position under ``"q_boson"`` (for b6).  q and p are
    the real ladder entries times their scale.  ``full_report`` builds
    the bundle once and hands it to every check.
    """
    ann, cre, num, par = _ladder_matrices(rep.dim)
    q = (ann + cre).real * (1.0 / np.sqrt(2.0 * params.mass * params.omega))
    p = 1j * np.sqrt(params.mass * params.omega / 2.0) * (cre - ann).real
    eye = np.eye(rep.dim)

    def spin_boson(boson, spin) -> Observable:
        return Observable(np.kron(boson, spin))

    return {
        "q": spin_boson(q, IDENTITY_2),
        "p": spin_boson(p, IDENTITY_2),
        "num": spin_boson(num, IDENTITY_2),
        "omega_num": spin_boson(params.omega * num, IDENTITY_2),
        "q_sigma_x": spin_boson(q, SIGMA_X),
        "p_sigma_x": spin_boson(p, SIGMA_X),
        "p_sigma_y": spin_boson(p, SIGMA_Y),
        "sigma_x": spin_boson(eye, SIGMA_X),
        "sigma_y": spin_boson(eye, SIGMA_Y),
        "sigma_z": spin_boson(eye, SIGMA_Z),
        "parity_boson": spin_boson(par, IDENTITY_2),
        "num_parity": spin_boson(num @ par, IDENTITY_2),
        "num_sigma_z": spin_boson(num, SIGMA_Z),
        "hamiltonian": build_full_hamiltonian(rep, params),
        "q_boson": Observable(q),
    }


def first_order_residual(hamiltonian: Observable, observable: Observable,
                         state: QuantumState) -> float:
    """|<i [H, A]>|; zero on eigenstates of H."""
    if hamiltonian.dim != observable.dim:
        raise DimensionMismatch("H and A live in different spaces")
    v = state.amplitudes
    if v.size != hamiltonian.dim:
        raise DimensionMismatch("state incompatible with H")
    h, a = hamiltonian.apply, observable.apply
    val = np.vdot(v, h(a(v))) - np.vdot(v, a(h(v)))
    return float(abs(val))


def second_order_residual(hamiltonian: Observable, observable: Observable,
                          state: QuantumState) -> float:
    """|<[H, [H, A]]>|; zero on eigenstates of H."""
    if hamiltonian.dim != observable.dim:
        raise DimensionMismatch("H and A live in different spaces")
    v = state.amplitudes
    if v.size != hamiltonian.dim:
        raise DimensionMismatch("state incompatible with H")
    h, a = hamiltonian.apply, observable.apply
    hha = np.vdot(v, h(h(a(v))))
    hah = np.vdot(v, h(a(h(v))))
    ahh = np.vdot(v, a(h(h(v))))
    return float(abs(hha - 2.0 * hah + ahh))


def force_balance(state: QuantumState, obs: dict, params: ModelParams) -> float:
    """|<F_q> + <F_e>|, the mean of dp/dt; zero on eigenstates.  ``obs`` is the bundle."""
    f_q = -params.mass * params.omega**2 * expectation(state, obs["q"]).real
    f_e = -params.f0 * expectation(state, obs["sigma_x"]).real
    return float(abs(f_q + f_e))


def b1_kinetic_balance(state: QuantumState, obs: dict, params: ModelParams) -> float:
    """|<p^2/2m> - (F0/2) <q sigma_x> - <m omega^2 q^2 / 2>|.  ``obs`` is the bundle."""
    m = params.mass
    kinetic = variance(state, obs["p"]) + expectation(state, obs["p"]).real ** 2
    kinetic /= 2.0 * m
    q_sx = expectation(state, obs["q_sigma_x"]).real
    q_sq = variance(state, obs["q"]) + expectation(state, obs["q"]).real ** 2
    potential = 0.5 * m * params.omega**2 * q_sq
    return abs(kinetic - 0.5 * params.f0 * q_sx - potential)


def b7_terms(state: QuantumState, obs: dict, params: ModelParams) -> dict[str, float]:
    """The three force-covariance pieces; they sum to zero on eigenstates.

    F_q F_e = m omega^2 F0 q sigma_x and p dF_e/dt = F0 omega0 p sigma_y
    are already Hermitian (the factors act on different subsystems, so
    symmetrized ordering changes nothing).  ``obs`` is the bundle.
    """
    f0 = params.f0
    fq_fe = params.mass * params.omega**2 * f0 * expectation(state, obs["q_sigma_x"]).real
    p_dfe = f0 * params.omega0 * expectation(state, obs["p_sigma_y"]).real
    return {"fq_fe": float(fq_fe), "p_dfe": float(p_dfe), "f0_sq": float(f0 * f0)}


def b7_covariance_balance(state: QuantumState, obs: dict, params: ModelParams) -> float:
    """|<F_q F_e> + <p dF_e/dt> + F0^2|.  ``obs`` is the bundle."""
    terms = b7_terms(state, obs, params)
    return abs(terms["fq_fe"] + terms["p_dfe"] + terms["f0_sq"])


def _property_checks(state: QuantumState, obs: dict, params: ModelParams, p: int,
                     energy: float) -> dict[str, BoundCheck]:
    """p1..p4, b2 and b6_identity of a state of sector ``p``."""
    sz = expectation(state, obs["sigma_z"]).real
    q_sx = expectation(state, obs["q_sigma_x"]).real
    var_qsx = variance(state, obs["q_sigma_x"])
    checks = _property_bounds(
        params, p, energy, sz=sz,
        cos_pin=expectation(state, obs["parity_boson"]).real,
        x_sx=q_sx * np.sqrt(2.0 * params.mass * params.omega),  # <(a + a^dag) sigma_x>
        n_cos=expectation(state, obs["num_parity"]).real,
        n_sz=expectation(state, obs["num_sigma_z"]).real,
    )
    checks["b2"] = _b2_bound(params, var_qsx, _b2_constant(params, sz, q_sx))
    phi = extract_reduced_state(state, p)
    checks["b6_identity"] = _identity(float(var_qsx - variance(phi, obs["q_boson"])))
    return checks


def wigner_origin(state: QuantumState) -> float:
    """W(0, 0) = 2 <cos(pi a^dag a)> of a boson state; lies in [-2, 2]."""
    if state.kind != BOSON:
        raise DimensionMismatch("wigner_origin expects a boson-space state")
    v = state.amplitudes
    return float(2.0 * np.vdot(v, (-1.0) ** np.arange(v.size) * v).real)


def displaced_number(state: QuantumState, params: ModelParams) -> float:
    """<n> in the frame displaced by -lam/omega.

    Uses the exact operator identity
    D(-lam/omega) n D(-lam/omega)^dag = n + (lam/omega)(a + a^dag)
    + lam^2/omega^2, so no truncated exponential enters.
    """
    if state.kind != BOSON:
        raise DimensionMismatch("displaced_number expects a boson-space state")
    v = state.amplitudes
    ann, cre, num, _ = _ladder_matrices(v.size)
    ratio = params.lam / params.omega
    n_mean = np.vdot(v, num @ v).real
    x_mean = np.vdot(v, (ann + cre) @ v).real
    return float(n_mean + ratio * x_mean + ratio**2)


def wigner_energy_bounds(state: QuantumState, params: ModelParams) -> BoundCheck:
    """Band for E - omega <n~> implied by |W(0,0)| <= 2.

    E is the sector +1 reduced-Hamiltonian expectation of the boson
    state.  The identity E - omega <n~> = -lam^2/omega
    - (omega0/4) W(0,0) fixes the band's center offset at lam^2/omega;
    ``balance.literal_variants`` holds the value against the printed
    2 lam^2/omega offset.
    """
    if state.kind != BOSON:
        raise DimensionMismatch("wigner_energy_bounds expects a boson state")
    v = state.amplitudes
    energy = np.vdot(v, sector_matrix(v.size, params, +1) @ v).real
    value = energy - params.omega * displaced_number(state, params)
    return _wigner_band(params, value, params.lam * (params.lam / params.omega))


FIRST_ORDER_SET = ("q", "p", "num", "q_sigma_x", "p_sigma_x", "sigma_z", "sigma_y")


def full_report(
    state: QuantumState,
    rep: FockRep,
    params: ModelParams,
    sector: int | None = None,
    energy: float | None = None,
    boson_state: QuantumState | None = None,
) -> BalanceReport:
    """Run the whole suite on one spin-boson state, on one observable bundle."""
    if state.kind != SPIN_BOSON:
        raise DimensionMismatch("full_report expects a spin_boson state")
    p = infer_sector(state) if sector is None else check_sector(sector)
    obs = standard_observables(rep, params)
    if energy is None:
        energy = expectation(state, obs["hamiltonian"]).real
    if boson_state is None:
        boson_state = extract_reduced_state(state, p)
    h = obs["hamiltonian"]
    first = {name: first_order_residual(h, obs[name], state) for name in FIRST_ORDER_SET}
    first["force"] = force_balance(state, obs, params)

    second = {
        "q_sigma_x": second_order_residual(h, obs["q_sigma_x"], state),
        "omega_num": second_order_residual(h, obs["omega_num"], state),
        "b1": b1_kinetic_balance(state, obs, params),
        "b7": b7_covariance_balance(state, obs, params),
    }

    props = _property_checks(state, obs, params, p, energy)
    props["wigner_energy"] = wigner_energy_bounds(boson_state, params)
    return BalanceReport(
        state_energy=float(energy),
        first_order=first,
        second_order=second,
        properties=props,
    )


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
    return _property_checks(psi, standard_observables(rep, params), params, +1, energy)
