"""Stationarity diagnostics: commutator residuals, force balance, bounds.

Every eigenstate kills the mean of d/dt A = i[H, A] and of the second
derivative [H, [H, A]], so those expectations are cheap necessary
conditions for "is this state a ground state".  Two second-derivative
relations get first-class treatment:

* kinetic balance (generator (q sigma_x)^2 = q^2):

      <p^2 / 2m> = (F0 / 2) <q sigma_x> + <m omega^2 q^2 / 2>

* force covariance (generator omega a^dag a):

      <F_q F_e> + <p dF_e/dt> + F0^2 = 0,
      F_q = -m omega^2 q,  F_e = -F0 sigma_x,  dF_e/dt = F0 omega0 sigma_y.

Both printed forms are verified in the test suite against the mechanical
double-commutator expansion (scale factors -m/4 and -m respectively).

Ground-state property bounds (all on definite-parity states):

* p1:  -omega0/2 - lam^2/omega <= E <= -omega0/2
* p2:  <sigma_z> = -p <cos(pi a^dag a)> and <sigma_z> <= 0
* p3:  <(a + a^dag) sigma_x> <= 0
* p4:  omega <n cos(pi n)> = -p omega <n sigma_z>, bounded (via the
  anticommutator identity omega <n sigma_z> = E <sigma_z> - omega0/2)
  by [-lam^2/omega, omega0/2] in sector +1 and the mirror image in
  sector -1.
* b2:  a two-sided bound on Var(q sigma_x) obtained by eliminating the
  energy between p1 and the kinetic balance; the additive constant is

      C = [-(omega0/2)(1 + <sigma_z>) - (3 F0/2) <q sigma_x>] / (m omega^2)
          - <q sigma_x>^2

* displaced-frame energy identity: with <n~> the number expectation in
  the frame displaced by -lam/omega,

      E = omega <n~> - lam^2/omega - (omega0/4) W(0,0),

  so |W| <= 2 bounds E - omega <n~> inside
  [-omega0/2 - lam^2/omega, +omega0/2 - lam^2/omega].

``paper_literal=True`` additionally reports legacy coefficient variants
of the b2 constant, the p4 bound, and the displaced-frame bound
(measured constant 2 lam^2/omega, literal bound |.| <= omega0, literal
C with unscaled coefficients).  Those variants fail on parts of the
parameter plane; the verified forms above are the authoritative ones.

Two entry points evaluate the suite.  ``full_report`` runs all of it on
a spin-boson state, on one bundle of ``BandOperator`` observables; the
``balance`` command prints it.  ``sector_summary`` gives the part a sweep
writes (b1, b7, force, W(0,0), b2, p1-p4 and the Wigner band) from a
real sector vector, by O(N) sums with no operator built; ``full_report``
is its oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch
from .fock import (
    BOSON,
    SPIN_BOSON,
    BandOperator,
    FockRep,
    QuantumState,
    _ladder_bands,
    expectation,
    variance,
)
from .model import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ModelParams,
    check_sector,
    extract_reduced_state,
    infer_sector,
    sector_chain,
)

if TYPE_CHECKING:
    from .oracle import Observable

BOUND_MARGIN = 1e-9
IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-7  # times max(1, |E|), in report_passes


@dataclass(frozen=True)
class BoundCheck:
    """One scalar against an interval; ``None`` marks an unbounded side."""

    value: float
    lower: float | None
    upper: float | None
    satisfied: bool

    @property
    def margin(self) -> float:
        """Distance to the nearest violated edge (negative = violated)."""
        margins = []
        if self.lower is not None:
            margins.append(self.value - self.lower)
        if self.upper is not None:
            margins.append(self.upper - self.value)
        return min(margins) if margins else math.inf


def _bound(value: float, lower: float | None, upper: float | None,
           margin: float = BOUND_MARGIN) -> BoundCheck:
    ok = not math.isnan(value)  # NaN compares false against either edge
    if lower is not None and value < lower - margin:
        ok = False
    if upper is not None and value > upper + margin:
        ok = False
    return BoundCheck(float(value), lower, upper, ok)


def _identity(value: float) -> BoundCheck:
    return _bound(value, 0.0, 0.0, margin=IDENTITY_TOL)


@dataclass(frozen=True)
class BalanceReport:
    """Everything the balance suite knows about one state."""

    state_energy: float
    first_order: dict = field(default_factory=dict)
    second_order: dict = field(default_factory=dict)
    properties: dict = field(default_factory=dict)


def standard_observables(rep: FockRep, params: ModelParams) -> dict[str, BandOperator]:
    """The observable bundle of one (dim, params): ``BandOperator``s, O(N) each.

    The spin-boson observables of the residual grid, the full
    Hamiltonian under ``"hamiltonian"``, and the boson-space position
    under ``"q_boson"`` (for b6); each a sum of (boson band, Pauli
    matrix) terms.  ``full_report`` builds the bundle once and hands it
    to every check.
    """
    root, num = _ladder_bands(rep.dim)  # root is the upper band of a; a^dag has none
    q = (None, root * (1.0 / np.sqrt(2.0 * params.mass * params.omega)))
    p = (None, 1j * np.sqrt(params.mass * params.omega / 2.0) * -root)
    eye, par = (np.ones(rep.dim), None), ((-1.0) ** np.arange(rep.dim), None)

    def spin_boson(*terms) -> BandOperator:
        return BandOperator(rep.dim, terms)

    return {
        "q": spin_boson((q, IDENTITY_2)),
        "p": spin_boson((p, IDENTITY_2)),
        "num": spin_boson(((num, None), IDENTITY_2)),
        "omega_num": spin_boson(((params.omega * num, None), IDENTITY_2)),
        "q_sigma_x": spin_boson((q, SIGMA_X)),
        "p_sigma_x": spin_boson((p, SIGMA_X)),
        "p_sigma_y": spin_boson((p, SIGMA_Y)),
        "sigma_x": spin_boson((eye, SIGMA_X)),
        "sigma_y": spin_boson((eye, SIGMA_Y)),
        "sigma_z": spin_boson((eye, SIGMA_Z)),
        "parity_boson": spin_boson((par, IDENTITY_2)),
        "num_parity": spin_boson(((num * par[0], None), IDENTITY_2)),
        "num_sigma_z": spin_boson(((num, None), SIGMA_Z)),
        "hamiltonian": spin_boson(
            ((params.omega * num, None), IDENTITY_2),
            ((None, params.lam * root), SIGMA_X),
            ((0.5 * params.omega0 * eye[0], None), SIGMA_Z),
        ),
        "q_boson": BandOperator(rep.dim, [(q, np.eye(1))]),
    }


def first_order_residual(hamiltonian: BandOperator | Observable,
                         observable: BandOperator | Observable,
                         state: QuantumState, hv: np.ndarray | None = None) -> float:
    """|<i [H, A]>|; zero on eigenstates of H.

    ``hv`` is H v for the state's vector v, if the caller already has it.
    """
    if hamiltonian.dim != observable.dim:
        raise DimensionMismatch("H and A live in different spaces")
    v = state.amplitudes
    if v.size != hamiltonian.dim:
        raise DimensionMismatch("state incompatible with H")
    h, a = hamiltonian.apply, observable.apply
    if hv is None:
        hv = h(v)
    val = np.vdot(v, h(a(v))) - np.vdot(v, a(hv))
    return float(abs(val))


def second_order_residual(hamiltonian: BandOperator | Observable,
                          observable: BandOperator | Observable,
                          state: QuantumState, hv: np.ndarray | None = None,
                          hhv: np.ndarray | None = None) -> float:
    """|<[H, [H, A]]>|; zero on eigenstates of H.

    ``hv`` and ``hhv`` are H v and H H v, if the caller already has them.
    """
    if hamiltonian.dim != observable.dim:
        raise DimensionMismatch("H and A live in different spaces")
    v = state.amplitudes
    if v.size != hamiltonian.dim:
        raise DimensionMismatch("state incompatible with H")
    h, a = hamiltonian.apply, observable.apply
    if hv is None:
        hv = h(v)
    if hhv is None:
        hhv = h(hv)
    hha = np.vdot(v, h(h(a(v))))
    hah = np.vdot(v, h(a(hv)))
    ahh = np.vdot(v, a(hhv))
    return float(abs(hha - 2.0 * hah + ahh))


# The checks below come in pairs: a private ``_name(state, obs, ...)`` that
# reads a prebuilt bundle, and the public ``name(state, rep, params, ...)``
# that builds the bundle for a single check.


def _force_balance(state: QuantumState, obs: dict, params: ModelParams) -> float:
    f_q = -params.mass * params.omega**2 * expectation(state, obs["q"]).real
    f_e = -params.f0 * expectation(state, obs["sigma_x"]).real
    return float(abs(f_q + f_e))


def force_balance(state: QuantumState, rep: FockRep, params: ModelParams) -> float:
    """|<F_q> + <F_e>|, the mean of dp/dt; zero on eigenstates."""
    return _force_balance(state, standard_observables(rep, params), params)


def _b1(state: QuantumState, obs: dict, params: ModelParams) -> float:
    m = params.mass
    kinetic = variance(state, obs["p"]) + expectation(state, obs["p"]).real ** 2
    kinetic /= 2.0 * m
    q_sx = expectation(state, obs["q_sigma_x"]).real
    q_sq = variance(state, obs["q"]) + expectation(state, obs["q"]).real ** 2
    potential = 0.5 * m * params.omega**2 * q_sq
    return abs(kinetic - 0.5 * params.f0 * q_sx - potential)


def b1_kinetic_balance(state: QuantumState, rep: FockRep, params: ModelParams) -> float:
    """|<p^2/2m> - (F0/2) <q sigma_x> - <m omega^2 q^2 / 2>|."""
    return _b1(state, standard_observables(rep, params), params)


def _b7_terms(state: QuantumState, obs: dict, params: ModelParams) -> dict[str, float]:
    f0 = params.f0
    fq_fe = params.mass * params.omega**2 * f0 * expectation(state, obs["q_sigma_x"]).real
    p_dfe = f0 * params.omega0 * expectation(state, obs["p_sigma_y"]).real
    return {"fq_fe": float(fq_fe), "p_dfe": float(p_dfe), "f0_sq": float(f0 * f0)}


def b7_terms(state: QuantumState, rep: FockRep, params: ModelParams) -> dict[str, float]:
    """The three force-covariance pieces; they sum to zero on eigenstates.

    F_q F_e = m omega^2 F0 q sigma_x and p dF_e/dt = F0 omega0 p sigma_y
    are already Hermitian (the factors act on different subsystems, so
    symmetrized ordering changes nothing).
    """
    return _b7_terms(state, standard_observables(rep, params), params)


def _b7(state: QuantumState, obs: dict, params: ModelParams) -> float:
    terms = _b7_terms(state, obs, params)
    return abs(terms["fq_fe"] + terms["p_dfe"] + terms["f0_sq"])


def b7_covariance_balance(state: QuantumState, rep: FockRep, params: ModelParams) -> float:
    """|<F_q F_e> + <p dF_e/dt> + F0^2|."""
    return _b7(state, standard_observables(rep, params), params)


def _resolve_sector(state: QuantumState, sector: int | None) -> int:
    if sector is None:
        return infer_sector(state)
    return check_sector(sector)


def _state_energy(state: QuantumState, obs: dict) -> float:
    return expectation(state, obs["hamiltonian"]).real


def property_checks(
    state: QuantumState,
    rep: FockRep,
    params: ModelParams,
    sector: int | None = None,
    energy: float | None = None,
    paper_literal: bool = False,
) -> dict[str, BoundCheck]:
    """Ground-state properties p1..p4 on a spin-boson state.

    ``sector`` may be omitted for states of definite parity (it is then
    inferred from <P>); a mixed-parity state without an explicit sector
    raises SectorRequired.  ``energy`` defaults to <H>.
    """
    if state.kind != SPIN_BOSON:
        raise DimensionMismatch("property checks expect a spin_boson state")
    p = _resolve_sector(state, sector)
    obs = standard_observables(rep, params)
    if energy is None:
        energy = _state_energy(state, obs)
    return _property_checks(state, obs, params, p, energy, paper_literal)


def _property_checks(state: QuantumState, obs: dict, params: ModelParams, p: int,
                     energy: float, paper_literal: bool) -> dict[str, BoundCheck]:
    return _property_bounds(
        params, p, energy,
        sz=expectation(state, obs["sigma_z"]).real,
        cos_pin=expectation(state, obs["parity_boson"]).real,
        x_sx=expectation(state, obs["q_sigma_x"]).real * np.sqrt(
            2.0 * params.mass * params.omega
        ),  # <(a + a^dag) sigma_x>
        n_cos=expectation(state, obs["num_parity"]).real,
        n_sz=expectation(state, obs["num_sigma_z"]).real,
        paper_literal=paper_literal,
    )


def _property_bounds(params: ModelParams, p: int, energy: float, sz: float, cos_pin: float,
                     x_sx: float, n_cos: float, n_sz: float,
                     paper_literal: bool) -> dict[str, BoundCheck]:
    """p1..p4 from <sigma_z>, <cos pi n>, <(a + a^dag) sigma_x>, <n cos pi n>, <n sigma_z>."""
    omega, lam, omega0 = params.omega, params.lam, params.omega0
    checks = {
        "p1": _bound(energy, -0.5 * omega0 - lam**2 / omega, -0.5 * omega0),
        "p2_identity": _identity(sz + p * cos_pin),
        "p2_sign": _bound(sz, None, 0.0),
        "p3": _bound(x_sx, None, 0.0),
        "p4_identity": _identity(omega * (n_cos + p * n_sz)),
    }
    # Sector-aware bound from omega <n sigma_z> = E <sigma_z> - omega0/2.
    if p == +1:
        checks["p4"] = _bound(omega * n_cos, -(lam**2) / omega, 0.5 * omega0)
    else:
        checks["p4"] = _bound(omega * n_cos, -0.5 * omega0, lam**2 / omega)
    if paper_literal:
        checks["p4_literal"] = _bound(omega * n_cos, -omega0, omega0)
    return checks


def _b2_constant(params: ModelParams, sz: float, q_sx: float, literal: bool) -> float:
    m, omega, omega0 = params.mass, params.omega, params.omega0
    f0 = params.f0
    if literal:
        return (-(1.0 + sz) - 3.0 * f0 * q_sx - q_sx**2) / (m * omega**2)
    return (-(0.5 * omega0) * (1.0 + sz) - 1.5 * f0 * q_sx) / (m * omega**2) - q_sx**2


def b2_variance_bounds(
    state: QuantumState,
    rep: FockRep,
    params: ModelParams,
    sector: int | None = None,
    paper_literal: bool = False,
) -> BoundCheck:
    """Two-sided bound on Var(q sigma_x), tight in both directions at lam=0."""
    if state.kind != SPIN_BOSON:
        raise DimensionMismatch("b2 expects a spin_boson state")
    _resolve_sector(state, sector)  # enforce definite parity up front
    return _b2(state, standard_observables(rep, params), params, paper_literal)


def _b2(state: QuantumState, obs: dict, params: ModelParams, paper_literal: bool) -> BoundCheck:
    return _b2_bound(
        params,
        var_qsx=variance(state, obs["q_sigma_x"]),
        sz=expectation(state, obs["sigma_z"]).real,
        q_sx=expectation(state, obs["q_sigma_x"]).real,
        literal=paper_literal,
    )


def _b2_bound(params: ModelParams, var_qsx: float, sz: float, q_sx: float,
              literal: bool) -> BoundCheck:
    m, omega, lam = params.mass, params.omega, params.lam
    c = _b2_constant(params, sz, q_sx, literal=literal)
    lo = 0.5 / (m * omega) - lam**2 / (m * omega**3) + c
    hi = 0.5 / (m * omega) + c
    return _bound(var_qsx, lo, hi)


def b6_reduced_variance_gap(
    state: QuantumState,
    rep: FockRep,
    params: ModelParams,
    sector: int | None = None,
) -> float:
    """Var(q sigma_x) on the full state minus Var(q) on the reduced state."""
    p = _resolve_sector(state, sector)
    return _b6(state, standard_observables(rep, params), p)


def _b6(state: QuantumState, obs: dict, p: int) -> float:
    phi = extract_reduced_state(state, p)
    return float(variance(state, obs["q_sigma_x"]) - variance(phi, obs["q_boson"]))


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
    root, num = _ladder_bands(v.size)
    ratio = params.lam / params.omega
    n_mean = np.vdot(v, num * v).real
    x_mean = np.vdot(v, BandOperator(v.size, [((None, root), np.eye(1))]).apply(v)).real
    return float(n_mean + ratio * x_mean + ratio**2)


def wigner_energy_bounds(
    state: QuantumState,
    params: ModelParams,
    paper_literal: bool = False,
) -> BoundCheck:
    """Band for E - omega <n~> implied by |W(0,0)| <= 2.

    E is the sector +1 reduced-Hamiltonian expectation of the boson
    state.  The identity E - omega <n~> = -lam^2/omega
    - (omega0/4) W(0,0) fixes the band's center offset at lam^2/omega;
    ``paper_literal`` reports the legacy 2 lam^2/omega variant instead.
    """
    if state.kind != BOSON:
        raise DimensionMismatch("wigner_energy_bounds expects a boson state")
    v = state.amplitudes
    h_plus = BandOperator(v.size, [(sector_chain(v.size, params, +1), np.eye(1))])
    energy = np.vdot(v, h_plus.apply(v)).real
    value = energy - params.omega * displaced_number(state, params)
    return _wigner_band(params, value, paper_literal)


def _wigner_band(params: ModelParams, value: float, literal: bool) -> BoundCheck:
    shift = (2.0 if literal else 1.0) * params.lam**2 / params.omega
    lo = -0.5 * params.omega0 - shift
    hi = +0.5 * params.omega0 - shift
    return _bound(value, lo, hi)


FIRST_ORDER_SET = ("q", "p", "num", "q_sigma_x", "p_sigma_x", "sigma_z", "sigma_y")


def full_report(
    state: QuantumState,
    rep: FockRep,
    params: ModelParams,
    sector: int | None = None,
    energy: float | None = None,
    boson_state: QuantumState | None = None,
    paper_literal: bool = False,
) -> BalanceReport:
    """Run the whole suite on one spin-boson state, on one observable bundle.

    H v and H H v are applied once and shared by the nine residuals.
    """
    if state.kind != SPIN_BOSON:
        raise DimensionMismatch("full_report expects a spin_boson state")
    p = _resolve_sector(state, sector)
    obs = standard_observables(rep, params)
    if energy is None:
        energy = _state_energy(state, obs)
    if boson_state is None:
        boson_state = extract_reduced_state(state, p)
    h = obs["hamiltonian"]
    hv = h.apply(state.amplitudes)
    hhv = h.apply(hv)

    first = {name: first_order_residual(h, obs[name], state, hv) for name in FIRST_ORDER_SET}
    first["force"] = _force_balance(state, obs, params)

    second = {
        "q_sigma_x": second_order_residual(h, obs["q_sigma_x"], state, hv, hhv),
        "omega_num": second_order_residual(h, obs["omega_num"], state, hv, hhv),
        "b1": _b1(state, obs, params),
        "b7": _b7(state, obs, params),
    }

    props = _property_checks(state, obs, params, p, energy, paper_literal)
    props["b2"] = _b2(state, obs, params, paper_literal=False)
    props["b6_identity"] = _identity(_b6(state, obs, p))
    props["wigner_energy"] = wigner_energy_bounds(boson_state, params)
    if paper_literal:
        props["b2_literal"] = _b2(state, obs, params, paper_literal=True)
        props["wigner_energy_literal"] = wigner_energy_bounds(
            boson_state, params, paper_literal=True
        )
    return BalanceReport(
        state_energy=float(energy),
        first_order=first,
        second_order=second,
        properties=props,
    )


def report_passes(report: BalanceReport) -> bool:
    """All residuals below RESIDUAL_TOL * max(1, |E|) and all bounds satisfied.

    Legacy ``*_literal`` entries are informational and not counted.
    """
    scale = max(1.0, abs(report.state_energy))
    residuals_ok = all(
        r < RESIDUAL_TOL * scale
        for r in (*report.first_order.values(), *report.second_order.values())
    )
    props_ok = all(
        chk.satisfied
        for name, chk in report.properties.items()
        if not name.endswith("_literal")
    )
    return residuals_ok and props_ok


@dataclass(frozen=True)
class SectorSummary:
    """The sweep's balance columns of one state; see ``sector_summary``."""

    b1: float
    b7: float
    force: float
    w00: float  # W(0, 0) = 2 <cos(pi a^dag a)>
    b2: BoundCheck
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    p4_ok: bool
    w_bound_ok: bool


def sector_summary(phi: list[float], p: int, params: ModelParams,
                   energy: float) -> SectorSummary:
    """b1, b7, force, W(0,0), b2 and the p1-p4 and Wigner-band verdicts of a sector vector.

    ``phi`` is a real unit vector of sector ``p`` as a list of floats; the
    values are those ``full_report`` gives for its lift
    ``embed_reduced_state(phi, p)`` (with ``energy`` for p1), up to
    round-off, from a handful of O(N) sums over phi (``math.fsum``).  On
    the lift, <q>, <p> and <sigma_x> are exactly zero, so the force
    balance is 0, and with x = a + a^dag

        <sigma_z> = -p <cos pi n>,   <n sigma_z> = -p <n cos pi n>,
        <q sigma_x> = <x> / sqrt(2 m omega),
        <p sigma_y> = p sqrt(2 m omega) sum_k (-1)^k sqrt(k+1) phi_k phi_k+1,

    while <q^2> and <p^2> are the squared norms of q phi and p phi in the
    truncated space, as ``fock.variance`` takes them.  The Wigner band is
    that of ``wigner_energy_bounds``: the sector +1 chain energy of phi,
    whatever p is.
    """
    p = check_sector(p)
    m, omega, lam, omega0 = params.mass, params.omega, params.lam, params.omega0
    fsum = math.fsum
    roots = [math.sqrt(k) for k in range(1, len(phi))]
    sq = [v * v for v in phi]
    pairs = [r * u * v for r, u, v in zip(roots, phi, phi[1:])]  # sqrt(k+1) phi_k phi_k+1
    cos_pin = fsum([*sq[0::2], *(-w for w in sq[1::2])])
    n_mean = fsum([k * w for k, w in enumerate(sq)])
    n_cos = fsum([k * w if k % 2 == 0 else -k * w for k, w in enumerate(sq)])
    x_mean = 2.0 * fsum(pairs)
    alt_pairs = fsum([*pairs[0::2], *(-w for w in pairs[1::2])])
    # sqrt(n) phi_n-1 and sqrt(n+1) phi_n+1, the two halves of x phi, level by level
    up = [0.0, *(r * v for r, v in zip(roots, phi))]
    down = [*(r * v for r, v in zip(roots, phi[1:])), 0.0]
    x_sq = fsum([(u + d) * (u + d) for u, d in zip(up, down)])  # |x phi|^2
    y_sq = fsum([(u - d) * (u - d) for u, d in zip(up, down)])  # |(a^dag - a) phi|^2

    scale = math.sqrt(2.0 * m * omega)
    f0 = params.f0
    q_sq = x_sq / (2.0 * m * omega)
    kinetic = 0.25 * omega * y_sq  # <p^2> / 2m, with <p^2> = (m omega / 2) y_sq
    q_sx = x_mean / scale
    p_sy = p * scale * alt_pairs
    sz = -p * cos_pin
    b1 = abs(kinetic - 0.5 * f0 * q_sx - 0.5 * m * omega**2 * q_sq)
    b7 = abs(m * omega**2 * f0 * q_sx + f0 * omega0 * p_sy + f0 * f0)

    props = _property_bounds(params, p, energy, sz=sz, cos_pin=cos_pin, x_sx=x_mean,
                             n_cos=n_cos, n_sz=-p * n_cos, paper_literal=False)
    b2 = _b2_bound(params, q_sq - q_sx * q_sx, sz, q_sx, literal=False)
    ratio = lam / omega
    e_plus = omega * n_mean - 0.5 * omega0 * cos_pin + lam * x_mean
    wigner = _wigner_band(params, e_plus - omega * (n_mean + ratio * x_mean + ratio**2),
                          literal=False)
    return SectorSummary(
        b1=b1, b7=b7, force=0.0, w00=2.0 * cos_pin, b2=b2,
        p1_ok=props["p1"].satisfied,
        p2_ok=props["p2_identity"].satisfied and props["p2_sign"].satisfied,
        p3_ok=props["p3"].satisfied,
        p4_ok=props["p4_identity"].satisfied and props["p4"].satisfied,
        w_bound_ok=wigner.satisfied,
    )
