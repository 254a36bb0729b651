"""Squeezed-displaced trial states and the energy surface over them.

The trial family is S(gamma) D(beta) |0> with real beta, gamma
(displacement first, then squeeze).  Its energy under the sector +1
reduced Hamiltonian has the closed form

    E(beta, gamma) = omega (beta^2 e^{2 gamma} + sinh^2 gamma)
                     + 2 lam beta e^{gamma}
                     - (omega0 / 2) exp(-2 beta^2),

which the tests pin against direct matrix evaluation (the sinh^2 gamma
term and the e^{gamma} factors are what distinguish this ordering and
convention from the alternatives).  The parity factor exp(-2 beta^2)
is gamma-independent because squeezing preserves parity.

On this family the stationarity conditions coincide with the balance
relations of :mod:`rabi_balance.balance`:

    dE/dgamma = -2 R_b1,    dE/dbeta = e^{gamma} R_b7 / (m omega lam),

so a vanishing gradient is equivalent (for lam > 0) to vanishing
kinetic-balance and force-covariance residuals of the embedded state.
``stationarity_equals_balance`` evaluates both sides at a trial point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.sparse.linalg import expm_multiply

from .errors import AmplitudeTooLarge, OptimizerStalled, SqueezeTooLarge
from .fock import (
    BOSON,
    FockRep,
    QuantumState,
    _generator,
    expectation,
)
from .model import ModelParams, build_reduced_hamiltonian, embed_reduced_state
from .balance import (
    BoundCheck,
    _b1,
    _b2,
    _b6,
    _b7,
    _identity,
    _property_checks,
    standard_observables,
)
from .solver import GroundSolution, solve_rabi_ground

BETA_MAX = 6.0
GAMMA_MAX = 2.0
RESIDUAL_DIM = 120  # least Fock size of balance_residuals


@dataclass(frozen=True)
class TrialParams:
    """Real displacement/squeeze pair, boxed to |beta| <= 6, |gamma| <= 2."""

    beta: float
    gamma: float

    def __post_init__(self):
        if abs(self.beta) > BETA_MAX:
            raise AmplitudeTooLarge(f"|beta| = {abs(self.beta)} exceeds {BETA_MAX}")
        if abs(self.gamma) > GAMMA_MAX:
            raise SqueezeTooLarge(f"|gamma| = {abs(self.gamma)} exceeds {GAMMA_MAX}")


@dataclass(frozen=True)
class OptimizerOptions:
    """Simplex search controls."""

    xatol: float = 1e-8
    fatol: float = 1e-10
    maxfev: int = 2000


@dataclass(frozen=True)
class VariationalResult:
    """Optimum of the trial-energy surface against the exact ground."""

    trial: TrialParams
    energy: float
    exact_energy: float
    gap: float
    iterations: int


def trial_state(rep: FockRep, trial: TrialParams) -> QuantumState:
    """S(gamma) D(beta) |0> evaluated in working_dim, cut to rep.dim.

    Vector-only: ``expm_multiply`` of the sparse displacement generator,
    then of the squeeze generator, acts on |0>; no unitary is formed.
    The displacement must satisfy beta^2 <= working_dim / 4 so the
    intermediate coherent state fits the working space.
    """
    if trial.beta**2 > rep.working_dim / 4.0:
        raise AmplitudeTooLarge(
            f"beta^2 = {trial.beta**2:.3g} exceeds working_dim/4 = "
            f"{rep.working_dim / 4.0:.3g}"
        )
    vec = np.zeros(rep.working_dim)
    vec[0] = 1.0
    vec = expm_multiply(_generator(rep.working_dim, "displace", trial.beta), vec)
    vec = expm_multiply(_generator(rep.working_dim, "squeeze", trial.gamma), vec)
    return QuantumState.from_vector(vec[: rep.dim], BOSON)


def _energy_formula(beta: float, gamma: float, params: ModelParams) -> float:
    stretch = np.exp(gamma)
    return float(
        params.omega * (beta**2 * stretch**2 + np.sinh(gamma) ** 2)
        + 2.0 * params.lam * beta * stretch
        - 0.5 * params.omega0 * np.exp(-2.0 * beta**2)
    )


def energy_closed_form(trial: TrialParams, params: ModelParams) -> float:
    """Closed-form trial energy; see the module docstring."""
    return _energy_formula(trial.beta, trial.gamma, params)


def energy_numeric(rep: FockRep, trial: TrialParams, params: ModelParams) -> float:
    """Matrix-element evaluation of the same energy, for cross-checking.

    The expectation is taken in rep.working_dim rather than rep.dim:
    this function is the truncation-clean oracle for the closed form,
    and the working space is sized exactly so that D and S leak a
    negligible tail there over the whole parameter box.  Cutting to
    rep.dim first would poison the corners of the box (a stretched
    state at beta = 2, gamma = 1 keeps ~2e-5 of its weight above Fock
    level 120) and turn a formula check into a truncation check.
    """
    wide = FockRep(rep.working_dim, working_dim=rep.working_dim)
    state = trial_state(wide, trial)
    h = build_reduced_hamiltonian(wide, params, +1)
    return expectation(state, h).real


def energy_gradient(trial: TrialParams, params: ModelParams) -> np.ndarray:
    """Exact (dE/dbeta, dE/dgamma) of the closed form at ``trial``."""
    b, g = trial.beta, trial.gamma
    stretch = np.exp(g)
    return np.array([
        2.0 * params.omega * b * stretch**2 + 2.0 * params.lam * stretch
        + 2.0 * params.omega0 * b * np.exp(-2.0 * b**2),
        params.omega * (2.0 * b**2 * stretch**2 + np.sinh(2.0 * g))
        + 2.0 * params.lam * b * stretch,
    ])


def balance_residuals(trial: TrialParams, params: ModelParams) -> tuple[float, float]:
    """(b1, b7) residuals of the sector +1 embedding of the trial state."""
    # enough Fock levels that the embedded trial state is
    # truncation-converged at the residual evaluation
    n_char = trial.beta**2 * np.exp(2.0 * trial.gamma) + np.sinh(trial.gamma) ** 2
    rep = FockRep(max(RESIDUAL_DIM, int(4.0 * n_char) + 60))
    psi = embed_reduced_state(trial_state(rep, trial), +1)
    obs = standard_observables(rep, params)
    return _b1(psi, obs, params), _b7(psi, obs, params)


START_OFFSETS = (0.0, 0.3, -0.3)


def minimize_energy(
    params: ModelParams,
    options: OptimizerOptions | None = None,
    exact: GroundSolution | None = None,
) -> VariationalResult:
    """Simplex minimization of the closed form, checked against the solver.

    Multi-start: the origin plus the displaced-oscillator guess
    beta = -lam/omega at gamma in {0, +0.3, -0.3}.  Raises
    OptimizerStalled (carrying the best point) if no start converges
    within the evaluation budget.
    """
    opts = options or OptimizerOptions()
    beta_guess = float(np.clip(-params.lam / params.omega, -BETA_MAX, BETA_MAX))
    starts = [(0.0, 0.0)] + [(beta_guess, g) for g in START_OFFSETS]

    best = None
    any_converged = False
    total_nit = 0
    for x0 in starts:
        res = minimize(
            lambda x: _energy_formula(x[0], x[1], params),
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            bounds=[(-BETA_MAX, BETA_MAX), (-GAMMA_MAX, GAMMA_MAX)],
            options={
                "xatol": opts.xatol,
                "fatol": opts.fatol,
                "maxfev": opts.maxfev,
            },
        )
        total_nit += int(res.nit)
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res

    trial = TrialParams(float(best.x[0]), float(best.x[1]))
    solution = exact if exact is not None else solve_rabi_ground(params)
    energy = float(best.fun)
    result = VariationalResult(
        trial=trial,
        energy=energy,
        exact_energy=solution.energy,
        gap=energy - solution.energy,
        iterations=total_nit,
    )
    if not any_converged:
        raise OptimizerStalled(
            f"no start converged within {opts.maxfev} evaluations", result=result
        )
    return result


def stationarity_equals_balance(
    params: ModelParams,
    trial: TrialParams,
) -> tuple[np.ndarray, float, float]:
    """(gradient, b1 residual, b7 residual) at one trial point.

    At an interior optimum the gradient vanishes together with both
    residuals; away from it (lam > 0) they are nonzero together.
    """
    return (energy_gradient(trial, params), *balance_residuals(trial, params))


def trial_property_compliance(
    rep: FockRep,
    trial: TrialParams,
    params: ModelParams,
    paper_literal: bool = False,
) -> dict[str, BoundCheck]:
    """p1..p4 plus the variance bound evaluated on the embedded trial state.

    Off-optimum trial states may legitimately fail some bounds (p1's
    upper edge most visibly); failures are reported via ``satisfied``,
    never raised.
    """
    psi = embed_reduced_state(trial_state(rep, trial), +1)
    energy = energy_numeric(rep, trial, params)
    obs = standard_observables(rep, params)
    checks = _property_checks(psi, obs, params, +1, energy, paper_literal)
    checks["b2"] = _b2(psi, obs, params, paper_literal=False)
    checks["b6_identity"] = _identity(_b6(psi, obs, +1))
    return checks
