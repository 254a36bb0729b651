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

``minimize_energy`` searches the closed form with the package's own
bounded Nelder-Mead simplex, which takes step for step the path of
scipy's ``minimize(method="Nelder-Mead", bounds=...)`` and so returns
the same optimum bit for bit, without importing ``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeTooLarge, OptimizerStalled, SqueezeTooLarge
from .fock import BOSON, FockRep, QuantumState, expectation
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
    """S(gamma) D(beta) |0> cut to Fock levels 0..rep.dim-1 and renormalized.

    a cosh(gamma) - a^dag sinh(gamma) - beta annihilates the state, so
    c[n+1] = (beta c[n] + sinh(gamma) sqrt(n) c[n-1]) / (cosh(gamma) sqrt(n+1))
    from c[0] = exp(-beta^2 (1 + tanh gamma) / 2) / sqrt(cosh gamma)
    (Yuen, Phys. Rev. A 13, 2226 (1976)).  Requires beta^2 <= working_dim / 4.
    """
    beta, gamma = trial.beta, trial.gamma
    if beta**2 > rep.working_dim / 4.0:
        raise AmplitudeTooLarge(
            f"beta^2 = {beta**2:.3g} exceeds working_dim/4 = "
            f"{rep.working_dim / 4.0:.3g}"
        )
    ch, sh = math.cosh(gamma), math.sinh(gamma)
    amps = [math.exp(-0.5 * beta**2 * (1.0 + math.tanh(gamma))) / math.sqrt(ch)]
    previous = 0.0
    for n in range(rep.dim - 1):
        amps.append((beta * amps[n] + sh * math.sqrt(n) * previous) / (ch * math.sqrt(n + 1)))
        previous = amps[n]
    return QuantumState.from_vector(amps, BOSON)


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


class _BudgetSpent(Exception):
    """The simplex asked for an evaluation beyond its ``maxfev``."""


def _nelder_mead(func, x0, bounds, xatol, fatol, maxfev):
    """Bounded Nelder-Mead minimum of ``func`` over two variables: (x, fun, nit, success).

    Operation for operation scipy 1.17's ``_minimize_neldermead`` without
    ``adaptive`` or ``maxiter``, so every iterate, and the returned x, fun,
    nit and success, equal those of ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", bounds=bounds, options={"xatol": xatol,
    "fatol": fatol, "maxfev": maxfev})``: the same initial simplex, a clip
    of every trial point into the (nonzero) bounds, the same branch tests
    and a stable sort of the three vertices (numpy's argsort of more than
    three values is not stable on every CPU, hence two variables only).
    The budget is checked before each evaluation; running out
    mid-iteration leaves the simplex as it stands, half-shrunk included,
    and does not count the iteration.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    lower, upper = zip(*bounds)
    nfev = 0

    def clip(x):
        return [min(max(v, lo), hi) for v, lo, hi in zip(x, lower, upper)]

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return func(x)

    def by_value(sim, fsim):  # as numpy's argsort: stable, NaN last
        order = sorted(range(3), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
        return [sim[k] for k in order], [fsim[k] for k in order]

    start = clip(x0)
    sim = [start]
    for k in range(2):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # a vertex above an upper bound is reflected inside before the clip
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(y, upper)]) for y in sim]
    fsim = [math.inf] * 3
    try:
        for k in range(3):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = by_value(sim, fsim)

    nit = 1
    while nfev < maxfev:
        try:
            if (all(abs(v - b) <= xatol for y in sim[1:] for v, b in zip(y, sim[0]))
                    and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
                break
            # (a + b) / 2 as numpy's add.reduce; sum() would start from
            # 0.0 and turn a -0.0 into 0.0
            xbar = [(a + b) / 2 for a, b in zip(sim[0], sim[1])]
            worst = sim[2]
            xr = clip([(1 + rho) * a - rho * w for a, w in zip(xbar, worst)])
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = clip([(1 + rho * chi) * a - rho * chi * w for a, w in zip(xbar, worst)])
                fxe = f(xe)
                if fxe < fxr:
                    sim[2], fsim[2] = xe, fxe
                else:
                    sim[2], fsim[2] = xr, fxr
            elif fxr < fsim[1]:
                sim[2], fsim[2] = xr, fxr
            elif fxr < fsim[2]:  # outside contraction
                xc = clip([(1 + psi * rho) * a - psi * rho * w for a, w in zip(xbar, worst)])
                fxc = f(xc)
                if fxc <= fxr:
                    sim[2], fsim[2] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = clip([(1 - psi) * a + psi * w for a, w in zip(xbar, worst)])
                fxcc = f(xcc)
                if fxcc < fsim[2]:
                    sim[2], fsim[2] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in (1, 2):
                    sim[j] = clip([b + sigma * (v - b) for v, b in zip(sim[j], sim[0])])
                    fsim[j] = f(sim[j])
            nit += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)

    fun = fsim[0] if fsim[2] == fsim[2] else fsim[2]  # as np.min: a NaN (sorted last) wins
    return sim[0], fun, nit, nfev < maxfev


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
    bounds = ((-BETA_MAX, BETA_MAX), (-GAMMA_MAX, GAMMA_MAX))

    best = None
    any_converged = False
    total_nit = 0
    for x0 in starts:
        x, fun, nit, success = _nelder_mead(
            lambda x: _energy_formula(x[0], x[1], params),
            x0, bounds, opts.xatol, opts.fatol, opts.maxfev,
        )
        total_nit += nit
        any_converged = any_converged or success
        if best is None or fun < best[1]:
            best = (x, fun)

    trial = TrialParams(float(best[0][0]), float(best[0][1]))
    solution = exact if exact is not None else solve_rabi_ground(params)
    energy = float(best[1])
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
