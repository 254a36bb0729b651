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

    dE/dgamma = -2 R_b1,    dE/dbeta = e^{gamma} R_b7 / (omega lam)

(the mass m = 1, as in ``model``), so a vanishing gradient is equivalent
(for lam > 0) to vanishing kinetic-balance and force-covariance residuals
of the embedded state.
``stationarity_equals_balance`` evaluates both sides at a trial point
on Python floats, the residuals from ``balance.sector_report`` of the
trial's sector vector; numpy serves only the simplex energy
(``_energy_formula``), which imports it on its first call.  The module
hands out floats: the trial amplitudes are a list of them, which
``oracle.trial_state`` wraps as a ``QuantumState`` for the tests.

``minimize_energy`` searches the closed form with the package's own
bounded Nelder-Mead simplex, which takes step for step the path of
scipy's ``minimize(method="Nelder-Mead", bounds=...)`` and so returns
the same optimum bit for bit, without importing ``scipy.optimize``.
Its caller passes the solver's ground state, ``exact``, which the
optimum is held against, at the same ``params``; it solves none itself.
The simplex is a loop over two variables: each vertex is a (beta, gamma)
pair of Python floats, trial points are clipped by comparisons and the
three vertices are ordered by a stable insertion sort, NaN last.  The
energy it calls is the closed form on Python floats, rounded as on
numpy float64 scalars; the exponential and sinh stay numpy's, because
``math.exp`` and ``math.sinh`` round some arguments differently, and one
last-bit change in the energy can change the simplex path.  numpy's
own results depend on the CPU it dispatches to: with numpy 2.4.6 on an
AVX-512 x86 CPU, ``np.exp`` and ``np.sinh`` differ from ``math.exp``
and ``math.sinh`` in the last bit on some inputs, and with those
features disabled (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``) they agree with them.  So the optimum columns
(``e_var``, ``beta_star``, ``gamma_star`` and what follows from them)
can move by more than round-off from one CPU to another, where the
simplex path branches on a last-bit difference.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .errors import AmplitudeTooLarge, SqueezeTooLarge
from .model import ModelParams, checked_make
from .balance import sector_report

if TYPE_CHECKING:
    from .solver import GroundSolution

BETA_MAX = 6.0
GAMMA_MAX = 2.0
RESIDUAL_DIM = 120  # least Fock size of balance_residuals
XATOL = 1e-8  # a start converges once its simplex is this narrow in x ...
FATOL = 1e-10  # ... and in the trial energy
MAXFEV = 2000  # energy evaluations per start


class TrialParams(namedtuple("TrialParams", "beta gamma")):
    """Real displacement/squeeze pair, boxed to |beta| <= 6, |gamma| <= 2 when made."""

    __slots__ = ()

    def __new__(cls, beta: float, gamma: float):
        if abs(beta) > BETA_MAX:
            raise AmplitudeTooLarge(f"|beta| = {abs(beta)} exceeds {BETA_MAX}")
        if abs(gamma) > GAMMA_MAX:
            raise SqueezeTooLarge(f"|gamma| = {abs(gamma)} exceeds {GAMMA_MAX}")
        return super().__new__(cls, beta, gamma)

    _make = classmethod(checked_make)


class VariationalResult(NamedTuple):
    """Optimum of the trial-energy surface against the exact ground."""

    trial: TrialParams
    energy: float
    exact_energy: float
    gap: float
    iterations: int
    converged: bool


def _trial_amplitudes(dim: int, beta: float, gamma: float) -> list[float]:
    """S(gamma) D(beta) |0> cut to Fock levels 0..dim-1, as a unit vector of floats.

    a cosh(gamma) - a^dag sinh(gamma) - beta annihilates the state, so
    c[n+1] = (beta c[n] + sinh(gamma) sqrt(n) c[n-1]) / (cosh(gamma) sqrt(n+1))
    from c[0] = exp(-beta^2 (1 + tanh gamma) / 2) / sqrt(cosh gamma)
    (Yuen, Phys. Rev. A 13, 2226 (1976)), renormalized by ``math.fsum``.
    """
    ch, sh = math.cosh(gamma), math.sinh(gamma)
    amps = [math.exp(-0.5 * beta**2 * (1.0 + math.tanh(gamma))) / math.sqrt(ch)]
    previous = 0.0
    for n in range(dim - 1):
        amps.append((beta * amps[n] + sh * math.sqrt(n) * previous) / (ch * math.sqrt(n + 1)))
        previous = amps[n]
    norm = math.sqrt(math.fsum([c * c for c in amps]))
    return [c / norm for c in amps]


def _energy_formula(params: ModelParams):
    """The closed form as a function of Python floats (beta, gamma) at ``params``.

    Rounded as the float64 formula would be: + - * round alike, ``**2``
    calls ``pow`` on both, and the transcendentals stay numpy's, since
    ``math.exp`` and ``math.sinh`` differ from them in the last bit on
    some inputs and would move the simplex path.  numpy is imported here,
    not with the module, and its two functions are bound once per call.

    ``2.0 * lam`` and ``0.5 * omega0`` are taken once per point and
    ``beta**2`` once per evaluation.  That keeps every rounding: Python
    evaluates ``2.0 * lam * beta * stretch`` left to right, as
    ``((2.0 * lam) * beta) * stretch``, so the hoisted product is the
    first rounding it made anyway, and a repeated ``beta**2`` rounds alike.
    """
    import numpy as np

    omega = float(params.omega)
    two_lam, half_omega0 = 2.0 * float(params.lam), 0.5 * float(params.omega0)
    exp, sinh = np.exp, np.sinh

    def energy(beta: float, gamma: float) -> float:
        stretch = float(exp(gamma))
        beta_sq = beta**2
        return (
            omega * (beta_sq * stretch**2 + float(sinh(gamma)) ** 2)
            + two_lam * beta * stretch
            - half_omega0 * float(exp(-2.0 * beta_sq))
        )

    return energy


def energy_closed_form(trial: TrialParams, params: ModelParams) -> float:
    """Closed-form trial energy; see the module docstring."""
    return _energy_formula(params)(float(trial.beta), float(trial.gamma))


def energy_gradient(trial: TrialParams, params: ModelParams) -> tuple[float, float]:
    """Exact (dE/dbeta, dE/dgamma) of the closed form at ``trial``."""
    b, g = trial.beta, trial.gamma
    stretch = math.exp(g)
    return (
        2.0 * params.omega * b * stretch**2 + 2.0 * params.lam * stretch
        + 2.0 * params.omega0 * b * math.exp(-2.0 * b**2),
        params.omega * (2.0 * b**2 * stretch**2 + math.sinh(2.0 * g))
        + 2.0 * params.lam * b * stretch,
    )


def balance_residuals(trial: TrialParams, params: ModelParams) -> tuple[float, float]:
    """(b1, b7) residuals of the sector +1 embedding of the trial state.

    ``balance.sector_report`` takes them from the trial's sector vector.
    Neither reads the energy, so the report gets NaN for it, and not the
    closed form, whose numpy exponentials would load numpy for nothing;
    the rest of the report is not used.
    """
    # enough Fock levels that the embedded trial state is
    # truncation-converged at the residual evaluation
    n_char = trial.beta**2 * math.exp(2.0 * trial.gamma) + math.sinh(trial.gamma) ** 2
    dim = max(RESIDUAL_DIM, int(4.0 * n_char) + 60)
    phi = _trial_amplitudes(dim, trial.beta, trial.gamma)
    report = sector_report(phi, +1, params, math.nan)
    return report.second_order["b1"], report.second_order["b7"]


def _nelder_mead(func, x0):
    """Nelder-Mead minimum of ``func(beta, gamma)`` in the trial box: (x, fun, nit, success).

    The box (``BETA_MAX``, ``GAMMA_MAX``) and the stop rule (``XATOL``,
    ``FATOL``, ``MAXFEV``) are the module's, read when the search starts.
    Operation for operation scipy 1.17's ``_minimize_neldermead`` without
    ``adaptive`` or ``maxiter``, so every iterate, and the returned x, fun,
    nit and success, equal those of ``scipy.optimize.minimize(lambda x:
    func(*x), x0, method="Nelder-Mead", bounds=((-BETA_MAX, BETA_MAX),
    (-GAMMA_MAX, GAMMA_MAX)), options={"xatol": XATOL, "fatol": FATOL,
    "maxfev": MAXFEV})``: the same initial simplex, a clip of every trial
    point into the box, the same branch tests and a stable sort of the
    three vertices, NaN last (numpy's argsort of more than three values is
    not stable on every CPU, hence two variables only).  The budget is
    checked before each evaluation; running out mid-iteration leaves the
    simplex as it stands, half-shrunk included, and does not count the
    iteration.

    The two variables are unrolled: each vertex is a (beta, gamma) pair of
    Python floats with its value, and each trial point is built by the
    float expression scipy evaluates per coordinate (the reflection
    ``2 xbar - 1 worst`` is ``2 * xb - b2``, as multiplying by 1 is exact).
    """
    blo, bhi, glo, ghi = -BETA_MAX, BETA_MAX, -GAMMA_MAX, GAMMA_MAX
    xatol, fatol, maxfev = XATOL, FATOL, MAXFEV
    b0, g0 = x0
    b0 = blo if b0 < blo else bhi if b0 > bhi else b0
    g0 = glo if g0 < glo else ghi if g0 > ghi else g0
    # each start coordinate moved by 5% (0.00025 from zero); one above its
    # upper bound is reflected inside before the clip
    b1, g1 = (1 + 0.05) * b0 if b0 != 0 else 0.00025, g0
    b1 = 2 * bhi - b1 if b1 > bhi else b1
    b1 = blo if b1 < blo else bhi if b1 > bhi else b1
    b2, g2 = b0, (1 + 0.05) * g0 if g0 != 0 else 0.00025
    g2 = 2 * ghi - g2 if g2 > ghi else g2
    g2 = glo if g2 < glo else ghi if g2 > ghi else g2
    f0 = func(b0, g0) if maxfev > 0 else math.inf
    f1 = func(b1, g1) if maxfev > 1 else math.inf
    f2 = func(b2, g2) if maxfev > 2 else math.inf
    nfev = min(max(maxfev, 0), 3)

    nit = 1
    while True:
        # stable sort of the vertices by value, NaN last (a moves before b
        # only if a < b, or a is a number and b is NaN); a budget spent
        # mid-iteration continues here, to sort the simplex as it stands
        if f1 < f0 or (f0 != f0 and f1 == f1):
            b0, g0, f0, b1, g1, f1 = b1, g1, f1, b0, g0, f0
        if f2 < f1 or (f1 != f1 and f2 == f2):
            b1, g1, f1, b2, g2, f2 = b2, g2, f2, b1, g1, f1
            if f1 < f0 or (f0 != f0 and f1 == f1):
                b0, g0, f0, b1, g1, f1 = b1, g1, f1, b0, g0, f0
        if nfev >= maxfev:
            break
        if (abs(b1 - b0) <= xatol and abs(g1 - g0) <= xatol
                and abs(b2 - b0) <= xatol and abs(g2 - g0) <= xatol
                and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        # (a + b) / 2 as numpy's add.reduce; sum() would start from 0.0
        # and turn a -0.0 into 0.0
        xb, xg = (b0 + b1) / 2, (g0 + g1) / 2
        rb, rg = 2 * xb - b2, 2 * xg - g2  # reflection
        rb = blo if rb < blo else bhi if rb > bhi else rb
        rg = glo if rg < glo else ghi if rg > ghi else rg
        nfev += 1
        fr = func(rb, rg)
        shrink = False
        if fr < f0:
            eb, eg = 3 * xb - 2 * b2, 3 * xg - 2 * g2  # expansion
            eb = blo if eb < blo else bhi if eb > bhi else eb
            eg = glo if eg < glo else ghi if eg > ghi else eg
            if nfev >= maxfev:
                continue
            nfev += 1
            fe = func(eb, eg)
            if fe < fr:
                b2, g2, f2 = eb, eg, fe
            else:
                b2, g2, f2 = rb, rg, fr
        elif fr < f1:
            b2, g2, f2 = rb, rg, fr
        elif fr < f2:
            cb, cg = 1.5 * xb - 0.5 * b2, 1.5 * xg - 0.5 * g2  # outside contraction
            cb = blo if cb < blo else bhi if cb > bhi else cb
            cg = glo if cg < glo else ghi if cg > ghi else cg
            if nfev >= maxfev:
                continue
            nfev += 1
            fc = func(cb, cg)
            if fc <= fr:
                b2, g2, f2 = cb, cg, fc
            else:
                shrink = True
        else:
            cb, cg = 0.5 * xb + 0.5 * b2, 0.5 * xg + 0.5 * g2  # inside contraction
            cb = blo if cb < blo else bhi if cb > bhi else cb
            cg = glo if cg < glo else ghi if cg > ghi else cg
            if nfev >= maxfev:
                continue
            nfev += 1
            fc = func(cb, cg)
            if fc < f2:
                b2, g2, f2 = cb, cg, fc
            else:
                shrink = True
        if shrink:  # both vertices halfway to the best one
            b1, g1 = b0 + 0.5 * (b1 - b0), g0 + 0.5 * (g1 - g0)
            b1 = blo if b1 < blo else bhi if b1 > bhi else b1
            g1 = glo if g1 < glo else ghi if g1 > ghi else g1
            if nfev >= maxfev:
                continue
            nfev += 1
            f1 = func(b1, g1)
            b2, g2 = b0 + 0.5 * (b2 - b0), g0 + 0.5 * (g2 - g0)
            b2 = blo if b2 < blo else bhi if b2 > bhi else b2
            g2 = glo if g2 < glo else ghi if g2 > ghi else g2
            if nfev >= maxfev:
                continue
            nfev += 1
            f2 = func(b2, g2)
        nit += 1

    fun = f0 if f2 == f2 else f2  # as np.min: a NaN (sorted last) wins
    return [b0, g0], fun, nit, nfev < maxfev


START_OFFSETS = (0.0, 0.3, -0.3)


def minimize_energy(params: ModelParams, exact: GroundSolution) -> VariationalResult:
    """Simplex minimization of the closed form, checked against ``exact``.

    ``exact`` is the solver's ground state at ``params``, which the caller
    solves; the result's ``gap`` is the optimum's energy above it.  The
    stop rule's FATOL is in the energy unit of ``params``.
    Multi-start: the origin plus the displaced-oscillator guess
    beta = -lam/omega at gamma in {0, +0.3, -0.3}; at lam = 0 the guess
    at gamma 0 is the origin, which runs once.  ``converged`` is false
    where no start met the stop rule within ``MAXFEV`` evaluations.
    """
    beta_guess = max(-params.lam / params.omega, -BETA_MAX)  # lam >= 0: never above 0
    # at lam = 0 the guess (-0.0, 0.0) is the origin's simplex: 0.0 == -0.0
    # and both hash alike, so the dict keeps one start, the origin, in order
    starts = list(dict.fromkeys([(0.0, 0.0)] + [(beta_guess, g) for g in START_OFFSETS]))

    energy = _energy_formula(params)
    runs = [_nelder_mead(energy, x0) for x0 in starts]
    # min keeps the first of the least in start order, and a NaN replaces none
    (beta, gamma), fun, _, _ = min(runs, key=lambda run: run[1])
    return VariationalResult(
        trial=TrialParams(beta, gamma),
        energy=fun,
        exact_energy=exact.energy,
        gap=fun - exact.energy,
        iterations=sum(run[2] for run in runs),
        converged=any(run[3] for run in runs),
    )


def stationarity_equals_balance(
    params: ModelParams,
    trial: TrialParams,
) -> tuple[tuple[float, float], float, float]:
    """(gradient, b1 residual, b7 residual) at one trial point.

    At an interior optimum the gradient vanishes together with both
    residuals; away from it (lam > 0) they are nonzero together.
    """
    return (energy_gradient(trial, params), *balance_residuals(trial, params))

