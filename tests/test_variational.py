import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import rabi_balance
from rabi_balance import (
    AmplitudeTooLarge,
    ModelParams,
    OptimizerStalled,
    SqueezeTooLarge,
    TrialParams,
    balance_residuals,
    energy_closed_form,
    minimize_energy,
    solve_rabi_ground,
    stationarity_equals_balance,
)
from rabi_balance.fock import BOSON, FockRep, QuantumState
from rabi_balance.oracle import (
    _unitary_from_generator,
    energy_numeric,
    trial_property_compliance,
    trial_state,
    wigner_origin,
)
from rabi_balance import cli, variational
from rabi_balance.variational import (
    BETA_MAX,
    GAMMA_MAX,
    START_OFFSETS,
    _energy_formula,
    _nelder_mead,
    energy_gradient,
)

from conftest import coherent_vector


def test_trial_params_box():
    with pytest.raises(AmplitudeTooLarge):
        TrialParams(beta=7.0, gamma=0.0)
    with pytest.raises(SqueezeTooLarge):
        TrialParams(beta=0.0, gamma=2.5)


def test_trial_state_trivial_cases():
    rep = FockRep(40)
    vac = trial_state(rep, TrialParams(0.0, 0.0))
    assert vac.amplitudes[0] == pytest.approx(1.0, abs=1e-14)
    coh = trial_state(rep, TrialParams(0.5, 0.0))
    np.testing.assert_allclose(coh.amplitudes.real, coherent_vector(40, 0.5), atol=1e-12)
    # beta^2 = 36 is far above what a 16-level cut holds, and the recurrence
    # needs no working space: the leading coherent amplitudes, renormalized
    got = trial_state(FockRep(16), TrialParams(-6.0, 0.0)).amplitudes
    want = coherent_vector(16, -6.0)
    np.testing.assert_allclose(got.real, want / np.linalg.norm(want), rtol=0, atol=1e-12)
    assert not got.imag.any()


def test_balance_residuals_build_no_state_and_no_rep(monkeypatch):
    # the recurrence's list goes straight to balance.sector_report
    built = []
    for cls in (QuantumState, FockRep):
        def counting(self, _init=cls.__post_init__, _name=cls.__name__):
            built.append(_name)
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    b1, b7 = balance_residuals(TrialParams(-0.3, 0.2), p)
    assert built == []
    assert b1 > 0.0 and b7 > 0.0


def test_numpy_serves_only_the_simplex_energy():
    # every np. in the module sits inside _energy_formula
    tree = ast.parse(Path(variational.__file__).read_text(encoding="utf-8"))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_energy_formula":
            inside.update(id(n) for n in ast.walk(node))
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "np"]
    assert uses and all(id(n) in inside for n in uses), [n.lineno for n in uses]


def test_closed_form_trivial_points():
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    assert energy_closed_form(TrialParams(0.0, 0.0), p) == pytest.approx(-0.5, abs=1e-15)
    # beta = -lam/omega, gamma = 0: -lam^2/omega - (omega0/2) e^{-2 lam^2/omega^2}
    want = -0.25 - 0.5 * np.exp(-0.5)
    assert energy_closed_form(TrialParams(-0.5, 0.0), p) == pytest.approx(want, abs=1e-15)


def test_squeeze_term_is_sinh_squared_not_sinh_of_square():
    # the numeric oracle separates the two candidate squeeze-energy
    # terms by ~0.025 at gamma = 0.5, far beyond its 1e-10 accuracy
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    t = TrialParams(0.3, 0.5)
    numeric = energy_numeric(FockRep(80), t, p)
    closed = energy_closed_form(t, p)
    assert abs(closed - numeric) < 1e-10
    wrong = closed - np.sinh(0.5) ** 2 + np.sinh(0.25)
    assert abs(wrong - numeric) > 1e-2


def test_operator_ordering_is_squeeze_after_displacement():
    # the closed form describes S(gamma) D(beta) |0>; the reversed
    # product D(beta) S(gamma) |0> has a visibly different energy
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    t = TrialParams(0.3, 0.5)
    rep = FockRep(80)
    disp = _unitary_from_generator(rep.working_dim, "displace", t.beta, 0.0)
    sq = _unitary_from_generator(rep.working_dim, "squeeze", t.gamma, 0.0)
    reversed_vec = disp @ sq[:, 0]
    from rabi_balance.oracle import build_reduced_hamiltonian
    from rabi_balance.oracle import expectation

    wide = FockRep(rep.working_dim, working_dim=rep.working_dim)
    h = build_reduced_hamiltonian(wide, p, +1)
    e_reversed = expectation(QuantumState.from_vector(reversed_vec, BOSON), h).real
    assert abs(energy_closed_form(t, p) - e_reversed) > 1e-3
    assert energy_numeric(rep, t, p) == pytest.approx(energy_closed_form(t, p), abs=1e-10)


def test_energy_numeric_truncation_self_oracle(rng):
    # values must be N-independent once the working space swallows the
    # leakage: N = 80 and N = 140 agree to 1e-9 across the box
    p = ModelParams(omega=1.0, lam=0.6, omega0=0.8)
    r80, r140 = FockRep(80), FockRep(140)
    for _ in range(8):
        t = TrialParams(float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
        assert abs(energy_numeric(r80, t, p) - energy_numeric(r140, t, p)) < 1e-9


def test_closed_form_matches_numeric_on_grid():
    p = ModelParams(omega=1.0, lam=0.6, omega0=0.8)
    rep = FockRep(120)
    for beta in np.linspace(-2, 2, 5):
        for gamma in np.linspace(-1, 1, 5):
            t = TrialParams(float(beta), float(gamma))
            assert abs(energy_closed_form(t, p) - energy_numeric(rep, t, p)) < 1e-8


def test_zero_splitting_energy_pattern_under_pinned_squeeze():
    # omega0 = 0 along beta = -(lam/omega) e^{-gamma}: the closed form
    # collapses to -lam^2/omega + omega sinh^2 gamma, minimized at gamma=0
    p = ModelParams(omega=1.0, lam=0.5, omega0=0.0)
    for gamma in (0.0, 0.4, -0.3):
        t = TrialParams(-0.5 * np.exp(-gamma), gamma)
        want = -0.25 + np.sinh(gamma) ** 2
        assert energy_closed_form(t, p) == pytest.approx(want, abs=1e-14)


def test_gradient_matches_central_difference():
    step = 1e-5
    for lam in (0.0, 0.7, 6.0):
        for omega0 in (0.0, 1.1, 5.0):
            p = ModelParams(omega=1.0, lam=lam, omega0=omega0)
            for beta in (-5.0, -0.4, 0.0, 2.0):
                for gamma in (-1.5, 0.1, 1.5):
                    def energy(db, dg):
                        return energy_closed_form(TrialParams(beta + db, gamma + dg), p)
                    central = np.array([
                        energy(step, 0.0) - energy(-step, 0.0),
                        energy(0.0, step) - energy(0.0, -step),
                    ]) / (2.0 * step)
                    grad = energy_gradient(TrialParams(beta, gamma), p)
                    assert type(grad) is tuple and [type(g) for g in grad] == [float, float]
                    scale = max(np.linalg.norm(central), 1.0)
                    assert np.linalg.norm(grad - central) / scale < 1e-7, (p, beta, gamma)


def test_minimize_uncoupled_recovers_vacuum():
    p = ModelParams(omega=1.0, lam=0.0, omega0=1.0)
    res = minimize_energy(p, solve_rabi_ground(p))
    assert res.energy == pytest.approx(-0.5, abs=1e-12)
    assert abs(res.trial.beta) < 1e-6
    assert abs(res.gap) < 1e-9


def test_minimize_zero_splitting_recovers_coherent_state():
    p = ModelParams(omega=1.0, lam=0.5, omega0=0.0)
    res = minimize_energy(p, solve_rabi_ground(p))
    assert res.energy == pytest.approx(-0.25, abs=1e-10)
    assert res.trial.beta == pytest.approx(-0.5, abs=1e-5)
    assert abs(res.trial.gamma) < 1e-4
    assert abs(res.gap) < 1e-9


def test_gap_is_small_at_weak_coupling():
    p = ModelParams(omega=1.0, lam=0.2, omega0=0.5)
    res = minimize_energy(p, solve_rabi_ground(p))
    assert res.gap >= -1e-9
    assert res.gap / abs(res.exact_energy) < 1e-2


def test_stationarity_equals_balance_at_optimum():
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    res = minimize_energy(p, solve_rabi_ground(p))
    grad, b1, b7 = stationarity_equals_balance(p, res.trial)
    assert np.linalg.norm(grad) < 1e-6
    assert b1 < 1e-5
    assert b7 < 1e-5
    # moving off the optimum lights up both diagnostics
    pert = TrialParams(res.trial.beta + 0.1, res.trial.gamma)
    grad, b1, b7 = stationarity_equals_balance(p, pert)
    assert np.linalg.norm(grad) > 1e-3
    assert b1 > 1e-4 or b7 > 1e-4


def test_gradient_components_are_scaled_balance_residuals():
    # dE/dgamma = -2 R_b1 and |dE/dbeta| = e^gamma R_b7 / (omega lam)
    # at any trial point, not only at stationarity
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    t = TrialParams(-0.3, 0.2)
    grad = energy_gradient(t, p)
    b1, b7 = balance_residuals(t, p)
    assert abs(grad[1]) == pytest.approx(2.0 * b1, rel=1e-6)
    assert abs(grad[0]) == pytest.approx(np.exp(t.gamma) * b7 / p.lam, rel=1e-6)


def test_trial_parity_depends_only_on_displacement():
    rep = FockRep(120)
    target = 2.0 * np.exp(-2.0 * 0.8**2)
    for gamma in (0.0, 0.4, -0.6):
        st_t = trial_state(rep, TrialParams(0.8, gamma))
        assert wigner_origin(st_t) == pytest.approx(target, abs=1e-12)


def test_trial_compliance_at_optimum_and_off_optimum():
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    res = minimize_energy(p, solve_rabi_ground(p))
    comp = trial_property_compliance(FockRep(160), res.trial, p)
    assert all(chk.satisfied for chk in comp.values())

    # far from the optimum the operator identities still hold but the
    # ground-state properties give out
    p_weak = ModelParams(omega=1.0, lam=0.1, omega0=1.0)
    comp2 = trial_property_compliance(FockRep(160), TrialParams(2.0, 0.0), p_weak)
    for name in ("p2_identity", "p4_identity", "b6_identity"):
        assert comp2[name].satisfied, name
    for name in ("p1", "p3", "b2"):
        assert not comp2[name].satisfied, name


_BOX = ((-BETA_MAX, BETA_MAX), (-GAMMA_MAX, GAMMA_MAX))


def _scipy_nelder_mead(func, x0, maxfev):
    res = minimize(lambda x: func(float(x[0]), float(x[1])), np.asarray(x0, dtype=float),
                   method="Nelder-Mead", bounds=_BOX,
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": maxfev})
    return [float(v) for v in res.x], float(res.fun), int(res.nit), bool(res.success)


def _same_run(monkeypatch, func, x0, maxfev):
    # repr equality is bit equality of the floats, -0.0 and NaN included
    monkeypatch.setattr(variational, "MAXFEV", maxfev)
    ours = _nelder_mead(func, x0)
    ref = _scipy_nelder_mead(func, x0, maxfev)
    assert repr(ours) == repr(ref), (x0, maxfev)


def test_nelder_mead_matches_scipy_on_the_trial_energy(monkeypatch):
    # the starts of minimize_energy; lam = 0 and omega0 = 0 make vertex
    # energies tie, and maxfev 1, 7 and 40 end the search mid-iteration
    for omega in (0.5, 1.0, 2.0):
        for lam in np.linspace(0.0, 8.0, 6):
            for omega0 in np.linspace(0.0, 6.0, 5):
                p = ModelParams(omega=omega, lam=float(lam), omega0=float(omega0))
                beta_guess = float(np.clip(-p.lam / p.omega, -BETA_MAX, BETA_MAX))
                starts = [(0.0, 0.0)] + [(beta_guess, g) for g in START_OFFSETS]
                for x0 in starts:
                    for maxfev in (1, 7, 40, 2000):
                        _same_run(monkeypatch, _energy_formula(p), x0, maxfev)
    # a budget that runs out between a shrink's two evaluations
    p = ModelParams(omega=1.0, lam=0.3, omega0=1.0)
    for maxfev in (131, 132, 133):
        _same_run(monkeypatch, _energy_formula(p), (0.0, 0.0), maxfev)


def test_nelder_mead_matches_scipy_at_the_box_edges_and_on_nan(monkeypatch):
    # starts on an upper bound make the initial simplex reflect inward;
    # outside a disc the second objective is NaN, which sorts last
    energy = _energy_formula(ModelParams(omega=0.8, lam=1.3, omega0=2.0))

    def holed(beta, gamma):
        return energy(beta, gamma) if beta**2 + gamma**2 < 1.0 else float("nan")

    for func in (energy, holed):
        for x0 in [(6.0, 2.0), (5.9, 1.99), (6.0, 0.0), (-6.0, -2.0), (-0.0, -0.0), (0.9, -0.3)]:
            for maxfev in (1, 2, 3, 4, 5, 13, 2000):
                _same_run(monkeypatch, func, x0, maxfev)


def _log_uniform(rng, lo, hi, zero_share=0.0):
    # 10**U(lo, hi), or 0 with probability zero_share
    return 0.0 if rng.uniform() < zero_share else float(10.0 ** rng.uniform(lo, hi))


def test_nelder_mead_matches_scipy_on_seeded_random_models(monkeypatch):
    # parameters over many decades (lam and omega0 sometimes 0; omega
    # must be positive), the starts of minimize_energy, budgets that end
    # the search in the initial simplex, mid-iteration and not at all, and
    # for a fifth of the models an objective that is NaN outside a disc
    rng = np.random.default_rng(1402)
    for _ in range(60):
        p = ModelParams(omega=_log_uniform(rng, -3, 3),
                        lam=_log_uniform(rng, -4, 2, zero_share=0.15),
                        omega0=_log_uniform(rng, -4, 4, zero_share=0.15))
        energy = _energy_formula(p)
        func = energy
        if rng.uniform() < 0.2:
            radius2 = float(rng.uniform(0.2, 9.0))

            def func(beta, gamma, radius2=radius2):
                return energy(beta, gamma) if beta**2 + gamma**2 < radius2 else float("nan")

        beta_guess = float(np.clip(-p.lam / p.omega, -BETA_MAX, BETA_MAX))
        for x0 in [(0.0, 0.0)] + [(beta_guess, g) for g in START_OFFSETS]:
            for maxfev in (1, 2, 3, 7, 2000):
                _same_run(monkeypatch, func, x0, maxfev)


def _float64_energy(beta, gamma, params):
    # the closed form evaluated on np.float64 scalars, as the package did
    # before the simplex moved to Python floats
    stretch = np.exp(gamma)
    return float(
        params.omega * (beta**2 * stretch**2 + np.sinh(gamma) ** 2)
        + 2.0 * params.lam * beta * stretch
        - 0.5 * params.omega0 * np.exp(-2.0 * beta**2)
    )


def test_energy_formula_rounds_as_the_float64_formula():
    rng = np.random.default_rng(2014)
    edges = [(0.0, 0.0), (-0.0, -0.0), (BETA_MAX, GAMMA_MAX), (-BETA_MAX, -GAMMA_MAX),
             (BETA_MAX, -GAMMA_MAX), (1e-300, -1e-300)]
    for _ in range(60):
        p = ModelParams(omega=_log_uniform(rng, -3, 3),
                        lam=_log_uniform(rng, -4, 2, zero_share=0.1),
                        omega0=_log_uniform(rng, -4, 4, zero_share=0.1))
        energy = _energy_formula(p)
        points = edges + [(float(rng.uniform(-BETA_MAX, BETA_MAX)),
                           float(rng.uniform(-GAMMA_MAX, GAMMA_MAX))) for _ in range(100)]
        for beta, gamma in points:
            assert repr(energy(beta, gamma)) == repr(_float64_energy(beta, gamma, p)), (
                p, beta, gamma)


@pytest.mark.parametrize("lam, runs", [(0.0, 3), (0.5, 4), (1e-300, 4)])
def test_each_distinct_start_runs_once(monkeypatch, lam, runs):
    # at lam = 0 the guess at gamma 0 is (-0.0, 0.0), the origin's simplex
    calls = []

    def counted(func, x0, *args):
        calls.append(x0)
        return _nelder_mead(func, x0, *args)

    monkeypatch.setattr(variational, "_nelder_mead", counted)
    p = ModelParams(omega=1.0, lam=lam, omega0=1.0)
    minimize_energy(p, solve_rabi_ground(p))
    assert len(calls) == runs
    assert calls[0] == (0.0, 0.0) and len(set(calls)) == runs


def test_optimizer_stall_carries_best_effort(monkeypatch):
    monkeypatch.setattr(variational, "MAXFEV", 1)
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    result = minimize_energy(p, solve_rabi_ground(p))
    assert not result.converged and result.trial is not None
    # a sweep point turns the stall into the error, MAXFEV read when it runs
    with pytest.raises(OptimizerStalled, match="^no start converged within 1 evaluations$"):
        cli._sweep_point((1.0, 0.5, 1.0, None, 1e-10))


def test_variational_bound_against_exact(rng):
    for _ in range(4):
        p = ModelParams(
            omega=1.0,
            lam=float(rng.uniform(0.0, 1.5)),
            omega0=float(rng.uniform(0.0, 3.0)),
        )
        res = minimize_energy(p, solve_rabi_ground(p))
        assert res.gap >= -1e-9


_RSS_CHILD = """
import numpy as np
from rabi_balance import ModelParams, TrialParams, balance_residuals
from rabi_balance.fock import FockRep
from rabi_balance.oracle import trial_state

def peak_mb():
    # VmHWM is the peak RSS of this process image; ru_maxrss would start
    # at the RSS of the process that spawned it (Linux keeps it over exec)
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line")

rep = FockRep(120)  # working_dim 260
params = ModelParams(omega=1.0, lam=0.8, omega0=1.2)
trials = [TrialParams(float(b), float(g))
          for b, g in zip(np.linspace(-2.0, 2.0, 100), np.linspace(-0.9, 0.9, 100))]
trial_state(rep, TrialParams(0.05, 0.05))  # warm-up: lazy imports, first allocations
balance_residuals(TrialParams(0.05, 0.05), params)
start = peak_mb()
for t in trials:
    trial_state(rep, t)
for t in trials[::5]:
    balance_residuals(t, params)
print(peak_mb() - start)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="peak RSS of a process image is read from /proc")
def test_trial_evaluations_do_not_grow_memory():
    # 100 distinct trial states and 20 residual evaluations in a fresh
    # interpreter: its peak RSS may not grow with the number of evaluations
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    growth_mb = float(proc.stdout.strip().splitlines()[-1])
    assert growth_mb < 20.0


def test_trial_state_matches_the_exponential_oracle():
    # the recurrence against S(gamma) D(beta) |0> from dense exponentials
    # in working_dim, wherever that exact state keeps under 1e-14 of its
    # weight above dim (the cut and the renormalization then agree)
    betas, gammas = np.linspace(-3.0, 3.0, 7), np.linspace(-1.0, 1.0, 5)
    for dim in (120, 200):
        rep = FockRep(dim)
        coherent = {b: _unitary_from_generator(rep.working_dim, "displace", b, 0.0)[:, 0]
                    for b in betas}
        squeezes = {g: _unitary_from_generator(rep.working_dim, "squeeze", g, 0.0)
                    for g in gammas}
        compared = 0
        for b in betas:
            for g in gammas:
                exact = squeezes[g] @ coherent[b]
                if np.sum(np.abs(exact[dim:]) ** 2) >= 1e-14:
                    continue
                want = exact[:dim] / np.linalg.norm(exact[:dim])
                got = trial_state(rep, TrialParams(float(b), float(g))).amplitudes
                assert np.max(np.abs(got - want)) < 1e-12, (dim, b, g)
                compared += 1
        assert compared >= 25, (dim, compared)
