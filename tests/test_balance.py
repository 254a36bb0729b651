import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_balance import (
    DimensionMismatch,
    ModelParams,
    TrialParams,
    balance_residuals,
    literal_variants,
    report_passes,
    solve_rabi_ground,
)
from rabi_balance.fock import (
    BOSON,
    FockRep,
    QuantumState,
    SPIN_BOSON,
    embed_reduced_state,
    fock_state,
)
from rabi_balance.oracle import (
    b1_kinetic_balance,
    b7_covariance_balance,
    displaced_number,
    first_order_residual,
    full_report,
    second_order_residual,
    standard_observables,
    wigner_energy_bounds,
    wigner_origin,
)
from rabi_balance.balance import sector_report
from rabi_balance.model import sector_chain
from rabi_balance.oracle import (
    FIRST_ORDER_SET,
    Observable,
    b7_terms,
    build_reduced_hamiltonian,
    force_balance,
    ground_state,
)

from conftest import padded_random_state


def _solved(omega=1.0, lam=0.5, omega0=1.0):
    p = ModelParams(omega=omega, lam=lam, omega0=omega0)
    sol = solve_rabi_ground(p)
    return p, sol, FockRep(sol.dim_used)


def _with_literal_variants(params, report):
    # the report the balance command prints under --paper-literal
    return report._replace(properties={**report.properties, **literal_variants(params, report)})


# --- residual machinery against a generic Hermitian matrix ---------------


def test_residuals_vanish_on_any_eigenstate(rng):
    # the commutator residuals are generic: exact eigenvectors of any
    # Hermitian matrix must zero them out
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = Observable((m + m.conj().T) / 2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    a_obs = Observable((a + a.conj().T) / 2)
    _, vecs = np.linalg.eigh(h.matrix)
    for k in (0, 5, 11):
        st_k = QuantumState.from_vector(vecs[:, k], BOSON)
        assert first_order_residual(h, a_obs, st_k) < 1e-12
        assert second_order_residual(h, a_obs, st_k) < 1e-11


# --- frozen oracle identities for the featured balance relations ---------


def test_b1_literal_equals_scaled_double_commutator_of_q_squared(rng):
    # the kinetic relation is generated by A = q^2: literal residual
    # equals (m/4) |<[H, [H, q^2]]>| on arbitrary states
    for mass in (1.0, 2.3):
        p = ModelParams(omega=1.3, lam=0.7, omega0=0.9, mass=mass)
        obs = standard_observables(FockRep(64), p)
        q2 = Observable(obs["q"].matrix @ obs["q"].matrix)
        for _ in range(10):
            st_r = padded_random_state(rng, 128, 96)
            lit = b1_kinetic_balance(st_r, obs, p)
            orc = (mass / 4.0) * second_order_residual(obs["hamiltonian"], q2, st_r)
            assert abs(lit - orc) < 1e-9


def test_b7_literal_equals_scaled_double_commutator_of_number(rng):
    # the force-covariance relation is generated by A = omega n:
    # literal residual equals m omega |<[H, [H, n]]>|
    for mass in (1.0, 2.3):
        p = ModelParams(omega=1.3, lam=0.7, omega0=0.9, mass=mass)
        obs = standard_observables(FockRep(64), p)
        for _ in range(10):
            st_r = padded_random_state(rng, 128, 96)
            lit = b7_covariance_balance(st_r, obs, p)
            orc = mass * p.omega * second_order_residual(obs["hamiltonian"], obs["num"], st_r)
            assert abs(lit - orc) < 1e-9


def test_force_balance_equals_momentum_commutator(rng):
    # <F_q + F_e> = i <[H, p]>: Ehrenfest for the momentum
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    obs = standard_observables(FockRep(48), p)
    for _ in range(8):
        st_r = padded_random_state(rng, 96, 64)
        assert abs(
            force_balance(st_r, obs, p) - first_order_residual(obs["hamiltonian"], obs["p"], st_r)
        ) < 1e-12


def test_b7_constant_term_is_f0_squared():
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0, mass=2.0)
    t = b7_terms(fock_state(32, 0, SPIN_BOSON), standard_observables(FockRep(16), p), p)
    assert t["f0_sq"] == pytest.approx(p.f0**2, rel=1e-15)


# --- ground-state checks --------------------------------------------------


def test_ground_state_balance_residuals_at_machine_precision():
    p, sol, rep = _solved()
    obs = standard_observables(rep, p)
    assert b1_kinetic_balance(sol.state, obs, p) < 1e-12
    assert b7_covariance_balance(sol.state, obs, p) < 1e-12
    for name in ("q", "p", "num", "q_sigma_x", "p_sigma_x", "sigma_z", "sigma_y"):
        assert first_order_residual(obs["hamiltonian"], obs[name], sol.state) < 1e-12


def test_property_checks_on_ground_state():
    p, sol, rep = _solved()
    checks = full_report(sol.state, rep, p, sector=sol.parity, energy=sol.energy).properties
    for name, chk in checks.items():
        assert chk.satisfied, name
    # spin-parity slaving: <sigma_z> = -p <cos pi n> exactly
    assert abs(checks["p2_identity"].value) < 1e-12
    assert abs(checks["p4_identity"].value) < 1e-12


def test_p4_printed_band_fails_where_the_derived_band_holds():
    # at omega0 = 0, lam = 0.25 the quantity omega <n cos(pi n)> equals
    # -lam^2 e^{-2 lam^2}, which is negative: a symmetric omega0 band
    # would have to contain it in [0, 0] and cannot
    p, sol, rep = _solved(lam=0.25, omega0=0.0)
    checks = _with_literal_variants(
        p, full_report(sol.state, rep, p, sector=sol.parity, energy=sol.energy)
    ).properties
    val = checks["p4"].value
    assert val == pytest.approx(-(0.25**2) * np.exp(-2 * 0.25**2), abs=1e-9)
    assert checks["p4"].satisfied
    assert not checks["p4_literal"].satisfied


def test_p2_sign_holds_only_for_the_plus_sector_representative():
    # both degenerate members satisfy the sector identity, but the
    # sign statement <sigma_z> <= 0 picks out the +1 member
    p = ModelParams(omega=1.0, lam=0.5, omega0=0.0)
    rep = FockRep(48)
    for sector, sign_ok in ((+1, True), (-1, False)):
        h_red = build_reduced_hamiltonian(rep, p, sector)
        _, phi = ground_state(h_red)
        psi = embed_reduced_state(phi, sector)
        checks = full_report(psi, rep, p, sector=sector).properties
        assert checks["p2_identity"].satisfied
        assert checks["p2_sign"].satisfied == sign_ok


def test_b2_bounds_and_reduced_variance_identity():
    p, sol, rep = _solved()
    props = full_report(sol.state, rep, p, sector=sol.parity).properties
    chk = props["b2"]
    assert chk.satisfied
    assert chk.lower < chk.upper
    # frozen: the window is (1/2m omega)[1 - 2 lam^2/omega^2 , 1] + C
    assert chk.upper - chk.lower == pytest.approx(p.lam**2 / p.omega**3, abs=1e-12)
    gap = props["b6_identity"].value  # Var(q sigma_x) minus Var(q) on the reduced state
    assert abs(gap) < 1e-12


def test_b2_printed_constant_is_dimensionally_broken():
    # the printed constant drops omega0/2 and doubles the linear term;
    # the resulting window misses the true variance at every coupling
    p, sol, rep = _solved()
    props = _with_literal_variants(p, full_report(sol.state, rep, p, sector=sol.parity)).properties
    lit = props["b2_literal"]
    assert not lit.satisfied
    assert lit.value == pytest.approx(0.5652548548948216, abs=1e-7)
    good = props["b2"]
    assert good.satisfied


# --- Wigner function at the origin ---------------------------------------


def test_wigner_origin_trivial_states():
    assert wigner_origin(fock_state(10, 0, BOSON)) == pytest.approx(2.0, abs=1e-14)
    assert wigner_origin(fock_state(10, 1, BOSON)) == pytest.approx(-2.0, abs=1e-14)
    with pytest.raises(DimensionMismatch):
        wigner_origin(fock_state(10, 0, SPIN_BOSON))


def test_wigner_origin_coherent_state():
    from rabi_balance.oracle import displacement

    rep = FockRep(40)
    st_c = QuantumState.from_vector(displacement(rep, 0.5).matrix[:, 0], BOSON)
    assert wigner_origin(st_c) == pytest.approx(2.0 * np.exp(-0.5), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_wigner_origin_is_bounded_by_two(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    st_r = QuantumState.from_vector(v, BOSON)
    assert abs(wigner_origin(st_r)) <= 2.0 + 1e-12


# --- displaced-frame energy identity --------------------------------------


def test_displaced_number_matches_matrix_route():
    p, sol, rep = _solved(lam=0.8)
    phi = sol.boson_state
    from rabi_balance.oracle import _ladder_matrices

    ann, cre, num, _ = _ladder_matrices(phi.dim)
    shift = p.lam / p.omega
    tilde = (cre + shift * np.eye(phi.dim)) @ (ann + shift * np.eye(phi.dim))
    v = phi.amplitudes
    direct = np.vdot(v, tilde @ v).real
    assert displaced_number(phi, p) == pytest.approx(direct, abs=1e-12)


def test_displaced_frame_energy_identity():
    # E - omega <n_tilde> = -lam^2/omega - (omega0/4) W(0,0) on ground
    # states; the identity pins the lam^2/omega constant (a lam^2/2omega
    # variant already fails at omega0 = 0 where the state is a displaced
    # vacuum with <n_tilde> = 0 and W = anything)
    for lam, om0 in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (0.7, 0.0)):
        p, sol, rep = _solved(lam=lam, omega0=om0)
        chk = wigner_energy_bounds(sol.boson_state, p)
        w = wigner_origin(sol.boson_state)
        predicted = -p.lam**2 / p.omega - 0.25 * p.omega0 * sol.parity * w
        assert chk.value == pytest.approx(predicted, abs=1e-9), (lam, om0)


def test_wigner_energy_band_corrected_vs_printed():
    p, sol, rep = _solved(lam=2.0, omega0=0.5)
    good = wigner_energy_bounds(sol.boson_state, p)
    report = full_report(sol.state, rep, p, sector=sol.parity, boson_state=sol.boson_state)
    assert report.properties["wigner_energy"] == good
    lit = literal_variants(p, report)["wigner_energy_literal"]
    assert good.satisfied
    assert good.lower == pytest.approx(-0.25 - 4.0, abs=1e-12)
    assert good.upper == pytest.approx(0.25 - 4.0, abs=1e-12)
    # the printed band doubles the shift and misses the value entirely
    assert not lit.satisfied
    assert lit.lower == pytest.approx(-0.25 - 8.0, abs=1e-12)


def test_displaced_vacuum_saturates_the_identity():
    # omega0 = 0 ground is a displaced vacuum: value = -lam^2/omega
    p, sol, rep = _solved(lam=0.7, omega0=0.0)
    chk = wigner_energy_bounds(sol.boson_state, p)
    assert chk.value == pytest.approx(-0.49, abs=1e-9)


# --- full report ----------------------------------------------------------


def test_full_report_passes_on_ground_state():
    p, sol, rep = _solved(lam=1.0, omega0=2.0)
    rep_obj = full_report(
        sol.state, rep, p, sector=sol.parity, energy=sol.energy,
        boson_state=sol.boson_state,
    )
    assert report_passes(rep_obj)
    assert set(rep_obj.second_order) == {"q_sigma_x", "omega_num", "b1", "b7"}
    assert "force" in rep_obj.first_order


def test_full_report_literal_keys_do_not_gate_passing():
    p, sol, rep = _solved()
    rep_obj = _with_literal_variants(p, full_report(
        sol.state, rep, p, sector=sol.parity, energy=sol.energy,
        boson_state=sol.boson_state,
    ))
    assert not rep_obj.properties["b2_literal"].satisfied
    assert report_passes(rep_obj)  # literal diagnostics are informational


@pytest.mark.parametrize("lam, omega0",
                         [(0.5, 1.0), (2.0, 0.5), (1.0, 2.0), (0.7, 0.0), (0.0, 1.0)])
def test_full_report_infers_what_it_is_not_given(lam, omega0):
    # without sector, energy and boson state the report infers the sector
    # from <P>, takes <H> and extracts the reduced state itself
    p, sol, rep = _solved(lam=lam, omega0=omega0)
    given_all = full_report(sol.state, rep, p, sector=sol.parity, energy=sol.energy,
                            boson_state=sol.boson_state)
    inferred = full_report(sol.state, rep, p)
    tol = 1e-12 * max(1.0, abs(sol.energy))
    assert inferred.state_energy == pytest.approx(given_all.state_energy, abs=tol)
    for group in ("first_order", "second_order"):
        want, got = getattr(given_all, group), getattr(inferred, group)
        assert set(got) == set(want)
        for name in want:
            assert got[name] == pytest.approx(want[name], abs=tol), (group, name)
    assert set(inferred.properties) == set(given_all.properties)
    for name, want in given_all.properties.items():
        got = inferred.properties[name]
        assert got.satisfied == want.satisfied, name
        assert got.value == pytest.approx(want.value, abs=tol), name
        for edge in ("lower", "upper"):
            a, b = getattr(got, edge), getattr(want, edge)
            assert (a is None) == (b is None) and (a is None or a == pytest.approx(b, abs=tol))
    assert report_passes(inferred) == report_passes(given_all)


def test_nan_satisfies_no_bound():
    from rabi_balance.balance import _bound, _identity

    assert not _identity(float("nan")).satisfied
    assert not _bound(float("nan"), -1.0, 1.0).satisfied
    assert not _bound(float("nan"), None, None).satisfied
    assert _identity(5e-9).satisfied and not _identity(2e-8).satisfied


def test_report_builds_the_bundle_once_and_trial_residuals_none(monkeypatch):
    # one observable bundle per full_report, and none per balance_residuals,
    # which sums over the trial's sector vector; the counter replaces the
    # builder in every module that imported it
    original = standard_observables
    built = []

    def counting(rep, params):
        built.append(rep.dim)
        return original(rep, params)

    for name, module in list(sys.modules.items()):
        if name.startswith("rabi_balance") and getattr(
            module, "standard_observables", None
        ) is original:
            monkeypatch.setattr(module, "standard_observables", counting)

    p, sol, rep = _solved(lam=1.0, omega0=2.0)
    full_report(
        sol.state, rep, p, sector=sol.parity, energy=sol.energy,
        boson_state=sol.boson_state,
    )
    assert built == [rep.dim]
    built.clear()
    balance_residuals(TrialParams(-0.3, 0.2), p)
    assert built == []


def test_full_report_residuals_equal_the_standalone_ones(rng):
    # each residual of the report equals, bit for bit, the one computed on its own
    p, sol, rep = _solved(lam=1.0, omega0=2.0)
    states = [(p, sol.state, sol.parity, sol.energy, sol.boson_state, rep)]
    p2 = ModelParams(omega=0.6, lam=1.7, omega0=2.3)
    sol2 = solve_rabi_ground(p2)
    states.append((p2, sol2.state, sol2.parity, sol2.energy, sol2.boson_state,
                   FockRep(sol2.dim_used)))
    phi = padded_random_state(rng, 32, 12, kind=BOSON)
    states.append((p, embed_reduced_state(phi, -1), -1, None, phi, FockRep(32)))
    for params, state, sector, energy, boson, rep_k in states:
        report = full_report(state, rep_k, params, sector=sector, energy=energy,
                             boson_state=boson)
        obs = standard_observables(rep_k, params)
        h = obs["hamiltonian"]
        for name in FIRST_ORDER_SET:
            assert report.first_order[name] == first_order_residual(h, obs[name], state)
        for name in ("q_sigma_x", "omega_num"):
            assert report.second_order[name] == second_order_residual(h, obs[name], state)


def test_bundle_is_exactly_hermitian():
    p = ModelParams(omega=1.3, lam=0.7, omega0=0.9, mass=2.3)
    for dim in (16, 256):
        for name, o in standard_observables(FockRep(dim), p).items():
            assert isinstance(o, Observable) and o.hermitian, name
            np.testing.assert_array_equal(o.matrix, o.matrix.conj().T, err_msg=name)


def test_bundle_equals_the_kron_construction():
    # every observable, H included, equals its np.kron form entry by entry
    from rabi_balance.oracle import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _ladder_matrices

    p = ModelParams(omega=1.3, lam=0.7, omega0=0.9, mass=2.3)
    for dim in (16, 256):
        ann, cre, num, par = _ladder_matrices(dim)
        # real ladder entries scaled by the reciprocal, the rounding of the bundle's q
        q = (ann + cre).real * (1.0 / np.sqrt(2.0 * p.mass * p.omega))
        mom = 1j * np.sqrt(p.mass * p.omega / 2.0) * (cre - ann).real
        eye = np.eye(dim)
        kron = {
            "q": (q, IDENTITY_2), "p": (mom, IDENTITY_2), "num": (num, IDENTITY_2),
            "omega_num": (p.omega * num, IDENTITY_2), "q_sigma_x": (q, SIGMA_X),
            "p_sigma_x": (mom, SIGMA_X), "p_sigma_y": (mom, SIGMA_Y),
            "sigma_x": (eye, SIGMA_X), "sigma_y": (eye, SIGMA_Y), "sigma_z": (eye, SIGMA_Z),
            "parity_boson": (par, IDENTITY_2), "num_parity": (num @ par, IDENTITY_2),
            "num_sigma_z": (num, SIGMA_Z),
        }
        obs = standard_observables(FockRep(dim), p)
        for name, (boson, spin) in kron.items():
            np.testing.assert_array_equal(obs[name].matrix, np.kron(boson, spin),
                                          err_msg=name)
        np.testing.assert_array_equal(obs["q_boson"].matrix, q)
        dense = (
            p.omega * np.kron(num, IDENTITY_2)
            + p.lam * np.kron(ann + cre, SIGMA_X)
            + 0.5 * p.omega0 * np.kron(eye, SIGMA_Z)
        )
        np.testing.assert_array_equal(obs["hamiltonian"].matrix, dense)
        assert set(obs) == {*kron, "q_boson", "hamiltonian"}


# --- the sector report against full_report ----------------------------------

REPORT_TOL = 1e-12  # times max(1, |E|, |value|): the sums differ in order only


def _assert_summary_matches_report(vec, p, params, energy=None):
    """sector_report of phi equals full_report of its lift, with and without literal_variants.

    The same keys in the same order, every ``satisfied`` flag, every value and
    bound edge to REPORT_TOL, the same ``report_passes``, and W(0, 0) from p2.
    """
    boson = QuantumState.from_vector(vec, BOSON)
    phi = boson.amplitudes.real.tolist()
    want = full_report(embed_reduced_state(boson, p), FockRep(boson.dim), params,
                       sector=p, energy=energy, boson_state=boson)
    got = sector_report(phi, p, params, want.state_energy)
    for literal in (False, True):
        if literal:
            want, got = _with_literal_variants(params, want), _with_literal_variants(params, got)
        scale = max(1.0, abs(want.state_energy))
        assert got.state_energy == want.state_energy

        def close(value, target, name):
            assert abs(value - target) <= REPORT_TOL * max(scale, abs(target)), (
                literal, name, value, target)

        for group in ("first_order", "second_order"):
            have, need = getattr(got, group), getattr(want, group)
            assert list(have) == list(need), group
            for name in need:
                close(have[name], need[name], name)
        assert list(got.properties) == list(want.properties)
        for name, need in want.properties.items():
            have = got.properties[name]
            assert have.satisfied == need.satisfied, (literal, name)
            close(have.value, need.value, name)
            for edge in ("lower", "upper"):
                a, b = getattr(have, edge), getattr(need, edge)
                assert (a is None) == (b is None), (name, edge)
                if b is not None:
                    close(a, b, (name, edge))
        assert report_passes(got) == report_passes(want)
        # the sweep's w00_exact: <sigma_z> = -p <cos pi n>, so W(0, 0) = -2 p <sigma_z>
        close(-2 * p * got.properties["p2_sign"].value, wigner_origin(boson), "w00")
        assert got.first_order["force"] == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega0", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_sector_summary_equals_full_report_on_both_sector_chains(lam, omega0):
    # the acceptance grid, the lowest vector of each sector chain at dims 32-256
    # (by dense eigh, independent of the solver)
    params = ModelParams(omega=1.0, lam=lam, omega0=omega0)
    for p in (+1, -1):
        for dim in (32, 64, 128, 256):
            diag, off = sector_chain(dim, params, p)
            energies, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            _assert_summary_matches_report(vecs[:, 0], p, params, energies[0])


def test_sector_summary_equals_full_report_on_solved_ground_states():
    for omega, lam, omega0 in ((0.1, 0.3, 0.5), (0.5, 1.7, 2.3), (1.0, 6.0, 1.0),
                               (2.0, 3.0, 0.0)):
        params = ModelParams(omega=omega, lam=lam, omega0=omega0)
        sol = solve_rabi_ground(params)
        _assert_summary_matches_report(sol.boson_state.amplitudes.real, sol.parity, params,
                                       sol.energy)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    vec=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64).filter(
        lambda v: math.fsum(x * x for x in v) > 1e-6),
    p=st.sampled_from([1, -1]),
    omega=st.floats(0.1, 5.0),
    lam=st.floats(0.0, 6.0),
    omega0=st.floats(0.0, 5.0),
)
def test_sector_summary_equals_full_report_on_random_vectors(vec, p, omega, lam, omega0):
    _assert_summary_matches_report(vec, p, ModelParams(omega=omega, lam=lam, omega0=omega0))
