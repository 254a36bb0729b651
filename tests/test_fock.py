import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_balance import (AmplitudeTooLarge, DimensionMismatch, NonHermitian, SqueezeTooLarge,
                          TrialParams)
from rabi_balance.fock import BOSON, FockRep, QuantumState, SPIN_BOSON, fock_state
from rabi_balance.oracle import (
    Observable,
    build_ladder,
    build_quadratures,
    displacement,
    expectation,
    squeeze,
    variance,
)
from rabi_balance.model import ModelParams
from rabi_balance.variational import GAMMA_MAX

from conftest import coherent_vector, padded_random_state


def test_ladder_matrix_elements_exact():
    rep = FockRep(12)
    ann, cre, num, par = build_ladder(rep)
    a = ann.matrix
    for m in range(12):
        for n in range(12):
            want = np.sqrt(n) if m == n - 1 else 0.0
            assert a[m, n] == want
    np.testing.assert_array_equal(cre.matrix, a.conj().T)
    np.testing.assert_array_equal(num.matrix, a.conj().T @ a)
    np.testing.assert_array_equal(np.diag(par.matrix), (-1.0) ** np.arange(12))


def test_quadrature_commutator_on_leading_block():
    rep = FockRep(30)
    params = ModelParams(omega=1.3, lam=0.0, omega0=0.0)
    q, p = build_quadratures(rep, params)
    comm = q.matrix @ p.matrix - p.matrix @ q.matrix
    # [q, p] = i exactly except in the last row/column, where the cut
    # of a*adag shows up
    np.testing.assert_allclose(comm[:29, :29], 1j * np.eye(29), atol=1e-14)


def test_f0_times_q_equals_lam_a_plus_adag():
    rep = FockRep(20)
    params = ModelParams(omega=1.7, lam=0.6, omega0=0.9)
    q, _ = build_quadratures(rep, params)
    ann, cre, _, _ = build_ladder(rep)
    np.testing.assert_allclose(
        params.f0 * q.matrix, params.lam * (ann.matrix + cre.matrix), atol=1e-14
    )


def test_displacement_zero_is_identity():
    rep = FockRep(16)
    np.testing.assert_allclose(displacement(rep, 0.0).matrix, np.eye(16), atol=1e-14)


def test_squeeze_zero_is_identity():
    rep = FockRep(16)
    np.testing.assert_allclose(squeeze(rep, 0.0).matrix, np.eye(16), atol=1e-14)


def test_displacement_first_column_is_coherent_state():
    rep = FockRep(30)
    col = displacement(rep, 0.5).matrix[:, 0]
    np.testing.assert_allclose(col.real, coherent_vector(30, 0.5), atol=1e-12)
    np.testing.assert_allclose(col.imag, 0.0, atol=1e-12)


def test_displacement_unitarity_defect_on_leading_block():
    # built in working_dim then cut: the cut matrix is not unitary, but
    # its leading half-block must be clean
    rep = FockRep(40)
    d = displacement(rep, 1.0).matrix
    gram = d.conj().T @ d
    assert abs(gram[:20, :20] - np.eye(20)).max() < 1e-8


def test_squeeze_is_exact_isometry_in_working_space():
    # the construction is exactly unitary in working_dim, so the dim
    # columns taken as working-space vectors form an isometry
    from rabi_balance.oracle import _unitary_from_generator

    rep = FockRep(40)
    sw = _unitary_from_generator(rep.working_dim, "squeeze", 0.3, 0.0)
    v = sw[:, :40]
    assert abs(v.conj().T @ v - np.eye(40)).max() < 1e-12


def test_squeeze_cut_block_defect_and_parity_structure():
    rep = FockRep(40)
    s = squeeze(rep, 0.3).matrix
    gram = s.conj().T @ s
    # a squeezed |n> spreads by a factor e^{2 gamma}; at gamma = 0.3
    # columns up to ~10 stay inside a 40-level cut to 1e-8
    assert abs(gram[:10, :10] - np.eye(10)).max() < 1e-8
    # squeeze couples only equal-parity Fock levels
    n = np.arange(40)
    odd_mask = (n[:, None] - n[None, :]) % 2 == 1
    assert abs(s[odd_mask]).max() < 1e-12


def test_squeezed_vacuum_photon_number_is_sinh_squared():
    rep = FockRep(40)
    sv = QuantumState.from_vector(squeeze(rep, 0.3).matrix[:, 0], BOSON)
    num = build_ladder(rep)[2]
    assert expectation(sv, num).real == pytest.approx(np.sinh(0.3) ** 2, abs=1e-12)


def test_squeeze_sign_convention_stretches_position():
    # gamma > 0 widens the position distribution: Var(q) = e^{2 gamma}/(2 m omega)
    rep = FockRep(40)
    params = ModelParams(omega=1.0, lam=0.0, omega0=0.0)
    q, p = build_quadratures(rep, params)
    sv = QuantumState.from_vector(squeeze(rep, 0.3).matrix[:, 0], BOSON)
    assert variance(sv, q) == pytest.approx(0.5 * np.exp(0.6), abs=1e-10)
    assert variance(sv, p) == pytest.approx(0.5 * np.exp(-0.6), abs=1e-10)


def test_squeezed_vacuum_keeps_even_parity():
    rep = FockRep(40)
    sv = QuantumState.from_vector(squeeze(rep, 0.4).matrix[:, 0], BOSON)
    par = build_ladder(rep)[3]
    assert expectation(sv, par).real == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    b1=st.floats(min_value=-1.0, max_value=1.0),
    b2=st.floats(min_value=-1.0, max_value=1.0),
)
def test_displacement_composition_real_amplitudes(b1, b2):
    # real displacements commute, so D(b1) D(b2) = D(b1 + b2) with no
    # extra phase; compare on the leading half-block where the cut is clean
    rep = FockRep(40)
    prod = displacement(rep, b1).matrix @ displacement(rep, b2).matrix
    direct = displacement(rep, b1 + b2).matrix
    assert abs(prod[:20, :20] - direct[:20, :20]).max() < 1e-8


def test_displacement_amplitude_guard():
    rep = FockRep(40)  # working_dim 100, guard at beta^2 > 25
    with pytest.raises(AmplitudeTooLarge):
        displacement(rep, 6.0)


def test_squeeze_amplitude_guard():
    with pytest.raises(SqueezeTooLarge):
        squeeze(FockRep(40), 2.5)
    # the limit is the trial box's: |gamma| = GAMMA_MAX passes both checks,
    # and the next float up fails both with one message
    for gamma in (GAMMA_MAX, -GAMMA_MAX):
        squeeze(FockRep(40), gamma)
        TrialParams(0.0, gamma)
    over = math.nextafter(GAMMA_MAX, math.inf)
    with pytest.raises(SqueezeTooLarge) as from_oracle:
        squeeze(FockRep(40), over)
    with pytest.raises(SqueezeTooLarge) as from_trial:
        TrialParams(0.0, over)
    assert str(from_oracle.value) == str(from_trial.value) == f"|gamma| = {over} exceeds 2.0"


def test_fockrep_validation():
    with pytest.raises(ValueError):
        FockRep(1)
    with pytest.raises(ValueError):
        FockRep(10, working_dim=5)


def test_observable_rejects_nonhermitian_matrix():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitian):
        Observable(m)
    Observable(m, hermitian=False)  # explicit opt-out is fine


def test_observable_matrix_is_readonly():
    obs = Observable(np.eye(3))
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 5.0


def test_state_norm_validation_and_renormalization():
    with pytest.raises(ValueError):
        QuantumState(np.array([0.5, 0.0]), BOSON)
    st_ok = QuantumState(np.array([1.0 + 1e-8, 0.0]), BOSON)
    assert np.linalg.norm(st_ok.amplitudes) == pytest.approx(1.0, abs=1e-15)
    st2 = QuantumState.from_vector(np.array([3.0, 4.0]), BOSON)
    assert np.linalg.norm(st2.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_fock_state_basics():
    st1 = fock_state(8, 3, BOSON)
    assert st1.amplitudes[3] == 1.0
    assert st1.dim == 8
    num = build_ladder(FockRep(8))[2]
    assert expectation(st1, num).real == pytest.approx(3.0, abs=1e-14)


def test_expectation_dimension_mismatch():
    st1 = fock_state(8, 0, BOSON)
    num = build_ladder(FockRep(10))[2]
    with pytest.raises(DimensionMismatch):
        expectation(st1, num)


def test_variance_requires_hermitian_and_is_nonnegative(rng):
    rep = FockRep(24)
    ann, _, num, _ = build_ladder(rep)
    with pytest.raises(NonHermitian):
        variance(fock_state(24, 0, BOSON), ann)
    for _ in range(5):
        st1 = padded_random_state(rng, 24, 16, kind=BOSON)
        assert variance(st1, num) >= 0.0
