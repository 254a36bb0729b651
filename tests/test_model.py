import numpy as np
import pytest
import scipy.linalg

from rabi_balance import ModelParams, SectorRequired
from rabi_balance.fock import (
    BOSON,
    FockRep,
    QuantumState,
    SPIN_BOSON,
    embed_reduced_state,
    extract_reduced_state,
    fock_state,
    infer_sector,
)
from rabi_balance.oracle import (
    build_full_hamiltonian,
    build_parity_operator,
    build_reduced_hamiltonian,
    expectation,
)
from rabi_balance.model import sector_chain

from conftest import padded_random_state


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega=0.0, lam=0.1, omega0=1.0)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, lam=-0.1, omega0=1.0)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, lam=0.1, omega0=-1.0)


def test_f0_definition():
    p = ModelParams(omega=1.7, lam=0.6, omega0=0.9)
    assert p.f0 == pytest.approx(np.sqrt(2 * 1.7) * 0.6, rel=1e-15)


def test_uncoupled_spectrum():
    # lam = 0: levels are omega n +/- omega0/2
    p = ModelParams(omega=1.0, lam=0.0, omega0=1.0)
    h = build_full_hamiltonian(FockRep(30), p)
    evals = np.sort(scipy.linalg.eigvalsh(h.matrix))
    np.testing.assert_allclose(evals[:6], [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5], atol=1e-12)


def test_parity_operator_small_case():
    # N = 2: -(-1)^n sigma_z on basis order (n, s) = (0,0),(0,1),(1,0),(1,1)
    par = build_parity_operator(FockRep(2))
    np.testing.assert_allclose(par.matrix, np.diag([-1.0, 1.0, 1.0, -1.0]), atol=1e-14)


def test_parity_commutes_and_squares_to_identity():
    rep = FockRep(24)
    p = ModelParams(omega=1.0, lam=0.7, omega0=1.3)
    h = build_full_hamiltonian(rep, p)
    par = build_parity_operator(rep)
    comm = h.matrix @ par.matrix - par.matrix @ h.matrix
    assert abs(comm).max() < 1e-13
    np.testing.assert_allclose(par.matrix @ par.matrix, np.eye(48), atol=1e-14)


def test_embed_vacuum_sector_plus():
    # sector +1, n = 0 carries sigma_z = -1, i.e. composite index 1
    phi = fock_state(6, 0, BOSON)
    psi = embed_reduced_state(phi, +1)
    assert psi.kind == SPIN_BOSON
    assert psi.amplitudes[1] == pytest.approx(1.0)
    assert abs(psi.amplitudes).sum() == pytest.approx(1.0)


def test_embedded_state_has_definite_parity():
    rep = FockRep(20)
    for sector in (+1, -1):
        phi = QuantumState.from_vector(np.linspace(1.0, 0.1, 20), BOSON)
        psi = embed_reduced_state(phi, sector)
        par = build_parity_operator(rep)
        assert expectation(psi, par).real == pytest.approx(sector, abs=1e-12)
        assert infer_sector(psi) == sector


def test_embedding_maps_reduced_eigenstates_to_full_eigenstates():
    rep = FockRep(48)
    p = ModelParams(omega=1.0, lam=0.8, omega0=1.1)
    h_full = build_full_hamiltonian(rep, p)
    for sector in (+1, -1):
        h_red = build_reduced_hamiltonian(rep, p, sector)
        evals, evecs = scipy.linalg.eigh(h_red.matrix)
        phi = QuantumState.from_vector(evecs[:, 0], BOSON)
        psi = embed_reduced_state(phi, sector)
        hv = h_full.matrix @ psi.amplitudes
        residual = np.linalg.norm(hv - evals[0] * psi.amplitudes)
        assert residual < 1e-9


def test_full_spectrum_is_union_of_sector_spectra():
    rep = FockRep(60)
    p = ModelParams(omega=1.0, lam=0.6, omega0=0.9)
    full = np.sort(scipy.linalg.eigvalsh(build_full_hamiltonian(rep, p).matrix))
    plus = scipy.linalg.eigvalsh(build_reduced_hamiltonian(rep, p, +1).matrix)
    minus = scipy.linalg.eigvalsh(build_reduced_hamiltonian(rep, p, -1).matrix)
    union = np.sort(np.concatenate([plus, minus]))
    # compare the truncation-converged lower third
    np.testing.assert_allclose(full[:40], union[:40], atol=1e-10)


def test_hamiltonian_scales_linearly_with_parameters():
    rep = FockRep(16)
    p1 = ModelParams(omega=1.1, lam=0.4, omega0=0.7)
    p2 = ModelParams(omega=2.7 * 1.1, lam=2.7 * 0.4, omega0=2.7 * 0.7)
    h1 = build_full_hamiltonian(rep, p1).matrix
    h2 = build_full_hamiltonian(rep, p2).matrix
    np.testing.assert_allclose(h2, 2.7 * h1, atol=1e-12)


def test_coupling_sign_is_a_gauge_choice():
    # conjugating by (-1)^n (x) I flips the sign of a + a^dag, so the
    # spectrum cannot depend on the sign of lam
    rep = FockRep(30)
    p = ModelParams(omega=1.0, lam=0.5, omega0=1.0)
    h = build_full_hamiltonian(rep, p).matrix
    from rabi_balance.oracle import _ladder_matrices

    par_b = np.kron(_ladder_matrices(30)[3], np.eye(2))
    flipped = par_b @ h @ par_b
    # flipped equals the Hamiltonian built with lam -> -lam
    ann, cre, num, _ = _ladder_matrices(30)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    manual = (
        np.kron(num, np.eye(2))
        - 0.5 * np.kron(ann + cre, sx)
        + 0.5 * np.kron(np.eye(30), sz)
    )
    np.testing.assert_allclose(flipped, manual, atol=1e-13)


def test_extract_reduced_state_roundtrip():
    phi = QuantumState.from_vector(np.linspace(0.2, 1.0, 14), BOSON)
    for sector in (+1, -1):
        psi = embed_reduced_state(phi, sector)
        back = extract_reduced_state(psi, sector)
        np.testing.assert_allclose(back.amplitudes, phi.amplitudes, atol=1e-12)


def test_extract_rejects_wrong_sector_and_mixed_states(rng):
    phi = QuantumState.from_vector(np.linspace(0.2, 1.0, 14), BOSON)
    psi = embed_reduced_state(phi, +1)
    with pytest.raises(SectorRequired):
        extract_reduced_state(psi, -1)
    mixed = padded_random_state(rng, 28, 20)
    with pytest.raises(SectorRequired):
        infer_sector(mixed)


def test_sector_argument_validated():
    phi = fock_state(6, 0, BOSON)
    with pytest.raises(ValueError):
        embed_reduced_state(phi, 0)
    with pytest.raises(ValueError):
        embed_reduced_state(phi, 2)


@pytest.mark.parametrize("sector", [+1, -1])
@pytest.mark.parametrize("start, dim", [(1, 2), (1, 16), (5, 9), (16, 32), (7, 7)])
def test_sector_chain_from_a_start_level_extends_the_shorter_chain(start, dim, sector):
    params = ModelParams(omega=0.7, lam=0.3, omega0=1.9)
    diag, off = sector_chain(start, params, sector)
    more_diag, more_off = sector_chain(dim, params, sector, start)
    assert len(more_diag) == len(more_off) == dim - start
    assert repr((diag + more_diag, off + more_off)) == repr(sector_chain(dim, params, sector))
