"""Checks of the solver that need no second truncated diagonalization.

* Exact scaling: H(c omega, c lam, c omega0) = c H.  The commands give
  the solver and the trial search the model in units of omega,
  ``ModelParams.unit()`` = (1, lam / omega, omega0 / omega), which for c
  a power of two is the same float model at every c, so what they print
  scales bit for bit (``test_scale_covariance`` checks the printed output).
* Braak's G-function (``braak``): each sector energy is a zero of its
  parity's G, and the lowest one; the parity label names the sector whose
  lowest zero lies lower by more than the degeneracy threshold, or reads
  ``degenerate`` where both G's change sign within it.  At omega0 = 0 the
  G's have no pole term and no zero, and both sectors' lowest level is
  the exceptional x = 0.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabi_balance import ModelParams, solve_rabi_ground

from braak import brackets_an_eigenvalue, sign_changes_below


@pytest.mark.parametrize("c", [2.0**-600, 0.25, 2.0, 8.0, 2.0**600])
@pytest.mark.parametrize("lam, omega0", [
    (0.0, 1.0), (0.5, 1.0), (3.0, 0.7), (6.0, 2.0), (1.0, 0.0), (0.2, 5.0), (2.0, 0.5),
])
def test_power_of_two_scaling_is_exact(lam, omega0, c):
    unit = ModelParams(omega=c, lam=c * lam, omega0=c * omega0).unit()
    # repr compares floats bit for bit, the sign of a zero included
    assert repr(unit) == repr(ModelParams(omega=1.0, lam=lam, omega0=omega0))


def _sector_energies(sol) -> dict[int, float]:
    """Both sectors' lowest energies, from the ground energy and the gap (to an ulp)."""
    if sol.parity == +1:
        return {+1: sol.energy, -1: sol.energy + sol.sector_gap}
    return {+1: sol.energy - sol.sector_gap, -1: sol.energy}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(lam=st.floats(0.05, 6.0), omega0=st.floats(0.0, 5.0))
@example(lam=3.0, omega0=0.7)  # a sector gap of 1.1e-8
@example(lam=3.5, omega0=5.0)  # a sector gap of 2.0e-10: degenerate
@example(lam=6.0, omega0=5.0)  # the longest G series of the box
@example(lam=0.05, omega0=0.1)  # the -1 sector's lowest x is past the pole at 0
@example(lam=3.0, omega0=0.1)  # both lowest x within 1e-4 below the pole at 0; gap 1.5e-9: +1
@example(lam=3.0, omega0=1e-3)  # the +1 sector's x, -7.2e-9, within the check window of the pole
@example(lam=1.0, omega0=1e-12)  # both zeros nearer the pole than the window: degenerate
@example(lam=0.5, omega0=0.0)  # no pole terms: x = 0 in both sectors, exactly
@example(lam=6.0, omega0=0.0)
@example(lam=0.05, omega0=5e-324)  # the zeros sit closer to the pole than any float
def test_sector_energies_are_the_lowest_zeros_of_braaks_g(lam, omega0):
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=lam, omega0=omega0))
    energies = _sector_energies(sol)
    for parity, energy in energies.items():
        sign = -parity  # G_- holds the +1 energies, G_+ the -1 energies
        delta = 1e-9 * max(1.0, abs(energy))
        x = energy + lam * lam
        assert brackets_an_eigenvalue(x - delta, x + delta, lam, omega0, sign), (parity, energy)
        # at omega0 = 0, G has no zero, and x >= -omega0 / 2 = 0 bounds every level
        assert sign_changes_below(x - delta, lam, omega0, sign) == [], (parity, energy)
    x = energies[sol.parity] + lam * lam
    tol = 1e-9  # solver.DEGENERACY_TOL times omega = 1
    if omega0 == 0.0:  # both parities hold x = 0: two displaced oscillators
        assert sol.parity_label == "degenerate"
    if sol.parity_label == "degenerate":  # both sectors' lowest zeros within tol of x
        for sign in (+1, -1):
            assert brackets_an_eigenvalue(x - tol, x + tol, lam, omega0, sign), (
                sign, sol.sector_gap)
    else:  # the other sector's lowest zero lies above x + tol
        assert sol.parity_label == f"{sol.parity:+d}"
        assert sign_changes_below(x + tol, lam, omega0, sol.parity) == [], sol.sector_gap
