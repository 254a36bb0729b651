import math
import os

# The dense oracles diagonalize with numpy's eigh; with more than one BLAS
# thread its workers spin on every core and a test slows sharply whenever
# another process holds one.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rabi_balance.fock import BOSON, QuantumState, SPIN_BOSON


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def padded_random_state(rng, dim, support, kind=SPIN_BOSON):
    """Random state whose amplitude lives on the leading ``support`` entries.

    Operators built at ``dim`` act exactly on such states (no truncation
    edge effects), which is what lets commutator identities hold to
    machine precision in tests.
    """
    v = np.zeros(dim, dtype=complex)
    v[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return QuantumState.from_vector(v, kind)


def coherent_vector(dim, beta):
    """Analytic coherent-state amplitudes e^{-b^2/2} b^n / sqrt(n!)."""
    facs = np.array([math.factorial(n) for n in range(dim)], dtype=float)
    return np.exp(-beta**2 / 2.0) * beta ** np.arange(dim) / np.sqrt(facs)
