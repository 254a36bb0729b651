import csv
import json
import math
import os
from decimal import Decimal, localcontext

# The dense oracles diagonalize with numpy's eigh; with more than one BLAS
# thread its workers spin on every core and a test slows sharply whenever
# another process holds one.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rabi_balance.fock import BOSON, QuantumState, SPIN_BOSON
from rabi_balance.cli import OMEGA_POWERS


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


def _value(text):
    try:
        return float(text)
    except ValueError:
        return text


def printed(text):
    """A command's output as data: JSON parsed, else ``key = value`` lines or CSV rows.

    A text or CSV value is a float where it parses as one, else its text.
    """
    if text.startswith(("{", "[")):
        return json.loads(text)
    lines = text.splitlines()
    if " = " in lines[0]:
        return {key: _value(val) for key, val in (line.split(" = ", 1) for line in lines)}
    return [{key: _value(val) for key, val in row.items()} for row in csv.DictReader(lines)]


# the given point, printed as given: omega, lam and omega0 in JSON, their columns in CSV
GIVEN = ("params", "omega", "lambda", "omega0")


def times_omega(value, omega, k):
    """value omega**k, exactly in decimal and rounded once to a float (inf beyond the range)."""
    with localcontext() as ctx:
        ctx.prec = 1500  # every digit of 2**-1800 and of a float times it
        exact = Decimal(value) * Decimal(omega) ** int(k)
        if k % 1:
            exact *= Decimal(omega).sqrt()
        return float(exact)


def assert_covariant(got, unit, omega, floats="exact", k=0, path=()):
    """``got``, printed at ``omega``, is ``unit``, printed in units of omega, at ``omega``.

    Every verdict (a bool or a text) is equal.  With ``floats`` "exact",
    so is every count, and each float is omega**k times the unit one, k
    from ``cli.OMEGA_POWERS`` by its key, bit for bit, or null (JSON) or
    inf (CSV) where that overflows; "close" compares the floats to 1e-12;
    None compares verdicts only.  The given point itself is not compared.
    """
    if isinstance(unit, dict):
        assert list(got) == list(unit), path
        for key in unit:
            if key not in GIVEN:
                assert_covariant(got[key], unit[key], omega, floats, OMEGA_POWERS.get(key, k),
                                 (*path, key))
    elif isinstance(unit, list):
        assert len(got) == len(unit), path
        for i, (have, want) in enumerate(zip(got, unit)):
            assert_covariant(have, want, omega, floats, k, (*path, i))
    elif isinstance(unit, float) or type(unit) is int:
        if floats is None:
            return
        want = times_omega(unit, omega, k) if math.isfinite(unit) else unit
        if not math.isfinite(want):
            assert got is None or repr(got) == repr(want), (path, got, want)
        elif floats == "exact":
            assert repr(got) == repr(type(unit)(want)), (path, got, want)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (path, got, want)
    else:
        assert got == unit, path
