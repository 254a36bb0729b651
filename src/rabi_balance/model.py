"""Rabi-model parameters, the conserved parity, and sector reduction.

The full Hamiltonian on the spin-boson space (index ``i = 2 n + s``) is

    H = omega a^dag a  +  lam (a + a^dag) sigma_x  +  (omega0 / 2) sigma_z

with omega > 0, lam >= 0, omega0 >= 0.  It commutes with the parity

    P = -sigma_z cos(pi a^dag a),

so each eigenstate lives in a sector p = +1 or p = -1.  Within sector p
the model reduces to a boson-only operator

    H_p = omega a^dag a + lam (a + a^dag) - (omega0 / 2) p cos(pi a^dag a)

whose eigenvector phi lifts back to the full space as

    (1/sqrt 2) ( phi |+>_x  -  p cos(pi a^dag a) phi |->_x ),

i.e. the spin of the Fock component n is slaved to sigma_z = (-1)^(n+1) p.
That lift, its inverse and the sector inferred from <P> are numpy
arrays and live in ``fock``; the Pauli matrices, like every operator,
live in ``oracle``.

In oscillator variables, with the oscillator mass m = 1 throughout (the
balance relations carry a fixed power of m, as of omega), the position is
q = (a + a^dag) / sqrt(2 m omega) and the coupling strength is
F0 = sqrt(2 m omega) lam, so that F0 q = lam (a + a^dag) identically.

H(omega, lam, omega0) = omega H(1, lam / omega, omega0 / omega)
(Braak, PRL 107, 100401 (2011)): ``ModelParams.unit`` gives that model in
units of omega, on which the commands compute.

``sector_chain`` gives H_p as two lists of floats, computed entry by
entry in Python; the solver takes them as they are.  This module imports
no numpy, so neither do the solver and the balance report that build on
it.
"""

from __future__ import annotations

import math
from collections import namedtuple


def checked_make(cls, iterable):
    """A checked record's ``_make``, which ``_replace`` calls: namedtuple's skips ``__new__``."""
    return cls(*iterable)


class ModelParams(namedtuple("ModelParams", "omega lam omega0")):
    """Model parameters: the frequency omega, the coupling lam and the splitting omega0.

    A named tuple whose fields are checked when it is made.  Negative lam
    is rejected: the spectrum is invariant under lam -> -lam (conjugation
    by boson parity), so the parameter plane stays two-dimensional.
    """

    __slots__ = ()

    def __new__(cls, omega: float, lam: float, omega0: float):
        if not omega > 0.0:
            raise ValueError(f"omega must be > 0, got {omega}")
        if lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        if omega0 < 0.0:
            raise ValueError(f"omega0 must be >= 0, got {omega0}")
        self = super().__new__(cls, omega, lam, omega0)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        return self

    _make = classmethod(checked_make)

    @property
    def f0(self) -> float:
        """Static force amplitude sqrt(2 m omega) lam."""
        return math.sqrt(2.0 * self.omega) * self.lam

    def unit(self) -> ModelParams:
        """The model in units of omega, (1, lam / omega, omega0 / omega)."""
        ratios = self.lam / self.omega, self.omega0 / self.omega
        for name, ratio in zip(("lam", "omega0"), ratios):
            if ratio == math.inf:
                raise OverflowError(f"{name} / omega is beyond the float range")
        return ModelParams(1.0, *ratios)


def check_sector(sector: int) -> int:
    if sector not in (+1, -1):
        raise ValueError(f"parity sector must be +1 or -1, got {sector!r}")
    return int(sector)


def sector_chain(dim: int, params: ModelParams, sector: int,
                 start: int = 0) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of the real symmetric chain H_p on levels 0..dim-1.

    With ``start`` > 0, only what levels start..dim-1 add to the chain on
    levels 0..start-1: their diagonal entries and the couplings that reach
    them, so that the two extend the shorter chain to the longer one.
    The number operator enters as the product sqrt(n) sqrt(n), as in
    ``fock``, so every entry equals that of the complex ladder algebra.
    An entry beyond the float range is inf; the solver rejects that chain.
    """
    p = check_sector(sector)
    roots = [math.sqrt(n) for n in range(start or 1, dim)]
    half = 0.5 * params.omega0 * p  # (omega0 / 2) p cos(pi n) is +half at even n
    squares = [r * r for r in roots] if start else [0.0, *(r * r for r in roots)]
    diag = [params.omega * num - (-half if n % 2 else half)
            for n, num in enumerate(squares, start)]
    return diag, [params.lam * r for r in roots]
