"""The lowest eigenpair of a float chain to 60 digits, from ``decimal``.

The solver finds the lowest eigenpair of a parity sector's chain
``model.sector_chain``: a real symmetric tridiagonal matrix of floats.
This oracle takes the same floats, each exact as a ``Decimal``, and works
at 70 significant digits (Parlett, *The Symmetric Eigenvalue Problem*,
chs. 4 and 7):

* Sturm bisection from the chain's Gershgorin bracket, until the bracket
  of the lowest eigenvalue is narrower than 1e-60 of its ends' magnitude
  (so that eigenvalue must not be 0);
* then 3 steps of inverse iteration at the bracket's lower end, where
  T - sigma I is positive definite, from the ones vector, each step one
  Thomas (LDL^T) solve.

Standard library only, as ``braak``.  A chain of 32 levels takes a few
milliseconds, one of 256 a few tens.
"""

from decimal import Decimal, localcontext

DIGITS = 70
WIDTH = Decimal("1e-60")  # the bisection's relative bracket width
STEPS = 3  # inverse-iteration steps
_TINY = Decimal("1e-300")  # a zero pivot counts as -_TINY, as in the solver


def _pivots(diag, off, sigma):
    """The LDL^T pivots of T - sigma I and the multipliers l_k = off_k / pivot_k."""
    pivots, mults = [diag[0] - sigma], []
    for a, b in zip(diag[1:], off):
        d = pivots[-1] or -_TINY
        mults.append(b / d)
        pivots.append(a - sigma - mults[-1] * b)
    return pivots, mults


def _count_below(diag, off, sigma) -> int:
    """How many eigenvalues of the chain lie below sigma: its negative pivots."""
    return sum(1 for d in _pivots(diag, off, sigma)[0] if d < 0 or not d)


def _normalized(vec):
    norm = sum(v * v for v in vec).sqrt()
    return [v / norm for v in vec]


def lowest_pair(diag: list[float], off: list[float]) -> tuple[Decimal, list[Decimal]]:
    """(E, x) of the chain: its lowest eigenvalue and unit eigenvector, largest entry positive."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a = [Decimal(v) for v in diag]
        b = [Decimal(v) for v in off]
        reach = [abs(u) + abs(v) for u, v in zip([Decimal(0), *b], [*b, Decimal(0)])]
        lo = min(x - r for x, r in zip(a, reach))
        hi = max(x + r for x, r in zip(a, reach))
        while hi - lo > WIDTH * max(abs(lo), abs(hi)):
            mid = (lo + hi) / 2
            if _count_below(a, b, mid):
                hi = mid
            else:
                lo = mid
        pivots, mults = _pivots(a, b, lo)
        x = [Decimal(1)] * len(a)
        for _ in range(STEPS):
            z = [x[0]]  # forward: L z = x
            for m, v in zip(mults, x[1:]):
                z.append(v - m * z[-1])
            y = [z[-1] / pivots[-1]]  # backward: D L^T y = z
            for m, v, d in zip(reversed(mults), reversed(z[:-1]), reversed(pivots[:-1])):
                y.append(v / d - m * y[-1])
            x = _normalized(y[::-1])
        if max(x, key=abs) < 0:
            x = [-v for v in x]
        return (lo + hi) / 2, x
