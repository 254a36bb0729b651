"""Exact diagonalization of the Rabi model with truncation control.

The ground state is found per parity sector: each sector is the real
symmetric tridiagonal chain ``model.sector_chain`` (two N-level problems
instead of one complex 2N x 2N one), and ``_lowest_pair`` finds its
lowest eigenpair in O(N) Python arithmetic on lists of floats, with no
dense matrix, no BLAS call and no numpy.  The methods are textbook
(Parlett, *The Symmetric Eigenvalue Problem*: inverse iteration, ch. 4;
Sturm counts, ch. 7).

* A chain whose row sums leave the float range raises OverflowError
  before the solve.  Any other chain is scaled by a power of two to norm
  below 1, which is exact and keeps every square and pivot quotient in
  range.  It splits where a coupling is negligible (|b_i| <= eps
  sqrt|a_i a_i+1|, as in LAPACK), and each block is solved alone.
* Each iteration step is one LDL^T (Thomas) factor-and-solve of
  T - sigma I, whose negative pivots count the eigenvalues below sigma.
  Where sigma is an eigenvalue to working precision, the solve
  overflows; sigma then moves down by the certificate's half-width.
* A level starts from the level below, padded with zeros: its Rayleigh
  quotient is the energy below, an upper bound by interlacing.  From
  there Rayleigh-quotient iteration runs, and Sturm counts certify its
  result: no eigenvalue below E - m and exactly one below E + m, with
  m = 1e-9 max(|E|, 1e-3) in the scaled chain.  The first level starts
  from a coarse Sturm bisection instead.
* Where the certificate fails or a shift passes the second eigenvalue,
  the lowest eigenvalue is bisected to float resolution and iterated at
  a fixed shift at the bracket's lower end, where T - sigma I is
  positive definite; the result must lie in the bracket.  What neither
  path certifies raises EigDecompositionFailure.
* The energy is the Rayleigh quotient of the returned vector, summed
  exactly (``math.fsum``).

One doubling ladder solves both sectors at Fock dimension 16, 32, ...
until the global minimum moves by less than ``tol`` (or, where ``tol``
is below its rounding, by less than ROUNDING_ULPS ulps); a fixed ``dim``
is the same ladder over ``dim // 2`` and ``dim``.  Each sector's chain
is built once per solve and extended by the new levels' entries only,
and every level is solved once; the solution holds the winning
sector's eigenvector at the last level as a tuple of floats, ``phi``.
It caches no state: the ``QuantumState`` ``boson_state`` and its
spin-boson lift ``state`` are made from ``phi`` on each read, and only
they import ``fock``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import EigDecompositionFailure, NotConverged
from .model import ModelParams, sector_chain

if TYPE_CHECKING:
    from .fock import QuantumState

START_DIM = 16
MAX_DIM = 256
DEGENERACY_TOL = 1e-9  # sector gap, in units of omega, below which the ground is degenerate
ROUNDING_ULPS = 64  # a level change within this many ulps of E is rounding: converged

# The chain is scaled to norm below 1; the tolerances below are in that scale.
CERT_TOL = 1e-9  # certificate half-width m = CERT_TOL max(|E|, CERT_FLOOR)
CERT_FLOOR = 1e-3
RESIDUAL_TOL = 1e-13  # a unit x is converged once |T x - rho x| <= RESIDUAL_TOL |rho|
STEP_TOL = 1e-14  # or once the last step moved it by at most STEP_TOL
MAX_STEPS = 8  # inverse-iteration steps per attempt
COARSE = 2.0**-8  # relative width of the bisection that starts a level without a start
PIVOT_FLOOR = 2.0**-60  # smallest |pivot| of a shifted solve
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # a zero Sturm pivot counts as -_TINY


class GroundSolution(namedtuple("GroundSolution", "energy phi parity parity_label sector_gap "
                                                   "dim_used converged energy_delta")):
    """Converged (or best-effort) ground state of the full model, as a named tuple.

    ``parity`` is the sector of the returned representative; at
    degenerate points (sector gap < 1e-9 omega, e.g. omega0 = 0) the +1
    representative is returned and ``parity_label`` reads
    ``"degenerate"``.  ``phi`` is the real unit sector eigenvector as a
    tuple of floats, its entry of largest modulus positive.
    ``energy_delta`` is the last change under dimension doubling.
    ``boson_state`` (phi as a ``QuantumState``) and ``state`` (its lift
    to the spin-boson space) are made afresh on each read, for a library
    caller; nothing on the CLI path reads them.
    """

    __slots__ = ()

    @property
    def boson_state(self) -> QuantumState:
        from .fock import BOSON, QuantumState

        return QuantumState(self.phi, BOSON)

    @property
    def state(self) -> QuantumState:
        from .fock import embed_reduced_state

        return embed_reduced_state(self.boson_state, self.parity)


def _phase_fixed(vec: list) -> list:
    """vec, or -vec where its first entry of largest modulus is negative."""
    return vec if max(vec, key=abs) > 0.0 else [-v for v in vec]


class _Chain:
    """Symmetric tridiagonal T of norm below 1: diagonal ``a``, off-diagonal ``b`` (lists)."""

    def __init__(self, a: list, b: list):
        self.a, self.b = a, b
        self.a1 = a[1:]
        self.b2 = [x * x for x in b]

    def count(self, sigma: float) -> int:
        """Eigenvalues below sigma: the negative pivots of LDL^T = T - sigma I."""
        q = self.a[0] - sigma
        negatives = q <= 0.0
        for a, b2 in zip(self.a1, self.b2):
            q = a - sigma - b2 / (q or -_TINY)
            if q <= 0.0:
                negatives += 1
        return negatives

    def solve(self, sigma: float, x: list) -> tuple[list, int]:
        """(T - sigma I)^-1 x by LDL^T, and the number of negative pivots."""
        floor = PIVOT_FLOOR
        d = self.a[0] - sigma
        if -floor < d < floor:
            d = floor if d > 0.0 else -floor
        negatives = d < 0.0
        y = x[0]
        mults, zs = [], [y / d]  # L and D^-1 L^-1 x
        push_m, push_z = mults.append, zs.append
        for a, b, xi in zip(self.a1, self.b, x[1:]):
            m = b / d
            d = a - sigma - m * b
            if -floor < d < floor:
                d = floor if d > 0.0 else -floor
            negatives += d < 0.0
            y = xi - m * y
            push_m(m)
            push_z(y / d)
        w = zs.pop()
        out = [w]
        for m, z in zip(reversed(mults), reversed(zs)):
            w = z - m * w
            out.append(w)
        out.reverse()
        return out, negatives

    def iterate(self, x: list, shift: float, fixed: bool = False) -> list | None:
        """Inverse iteration from the vector x to a converged unit vector.

        The first step solves at ``shift``; later steps at the iterate's
        Rayleigh quotient rho, or at ``shift`` again when ``fixed``.  A
        step solves (T - sigma I) w = x; u = w / |w| has rho = sigma +
        (x.u) / |w| and residual |x - (x.u) u| / |w|.  u is converged
        when that residual is below RESIDUAL_TOL |rho| (relative, so that
        a level far below the chain's norm keeps its digits) or the step
        moved x by at most STEP_TOL.  A solve that overflows with at most
        one negative pivot has sigma on an eigenvalue to working precision:
        sigma moves down by the certificate's half-width and the step is
        solved again.  None when a shift passes the second eigenvalue, an
        iterate is not finite, or MAX_STEPS pass.
        """
        sigma = shift
        for _ in range(MAX_STEPS):
            w, negatives = self.solve(sigma, x)
            norm = math.sqrt(math.fsum(map(mul, w, w)))
            if norm == math.inf and negatives <= 1:
                sigma -= CERT_TOL * max(abs(sigma), CERT_FLOOR)
                w, negatives = self.solve(sigma, x)
                norm = math.sqrt(math.fsum(map(mul, w, w)))
            if negatives > 1 or not 0.0 < norm < math.inf:
                return None
            u = [v / norm for v in w]
            c = math.fsum(map(mul, x, u))
            r = [xi - c * ui for xi, ui in zip(x, u)]
            moved = math.sqrt(math.fsum(map(mul, r, r)))
            rho = sigma + c / norm
            if moved <= RESIDUAL_TOL * abs(rho) * norm or moved <= STEP_TOL:
                return u
            x = u
            if not fixed:
                sigma = rho
        return None

    def rayleigh(self, x: list) -> float:
        """Rayleigh quotient of x: products in floats, sums exact (``math.fsum``)."""
        num = math.fsum([a * xi * xi for a, xi in zip(self.a, x)]
                        + [2.0 * b * xi * xj for b, xi, xj in zip(self.b, x, x[1:])])
        return num / math.fsum(map(mul, x, x))

    def bisect(self, lo: float, hi: float, resolution: float) -> tuple[float, float]:
        """Sturm bisection of [lo, hi], no eigenvalue below lo and the lowest below hi.

        Halves until hi - lo <= resolution * max(|lo|, |hi|, CERT_FLOOR).
        """
        while hi - lo > resolution * max(-lo, hi, CERT_FLOOR):
            mid = 0.5 * (lo + hi)
            if self.count(mid) == 0:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def certified(self, x: list | None) -> tuple[float, list] | None:
        """(E, x) if no eigenvalue lies below E - m and exactly one below E + m."""
        if x is None:
            return None
        energy = self.rayleigh(x)
        m = CERT_TOL * max(abs(energy), CERT_FLOOR)
        if self.count(energy - m) == 0 and self.count(energy + m) == 1:
            return energy, x
        return None

    def lowest(self, x: list | None, shift: float) -> tuple[float, list] | None:
        """Lowest eigenpair, first by Rayleigh-quotient iteration from x at ``shift``.

        Then from a coarse Sturm bracket, and last from one at float
        resolution with a fixed shift at its lower end.  The alternating
        vector overlaps every lowest eigenvector of a chain with b >= 0.
        """
        found = self.certified(self.iterate(x, shift)) if x is not None else None
        if found is None:
            n = len(self.a)
            alternating = ([1.0 / math.sqrt(n), -1.0 / math.sqrt(n)] * n)[:n]
            # Gershgorin's lower bound, and the least diagonal entry (a
            # Rayleigh quotient), widened by the certificate's least m
            b = [0.0, *map(abs, self.b), 0.0]
            lo = min([a - left - right for a, left, right in zip(self.a, b, b[1:])])
            margin = CERT_TOL * CERT_FLOOR
            lo, hi = self.bisect(lo - margin, min(self.a) + margin, COARSE)
            found = self.certified(self.iterate(alternating, lo))
        if found is None:
            lo, hi = self.bisect(lo, hi, _EPS)
            x = self.iterate(alternating, lo, fixed=True)
            if x is not None:
                energy = self.rayleigh(x)
                m = CERT_TOL * max(abs(energy), CERT_FLOOR)
                if lo - m <= energy <= hi + m:
                    found = energy, x
        return found


def _lowest_pair(a: list, b: list,
                 start: tuple[float, list] | None = None) -> tuple[float, list]:
    """Certified lowest eigenpair of the chain with diagonal ``a`` and off-diagonal ``b``.

    ``start`` is the lowest pair of a leading block of the chain (the
    level below); its vector, padded with zeros, starts the iteration at
    its energy.
    """
    n = len(a)
    bound = max(map(abs, a)) + 2.0 * max(map(abs, b), default=0.0)
    if not math.isfinite(bound):  # then bound by the row sums themselves
        pad = [0.0, *map(abs, b), 0.0]
        bound = max([(left + abs(d)) + right for d, left, right in zip(a, pad, pad[1:])])
        if not math.isfinite(bound):
            raise OverflowError(f"{n}-level matrix has row sums beyond the float range")
    exp = math.frexp(bound)[1]
    scale = math.ldexp(1.0, -exp)  # a power of two: the scaled chain is exact
    a, b = [v * scale for v in a], [v * scale for v in b]
    x = [0.0] * n
    if start is not None:
        x[:len(start[1])] = start[1]
    # A coupling below eps sqrt|a_i a_i+1| is negligible, as in LAPACK's
    # tridiagonal solvers: the chain splits there, and each block is solved
    # alone, which keeps the relative accuracy of a decoupled level.  (As
    # |a_i| < 1, the first test screens out the common case; the scan runs
    # only where the smallest coupling passes it, as c * c grows with |c|.)
    tiny = _EPS * _EPS
    least = min(map(abs, b), default=0.0)
    cuts = [] if least * least > tiny else [
        i + 1 for i, c in enumerate(b) if c * c <= tiny and c * c <= tiny * abs(a[i] * a[i + 1])]
    best = None
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if hi - lo == 1:
            found = a[lo], [1.0]
        else:
            block = x[lo:hi] if any(x[lo:hi]) else None
            shift = None if block is None else math.ldexp(start[0], -exp)
            found = _Chain(a[lo:hi], b[lo:hi - 1]).lowest(block, shift)
            if found is None:
                raise EigDecompositionFailure(
                    f"{n}-level chain: no lowest eigenpair passed the Sturm certificate"
                )
        if best is None or found[0] < best[0]:
            best, where = found, lo
    vec = [0.0] * n
    vec[where:where + len(best[1])] = best[1]
    return math.ldexp(best[0], exp), _phase_fixed(vec)


def _doubling(params: ModelParams, tol: float, dims: Iterable[int]):
    """Solve both sectors at each of ``dims`` until the energy moves < ``tol``.

    Where ``tol`` is below the rounding of E (|E| above about 1e4 at the
    default 1e-10), a move under ROUNDING_ULPS ulps of E also stops the
    ladder: a converged energy still wobbles by an ulp or two per level.

    Returns the rows (dim, energy, delta) of the levels solved, where
    energy is the lower sector energy and delta is nan on the first row;
    the two sector ground pairs of the last level; and whether it
    converged.
    """
    rows: list[tuple[int, float, float]] = []
    sectors: dict[int, tuple[float, list] | None] = {+1: None, -1: None}
    chains = {p: ([], []) for p in (+1, -1)}  # each sector's chain, extended level by level
    built = 0
    previous = math.nan
    for dim in dims:
        for p, (a, b) in chains.items():
            more_a, more_b = sector_chain(dim, params, p, built)
            a += more_a
            b += more_b
        built = dim
        sectors = {p: _lowest_pair(a, b, start=sectors[p]) for p, (a, b) in chains.items()}
        energy = min(e for e, _ in sectors.values())
        rows.append((dim, energy, energy - previous))
        if abs(energy - previous) < max(tol, ROUNDING_ULPS * math.ulp(energy)):
            return rows, sectors, True
        previous = energy
    return rows, sectors, False


def _doubled_dims(max_dim: int) -> Iterator[int]:
    """16, 32, 64, ... up to ``max_dim``."""
    dim = START_DIM
    while dim <= max_dim:
        yield dim
        dim *= 2


def _solution(omega: float, rows, sectors, converged: bool) -> GroundSolution:
    dim, _, delta = rows[-1]
    e_plus, phi_plus = sectors[+1]
    e_minus, phi_minus = sectors[-1]
    gap = e_minus - e_plus
    if abs(gap) < DEGENERACY_TOL * omega:  # H -> cH keeps the label
        # degenerate pair: report the +1 representative
        parity, label = +1, "degenerate"
        energy, phi = e_plus, phi_plus
    elif e_plus <= e_minus:
        parity, label = +1, "+1"
        energy, phi = e_plus, phi_plus
    else:
        parity, label = -1, "-1"
        energy, phi = e_minus, phi_minus
    return GroundSolution(
        energy=energy,
        phi=tuple(phi),
        parity=parity,
        parity_label=label,
        sector_gap=gap,
        dim_used=dim,
        converged=converged,
        energy_delta=delta,
    )


def solve_rabi_ground(
    params: ModelParams,
    tol: float = 1e-10,
    dim: int | None = None,
) -> GroundSolution:
    """Ground state of the full model with truncation convergence check.

    With ``dim=None`` the Fock dimension doubles from 16 until the
    global ground energy changes by less than ``tol``, up to ``MAX_DIM``; otherwise the
    problem is solved at the fixed ``dim`` and the convergence check
    compares against ``dim // 2``.  Raises NotConverged (carrying the
    best-effort solution) when the budget is exhausted.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if dim is not None and dim < 4:
        raise ValueError(f"fixed dim must be >= 4, got {dim}")
    dims = _doubled_dims(MAX_DIM) if dim is None else (dim // 2, dim)
    sol = _solution(params.omega, *_doubling(params, tol, dims))
    if not sol.converged:  # each ladder ends on a doubling: the last two dims are d // 2 and d
        raise NotConverged(
            f"not converged to {tol:.1e}: energy moved by {sol.energy_delta:.3e} "
            f"between dim {sol.dim_used // 2} and {sol.dim_used}",
            solution=sol,
        )
    return sol


def convergence_table(
    params: ModelParams,
    tol: float = 1e-10,
    max_dim: int = MAX_DIM,
) -> tuple[list[tuple[int, float, float]], bool]:
    """Dimension-doubling trace: rows (dim, energy, delta), plus success flag.

    The first row has delta = nan.  Doubling stops at the first delta
    below ``tol`` or once ``max_dim`` is exceeded.
    """
    rows, _, converged = _doubling(params, tol, _doubled_dims(max_dim))
    return rows, converged
