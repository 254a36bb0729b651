"""Stationarity diagnostics: commutator residuals, force balance, bounds.

Every eigenstate kills the mean of d/dt A = i[H, A] and of the second
derivative [H, [H, A]], so those expectations are cheap necessary
conditions for "is this state a ground state".  Two second-derivative
relations get first-class treatment:

* kinetic balance (generator (q sigma_x)^2 = q^2):

      <p^2 / 2m> = (F0 / 2) <q sigma_x> + <m omega^2 q^2 / 2>

* force covariance (generator omega a^dag a):

      <F_q F_e> + <p dF_e/dt> + F0^2 = 0,
      F_q = -m omega^2 q,  F_e = -F0 sigma_x,  dF_e/dt = F0 omega0 sigma_y.

Both printed forms are verified in the test suite against the mechanical
double-commutator expansion (scale factors -m/4 and -m respectively).

Ground-state property bounds (all on definite-parity states):

* p1:  -omega0/2 - lam^2/omega <= E <= -omega0/2
* p2:  <sigma_z> = -p <cos(pi a^dag a)> and <sigma_z> <= 0
* p3:  <(a + a^dag) sigma_x> <= 0
* p4:  omega <n cos(pi n)> = -p omega <n sigma_z>, bounded (via the
  anticommutator identity omega <n sigma_z> = E <sigma_z> - omega0/2)
  by [-lam^2/omega, omega0/2] in sector +1 and the mirror image in
  sector -1.
* b2:  a two-sided bound on Var(q sigma_x) obtained by eliminating the
  energy between p1 and the kinetic balance; the additive constant is

      C = [-(omega0/2)(1 + <sigma_z>) - (3 F0/2) <q sigma_x>] / (m omega^2)
          - <q sigma_x>^2

* displaced-frame energy identity: with <n~> the number expectation in
  the frame displaced by -lam/omega,

      E = omega <n~> - lam^2/omega - (omega0/4) W(0,0),

  so |W| <= 2 bounds E - omega <n~> inside
  [-omega0/2 - lam^2/omega, +omega0/2 - lam^2/omega].

``literal_variants`` holds a report's p4, b2 and Wigner values against
the bounds as printed (|.| <= omega0, C with unscaled coefficients, the
center offset 2 lam^2/omega), a view the ``balance`` command adds on
request.  They fail on parts of the parameter plane; the verified forms
above are the authoritative ones.

``sector_report`` evaluates the whole suite on a real sector vector phi,
the ground state of a parity sector, by O(N) sums over phi with no
operator built.  The ``balance`` command prints it, and the sweep's
columns and the trial residuals are read from it.  Its numbers are those
of phi's spin-boson lift (``fock.embed_reduced_state``).
``oracle.full_report`` evaluates the same suite on any spin-boson state,
from dense ``np.kron`` observables; it is the reference in the tests.
Both work at the ``ModelParams`` they are given, in whose energy unit
every margin and tolerance below is read.

A bound's lam^2/omega is computed as lam (lam / omega), and it divides
by one power of omega at a time: omega^2 and omega^3 underflow to 0 at
omega = 2^-600, where the bounds themselves are finite.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .model import ModelParams, check_sector, sector_chain

BOUND_MARGIN = 1e-9
IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-7  # times s = max(1, |E|), or s^2 for a second commutator: report_passes


class BoundCheck(NamedTuple):
    """One scalar against an interval; ``None`` marks an unbounded side."""

    value: float
    lower: float | None
    upper: float | None
    satisfied: bool

    @property
    def margin(self) -> float:
        """Distance to the nearest violated edge (negative = violated)."""
        margins = []
        if self.lower is not None:
            margins.append(self.value - self.lower)
        if self.upper is not None:
            margins.append(self.upper - self.value)
        return min(margins) if margins else math.inf


def _bound(value: float, lower: float | None, upper: float | None,
           margin: float = BOUND_MARGIN) -> BoundCheck:
    ok = not math.isnan(value)  # NaN compares false against either edge
    if lower is not None and value < lower - margin:
        ok = False
    if upper is not None and value > upper + margin:
        ok = False
    return BoundCheck(float(value), lower, upper, ok)


def _identity(value: float) -> BoundCheck:
    return _bound(value, 0.0, 0.0, margin=IDENTITY_TOL)


class BalanceReport(NamedTuple):
    """Everything the balance suite knows about one state."""

    state_energy: float
    first_order: dict
    second_order: dict
    properties: dict


def _property_bounds(params: ModelParams, p: int, energy: float, sz: float, cos_pin: float,
                     x_sx: float, n_cos: float, n_sz: float) -> dict[str, BoundCheck]:
    """p1..p4 from <sigma_z>, <cos pi n>, <(a + a^dag) sigma_x>, <n cos pi n>, <n sigma_z>."""
    omega, omega0 = params.omega, params.omega0
    shift = params.lam * (params.lam / omega)  # lam^2 / omega
    checks = {
        "p1": _bound(energy, -0.5 * omega0 - shift, -0.5 * omega0),
        "p2_identity": _identity(sz + p * cos_pin),
        "p2_sign": _bound(sz, None, 0.0),
        "p3": _bound(x_sx, None, 0.0),
        "p4_identity": _identity(omega * (n_cos + p * n_sz)),
    }
    # Sector-aware bound from omega <n sigma_z> = E <sigma_z> - omega0/2.
    if p == +1:
        checks["p4"] = _bound(omega * n_cos, -shift, 0.5 * omega0)
    else:
        checks["p4"] = _bound(omega * n_cos, -0.5 * omega0, shift)
    return checks


def _b2_bound(params: ModelParams, var_qsx: float, c: float) -> BoundCheck:
    """Var(q sigma_x) in (1/2m omega)[1 - 2 lam^2/omega^2, 1] + c."""
    omega, lam = params.omega, params.lam
    spread = lam * (lam / omega) / omega / omega  # lam^2 / (m omega^3)
    return _bound(var_qsx, 0.5 / omega - spread + c, 0.5 / omega + c)


def _b2_constant(params: ModelParams, sz_up: float, q_sx: float) -> float:
    """C of b2 from 1 + <sigma_z> (``sz_up``) and <q sigma_x>."""
    omega, omega0 = params.omega, params.omega0
    return (-(0.5 * omega0) * sz_up - 1.5 * params.f0 * q_sx) / omega / omega - q_sx**2


def _wigner_band(params: ModelParams, value: float, shift: float) -> BoundCheck:
    return _bound(value, -0.5 * params.omega0 - shift, +0.5 * params.omega0 - shift)


def literal_variants(params: ModelParams, report: BalanceReport) -> dict[str, BoundCheck]:
    """p4, b2 and wigner_energy's values against the bounds as the paper prints them.

    The p4 band [-omega0, omega0]; the b2 constant -(1 + <sigma_z>) - 3 F0
    <q sigma_x> - <q sigma_x>^2 over m omega^2, with <sigma_z> from p2_sign
    and <q sigma_x> from p3; the Wigner band shifted by 2 lam^2/omega.
    The printed b2 constant is not homogeneous in omega, so ``params`` and
    ``report`` must be at the same omega: the ``balance`` command reads
    them at omega itself, not in units of omega.
    """
    props = report.properties
    omega, omega0 = params.omega, params.omega0
    q_sx = props["p3"].value / math.sqrt(2.0 * omega)  # p3 is <(a + a^dag) sigma_x>
    c = (-(1.0 + props["p2_sign"].value) - 3.0 * params.f0 * q_sx - q_sx**2) / omega / omega
    return {
        "p4_literal": _bound(props["p4"].value, -omega0, omega0),
        "b2_literal": _b2_bound(params, props["b2"].value, c),
        "wigner_energy_literal": _wigner_band(params, props["wigner_energy"].value,
                                              2.0 * params.lam * (params.lam / omega)),
    }


def report_passes(report: BalanceReport) -> bool:
    """All residuals below their tolerance and all bounds satisfied.

    With s = max(1, |E|), a first-order residual is read against
    RESIDUAL_TOL * s and a second-order one against RESIDUAL_TOL * s * s,
    as round-off in a double commutator grows with the square of the
    energy scale.  The printed variants of ``literal_variants``
    (``*_literal``) are not counted.
    """
    scale = max(1.0, abs(report.state_energy))
    residuals_ok = (all(r < RESIDUAL_TOL * scale for r in report.first_order.values())
                    and all(r < RESIDUAL_TOL * scale * scale
                            for r in report.second_order.values()))
    props_ok = all(
        chk.satisfied
        for name, chk in report.properties.items()
        if not name.endswith("_literal")
    )
    return residuals_ok and props_ok


def sector_report(phi, p: int, params: ModelParams, energy: float) -> BalanceReport:
    """The whole balance suite of a real sector vector, from O(N) sums over it.

    ``phi`` is a real unit vector of sector ``p`` (a list or tuple of
    floats); ``energy`` enters p1 and the report's scale.  The values are
    those ``oracle.full_report`` gives for the lift of phi, up to
    round-off, summed with ``math.fsum``.  On the lift, with x = a + a^dag
    and y = a^dag - a,

        <q> = <p> = <sigma_x> = <sigma_y> = 0   (parity-odd), so the force is 0,
        <sigma_z> = -p <cos pi n>,   <n sigma_z> = -p <n cos pi n>,
        <q sigma_x> = <x> / sqrt(2 m omega),
        <p sigma_y> = p sqrt(2 m omega) sum_k (-1)^k sqrt(k+1) phi_k phi_k+1,

    while <q^2> and <p^2> are the squared norms of q phi and p phi in the
    truncated space.  num, q sigma_x and sigma_z act on the sector as the
    real symmetric bands n, q and -p cos(pi n), so their first-order
    residuals vanish on a real phi; p sigma_x acts as i sqrt(m omega / 2) y,
    so its residual is sqrt(2 m omega) |H_p phi . y phi|.  The two
    second-order residuals are |<[H, [H, A]]>| = 2 |H_p phi . [H_p, A] phi|
    for A = q and omega n, with H_p the chain ``model.sector_chain``:

        [H_p, n] = -lam y,   [H_p, x] = omega y - omega0 p cos(pi n) x,

    in which the diagonal of H_p has cancelled; so omega_num is 2 omega lam
    times p_sigma_x's inner product.  b6 is 0, as (q sigma_x)^2 acts as q^2.
    The Wigner value E+ - omega <n~>, with E+ the sector +1 chain energy of
    phi whatever p is (``oracle.wigner_energy_bounds``), is -(omega0/2)
    <cos pi n> - lam^2/omega on any sector vector: its band is |<cos pi n>| <= 1.
    """
    p = check_sector(p)
    omega, lam, omega0 = params.omega, params.lam, params.omega0
    fsum = math.fsum
    roots = [math.sqrt(k) for k in range(1, len(phi))]
    sq = [v * v for v in phi]
    pairs = [r * u * v for r, u, v in zip(roots, phi, phi[1:])]  # sqrt(k+1) phi_k phi_k+1
    cos_pin = fsum([*sq[0::2], *(-w for w in sq[1::2])])
    n_cos = fsum([k * w if k % 2 == 0 else -k * w for k, w in enumerate(sq)])
    x_mean = 2.0 * fsum(pairs)
    alt_pairs = fsum([*pairs[0::2], *(-w for w in pairs[1::2])])
    # sqrt(n) phi_n-1 and sqrt(n+1) phi_n+1, the two halves of x phi, level by level
    up = [0.0, *(r * v for r, v in zip(roots, phi))]
    down = [*(r * v for r, v in zip(roots, phi[1:])), 0.0]
    x_phi = [u + d for u, d in zip(up, down)]
    y_phi = [u - d for u, d in zip(up, down)]
    x_sq = fsum([v * v for v in x_phi])  # |x phi|^2
    y_sq = fsum([v * v for v in y_phi])  # |y phi|^2

    scale = math.sqrt(2.0 * omega)
    f0 = params.f0
    q_sq = x_sq / (2.0 * omega)
    kinetic = 0.25 * omega * y_sq  # <p^2> / 2m, with <p^2> = (m omega / 2) y_sq
    q_sx = x_mean / scale
    p_sy = p * scale * alt_pairs
    sz = -p * cos_pin
    b1 = abs(kinetic - 0.5 * f0 * q_sx - 0.5 * omega * (omega * q_sq))
    # a zero p_sy (phi on one level) gives a zero term, not inf * 0 where f0 omega0 overflows
    b7 = abs(omega**2 * f0 * q_sx + (f0 * omega0 * p_sy if p_sy else 0.0) + f0 * f0)

    props = _property_bounds(params, p, energy, sz=sz, cos_pin=cos_pin, x_sx=x_mean,
                             n_cos=n_cos, n_sz=-p * n_cos)
    # 1 + <sigma_z> is twice the weight on the levels with sigma_z = (-1)^(n+1) p = +1,
    # summed without the cancellation of 1 - p <cos pi n> where <sigma_z> is near -1
    sz_up = 2.0 * fsum(sq[1::2] if p == +1 else sq[0::2])
    props["b2"] = _b2_bound(params, q_sq - q_sx * q_sx, _b2_constant(params, sz_up, q_sx))
    props["b6_identity"] = _identity(0.0)
    ratio = lam / omega
    wigner = -0.5 * omega0 * cos_pin - omega * ratio**2
    props["wigner_energy"] = _wigner_band(params, wigner, lam * ratio)

    diag, off = sector_chain(len(phi), params, p)
    below = [0.0, *map(mul, off, phi)]  # off_k-1 phi_k-1
    above = [*map(mul, off, phi[1:]), 0.0]  # off_k phi_k+1
    h_phi = [d * v + b + a for d, v, b, a in zip(diag, phi, below, above)]
    h_y = abs(fsum(map(mul, h_phi, y_phi)))
    comm_x = [omega * y - (omega0 * p if k % 2 == 0 else -omega0 * p) * x
              for k, (x, y) in enumerate(zip(x_phi, y_phi))]
    first = {
        "q": 0.0, "p": 0.0, "num": 0.0, "q_sigma_x": 0.0,
        "p_sigma_x": scale * h_y,
        "sigma_z": 0.0, "sigma_y": 0.0, "force": 0.0,
    }
    second = {
        "q_sigma_x": 2.0 / scale * abs(fsum(map(mul, h_phi, comm_x))),
        "omega_num": 2.0 * omega * lam * h_y,
        "b1": b1,
        "b7": b7,
    }
    return BalanceReport(state_energy=float(energy), first_order=first,
                         second_order=second, properties=props)
