"""Braak's G-function: the Rabi spectrum of each parity with no Fock truncation.

Braak (*Integrability of the Rabi Model*, PRL 107, 100401 (2011)) writes
the regular spectrum of H = omega a^dag a + g (a + a^dag) sigma_x
+ Delta sigma_z at omega = 1 as the zeros x = E + g^2 of

    G_s(x) = sum_n K_n(x) [1 - s Delta / (x - n)] g^n,        s = +1 or -1,
    K_0 = 1,  K_1 = f_0,  n K_n = f_{n-1} K_{n-1} - K_{n-2},
    f_n(x) = 2 g + (n - x + Delta^2 / (x - n)) / (2 g),

with g = lam and Delta = omega0 / 2 in this package's terms.  The zeros
of G_- are the package's parity +1 energies and those of G_+ its parity
-1 energies.  G has a pole at each integer x >= 0, and its terms decay
geometrically once n passes x + 4 g^2 or so.  At Delta = 0 every pole
term vanishes: G has no pole and no zero, and the spectrum is that of two
displaced oscillators, x = n in both parities, Braak's exceptional
eigenvalues.  Standard library only.
"""

import math

STEPS_PER_UNIT = 64  # scan samples per unit of x between G's poles


def g_function(x: float, lam: float, omega0: float, sign: int) -> float:
    """G_sign(x) at omega = 1, for lam > 0 and x not a nonnegative integer unless omega0 = 0.

    The running term t_n = K_n g^n obeys n t_n = g f_{n-1} t_{n-1} - g^2 t_{n-2},
    which keeps K_n's growth and g^n's decay from overflowing apart.  At
    Delta = 0 the pole terms Delta / (x - n) and Delta^2 / (x - n) are 0,
    also at x = n, where the quotient would be 0 / 0.
    """
    delta = 0.5 * omega0
    terms = int(max(x, 0.0) + 4.0 * lam * lam) + 100
    previous, term = 0.0, 1.0
    total = []
    for n in range(terms):
        pole, shift = (delta / (x - n), delta * delta / (x - n)) if delta else (0.0, 0.0)
        total.append(term * (1.0 - sign * pole))
        f_n = 2.0 * lam + (n - x + shift) / (2.0 * lam)
        previous, term = term, (lam * f_n * term - lam * lam * previous) / (n + 1)
    return math.fsum(total)


def brackets_an_eigenvalue(lo: float, hi: float, lam: float, omega0: float, sign: int) -> bool:
    """Whether (x - n) G_sign(x) changes sign between lo and hi, n the pole nearest them.

    For hi - lo < 1 at most one pole of G, n, lies between them, and it is
    simple, so the factor takes it out: a sign change brackets a zero of
    G, a regular eigenvalue, or x = n where G's residue there vanishes,
    Braak's exceptional one.  At Delta = 0 every x = n is one.  As Delta
    falls to 0, the lowest zero of each G closes in on the pole at 0
    (to within about Delta exp(-2 g^2)); where floats cannot part them,
    the product still changes sign once, as it does in the limit.
    """
    n = max(0, round(0.5 * (lo + hi)))  # G's poles are the integers x >= 0
    below = (lo - n) * g_function(lo, lam, omega0, sign)
    above = (hi - n) * g_function(hi, lam, omega0, sign)
    return (below < 0.0) != (above < 0.0)


def sign_changes_below(x_end: float, lam: float, omega0: float, sign: int) -> list[float]:
    """Where G_sign changes sign on [-omega0 / 2, x_end], scanned between its poles.

    Every energy is at least -omega0/2 - lam^2, so every zero of G lies at
    x >= -omega0/2.  The interval is cut at the integers, G's poles, and
    each piece is sampled at a step of at most 1 / STEPS_PER_UNIT, at
    its ends but never at a pole.  Toward a pole the samples close in
    geometrically, down to 2^-40 of a step from it, since a zero can sit
    next to one: at strong coupling the lowest x is about -(omega0 / 2)
    exp(-2 lam^2), just below the pole at 0.  A sign change between two
    samples of one piece brackets a zero.  Returns the left sample of each
    change: none means no eigenvalue of that parity up to x_end, the
    G-function's form of a Sturm count (up to zero pairs closer than the
    samples).
    """
    lo = -0.5 * omega0
    cuts = [float(n) for n in range(max(0, math.ceil(lo)), math.ceil(x_end))
            if lo < n < x_end]
    found = []
    for a, b in zip([lo, *cuts], [*cuts, x_end]):
        count = max(2, math.ceil((b - a) * STEPS_PER_UNIT))
        step = (b - a) / count
        near = [step * 2.0**-j for j in range(1, 41)]  # descending
        xs = ([a + d for d in reversed(near)] if a in cuts else [a]) + [
            a + step * k for k in range(1, count)] + (
            [b - d for d in near] if b in cuts else [b])
        values = [g_function(x, lam, omega0, sign) for x in xs]
        found += [x for x, u, v in zip(xs, values, values[1:]) if (u < 0.0) != (v < 0.0)]
    return found
