"""Every command's output is covariant under a change of the unit of energy.

H(c omega, c lam, c omega0) = c H, so at the point (lam, omega0) = omega
(g, Delta) each printed quantity is omega^k times its value at omega = 1,
with k from ``cli.OMEGA_POWERS``, and every verdict and exit code is the
one at omega = 1.  The commands compute in units of omega and scale only
what they print, so this holds bit for bit at powers of two, far beyond
where omega^k itself leaves the float range; a value beyond it prints as
null.  At 1e-6 and 1e6, where lam / omega rounds, the verdicts and exit
codes are compared.  ``test_balance`` checks the table against the dense
physical oracle.  ``balance --paper-literal`` is left out: the paper's
printed b2 constant is not homogeneous in omega, so its band is read at
omega itself and is not covariant.
"""

import pytest

from rabi_balance.cli import main

from conftest import assert_covariant, printed

UNIT_POINTS = [(0.5, 1.0), (2.0, 0.5), (6.0, 1.0), (1.0, 0.0), (3.0, 0.7), (1.7, 2.3),
               (0.0, 3.0)]
COMMANDS = {
    "solve": ["solve", "--format", "json"],
    "balance": ["balance"],
    "variational": ["variational"],
    "sweep": ["sweep", "--format", "json", "--jobs", "1"],
    "converge": ["converge"],
}
POWERS_OF_TWO = (-600, -40, 40, 600)
DECADES = (-6, 6)


def _run(capsys, command, omega, lam, omega0):
    code = main([*COMMANDS[command], "--omega", omega, "--lambda", lam, "--omega0", omega0])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, printed(captured.out)


@pytest.mark.parametrize("point", UNIT_POINTS, ids=lambda pt: f"{pt[0]}-{pt[1]}")
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_is_covariant_under_the_unit_of_energy(capsys, command, point):
    g, delta = point
    unit_code, unit = _run(capsys, command, "1.0", repr(g), repr(delta))
    for e in POWERS_OF_TWO:
        omega = 2.0**e
        code, out = _run(capsys, command, repr(omega), repr(g * omega), repr(delta * omega))
        assert code == unit_code, e
        assert_covariant(out, unit, omega, "exact", path=(e,))
    for e in DECADES:  # lam / omega and omega0 / omega round: the verdicts agree
        code, out = _run(capsys, command, f"1e{e}", f"{g!r}e{e}", f"{delta!r}e{e}")
        assert code == unit_code, e
        assert_covariant(out, unit, float(f"1e{e}"), None, path=(e,))
