"""A bounded fuzz of ``cli.main`` with hostile flags and config files.

Whatever the input, a command exits 0, 1 or 2, writes at most one line
to stderr, raises nothing and leaves no ``*.tmp`` file behind.  The
suite turns a numpy ``RuntimeWarning`` into an error, so a warning on
the way to the exit code fails here too.  Every example runs in a fresh
directory, and no drawn path holds a separator, so a config's ``out``
stays inside it.  Grids have at most 9 points and at most 2 workers.
Each command mostly gets only the options it reads, so that about half
the examples get past option checking, and the test asserts a floor on
how many do; about one in 16 adds an option the command does not read.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_balance.cli import main

COMMANDS = ("solve", "balance", "variational", "sweep", "converge")
# the options each command reads besides omega, lambda, omega0, dim, tol and out
OWN_KEYS = {"solve": ("format",), "balance": ("paper_literal",), "sweep": ("format", "jobs")}
FOREIGN_FLAGS = {"format": "--format=json", "jobs": "--jobs=1",
                 "paper_literal": "--paper-literal"}
DECADES = ("0", "5e-324", "1e-300", "1e-8", "0.5", "1", "3", "1e8", "1e100", "1e300",
           "1.7e308")
MALFORMED = ("", "-1", "nan", "inf", "-inf", "1e999", "zebra", "0x10", "0:1", "0:1:2.5",
             "a:b:2", "1:2:3:4", "auto")

decade = st.sampled_from(DECADES)
ends = st.tuples(decade, decade)
range_text = st.builds("{0[0]}:{0[1]}:{1}".format,
                       ends.map(lambda e: sorted(e, key=float)) | ends,  # mostly min <= max
                       st.sampled_from((1, 2, 3, 0, -1)))
axis_text = st.one_of(decade, range_text)

json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.just(10**30),
                      st.floats(allow_nan=False), st.text("ab01:.-e", max_size=6))
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=3),
                                                                inner, max_size=3),
    max_leaves=6,
)
config_axis = st.one_of(decade.map(float), range_text)  # a config value is its flag's text


def _mostly(draw, good, bad, rate=16):
    """A draw from ``good``, or about one time in ``rate`` from ``bad``."""
    return draw(draw(st.sampled_from([good] * (rate - 1) + [bad])))


@st.composite
def config_files(draw, own):
    if draw(st.sampled_from((False, False, False, True))):
        return draw(json_value)  # most likely not an object, or with unknown keys
    config = {}
    for key, good in (("omega", config_axis), ("lambda", config_axis), ("omega0", config_axis),
                      ("dim", st.sampled_from(("auto", 4, 16))), ("tol", st.just(1e-6)),
                      ("format", st.sampled_from(("csv", "json"))), ("out", st.just("o.txt")),
                      ("paper_literal", st.booleans())):
        if draw(st.booleans()):
            config[key] = _mostly(draw, good, json_value)
    if _mostly(draw, st.just(False), st.just(True)):
        config["seed"] = 1
    return {key: val for key, val in config.items() if key in own or key not in FOREIGN_FLAGS}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    own = OWN_KEYS.get(command, ())
    argv = [command]
    # ranges are for sweep; a single-point command rejects them
    axis = axis_text if command == "sweep" else _mostly(draw, st.just(decade), st.just(axis_text))
    for flag, rate in (("--omega", 2), ("--lambda", 16), ("--omega0", 16)):
        if _mostly(draw, st.just(True), st.just(False), rate):
            value = _mostly(draw, axis, st.sampled_from(MALFORMED))
            argv.append(f"{flag}={value}")
    options = []  # (config key, flag)
    for flag, good, bad in (("--dim", ("auto", "4", "16", "32"), ("3", "x", "70000", str(10**20))),
                            ("--tol", ("1e-10", "1e-3"), ("0", "nan", "inf", "-1", "x")),
                            ("--format", ("csv", "json"), ("xml",)),
                            ("--out", ("out.txt",), ("missing/out.txt", "."))):
        if draw(st.booleans()):
            value = _mostly(draw, st.sampled_from(good), st.sampled_from(bad))
            options.append((flag[2:], f"{flag}={value}"))
    # kept for sweep alone, whose flag wins over a config's jobs: never more than 2 workers
    options.append(("jobs", "--jobs=" + _mostly(draw, st.sampled_from(("1", "2")),
                                                 st.sampled_from(("0", "x")))))
    if draw(st.booleans()):
        options.append(("paper_literal", "--paper-literal"))
    # each option is drawn for every command, in one order, and dropped where
    # the command does not read it
    argv += [arg for key, arg in options if key in own or key not in FOREIGN_FLAGS]
    config = draw(st.none() | st.none() | config_files(own))
    if _mostly(draw, st.just(False), st.just(True)):
        foreign = [key for key in FOREIGN_FLAGS if key not in own]
        argv.append(FOREIGN_FLAGS[draw(st.sampled_from(foreign))])
    return argv, config


def _exit_code(case):
    """Run one drawn case in a fresh directory, check it and return its exit code."""
    argv, config = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if config is not None:
                with open("config.json", "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
                argv = argv + ["--config", "config.json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            left = [name for _, _, names in os.walk(work) for name in names
                    if name.endswith(".tmp")]
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), (argv, config, lines)
    assert left == [], argv
    return code


EXAMPLES = 200
# Examples that get past option checking (exit 0 or 2, not 1): 98 of the
# 200 derandomized examples with hypothesis 6.155.  The floor sits 28 below,
# so that another hypothesis release may shift the draws, while a draw that
# lets most examples die on a usage error fails here.
REACH_FLOOR = 70


def test_cli_main_exits_cleanly_on_any_input():
    codes = []

    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)
    @given(argvs())
    def run(case):
        codes.append(_exit_code(case))

    run()
    assert len(codes) == EXAMPLES
    reached = sum(code != 1 for code in codes)
    assert reached >= REACH_FLOOR, f"{reached} of {EXAMPLES} examples got past option checking"


# A fixed scan of the decades the draws above miss: at omega 1e-300 and
# lambda 1e160 a balance sum meets -inf and inf.  Every input is valid, so
# none is a usage error.
SCAN = (("1e-300", "1", "1e300"), ("0", "1e154", "1e160", "1e300"), ("0", "1e160"))


@pytest.mark.parametrize("command", ["balance", "variational"])
def test_cli_main_exits_cleanly_over_a_decade_scan(command):
    for omega, lam, omega0 in itertools.product(*SCAN):
        argv = [command, f"--omega={omega}", f"--lambda={lam}", f"--omega0={omega0}"]
        assert _exit_code((argv, None)) != 1, argv


# omega0/omega far above 1: the balance report of a converged ground state passes
@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@pytest.mark.parametrize("omega0", ["1e10", "1e12", "1e14"])
def test_balance_passes_where_omega0_dwarfs_omega(omega0):
    assert _exit_code((["balance", "--omega=1", "--lambda=1", f"--omega0={omega0}"], None)) == 0
