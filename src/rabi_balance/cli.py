"""Command-line front end: solve, balance, variational, sweep, converge.

Each command takes only the flags and config keys that change its
answer, as its ``--help`` lists them; any other is a usage error.  Exit
codes are part of the contract: 0 on success, 1 on usage or config
errors, a write that fails, or a module the command needs that cannot
be imported (numpy, on a Python without it, for the trial simplex), 2
on numerical non-success (truncation not converged, optimizer stalled,
a balance check failing, or an overflow or a sum that is not finite,
whose one stderr line reads ``numerical failure: ...``, or from a sweep
``sweep failed at ...``).  An interrupt (Ctrl-C) prints the one line
``interrupted`` and returns 130, the shell's code for SIGINT.  Nothing
else is returned.  JSON output is strict: NaN and +-inf print as null.
In CSV, NaN is an empty cell.

Sweep output is reproducible byte for byte: fixed column order, floats
at 17 significant digits, LF line endings, rows in grid order with the
first swept axis slowest.  The worker pool only changes wall time,
never content.  On failure no partial output file is left behind.

Implementation notes (``--help`` prints the paragraphs above).  Only
this module knows the unit of energy: each command gives the layers
``ModelParams.unit()``, where every tolerance, margin and verdict is
read in units of omega, and ``scaled`` takes each value it prints to
omega.  Every balance number a command prints comes from one
evaluator, ``balance.sector_report``, with no operator bundle and no
``QuantumState`` built (``--paper-literal`` adds the printed variants
``balance.literal_variants`` reads off its report at omega itself, as
the paper's b2 constant is not homogeneous in omega): the ``balance``
report and a sweep point's columns are that of the ground state's sector
vector ``GroundSolution.phi``, a tuple of floats, and the
``variational`` residuals that of the optimum trial's.  This module calls
no numpy: range values are ``np.linspace``'s arithmetic on Python
floats.  A process pays only for what it runs.  The import loads no
layer, so ``--help`` and a usage error load none, and ``json`` loads
only to read or print JSON; ``solve`` and ``converge`` load the solver,
``balance`` the solver and the report, ``variational`` and ``sweep``
those and the trial optimizer, whose simplex alone loads numpy, at its
first energy (exponential and sinh are numpy's), with one BLAS thread
unless the environment sets a count (an idle BLAS thread cost a
sweep-weak run 0.07 s on 2 vCPUs); only a sweep on more than one worker
imports the process pool.  ``main`` leaves the cyclic garbage collector
as its caller set it, for a serial sweep and for pool workers alike: a
command makes no reference cycles, and switching the collector off saved
no time end to end while it kept numpy's import garbage, about 0.3 MB of
peak RSS.  At exit the process freezes its objects (``gc.freeze``), so
the interpreter's final garbage collections skip the walk over memory
the OS frees anyway (0.013 s of a sweep-weak run); output is complete by
then, and nothing is frozen while a command runs.
"""

from __future__ import annotations

import atexit
import gc
import os

# An idle OpenBLAS worker thread costs CPU from the moment numpy loads, and
# no command uses it: set before the trial simplex imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The interpreter's final collections walk every tracked object only to free
# memory the OS takes back anyway; frozen at exit, they skip them.  Output is
# written before main returns, and nothing is frozen while a command runs.
atexit.register(gc.freeze)

import argparse
import contextlib
import itertools
import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import ConfigError, NotConverged, OptimizerStalled, RabiError
from .model import ModelParams, checked_make

if TYPE_CHECKING:
    from .solver import GroundSolution

SWEEP_COLUMNS = [
    "omega", "lambda", "omega0", "dim_used", "e_exact", "parity_label",
    "sector_gap", "e_var", "beta_star", "gamma_star", "gap", "res_b1",
    "res_b7", "res_force", "w00_exact", "w00_trial", "var_qsx", "b2_lo",
    "b2_hi", "p1_ok", "p2_ok", "p3_ok", "p4_ok", "b2_ok", "w_bound_ok",
]

AXIS_NAMES = ("omega", "lambda", "omega0")
MAX_GRID_POINTS = 10**6  # a sweep over more points is a config error
MAX_FIXED_DIM = 2**16  # a larger --dim (for converge, the ladder's maximum) is a config error
# a numerical failure, exit 2: the package's own, or a value beyond the float
# range, as a float ``**`` that overflows or ``math.fsum`` of -inf and inf
_FAILURES = (RabiError, ArithmeticError, ValueError)

# The power k of omega in each quantity a command prints, by name: its value
# at omega is omega**k times its value in units of omega.  Any other has k = 0.
# (``--paper-literal``'s variants are read at omega itself: see balance.literal_variants.)
OMEGA_POWERS = {
    **dict.fromkeys("energy exact_energy state_energy e_exact e_var delta gap sector_gap "
                    "energy_delta grad_norm b1 res_b1 b1_residual p1 p4_identity p4 "
                    "wigner_energy".split(), 1),
    "p_sigma_x": 1.5, "q_sigma_x": 1.5,
    **dict.fromkeys("b7 res_b7 b7_residual omega_num".split(), 3),
    **dict.fromkeys("b2 var_qsx b2_lo b2_hi".split(), -1),
}


def scaled(record, omega: float, k: float = 0):
    """``record``, computed in units of omega, at ``omega``: each float times omega**k.

    k is its key's in OMEGA_POWERS, else its record's (a bound's edges take
    the bound's); a dict or named tuple is rebuilt, anything else kept.
    One power of omega at a time, and sqrt(omega) for a half: exact at
    powers of two, 0 stays 0, and an overflow is inf.
    """
    if isinstance(record, float):
        for _ in range(int(abs(k))):
            record = record * omega if k > 0 else record / omega
        return record * math.sqrt(omega) if k % 1 else record
    if isinstance(record, dict):
        return {key: scaled(value, omega, OMEGA_POWERS.get(key, k))
                for key, value in record.items()}
    if hasattr(record, "_fields"):
        return record._make(scaled(value, omega, OMEGA_POWERS.get(key, k))
                            for key, value in zip(record._fields, record))
    return record


class AxisRange(namedtuple("AxisRange", "min max count")):
    """Inclusive linear range min..max with ``count`` points, checked when made."""

    __slots__ = ()

    def __new__(cls, min: float, max: float, count: int):
        if count < 1:
            raise ConfigError(f"range count must be >= 1, got {count}")
        if not (math.isfinite(min) and math.isfinite(max)):
            raise ConfigError(f"range bounds must be finite, got {min}:{max}")
        if min > max:
            raise ConfigError(f"range min {min} exceeds max {max}")
        return super().__new__(cls, min, max, count)

    _make = classmethod(checked_make)

    def values(self) -> list[float]:
        """``np.linspace(min, max, count)`` on Python floats, value for value.

        Value i is i step + min, or (i / div) (max - min) + min where the
        step underflows to 0, as numpy computes it; the last is max.
        """
        lo, hi = float(self.min), float(self.max)
        if self.count == 1:
            return [lo]
        div = self.count - 1
        delta = hi - lo
        step = delta / div
        if step == 0.0:
            return [*((i / div) * delta + lo for i in range(div)), hi]
        return [*(i * step + lo for i in range(div)), hi]


def _number(name: str, raw, kind: type = float, what: str = "a number"):
    """``kind(raw)`` of a flag's text or a JSON number; no bool is a number, no float an int."""
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float)):
        import json

        raise ConfigError(f"{name}: expected {what}, got {json.dumps(raw)}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected {what}, got {raw!r}") from exc


def _parse_axis(name: str, raw) -> float | AxisRange:
    """A flag's text or a config value, a number or ``"min:max:count"``; errors name the axis."""
    if not (isinstance(raw, str) and ":" in raw):
        return _number(name, raw, what="a number or min:max:count")
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: ranges are written min:max:count, got {raw!r}")
    try:
        bounds = (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse range {raw!r}") from exc
    try:
        return AxisRange(*bounds)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _required_axis(name: str, raw) -> float | AxisRange:
    if raw is None:
        raise ConfigError(f"{name}: required (flag --{name} or config key '{name}')")
    return _parse_axis(name, raw)


def _parse_dim(name: str, raw) -> int | None:
    if raw is None or raw == "auto":
        return None
    dim = _number(name, raw, int, "an integer or 'auto'")
    if dim < 4:
        raise ConfigError(f"{name}: must be >= 4, got {dim}")
    if dim > MAX_FIXED_DIM:  # checked before any chain is built
        raise ConfigError(f"{name}: must be <= {MAX_FIXED_DIM}, got {dim}")
    return dim


def _parse_tol(name: str, raw) -> float:
    tol = _number(name, raw)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"{name}: must be finite and > 0, got {tol}")
    return tol


def _parse_format(name: str, raw) -> str:
    if raw not in ("csv", "json"):
        raise ConfigError(f"{name}: must be csv or json, got {raw!r}")
    return raw


def _parse_jobs(name: str, raw) -> int | None:
    if raw is None:
        return None
    jobs = _number(name, raw, int, "an integer")
    if jobs < 1:
        raise ConfigError(f"{name}: must be >= 1, got {jobs}")
    return jobs


def _parse_literal(name: str, raw) -> bool:
    if not isinstance(raw, bool):  # bool("false") is True
        import json

        raise ConfigError(f"{name}: expected true or false, got {json.dumps(raw)}")
    return raw


def _parse_out(name: str, raw) -> str | None:
    if raw is None:
        return None
    try:  # open() would reject a NUL or a lone surrogate only after the work
        named = isinstance(raw, str) and b"\0" not in os.fsencode(raw)
    except UnicodeEncodeError:
        named = False
    if not named:
        raise ConfigError(f"{name}: expected a path, got {raw!r}")
    if not os.path.isdir(os.path.dirname(raw) or "."):
        raise ConfigError(f"{name}: directory of {raw} does not exist")
    if os.path.exists(raw) and not os.path.isfile(raw):  # os.replace would replace it
        raise ConfigError(f"{name}: cannot write {raw}: not a regular file")
    return raw


def _read_config(path: str, command: str) -> dict:
    """The config file's keys, each one the command reads."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_vals = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(file_vals, dict):
        raise ConfigError("config: top level must be a JSON object")
    foreign = sorted(set(file_vals) - set(_COMMANDS[command][2]))
    if foreign:
        raise ConfigError(f"config: {command} reads no keys {foreign}")
    return file_vals


def build_config(args: argparse.Namespace) -> dict:
    """Each key the command reads, parsed from its flag, else the config file, else the default."""
    file_vals = {} if args.config is None else _read_config(args.config, args.command)
    cfg = {}
    for key in _COMMANDS[args.command][2]:
        _, default, parse = _KEYS[key]
        raw = getattr(args, key)
        cfg[key] = parse(key, file_vals.get(key, default) if raw is None else raw)
    return cfg


def _check_axis(name: str, value: float) -> float:
    """One axis value as ``ModelParams`` checks it; the error names the axis."""
    try:
        ModelParams(
            omega=value if name == "omega" else 1.0,
            lam=value if name == "lambda" else 0.0,
            omega0=value if name == "omega0" else 0.0,
        )
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return value


def _require_scalar(cfg: dict, command: str) -> ModelParams:
    for name in AXIS_NAMES:
        if isinstance(cfg[name], AxisRange):
            raise ConfigError(f"{name}: {command} needs a scalar, not a range")
        _check_axis(name, cfg[name])
    return ModelParams(omega=cfg["omega"], lam=cfg["lambda"], omega0=cfg["omega0"])


def _clean(obj):
    """Records to dicts and NaN and +-inf to None, for strict JSON output (RFC 8259)."""
    if hasattr(obj, "_asdict"):  # a named tuple: before the tuple branch, or it prints as a list
        return _clean(obj._asdict())
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json(obj) -> str:
    """``obj`` as the commands print it: strict JSON, sorted keys, a final newline."""
    import json

    return json.dumps(_clean(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cell(val) -> str:
    if isinstance(val, bool):
        return "1" if val else "0"
    if isinstance(val, (int, str)):
        return str(val)
    return "" if math.isnan(val) else format(float(val), ".17g")


def _csv(columns, rows) -> str:
    """A header line, then one line per row: a bool as 1 or 0, an int or str as
    it is, NaN as an empty cell and any other float at 17 significant digits."""
    lines = [",".join(columns), *(",".join(_cell(row[col]) for col in columns) for row in rows)]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path is None:
        binary = getattr(sys.stdout, "buffer", None)  # None on a text stream, as a StringIO
        try:
            sys.stdout.flush()  # what the text layer holds goes first
            if binary is None:
                sys.stdout.write(text)
            else:  # an unbuffered binary layer may take part of a write: send the rest
                data = memoryview(text.encode(sys.stdout.encoding))
                while data:
                    data = data[binary.write(data):]
            sys.stdout.flush()
        except OSError as exc:  # the flush at exit then sends what is left to devnull
            with contextlib.suppress(AttributeError, OSError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise ConfigError(f"cannot write to stdout: {exc}") from exc
        return
    tmp = out_path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out_path}: {exc}") from exc
    finally:  # a write cut short, by an error or an interrupt, leaves no .tmp
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _solution_dict(sol: GroundSolution) -> dict:
    """The solution's fields as ``solve`` prints them, in order: all but the vector and sector."""
    info = sol._asdict()
    del info["phi"], info["parity"]
    return info


def cmd_solve(cfg: dict) -> int:
    from .solver import solve_rabi_ground

    params = _require_scalar(cfg, "solve")
    sol = solve_rabi_ground(params.unit(), tol=cfg["tol"], dim=cfg["dim"])
    info = scaled(_solution_dict(sol), params.omega)
    if cfg["format"] == "json":
        _emit(_json(info), cfg["out"])
    else:
        lines = [f"{key} = {info[key]}" for key in info]
        _emit("\n".join(lines) + "\n", cfg["out"])
    return 0 if sol.converged else 2


def cmd_balance(cfg: dict) -> int:
    from .balance import literal_variants, report_passes, sector_report
    from .solver import solve_rabi_ground

    params = _require_scalar(cfg, "balance")
    unit = params.unit()
    sol = solve_rabi_ground(unit, tol=cfg["tol"], dim=cfg["dim"])
    report = sector_report(sol.phi, sol.parity, unit, sol.energy)
    passed = report_passes(report) and sol.converged
    payload = scaled({
        "params": params,
        "solution": _solution_dict(sol),
        "passed": passed,
        "report": report,
    }, params.omega)
    if cfg["paper_literal"]:  # the printed constants, read at omega itself
        report = payload["report"]
        payload["report"] = report._replace(properties={**report.properties,
                                                        **literal_variants(params, report)})
    _emit(_json(payload), cfg["out"])
    return 0 if passed else 2


def cmd_variational(cfg: dict) -> int:
    from .solver import ROUNDING_ULPS, solve_rabi_ground
    from .variational import minimize_energy, stationarity_equals_balance

    params = _require_scalar(cfg, "variational")
    unit = params.unit()
    exact = solve_rabi_ground(unit, tol=cfg["tol"], dim=cfg["dim"])
    result = minimize_energy(unit, exact=exact)
    grad, b1_res, b7_res = stationarity_equals_balance(unit, result.trial)
    grad_norm = math.hypot(*grad)
    payload = {
        "params": params,
        "result": {
            **result._asdict(),
            "grad_norm": grad_norm,
            "b1_residual": b1_res,
            "b7_residual": b7_res,
        },
    }
    _emit(_json(scaled(payload, params.omega)), cfg["out"])
    # a trial energy below the exact one, by more than 1e-9 omega and the ladder's
    # rounding allowance, is truncation trouble
    floor = max(1e-9, ROUNDING_ULPS * math.ulp(exact.energy))
    bad = not result.converged or not exact.converged or result.gap < -floor
    return 2 if bad else 0


def cmd_converge(cfg: dict) -> int:
    from .solver import MAX_DIM, START_DIM, convergence_table

    params = _require_scalar(cfg, "converge")
    max_dim = cfg["dim"] or MAX_DIM
    if max_dim < 2 * START_DIM:  # the ladder starts at START_DIM and compares two levels
        raise ConfigError(f"dim: converge needs >= {2 * START_DIM}, got {max_dim}")
    rows, ok = convergence_table(params.unit(), tol=cfg["tol"], max_dim=max_dim)
    columns = ("dim", "e_exact", "delta")
    _emit(_csv(columns, [scaled(dict(zip(columns, row)), params.omega) for row in rows]),
          cfg["out"])
    return 0 if ok else 2


def _sweep_grid(cfg: dict) -> list[tuple[float, float, float]]:
    """The validated grid, first swept axis slowest.

    Every axis value is checked before any point runs, so bad input fails
    as a config error rather than as a numerical one; a range's ends are
    checked before its values are built.
    """
    raw = [cfg[name] for name in AXIS_NAMES]
    ranges = [val for val in raw if isinstance(val, AxisRange)]
    if len(ranges) > 2:
        raise ConfigError("sweep: at most 2 of omega/lambda/omega0 may be ranges")
    points = math.prod(val.count for val in ranges)
    if points > MAX_GRID_POINTS:  # checked before any axis value is built
        raise ConfigError(f"sweep: grid of {points} points exceeds {MAX_GRID_POINTS}")
    axes = []
    for name, val in zip(AXIS_NAMES, raw):
        if isinstance(val, AxisRange):
            _check_axis(name, val.min)  # the ends first, so that max - min is finite
            _check_axis(name, val.max)
            values = val.values()
        else:
            values = [float(val)]
        axes.append([_check_axis(name, v) for v in values])
    return list(itertools.product(*axes))


def _sweep_point(task) -> dict:
    """One grid point's row; a search that falls short fails the point, and so the sweep."""
    from . import variational
    from .balance import sector_report
    from .solver import solve_rabi_ground

    omega, lam, omega0, dim, tol = task
    unit = ModelParams(omega=omega, lam=lam, omega0=omega0).unit()
    sol = solve_rabi_ground(unit, tol=tol, dim=dim)
    if not sol.converged:  # each ladder ends on a doubling: the last two dims are d // 2 and d
        raise NotConverged(f"not converged to {tol:.1e} omega: energy moved by "
                           f"{sol.energy_delta:.3e} omega between dim {sol.dim_used // 2} "
                           f"and {sol.dim_used}")
    report = sector_report(sol.phi, sol.parity, unit, sol.energy)
    var = variational.minimize_energy(unit, exact=sol)
    if not var.converged:
        raise OptimizerStalled(f"no start converged within {variational.MAXFEV} evaluations")
    props = report.properties
    b2 = props["b2"]
    return scaled({
        "omega": omega,
        "lambda": lam,
        "omega0": omega0,
        "dim_used": sol.dim_used,
        "e_exact": sol.energy,
        "parity_label": sol.parity_label,
        "sector_gap": sol.sector_gap,
        "e_var": var.energy,
        "beta_star": var.trial.beta,
        "gamma_star": var.trial.gamma,
        "gap": var.gap,
        "res_b1": report.second_order["b1"],
        "res_b7": report.second_order["b7"],
        "res_force": report.first_order["force"],
        "w00_exact": -2 * sol.parity * props["p2_sign"].value,  # <sigma_z> = -p <cos pi n>
        "w00_trial": 2.0 * math.exp(-2.0 * var.trial.beta**2),
        "var_qsx": b2.value,
        "b2_lo": b2.lower,
        "b2_hi": b2.upper,
        "p1_ok": props["p1"].satisfied,
        "p2_ok": props["p2_identity"].satisfied and props["p2_sign"].satisfied,
        "p3_ok": props["p3"].satisfied,
        "p4_ok": props["p4_identity"].satisfied and props["p4"].satisfied,
        "b2_ok": b2.satisfied,
        "w_bound_ok": props["wigner_energy"].satisfied,
    }, omega)


def _pool_map(tasks: list, jobs: int):
    """``map(_sweep_point, tasks)`` on ``min(jobs, len(tasks))`` worker processes.

    Results come in grid order, at most ``jobs`` points run at a time,
    and once a point has raised no further point starts: a failing or
    interrupted sweep ends when the points already running finish.  The
    workers ignore SIGINT, from their start, so a Ctrl-C to the process
    group reaches the main process alone.  The pool machinery is imported
    here, so a serial sweep never loads it.
    """
    import concurrent.futures
    import signal
    from concurrent.futures.process import BrokenProcessPool

    jobs = min(jobs, len(tasks))  # the pool starts all its workers at once
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            todo = iter(enumerate(tasks))
            running: dict = {}  # future -> grid index
            done: dict = {}  # grid index -> finished future
            failed = False
            for head in range(len(tasks)):
                while head not in done:
                    if not failed:
                        # submit forks the workers: with SIGINT blocked, a Ctrl-C that
                        # comes before a worker's initializer has run waits for main
                        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                        try:
                            for i, task in itertools.islice(todo, jobs - len(running)):
                                running[pool.submit(_sweep_point, task)] = i
                        finally:
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    finished, _ = concurrent.futures.wait(
                        running, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for fut in finished:
                        done[running.pop(fut)] = fut
                        failed = failed or fut.exception() is not None
                yield done.pop(head).result()
    except BrokenProcessPool as exc:
        raise RabiError("a worker process died") from exc


def _fmt_short(x: float) -> str:
    # shortest round-trip digits, positional only from 1e-4 to 1e16: 1e+300 stays short
    return repr(float(x)).removesuffix(".0")


def _failure_text(exc: Exception) -> str:
    """A package error by its message, any other as ``Type: message``."""
    if isinstance(exc, RabiError):
        return str(exc)
    args = exc.args  # a float ``**`` overflowing gives (errno, strerror): print strerror
    text = args[1] if len(args) == 2 and isinstance(args[0], int) else str(exc)
    return f"{type(exc).__name__}: {text}"


def _usable_cpus() -> int:
    """The CPUs this process may run on: ``--jobs``'s default and its cap."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def cmd_sweep(cfg: dict) -> int:
    grid = _sweep_grid(cfg)
    tasks = [(omega, lam, omega0, cfg["dim"], cfg["tol"]) for omega, lam, omega0 in grid]
    cpus = _usable_cpus()
    jobs = min(cfg["jobs"] or cpus, cpus)
    rows: list[dict] = []
    try:
        serial = jobs == 1 or len(tasks) <= 1
        for row in map(_sweep_point, tasks) if serial else _pool_map(tasks, jobs):
            rows.append(row)
    except _FAILURES as exc:
        # both maps yield in grid order, so the point that raised is the
        # next one; a dead worker fails every point not yet finished, and
        # the first of those in grid order is named
        omega, lam, omega0 = grid[len(rows)]
        sys.stderr.write(
            f"sweep failed at omega={_fmt_short(omega)} lambda={_fmt_short(lam)} "
            f"omega0={_fmt_short(omega0)}: {_failure_text(exc)}\n"
        )
        return 2
    _emit(_json(rows) if cfg["format"] == "json" else _csv(SWEEP_COLUMNS, rows), cfg["out"])
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


# Each command once: its function, its help line and the config keys it reads,
# which are also its flags (key k is --k, with - for _).
_POINT = ("omega", "lambda", "omega0", "dim", "tol", "out")
_COMMANDS = {
    "solve": (cmd_solve, "ground energy, parity, and truncation info for one point",
              (*_POINT, "format")),
    "balance": (cmd_balance, "full balance/property report for one point (JSON)",
                (*_POINT, "paper_literal")),
    "variational": (cmd_variational, "trial-state optimum vs exact ground for one point (JSON)",
                    _POINT),
    "sweep": (cmd_sweep, "grid of points -> CSV or JSON rows", (*_POINT, "format", "jobs")),
    "converge": (cmd_converge, "dimension-doubling energy trace for one point", _POINT),
}
# Each key once: its flag's argparse keywords, its default where neither the
# flag nor the config file gives it, and its parser (name, raw) -> value.
_KEYS = {
    "omega": ({"help": "oscillator frequency (scalar or min:max:count)"}, 1.0, _parse_axis),
    "lambda": ({"help": "coupling (scalar or min:max:count)"}, None, _required_axis),
    "omega0": ({"help": "spin splitting (scalar or min:max:count)"}, None, _required_axis),
    "dim": ({"help": "Fock dimension, integer or 'auto'"}, None, _parse_dim),
    "tol": ({"help": "truncation convergence tolerance"}, 1e-10, _parse_tol),
    "out": ({"help": "write output to this path instead of stdout"}, None, _parse_out),
    "format": ({"help": "output format, csv or json"}, "csv", _parse_format),
    "jobs": ({"help": "worker processes (default and cap: the usable CPUs)"}, None,
             _parse_jobs),
    "paper_literal": ({"action": "store_true", "default": None,  # None lets a config set it
                       "help": "also report legacy printed coefficient variants"},
                      False, _parse_literal),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rabi-balance", description=__doc__.partition("\n\nImplementation")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_txt, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_txt)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), **_KEYS[key][0])
        p.add_argument("--config", help="flat JSON config file of these keys; flags override it")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](build_config(args))
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ImportError as exc:  # numpy, for the trial simplex, on a Python without it
        sys.stderr.write(f"error: {args.command} needs the module {exc.name or exc}, "
                         "which cannot be imported\n")
        return 1
    except _FAILURES as exc:
        sys.stderr.write(f"numerical failure: {_failure_text(exc)}\n")
        return 2
    except KeyboardInterrupt:  # 130 = 128 + SIGINT, as the shell reports it
        sys.stderr.write("interrupted\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
