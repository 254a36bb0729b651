"""Command-line front end: solve, balance, variational, sweep, converge.

Each command takes only the flags and config keys that change its
answer, as its ``--help`` lists them; any other is a usage error.  Exit
codes are part of the contract: 0 on success, 1 on usage or config
errors or a module the command needs that cannot be imported (numpy, on
a Python without it, for the trial simplex), 2 on numerical non-success
(truncation not converged, optimizer stalled, or a balance check
failing).  Nothing else is returned.  JSON output is strict: NaN and
+-inf print as null.

Sweep output is reproducible byte for byte: fixed column order, floats
at 17 significant digits, LF line endings, rows in grid order with the
first swept axis slowest.  The worker pool only changes wall time,
never content.  On failure no partial output file is left behind.

Implementation notes (``--help`` prints the paragraphs above).  Every
balance number a command prints comes from one evaluator,
``balance.sector_report``, with no operator bundle and no
``QuantumState`` built (``--paper-literal`` adds the printed variants
``balance.literal_variants`` reads off its report): the ``balance``
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
unless the environment sets a count; only a sweep on more than one
worker imports the process pool.  ``main`` runs its command with the
cyclic garbage collector off, and pool workers forked from it inherit
that: a command makes no reference cycles, so the collector's passes,
nearly all of them during numpy's import, free nothing but that
import's own cyclic garbage, about 0.3 MB left in place.  ``main``
returns the collector to the state its caller had.  At exit the process
freezes its objects (``gc.freeze``), so the interpreter's final garbage
collections skip the walk over memory the OS frees anyway; output is
complete by then, and nothing is frozen while a command runs.
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
import io
import itertools
import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

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


class RunConfig(NamedTuple):
    """Validated inputs of one CLI invocation."""

    omega: float | AxisRange
    lam: float | AxisRange
    omega0: float | AxisRange
    dim: int | None  # None = automatic dimension doubling
    tol: float
    output_format: str
    output_path: str | None
    jobs: int | None
    paper_literal: bool


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
    """A flag's text or a config value as a scalar or a range; errors name the axis."""
    if isinstance(raw, dict):
        if not {"min", "max", "count"} <= raw.keys():
            raise ConfigError(f"{name}: range object needs min/max/count")
        bounds = (_number(f"{name}: min", raw["min"]), _number(f"{name}: max", raw["max"]),
                  _number(f"{name}: count", raw["count"], int, "an integer"))
    elif isinstance(raw, str) and ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name}: ranges are written min:max:count, got {raw!r}")
        try:
            bounds = (float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse range {raw!r}") from exc
    else:
        return _number(name, raw, what="a number or min:max:count")
    try:
        return AxisRange(*bounds)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_dim(raw) -> int | None:
    if raw is None or raw == "auto":
        return None
    dim = _number("dim", raw, int, "an integer or 'auto'")
    if dim < 4:
        raise ConfigError(f"dim: must be >= 4, got {dim}")
    if dim > MAX_FIXED_DIM:  # checked before any array is built
        raise ConfigError(f"dim: must be <= {MAX_FIXED_DIM}, got {dim}")
    return dim


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win); only the command's own keys."""
    file_vals: dict = {}
    if args.config is not None:
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_vals = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
            raise ConfigError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_vals, dict):
            raise ConfigError("config: top level must be a JSON object")
        foreign = sorted(set(file_vals) - set(_OPTIONS[args.command][1]))
        if foreign:
            raise ConfigError(f"config: {args.command} reads no keys {foreign}")

    def pick(key, default=None):
        flag_val = vars(args).get(key)  # None where the command has no such flag
        return file_vals.get(key, default) if flag_val is None else flag_val

    omega_raw = pick("omega", 1.0)
    lam_raw = pick("lambda")
    omega0_raw = pick("omega0")
    if lam_raw is None:
        raise ConfigError("lambda: required (flag --lambda or config key 'lambda')")
    if omega0_raw is None:
        raise ConfigError("omega0: required (flag --omega0 or config key 'omega0')")

    tol = _number("tol", pick("tol", 1e-10))
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol: must be finite and > 0, got {tol}")

    fmt = pick("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")

    jobs = pick("jobs")
    if jobs is not None:
        jobs = _number("jobs", jobs, int, "an integer")
        if jobs < 1:
            raise ConfigError(f"jobs: must be >= 1, got {jobs}")

    literal = pick("paper_literal", False)
    if not isinstance(literal, bool):  # bool("false") is True
        import json

        raise ConfigError(f"paper_literal: expected true or false, got {json.dumps(literal)}")

    out = pick("out")
    if out is not None:
        if not isinstance(out, str):
            raise ConfigError(f"out: expected a path, got {out!r}")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"out: directory of {out} does not exist")
        if os.path.exists(out) and not os.path.isfile(out):  # os.replace would replace it
            raise ConfigError(f"out: cannot write {out}: not a regular file")

    return RunConfig(
        omega=_parse_axis("omega", omega_raw),
        lam=_parse_axis("lambda", lam_raw),
        omega0=_parse_axis("omega0", omega0_raw),
        dim=_parse_dim(pick("dim")),
        tol=tol,
        output_format=fmt,
        output_path=out,
        jobs=jobs,
        paper_literal=literal,
    )


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


def _require_scalar(cfg: RunConfig, command: str) -> ModelParams:
    vals = {}
    for name, val in zip(AXIS_NAMES, (cfg.omega, cfg.lam, cfg.omega0)):
        if isinstance(val, AxisRange):
            raise ConfigError(f"{name}: {command} needs a scalar, not a range")
        vals[name] = _check_axis(name, val)
    return ModelParams(omega=vals["omega"], lam=vals["lambda"], omega0=vals["omega0"])


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


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


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = out_path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"out: cannot write {out_path}: {exc}") from exc


def _solve(cfg: RunConfig, params: ModelParams) -> tuple[GroundSolution, int]:
    from .solver import solve_rabi_ground

    try:
        return solve_rabi_ground(params, tol=cfg.tol, dim=cfg.dim), 0
    except NotConverged as exc:
        return exc.solution, 2


def _solution_dict(sol: GroundSolution) -> dict:
    return {
        "energy": sol.energy,
        "parity_label": sol.parity_label,
        "sector_gap": sol.sector_gap,
        "dim_used": sol.dim_used,
        "converged": sol.converged,
        "energy_delta": sol.energy_delta,
    }


def cmd_solve(cfg: RunConfig) -> int:
    params = _require_scalar(cfg, "solve")
    sol, code = _solve(cfg, params)
    info = _solution_dict(sol)
    if cfg.output_format == "json":
        _emit(_json(info), cfg.output_path)
    else:
        lines = [f"{key} = {info[key]}" for key in info]
        _emit("\n".join(lines) + "\n", cfg.output_path)
    return code


def cmd_balance(cfg: RunConfig) -> int:
    from .balance import literal_variants, report_passes, sector_report

    params = _require_scalar(cfg, "balance")
    sol, code = _solve(cfg, params)
    report = sector_report(sol.phi, sol.parity, params, sol.energy)
    if cfg.paper_literal:
        report = report._replace(properties={**report.properties,
                                             **literal_variants(params, report)})
    passed = report_passes(report) and sol.converged
    payload = {
        "params": params,
        "solution": _solution_dict(sol),
        "passed": passed,
        "report": report,
    }
    _emit(_json(payload), cfg.output_path)
    return 0 if (code == 0 and passed) else 2


def cmd_variational(cfg: RunConfig) -> int:
    from .variational import minimize_energy, stationarity_equals_balance

    params = _require_scalar(cfg, "variational")
    code = 0
    try:
        exact, code = _solve(cfg, params)
        result = minimize_energy(params, exact=exact)
    except OptimizerStalled as exc:
        result = exc.result
        code = 2
    if result.gap < -1e-9:
        code = 2  # trial energy below the exact floor: truncation trouble
    grad, b1_res, b7_res = stationarity_equals_balance(params, result.trial)
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
    _emit(_json(payload), cfg.output_path)
    return code


def cmd_converge(cfg: RunConfig) -> int:
    from .solver import MAX_DIM, START_DIM, convergence_table

    params = _require_scalar(cfg, "converge")
    max_dim = cfg.dim if cfg.dim is not None else MAX_DIM
    if max_dim < 2 * START_DIM:  # the ladder starts at START_DIM and compares two levels
        raise ConfigError(f"dim: converge needs >= {2 * START_DIM}, got {max_dim}")
    rows, ok = convergence_table(params, tol=cfg.tol, max_dim=max_dim)
    buf = io.StringIO()
    buf.write("dim,e_exact,delta\n")
    for dim, energy, delta in rows:
        delta_txt = "" if math.isnan(delta) else _fmt17(delta)
        buf.write(f"{dim},{_fmt17(energy)},{delta_txt}\n")
    _emit(buf.getvalue(), cfg.output_path)
    return 0 if ok else 2


def _sweep_grid(cfg: RunConfig) -> list[tuple[float, float, float]]:
    """The validated grid, first swept axis slowest.

    Every axis value is checked before any point runs, so bad input fails
    as a config error rather than as a numerical one; a range's ends are
    checked before its values are built.
    """
    raw = (cfg.omega, cfg.lam, cfg.omega0)
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
    from .balance import sector_report
    from .solver import solve_rabi_ground
    from .variational import minimize_energy

    omega, lam, omega0, dim, tol = task
    params = ModelParams(omega=omega, lam=lam, omega0=omega0)
    sol = solve_rabi_ground(params, tol=tol, dim=dim)
    report = sector_report(sol.phi, sol.parity, params, sol.energy)
    var = minimize_energy(params, exact=sol)
    props = report.properties
    b2 = props["b2"]
    return {
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
    }


def _render_sweep(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json(rows)
    buf = io.StringIO()
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            val = row[col]
            if isinstance(val, bool):
                cells.append("1" if val else "0")
            elif isinstance(val, int):
                cells.append(str(val))
            elif isinstance(val, str):
                cells.append(val)
            else:
                cells.append(_fmt17(val))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


class _WorkerDied(RabiError):
    """A pool worker process died; the points it held have no result."""


def _pool_map(tasks: list, jobs: int):
    """``map(_sweep_point, tasks)`` on ``min(jobs, len(tasks))`` worker processes.

    Results come in grid order, at most ``jobs`` points run at a time,
    and once a point has raised no further point starts: a failing
    sweep ends when the points already running finish.  The pool
    machinery is imported here, so a serial sweep never loads it.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    jobs = min(jobs, len(tasks))  # the pool starts all its workers at once
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            todo = iter(enumerate(tasks))
            running: dict = {}  # future -> grid index
            done: dict = {}  # grid index -> finished future
            failed = False
            for head in range(len(tasks)):
                while head not in done:
                    if not failed:
                        for i, task in itertools.islice(todo, jobs - len(running)):
                            running[pool.submit(_sweep_point, task)] = i
                    finished, _ = concurrent.futures.wait(
                        running, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for fut in finished:
                        done[running.pop(fut)] = fut
                        failed = failed or fut.exception() is not None
                yield done.pop(head).result()
    except BrokenProcessPool as exc:
        raise _WorkerDied("a worker process died") from exc


def _fmt_short(x: float) -> str:
    # shortest round-trip digits, positional only from 1e-4 to 1e16: 1e+300 stays short
    return repr(float(x)).removesuffix(".0")


def _failure_text(exc: Exception) -> str:
    if isinstance(exc, ArithmeticError):  # e.g. a Python float overflowing
        args = exc.args  # a float ``**`` overflowing gives (errno, strerror): print strerror
        text = args[1] if len(args) == 2 and isinstance(args[0], int) else str(exc)
        return f"{type(exc).__name__}: {text}"
    return str(exc)


def cmd_sweep(cfg: RunConfig) -> int:
    grid = _sweep_grid(cfg)
    tasks = [(omega, lam, omega0, cfg.dim, cfg.tol) for omega, lam, omega0 in grid]
    jobs = cfg.jobs if cfg.jobs is not None else (os.cpu_count() or 1)
    rows: list[dict] = []
    try:
        serial = jobs == 1 or len(tasks) <= 1
        for row in map(_sweep_point, tasks) if serial else _pool_map(tasks, jobs):
            rows.append(row)
    except (RabiError, ValueError, ArithmeticError) as exc:
        # both maps yield in grid order, so the point that raised is the
        # next one; a dead worker fails every point not yet finished, and
        # the first of those in grid order is named
        omega, lam, omega0 = grid[len(rows)]
        sys.stderr.write(
            f"sweep failed at omega={_fmt_short(omega)} lambda={_fmt_short(lam)} "
            f"omega0={_fmt_short(omega0)}: {_failure_text(exc)}\n"
        )
        return 2
    _emit(_render_sweep(rows, cfg.output_format), cfg.output_path)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


# The config keys, and so the flags (key k is --k, with - for _), each command reads.
_POINT = ("omega", "lambda", "omega0", "dim", "tol", "out")
_OPTIONS = {  # command: (help line, config keys)
    "solve": ("ground energy, parity, and truncation info for one point", (*_POINT, "format")),
    "balance": ("full balance/property report for one point (JSON)", (*_POINT, "paper_literal")),
    "variational": ("trial-state optimum vs exact ground for one point (JSON)", _POINT),
    "sweep": ("grid of points -> CSV or JSON rows", (*_POINT, "format", "jobs")),
    "converge": ("dimension-doubling energy trace for one point", _POINT),
}
_FLAGS = {  # argparse keywords of each key's flag
    "omega": {"help": "oscillator frequency (scalar or min:max:count)"},
    "lambda": {"help": "coupling (scalar or min:max:count)"},
    "omega0": {"help": "spin splitting (scalar or min:max:count)"},
    "dim": {"help": "Fock dimension, integer or 'auto'"},
    "tol": {"help": "truncation convergence tolerance"},
    "out": {"help": "write output to this path instead of stdout"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "jobs": {"help": "worker processes (default: all cores)"},
    "paper_literal": {"action": "store_true", "default": None,  # None lets a config set it
                      "help": "also report legacy printed coefficient variants"},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rabi-balance", description=__doc__.partition("\n\nImplementation")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_txt, keys) in _OPTIONS.items():
        p = sub.add_parser(name, help=help_txt)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        p.add_argument("--config", help="flat JSON config file of these keys; flags override it")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "balance": cmd_balance,
    "variational": cmd_variational,
    "sweep": cmd_sweep,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    # No command makes a reference cycle, so the collector would free only
    # numpy's import garbage (see the module docstring); forked workers
    # inherit the setting, and the caller gets its own back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(args)
        try:
            return _COMMANDS[args.command](cfg)
        except ImportError as exc:  # numpy, for the trial simplex, on a Python without it
            raise ConfigError(f"{args.command} needs the module {exc.name or exc}, "
                              "which cannot be imported") from exc
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (RabiError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {_failure_text(exc)}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
