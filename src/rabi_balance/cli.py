"""Command-line front end: solve, balance, variational, sweep, converge.

Exit codes are part of the contract: 0 on success, 1 on usage or config
errors, 2 on numerical non-success (truncation not converged, optimizer
stalled, or a balance check failing).  Nothing else is returned.

Sweep output is reproducible byte for byte: fixed column order, floats
at 17 significant digits, LF line endings, rows in grid order with the
first swept axis slowest.  The worker pool only changes wall time,
never content.  On failure no partial output file is left behind.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .balance import (
    BalanceReport,
    full_report,
    report_passes,
    wigner_origin,
)
from .errors import ConfigError, NotConverged, OptimizerStalled, RabiError
from .fock import FockRep
from .model import ModelParams
from .solver import MAX_DIM, GroundSolution, convergence_table, solve_rabi_ground
from .variational import minimize_energy, stationarity_equals_balance

SWEEP_COLUMNS = [
    "omega", "lambda", "omega0", "dim_used", "e_exact", "parity_label",
    "sector_gap", "e_var", "beta_star", "gamma_star", "gap", "res_b1",
    "res_b7", "res_force", "w00_exact", "w00_trial", "var_qsx", "b2_lo",
    "b2_hi", "p1_ok", "p2_ok", "p3_ok", "p4_ok", "b2_ok", "w_bound_ok",
]

AXIS_NAMES = ("omega", "lambda", "omega0")


@dataclass(frozen=True)
class AxisRange:
    """Inclusive linear range min..max with ``count`` points."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"range count must be >= 1, got {self.count}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ConfigError(f"range bounds must be finite, got {self.min}:{self.max}")
        if self.min > self.max:
            raise ConfigError(f"range min {self.min} exceeds max {self.max}")

    def values(self) -> list[float]:
        if self.count == 1:
            return [float(self.min)]
        return [float(v) for v in np.linspace(self.min, self.max, self.count)]


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI invocation."""

    omega: float | AxisRange = 1.0
    lam: float | AxisRange | None = None
    omega0: float | AxisRange | None = None
    dim: int | None = None  # None = automatic dimension doubling
    tol: float = 1e-10
    output_format: str = "csv"
    output_path: str | None = None
    jobs: int | None = None
    paper_literal: bool = False


def _parse_axis(name: str, raw) -> float | AxisRange:
    if isinstance(raw, AxisRange):
        return raw
    if isinstance(raw, dict):
        try:
            return AxisRange(float(raw["min"]), float(raw["max"]), int(raw["count"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: range object needs min/max/count") from exc
    if isinstance(raw, str) and ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name}: ranges are written min:max:count, got {raw!r}")
        try:
            return AxisRange(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse range {raw!r}") from exc
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected a number or min:max:count, got {raw!r}") from exc


def _parse_dim(raw) -> int | None:
    if raw is None or raw == "auto":
        return None
    try:
        dim = int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dim: expected an integer or 'auto', got {raw!r}") from exc
    if dim < 4:
        raise ConfigError(f"dim: must be >= 4, got {dim}")
    return dim


_CONFIG_KEYS = {
    "omega", "lambda", "omega0", "dim", "tol", "format", "out", "jobs",
    "paper_literal",
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win)."""
    file_vals: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_vals = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_vals, dict):
            raise ConfigError("config: top level must be a JSON object")
        unknown = set(file_vals) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")

    def pick(flag_val, file_key, default=None):
        if flag_val is not None:
            return flag_val
        if file_key in file_vals:
            return file_vals[file_key]
        return default

    omega_raw = pick(args.omega, "omega", 1.0)
    lam_raw = pick(args.lam, "lambda")
    omega0_raw = pick(args.omega0, "omega0")
    if lam_raw is None:
        raise ConfigError("lambda: required (flag --lambda or config key 'lambda')")
    if omega0_raw is None:
        raise ConfigError("omega0: required (flag --omega0 or config key 'omega0')")

    tol_raw = pick(args.tol, "tol", 1e-10)
    try:
        tol = float(tol_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tol: expected a number, got {tol_raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol: must be finite and > 0, got {tol}")

    fmt = pick(args.fmt, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")

    jobs_raw = pick(args.jobs, "jobs")
    jobs = None
    if jobs_raw is not None:
        try:
            jobs = int(jobs_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"jobs: expected an integer, got {jobs_raw!r}") from exc
        if jobs < 1:
            raise ConfigError(f"jobs: must be >= 1, got {jobs}")

    paper_literal = bool(args.paper_literal or file_vals.get("paper_literal", False))

    out = pick(args.out, "out")
    if out is not None:
        if not isinstance(out, str):
            raise ConfigError(f"out: expected a path, got {out!r}")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"out: directory of {out} does not exist")

    return RunConfig(
        omega=_parse_axis("omega", omega_raw),
        lam=_parse_axis("lambda", lam_raw),
        omega0=_parse_axis("omega0", omega0_raw),
        dim=_parse_dim(pick(args.dim, "dim")),
        tol=tol,
        output_format=fmt,
        output_path=out,
        jobs=jobs,
        paper_literal=paper_literal,
    )


def _require_scalar(cfg: RunConfig, command: str) -> ModelParams:
    vals = {}
    for name, val in zip(AXIS_NAMES, (cfg.omega, cfg.lam, cfg.omega0)):
        if isinstance(val, AxisRange):
            raise ConfigError(f"{name}: {command} needs a scalar, not a range")
        vals[name] = val
    try:
        return ModelParams(omega=vals["omega"], lam=vals["lambda"], omega0=vals["omega0"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _clean(obj):
    """dataclass/ndarray/NaN-safe conversion for JSON output."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _clean(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
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
        _emit(json.dumps(_clean(info), indent=2, sort_keys=True) + "\n", cfg.output_path)
    else:
        lines = [f"{key} = {info[key]}" for key in info]
        _emit("\n".join(lines) + "\n", cfg.output_path)
    return code


def cmd_balance(cfg: RunConfig) -> int:
    params = _require_scalar(cfg, "balance")
    sol, code = _solve(cfg, params)
    rep = FockRep(sol.dim_used)
    report = full_report(
        sol.state, rep, params,
        sector=sol.parity, energy=sol.energy, boson_state=sol.boson_state,
        paper_literal=cfg.paper_literal,
    )
    passed = report_passes(report) and sol.converged
    payload = {
        "params": _clean(params),
        "solution": _solution_dict(sol),
        "passed": passed,
        "report": _clean(report),
    }
    _emit(json.dumps(_clean(payload), indent=2, sort_keys=True) + "\n", cfg.output_path)
    return 0 if (code == 0 and passed) else 2


def cmd_variational(cfg: RunConfig) -> int:
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
    payload = {
        "params": _clean(params),
        "result": {
            **_clean(result),
            "grad_norm": float(np.linalg.norm(grad)),
            "b1_residual": b1_res,
            "b7_residual": b7_res,
        },
    }
    _emit(json.dumps(_clean(payload), indent=2, sort_keys=True) + "\n", cfg.output_path)
    return code


def cmd_converge(cfg: RunConfig) -> int:
    params = _require_scalar(cfg, "converge")
    max_dim = cfg.dim if cfg.dim is not None else MAX_DIM
    rows, ok = convergence_table(params, tol=cfg.tol, max_dim=max_dim)
    buf = io.StringIO()
    buf.write("dim,e_exact,delta\n")
    for dim, energy, delta in rows:
        delta_txt = "" if math.isnan(delta) else _fmt17(delta)
        buf.write(f"{dim},{_fmt17(energy)},{delta_txt}\n")
    _emit(buf.getvalue(), cfg.output_path)
    return 0 if ok else 2


def _sweep_grid(cfg: RunConfig) -> list[tuple[float, float, float]]:
    axes = []
    swept = 0
    for val in (cfg.omega, cfg.lam, cfg.omega0):
        if isinstance(val, AxisRange):
            swept += 1
            axes.append(val.values())
        else:
            axes.append([float(val)])
    if swept > 2:
        raise ConfigError("sweep: at most 2 of omega/lambda/omega0 may be ranges")
    grid = []
    for omega in axes[0]:  # first swept axis is the slowest
        for lam in axes[1]:
            for omega0 in axes[2]:
                grid.append((omega, lam, omega0))
    return grid


def _sweep_point(task) -> dict:
    omega, lam, omega0, dim, tol = task
    params = ModelParams(omega=omega, lam=lam, omega0=omega0)
    sol = solve_rabi_ground(params, tol=tol, dim=dim)
    rep = FockRep(sol.dim_used)
    report = full_report(
        sol.state, rep, params,
        sector=sol.parity, energy=sol.energy, boson_state=sol.boson_state,
    )
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
        "w00_exact": wigner_origin(sol.boson_state),
        "w00_trial": 2.0 * math.exp(-2.0 * var.trial.beta**2),
        "var_qsx": b2.value,
        "b2_lo": b2.lower,
        "b2_hi": b2.upper,
        "p1_ok": bool(props["p1"].satisfied),
        "p2_ok": bool(props["p2_identity"].satisfied and props["p2_sign"].satisfied),
        "p3_ok": bool(props["p3"].satisfied),
        "p4_ok": bool(props["p4_identity"].satisfied and props["p4"].satisfied),
        "b2_ok": bool(b2.satisfied),
        "w_bound_ok": bool(props["wigner_energy"].satisfied),
    }


def _render_sweep(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_clean(rows), indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            val = row[col]
            if isinstance(val, bool):
                cells.append("1" if val else "0")
            elif isinstance(val, (int, np.integer)):
                cells.append(str(int(val)))
            elif isinstance(val, str):
                cells.append(val)
            else:
                cells.append(_fmt17(val))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _pool_map(tasks: list, jobs: int):
    """``map(_sweep_point, tasks)`` on ``jobs`` worker processes.

    Results come in grid order, at most ``jobs`` points run at a time,
    and once a point has raised no further point starts: a failing
    sweep ends when the points already running finish.
    """
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


def _fmt_short(x: float) -> str:
    return np.format_float_positional(x, trim="-")


def _failure_text(exc: Exception) -> str:
    if isinstance(exc, BrokenProcessPool):
        return "a worker process died"
    if isinstance(exc, ArithmeticError):  # e.g. a Python float overflowing
        return f"{type(exc).__name__}: {exc}"
    return str(exc)


def cmd_sweep(cfg: RunConfig) -> int:
    for name, val in zip(AXIS_NAMES, (cfg.omega, cfg.lam, cfg.omega0)):
        # validate every axis value before any point runs, so bad input
        # fails as a config error rather than as a numerical one
        for v in val.values() if isinstance(val, AxisRange) else [val]:
            try:
                _ = ModelParams(
                    omega=v if name == "omega" else 1.0,
                    lam=v if name == "lambda" else 0.0,
                    omega0=v if name == "omega0" else 0.0,
                )
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    grid = _sweep_grid(cfg)
    tasks = [(omega, lam, omega0, cfg.dim, cfg.tol) for omega, lam, omega0 in grid]
    jobs = cfg.jobs if cfg.jobs is not None else (os.cpu_count() or 1)
    rows: list[dict] = []
    try:
        serial = jobs == 1 or len(tasks) <= 1
        for row in map(_sweep_point, tasks) if serial else _pool_map(tasks, jobs):
            rows.append(row)
    except (RabiError, ValueError, ArithmeticError, BrokenProcessPool) as exc:
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="rabi-balance", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_txt in (
        ("solve", "ground energy, parity, and truncation info for one point"),
        ("balance", "full balance/property report for one point (JSON)"),
        ("variational", "trial-state optimum vs exact ground for one point (JSON)"),
        ("sweep", "grid of points -> CSV or JSON rows"),
        ("converge", "dimension-doubling energy trace for one point"),
    ):
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--omega", help="oscillator frequency (scalar or min:max:count)")
        p.add_argument("--lambda", dest="lam", help="coupling (scalar or min:max:count)")
        p.add_argument("--omega0", help="spin splitting (scalar or min:max:count)")
        p.add_argument("--dim", help="Fock dimension, integer or 'auto'")
        p.add_argument("--tol", help="truncation convergence tolerance")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       help="sweep/solve output format")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--jobs", help="sweep worker processes (default: all cores)")
        p.add_argument("--paper-literal", dest="paper_literal", action="store_true",
                       help="also report legacy printed coefficient variants")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "balance": cmd_balance,
    "variational": cmd_variational,
    "sweep": cmd_sweep,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (RabiError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {_failure_text(exc)}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
