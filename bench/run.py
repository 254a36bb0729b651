"""End-to-end and per-layer benchmark of `rabi-balance sweep`.

    python3 bench/run.py --workload sweep-weak --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The program is the package under
``src/`` run through its console-script entry point
(``rabi_balance.cli:main``) in a fresh interpreter per sweep: closed loop,
one sweep at a time, for ``--seconds``.  BLAS thread variables are passed
through untouched.  See ``bench/NOTES.md`` for the workloads, the metrics
and what each layer metric is expected to move.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced pass with ``--trace 1``).  The
lines before it print every metric by name and unit, the resolved sweep
arguments and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

ENTRY = "import sys; from rabi_balance.cli import main; sys.exit(main())"
SETUP_PER_SWEEP = 1
RUN_LIMIT = 165.0  # seconds; every child still running then is killed
ORACLE_SAMPLES = 3
TOL = 1e-10  # the CLI's default --tol; the traced pass uses it too
JITTER = 0.03  # share of an axis span by which a seed moves each endpoint inward
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS", "BLIS_NUM_THREADS",
)

# Regions of the (lambda, omega0) plane at omega = 1; why each is here is
# in NOTES.md.  sweep-pool has the sweep-weak inputs and the default
# --jobs; it is not listed in BENCHMARK.json because its time is bimodal
# (BLAS oversubscription in the pool), see NOTES.md.
WORKLOADS = {
    "sweep-weak": {"lambda": (0.0, 1.0, 8), "omega0": (0.0, 5.0, 8), "jobs": 1},
    "sweep-strong": {"lambda": (2.0, 6.0, 5), "omega0": (0.5, 2.0, 3), "jobs": 1},
    "sweep-pool": {"lambda": (0.0, 1.0, 8), "omega0": (0.0, 5.0, 8), "jobs": None},
}
REFERENCE = {"sweep-weak": "sweep-weak", "sweep-strong": "sweep-strong", "sweep-pool": "sweep-weak"}


def resolve(workload: str, seed: int) -> tuple[list[str], int]:
    """CLI arguments of the workload at ``seed``, and its worker count.

    Seed 0 is the nominal region.  Other seeds move each range endpoint
    inward by up to JITTER of the axis span, so the grid stays inside
    the region (sweep-strong stays at lambda <= 6, which converges
    within the solver's MAX_DIM).
    """
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    args = ["sweep", "--omega", "1"]
    for axis in ("lambda", "omega0"):
        lo, hi, count = spec[axis]
        shrink = 0.0 if seed == 0 else JITTER * (hi - lo)
        lo = round(lo + rng.uniform(0.0, shrink), 6)
        hi = round(hi - rng.uniform(0.0, shrink), 6)
        args += [f"--{axis}", f"{lo!r}:{hi!r}:{count}"]
    if spec["jobs"] is not None:
        args += ["--jobs", str(spec["jobs"])]
    return args, spec["jobs"] or (os.cpu_count() or 1)


def expected_grid(args: list[str]) -> list[tuple[float, float, float]]:
    """The grid the CLI builds from ``args`` (np.linspace per axis, lambda slowest)."""
    import numpy as np

    axes = {}
    for axis in ("lambda", "omega0"):
        lo, hi, count = args[args.index(f"--{axis}") + 1].split(":")
        axes[axis] = [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
    return [(1.0, lam, w0) for lam in axes["lambda"] for w0 in axes["omega0"]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed(cmd: list[str], deadline: float) -> dict:
    """Run ``cmd`` to exit; wall time from spawn, rusage of its whole process tree.

    The child leads its own process group, which is killed if it is still
    running at ``deadline`` (a ``time.perf_counter`` value).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), start_new_session=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(max(deadline - start, 0.0), _kill_group, (proc.pid,))
    killer.start()
    try:
        with proc.stderr:
            err = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # largest peak RSS of any process in the tree (Linux reports KiB)
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "stderr": err.strip(),
    }


def probe_environment(deadline: float) -> dict:
    """Versions and thread settings as the program sees them; fails without ``src/``."""
    code = (
        "import json, platform, numpy, scipy, rabi_balance\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "except Exception:\n"
        "    blas = {}\n"
        "print(json.dumps({'package': rabi_balance.__file__,"
        " 'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__,"
        " 'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=deadline - time.perf_counter(), check=True,
    )
    env = json.loads(out.stdout)
    if not Path(env["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"rabi_balance imported from {env['package']}, not {SRC}")
    env["nproc"] = os.cpu_count()
    env["affinity"] = len(os.sched_getaffinity(0))
    env["machine"] = platform.machine()
    env.update({var: os.environ.get(var, "unset") for var in BLAS_VARS})
    return env


def run_traced_pass(points: list, work: Path, deadline: float) -> dict:
    spec = work / "points.json"
    spec.write_text(json.dumps({"points": points, "tol": TOL}), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(BENCH / "trace_pass.py"), str(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - time.perf_counter(), 0.0),
    )
    if out.returncode != 0:
        raise RuntimeError(f"traced pass exited {out.returncode}: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout)


def evaluate(sweeps: list[dict], outputs: dict[str, str], grid: list, seed: int,
             reference: str | None) -> list[str]:
    """Mark each sweep ``ok``; return the problems found.

    A sweep fails on a non-zero exit, on output that differs by a byte
    from the first sweep's, or on output that fails a check: the row
    checks, the dense oracle on sampled rows, and (when given) the
    stored reference output.
    """
    problems: list[str] = []
    verdicts: dict[str, list[str]] = {}
    first = next((s["digest"] for s in sweeps if s["code"] == 0), None)
    for digest, text in outputs.items():
        found = checks.check_rows(text, grid)
        if not found:
            rng = random.Random(seed)
            rows = checks.parse_rows(text)
            deepest = max(range(len(rows)), key=lambda i: int(rows[i]["dim_used"]))
            sample = sorted(set(rng.sample(range(len(rows)), min(ORACLE_SAMPLES, len(rows)))
                                + [deepest]))
            found = checks.check_oracle(text, sample)
        if reference is not None:
            found += checks.check_against_reference(text, reference)
        verdicts[digest] = found
    for s in sweeps:
        if s["code"] != 0:
            reason = [f"exit {s['code']}: {s['stderr'][-300:]}"]
        elif s["digest"] != first:
            reason = ["output differs from the first sweep's"] + verdicts[s["digest"]]
        else:
            reason = verdicts[s["digest"]]
        s["ok"] = not reason
        problems += reason
    return problems


def run_sweeps(args: list[str], seconds: float, work: Path,
               limit: float) -> tuple[list, dict, list]:
    """Closed loop: start the next sweep only after the previous one exits.

    A sweep starts only if, taking as long as the last one, it would end
    by the deadline, so a run lasts about ``seconds`` whatever the sweep
    time (at least one sweep is always made).  Each sweep is followed by
    SETUP_PER_SWEEP bare imports of the CLI module, so set-up time is
    sampled over the same stretch of time as the sweeps.
    """
    out_path = work / "sweep.csv"
    cmd = [sys.executable, "-c", ENTRY, *args, "--out", str(out_path)]
    sweeps, outputs, setups = [], {}, []
    deadline = time.perf_counter() + seconds
    step = 0.0  # duration of the last sweep and its imports
    while not sweeps or time.perf_counter() + step <= deadline:
        t = time.perf_counter()
        if out_path.exists():
            out_path.unlink()
        result = timed(cmd, limit)
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        result["digest"] = hashlib.sha256(text.encode()).hexdigest()
        if result["code"] == 0:
            outputs.setdefault(result["digest"], text)
        sweeps.append(result)
        setups += [timed([sys.executable, "-c", "import rabi_balance.cli"], limit)
                   for _ in range(SETUP_PER_SWEEP)]
        step = time.perf_counter() - t
    return sweeps, outputs, setups


def layer_metrics(trace: dict, sweep_s: float, setup_s: float, cpu_s: float,
                  workers: int) -> dict:
    spans = trace["spans"]

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    points = durations("point")
    layers = {
        name: durations(span)
        for name, span in (("solver", "solver.solve"), ("balance", "balance.full_report"),
                           ("variational", "variational.minimize_energy"))
    }
    point_total = sum(points)
    layer_total = sum(sum(d) for d in layers.values())
    dims = [row["dim_used"] for row in trace["rows"]]
    cache = trace["unitary_cache"] or {"hits": 0, "misses": 0, "entries": 0}
    lookups = cache["hits"] + cache["misses"]
    busy = sweep_s - setup_s
    m = {
        "solver.solve_s": (sum(layers["solver"]), "s"),
        "solver.calls": (len(layers["solver"]), "count"),
        "solver.dim_used.mean": (statistics.fmean(dims), "levels"),
        "solver.dim_used.max": (max(dims), "levels"),
        "solver.share": (sum(layers["solver"]) / point_total, "ratio"),
        "balance.full_report_s": (sum(layers["balance"]), "s"),
        "balance.calls": (len(layers["balance"]), "count"),
        "balance.share": (sum(layers["balance"]) / point_total, "ratio"),
        "variational.minimize_energy_s": (sum(layers["variational"]), "s"),
        "variational.nm_iterations": (sum(row["nm_iterations"] for row in trace["rows"]), "count"),
        "variational.share": (sum(layers["variational"]) / point_total, "ratio"),
        "fock.unitary_cache.hits": (cache["hits"], "count"),
        "fock.unitary_cache.misses": (cache["misses"], "count"),
        "fock.unitary_cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "fock.unitary_cache.entries": (cache["entries"], "count"),
        "fock.rss_growth_mb": (trace["rss_growth_mb"], "MB"),
        "point.s.p50": (statistics.median(points), "s"),
        "point.s.max": (max(points), "s"),
        "cli.pool.workers": (workers, "count"),
        "cli.pool.efficiency": (point_total / (workers * busy), "ratio"),
        "cli.pool.cpu_per_wall": (cpu_s / sweep_s, "ratio"),
        "trace.coverage": (layer_total / trace["pass_s"], "ratio"),
        "trace.overhead": (trace["pass_s"] / busy, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def trace_problems(trace: dict, text: str) -> list[str]:
    """The traced pass must reproduce the sweep's rows, or its split is of other work."""
    rows = checks.parse_rows(text)
    problems = []
    for i, (got, want) in enumerate(zip(trace["rows"], rows)):
        if got["dim_used"] != int(want["dim_used"]):
            problems.append(f"traced row {i}: dim_used {got['dim_used']} vs {want['dim_used']}")
        for col in ("e_exact", "e_var"):
            w = float(want[col])
            if not abs(got[col] - w) <= max(checks.REL_TOL[col] * abs(w), checks.ABS_FLOOR):
                problems.append(f"traced row {i}: {col} {got[col]!r} vs sweep {w!r}")
    if len(trace["rows"]) != len(rows):
        problems.append(f"traced {len(trace['rows'])} points, sweep has {len(rows)}")
    return problems


def samples(values: list[float]) -> str:
    return f"n={len(values)}: " + " ".join(f"{v:.4f}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    limit = time.perf_counter() + RUN_LIMIT

    if not (SRC / "rabi_balance" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}; run from a source checkout\n")
        return 2
    args, workers = resolve(opts.workload, opts.seed)
    try:
        env = probe_environment(limit)
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: cannot import the package from {SRC}: {exc}\n")
        return 2
    print(f"workload {opts.workload} seed {opts.seed}: rabi-balance {' '.join(args)}")
    print("env " + json.dumps(env, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        sweeps, outputs, setups = run_sweeps(args, opts.seconds, work, limit)

        sys.path.insert(0, str(SRC))  # the oracle uses the package's public builders
        grid = expected_grid(args)
        ref_path = BENCH / "reference" / f"{REFERENCE[opts.workload]}.csv"
        reference = ref_path.read_text(encoding="utf-8") if opts.seed == 0 else None
        problems = evaluate(sweeps, outputs, grid, opts.seed, reference)
        problems += [f"setup exit {s['code']}: {s['stderr'][-300:]}" for s in setups if s["code"]]
        good = [s for s in sweeps if s["ok"]] or sweeps
        setup_s = statistics.median(s["wall_s"] for s in setups)
        e2e = {
            "sweep_s": (statistics.median(s["wall_s"] for s in good), "s"),
            "cpu_s": (statistics.median(s["cpu_s"] for s in good), "s"),
            "peak_rss_mb": (statistics.median(s["rss_mb"] for s in good), "MB"),
            "setup_s": (setup_s, "s"),
        }
        attempted, failed = len(sweeps), sum(not s["ok"] for s in sweeps)

        print(f"grid {len(grid)} points, {len(sweeps)} sweeps, workers {workers}")
        for name, key in (("sweep_s", "wall_s"), ("cpu_s", "cpu_s"), ("peak_rss_mb", "rss_mb")):
            value, unit = e2e[name]
            print(f"  {name:<14} {value:12.4f} {unit:<6} median; "
                  f"{samples([s[key] for s in good])}")
        print(f"  {'setup_s':<14} {setup_s:12.4f} {'s':<6} median; "
              f"{samples([s['wall_s'] for s in setups])}")
        print(f"  {'error_rate':<14} {failed / attempted:12.4f} {'ratio':<6} "
              f"{failed} failed of {attempted} sweeps")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

        if opts.trace:
            attempted += 1
            text = next(iter(outputs.values()), "")
            try:
                trace = run_traced_pass([list(p) for p in grid], work, limit)
                found = trace_problems(trace, text) if text else ["no sweep output to compare"]
            except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
                trace, found = None, [f"traced pass: {exc!r}"]
            problems += found
            failed += bool(found)
            if trace is not None:
                (WORK / f"trace-{opts.workload}-seed{opts.seed}.json").write_text(
                    json.dumps(trace), encoding="utf-8")
                cpu_s = e2e["cpu_s"][0]
                metrics = layer_metrics(trace, e2e["sweep_s"][0], setup_s, cpu_s, workers)
                print("traced pass (fresh interpreter, serial): "
                      f"{trace['pass_s']:.4f} s over {len(grid)} points")
                if trace["unitary_cache"] is None:
                    print("  fock.unitary_cache absent: counts read as 0")
                for name, m in metrics.items():
                    print(f"  {name:<30} {m['value']:12.4f} {m['unit']}")

    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
