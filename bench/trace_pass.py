"""Traced pass over sweep points, for the per-layer split.

Run in a fresh interpreter (``run.py`` starts it as a subprocess with the
package's ``src`` on PYTHONPATH):

    python3 bench/trace_pass.py POINTS_JSON

POINTS_JSON holds ``{"points": [[omega, lambda, omega0], ...], "tol": t}``.
For each point the pass calls the public layer functions in the order
``cli._sweep_point`` uses -- ``solve_rabi_ground``, ``full_report``,
``minimize_energy``, then ``wigner_origin`` -- and records a span around
each layer call and one around the point.  Span times are seconds from
the start of the pass.  Spans stay in memory; one JSON object goes to
stdout at the end.  Nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_info(fock) -> dict | None:
    """hits/misses/entries of fock's trial-unitary lru_cache, or None once it is gone."""
    cached = getattr(fock, "_unitary_from_generator", None)
    if not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    from rabi_balance import (
        FockRep, ModelParams, fock, full_report, minimize_energy, solve_rabi_ground,
        wigner_origin,
    )
    import_s = time.perf_counter() - t0

    spans: list[dict] = []

    def span(name: str, point: int, start: float, end: float) -> None:
        spans.append({
            "name": name, "point": point,
            "start": start - pass_start, "end": end - pass_start,
        })

    rows = []
    rss_start = _maxrss_mb()
    pass_start = time.perf_counter()
    for i, (omega, lam, omega0) in enumerate(spec["points"]):
        t_point = time.perf_counter()
        params = ModelParams(omega=omega, lam=lam, omega0=omega0)
        t = time.perf_counter()
        sol = solve_rabi_ground(params, tol=spec["tol"], dim=None)
        t_solved = time.perf_counter()
        span("solver.solve", i, t, t_solved)
        full_report(
            sol.state, FockRep(sol.dim_used), params,
            sector=sol.parity, energy=sol.energy, boson_state=sol.boson_state,
        )
        t_reported = time.perf_counter()
        span("balance.full_report", i, t_solved, t_reported)
        var = minimize_energy(params, exact=sol)
        t_optimized = time.perf_counter()
        span("variational.minimize_energy", i, t_reported, t_optimized)
        wigner_origin(sol.boson_state)  # the rest of cli._sweep_point's row
        span("point", i, t_point, time.perf_counter())
        rows.append({
            "dim_used": sol.dim_used,
            "e_exact": sol.energy,
            "e_var": var.energy,
            "nm_iterations": var.iterations,
        })
    pass_s = time.perf_counter() - pass_start

    json.dump({
        "import_s": import_s,
        "pass_s": pass_s,
        "rss_growth_mb": _maxrss_mb() - rss_start,
        "unitary_cache": _cache_info(fock),
        "spans": spans,
        "rows": rows,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
