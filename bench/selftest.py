"""Self-test of the benchmark's checker and of its traced counts.

    python3 bench/selftest.py

Run from the root of a source checkout.  Feeds the checks corrupted copies
of a stored reference output and a sweep that exits non-zero, and each
must count as a failure; then runs the traced pass twice on a few points,
and every count metric must repeat exactly.  Exits 0 when all cases hold.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import checks
import run

COUNT_KEYS = ("dim_used", "nm_iterations")


def _replace_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[checks.COLUMNS.index(column)] = value
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _sweep(code: int, digest: str) -> dict:
    return {"code": code, "digest": digest, "stderr": ""}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    args, _ = run.resolve("sweep-weak", 0)
    grid = run.expected_grid(args)
    good = (run.BENCH / "reference" / "sweep-weak.csv").read_text(encoding="utf-8")
    e_exact = float(checks.parse_rows(good)[9]["e_exact"])

    def failures(sweeps: list[dict], outputs: dict[str, str]) -> int:
        run.evaluate(sweeps, outputs, grid, seed=0, reference=good)
        return sum(not s["ok"] for s in sweeps)

    corrupted = {
        "energy off by 1e-6": _replace_cell(good, 9, "e_exact", repr(e_exact * (1 + 1e-6))),
        "flipped p3_ok flag": _replace_cell(good, 20, "p3_ok", "0"),
        "residual above bound": _replace_cell(good, 30, "res_b7", "1e-3"),
        "gap below floor": _replace_cell(good, 40, "gap", "-1e-6"),
        "dim_used changed": _replace_cell(good, 50, "dim_used", "64"),
        "missing row": "".join(good.splitlines(keepends=True)[:-1]),
        "unparsable cell": _replace_cell(good, 3, "var_qsx", "nan?"),
    }
    cases = {"reference passes": failures([_sweep(0, "a")], {"a": good}) == 0}
    for name, text in corrupted.items():
        cases[name] = failures([_sweep(0, "a")], {"a": text}) == 1
    cases["output differs between sweeps"] = failures(
        [_sweep(0, "a"), _sweep(0, "b")], {"a": good, "b": good + "\n"}) == 1
    cases["oracle catches a wrong e_exact"] = bool(checks.check_oracle(
        corrupted["energy off by 1e-6"], [9]))

    limit = time.perf_counter() + run.RUN_LIMIT
    bad_run = run.timed([sys.executable, "-c", run.ENTRY, *args, "--jobs", "0"], limit)
    cases["non-zero exit"] = bad_run["code"] != 0 and failures(
        [_sweep(0, "a"), {**bad_run, "digest": "a"}], {"a": good}) == 1

    points = [list(p) for p in grid[8:12]] + [[1.0, 3.0, 1.0], [1.0, 5.0, 1.0]]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        first, second = (run.run_traced_pass(points, Path(tmp), limit) for _ in range(2))
    cases["traced counts repeat"] = (
        first["unitary_cache"] == second["unitary_cache"]
        and [[r[k] for k in COUNT_KEYS] for r in first["rows"]]
        == [[r[k] for k in COUNT_KEYS] for r in second["rows"]]
    )

    for name, passed in cases.items():
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
    return 0 if all(cases.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
