"""The CI workflow's shell steps parse, so a typo fails here and not first on a runner.

Each ``run:`` value of ``.github/workflows/tests.yml`` is pulled out with
plain text handling (the test extra has no YAML parser): a one-line value,
or the lines of a ``|`` block, those indented deeper than its key.  Each
is checked with ``bash -n``, which parses a script without running it.

The "README command-line examples" step is also run, as the runner runs
it (``bash --noprofile --norc -eo pipefail``), on the package under test:
``rabi-balance`` and ``python`` are shims to this interpreter, with the
source tree on ``PYTHONPATH``, ahead of the rest of ``PATH``.  So is the
"Install without numpy" step, where a ``python3.13`` without numpy is
installed: its venv and ``pip install`` lines are dropped, and the
``python`` and ``rabi-balance`` of ``$RUNNER_TEMP/bare/bin`` are shims to
that interpreter.  So are the "Bench selftest" and "Benchmark correctness
gate" steps, from the repo root as on a runner, with ``python3`` a shim to
this interpreter; both write only under ``.bench_work/``.  No install step
runs here, so neither does the installed console script itself.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rabi_balance

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
RUN_KEY = re.compile(r"^(\s*)(?:- )?run:(.*)$")


def run_blocks(text: str) -> list[str]:
    """Each step's ``run:`` script, in order."""
    lines = text.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        key = RUN_KEY.match(line)
        if key is None:
            continue
        value = key.group(2).strip()
        if value != "|":
            blocks.append(value)
            continue
        body = []
        for nested in lines[i + 1:]:
            if nested.strip() and len(nested) - len(nested.lstrip()) <= len(key.group(1)):
                break
            body.append(nested)
        blocks.append(textwrap.dedent("\n".join(body)).strip() + "\n")
    return blocks


TEXT = WORKFLOW.read_text(encoding="utf-8")
BLOCKS = run_blocks(TEXT)


def test_every_run_block_is_found():
    keys = [line for line in TEXT.splitlines()
            if "run:" in line and not line.lstrip().startswith("#")]
    assert len(BLOCKS) == len(keys) > 0
    assert all(block.strip() for block in BLOCKS)


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
@pytest.mark.parametrize("block", BLOCKS, ids=[str(i) for i in range(len(BLOCKS))])
def test_run_block_parses_in_bash(block):
    proc = subprocess.run(["bash", "-n"], input=block, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), block


def step_named(name: str) -> str:
    return run_blocks(TEXT.split(f"- name: {name}", 1)[1])[0]


SRC = str(Path(rabi_balance.__file__).resolve().parents[1])
# the package under test, installed or not
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_step(step: str, tmp_path: Path, shims: Path, python: str, cwd: Path | None = None,
             **env) -> None:
    """``step`` as the runner runs it, in ``cwd`` (default ``tmp_path``), with
    ``python``, ``python3`` and ``rabi-balance`` in ``shims``, ahead of the rest
    of ``PATH``, shims to ``python``."""
    shims.mkdir(parents=True)
    for name, args in (("python", '"$@"'), ("python3", '"$@"'),
                       ("rabi-balance", '-m rabi_balance.cli "$@"')):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{python}" {args}\n', encoding="utf-8")
        shim.chmod(0o755)
    script = tmp_path / "step.sh"
    script.write_text(step, encoding="utf-8")
    env = {**ENV, "PATH": os.pathsep.join([str(shims), os.environ.get("PATH", "")]),
           "TMPDIR": str(tmp_path), **env}
    proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
                          capture_output=True, text=True, timeout=300, env=env, cwd=cwd or tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_readme_examples_step_runs(tmp_path):
    run_step(step_named("README command-line examples"), tmp_path, tmp_path / "bin",
             sys.executable, GITHUB_WORKSPACE=str(ROOT))


# the no-numpy step's lines that make its venv and install the package there
INSTALL_LINES = ('python -m venv "$RUNNER_TEMP/bare"',
                 '"$bin/python" -m pip install --no-deps .')


def bare_python() -> str | None:
    """The path of a ``python3.13`` that finds no numpy, or None."""
    found = shutil.which("python3.13")
    if found is None:
        return None
    probe = "import importlib.util, sys; print(importlib.util.find_spec('numpy') or sys.executable)"
    proc = subprocess.run([found, "-c", probe], capture_output=True, text=True, timeout=60,
                          env=ENV)
    path = proc.stdout.strip()
    return path if proc.returncode == 0 and os.path.isabs(path) else None


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_no_numpy_step_runs(tmp_path):
    python = bare_python()
    if python is None:
        pytest.skip("no python3.13 without numpy")
    lines = step_named("Install without numpy").splitlines()
    assert all(line in lines for line in INSTALL_LINES)
    step = "\n".join(line for line in lines if line not in INSTALL_LINES) + "\n"
    run_step(step, tmp_path, tmp_path / "bare" / "bin", python, RUNNER_TEMP=str(tmp_path))


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_bench_selftest_step_runs(tmp_path):
    run_step(step_named("Bench selftest"), tmp_path, tmp_path / "bin", sys.executable, cwd=ROOT)


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_benchmark_correctness_gate_step_runs(tmp_path):
    """The gate's six ``bench/run.py`` runs each read ``correct: true``.

    Like ``test_reference_sweep.py::test_sweep_matches_reference``, this
    holds only where numpy runs AVX-512 code: elsewhere ``np.exp`` and
    ``np.sinh`` round some arguments differently, the trial simplex stops
    elsewhere, and the optimum columns miss the stored reference's pins.
    """
    run_step(step_named("Benchmark correctness gate"), tmp_path, tmp_path / "bin",
             sys.executable, cwd=ROOT)
