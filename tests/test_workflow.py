"""The CI workflow's shell steps parse, so a typo fails here and not first on a runner.

Each ``run:`` value of ``.github/workflows/tests.yml`` is pulled out with
plain text handling (the test extra has no YAML parser): a one-line value,
or the lines of a ``|`` block, those indented deeper than its key.  Each
is checked with ``bash -n``, which parses a script without running it.

The "README command-line examples" step is also run, as the runner runs
it (``bash --noprofile --norc -eo pipefail``), on the package under test:
``rabi-balance`` and ``python`` are shims to this interpreter, with the
source tree on ``PYTHONPATH``, ahead of the rest of ``PATH``.  The
install steps (``pip install ".[test]"`` and the no-numpy venv) are not
run here, so neither is the installed console script itself.
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


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_readme_examples_step_runs(tmp_path):
    step = run_blocks(TEXT.split("- name: README command-line examples", 1)[1])[0]
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, args in (("python", '"$@"'), ("rabi-balance", '-m rabi_balance.cli "$@"')):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {args}\n', encoding="utf-8")
        shim.chmod(0o755)
    script = tmp_path / "step.sh"
    script.write_text(step, encoding="utf-8")
    src = str(Path(rabi_balance.__file__).resolve().parents[1])
    env = {**os.environ, "PATH": os.pathsep.join([str(shims), os.environ.get("PATH", "")]),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "GITHUB_WORKSPACE": str(ROOT), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
                          capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
