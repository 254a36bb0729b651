"""The CI workflow's shell steps parse, so a typo fails here and not first on a runner.

Each ``run:`` value of ``.github/workflows/tests.yml`` is pulled out with
plain text handling (the test extra has no YAML parser): a one-line value,
or the lines of a ``|`` block, those indented deeper than its key.  Each
is checked with ``bash -n``, which parses a script without running it.
"""

import re
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
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
