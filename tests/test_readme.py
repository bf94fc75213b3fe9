"""README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_example_runs(code):
    # in a fresh interpreter, so the block imports what it uses itself
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_each_format_finding_names_a_test_that_exists():
    # every row of the README's format-findings table is pinned by a test
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Format findings", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith(("| finding", "| ---"))]
    assert len(rows) >= 2
    for row in rows:
        path, name = re.fullmatch(r".*`(tests/\w+\.py)::(\w+)` \|", row).groups()
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.MULTILINE), row
