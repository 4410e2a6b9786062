import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block):
    # Each block stands alone, so an API removed from the package cannot linger in the docs.
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
