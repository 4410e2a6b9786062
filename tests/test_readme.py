import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env
from nonclassicality import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
BASH_BLOCKS = re.findall(r"^```bash\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
CLI_LINES = [line for block in BASH_BLOCKS for line in block.splitlines()
             if line.startswith("nonclassicality ")]


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block):
    # Each block stands alone, so an API removed from the package cannot linger in the docs.
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_cli_lines():
    assert len(CLI_LINES) >= 6


@pytest.mark.parametrize("line", CLI_LINES, ids=[f"line{i}" for i in range(len(CLI_LINES))])
def test_cli_line_parses(capsys, line):
    # Parsed only, not run, so an option removed from the CLI cannot linger in the docs.
    try:
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(capsys.readouterr().err)
    assert callable(args.func)
