"""The figure scripts run end to end and write their pinned CSV headers."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DICKE_HEADER = "g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag"
SQUEEZED_HEADER = "r,E_N_fixed_theta,E_N_optimized_theta,best_t,best_phi"


def run_script(name, args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, env=subprocess_env(),
    )


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        (
            "fig_dicke_sweep.py",
            ["--quick"],
            {
                "dicke_sweep_corotating.csv": (DICKE_HEADER, 21),
                "dicke_sweep_counter.csv": (DICKE_HEADER, 21),
                "dicke_sweep_counter_mixed.csv": (DICKE_HEADER, 21),
            },
        ),
        ("fig_squeezed_sweep.py", ["--steps", "5"], {"squeezed_sweep.csv": (SQUEEZED_HEADER, 5)}),
    ],
)
def test_figure_script_writes_its_csvs(tmp_path, script, args, outputs):
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name, (header, rows) in outputs.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1


def test_mixed_dicke_curve_differs_only_on_flagged_rows(tmp_path):
    # --mix-degenerate changes only the rows whose ground pair is degenerate.
    assert run_script("fig_dicke_sweep.py", ["--quick"], tmp_path).returncode == 0

    def rows(tag):
        return (tmp_path / f"dicke_sweep_{tag}.csv").read_text().splitlines()[1:]

    changed = [plain != mixed for plain, mixed in zip(rows("counter"), rows("counter_mixed"))]
    flagged = [line.endswith(",1") for line in rows("counter")]
    assert any(changed)
    assert all(f for c, f in zip(changed, flagged) if c)
