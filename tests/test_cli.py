import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_reference, subprocess_env
from nonclassicality import (
    CovarianceBlocks,
    DickeConfig,
    build_report,
    cli,
    field_moments,
    fock,
    ground_state,
)
from nonclassicality.cli import main
from nonclassicality.dicke import DEGENERACY_TOL
from nonclassicality.moments import UnphysicalMomentsError

REPORT_KEYS = [
    "eta_minus", "eta_plus", "E_N", "lambda_simon", "lambda_dgcz",
    "dgcz_simple", "hz", "best_t", "best_phi",
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestMeasure:
    def test_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--n", "0", "--v", "0")
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == REPORT_KEYS
        assert report["E_N"] == 0.0
        assert report["dgcz_simple"] is False
        assert report["hz"] is False

    def test_squeezed_vacuum_maximized(self, capsys):
        r = 1.0
        v = math.cosh(r) * math.sinh(r)
        n = math.sinh(r) ** 2
        code, out, _ = run_cli(
            capsys, "measure", "--n", repr(n), "--v", repr(v),
            "--theta", repr(math.pi), "--mode", "maximize",
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["E_N"] - 1.0) < 1e-6
        assert abs(report["best_t"] - math.sqrt(0.5)) < 1e-5
        assert report["dgcz_simple"] is True

    def test_fixed_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--n", "1", "--v", "0", "--mode", "fixed",
            "--t", "0.6", "--phi", "0.3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["best_t"] == 0.6
        assert report["best_phi"] == 0.3
        assert report["E_N"] == 0.0

    @pytest.mark.parametrize("t", ["0", "1"])
    def test_degenerate_fixed_splitter_prints_no_negative_zero(self, capsys, t):
        code, out, _ = run_cli(
            capsys, "measure", "--v", "0.5", "--n", "0.4", "--mode", "fixed", "--t", t
        )
        assert code == 0
        report = json.loads(out)
        assert report["lambda_simon"] == report["lambda_dgcz"] == 0.0
        assert all(math.copysign(1.0, x) == 1.0 for x in report.values() if isinstance(x, float))

    def test_unphysical_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--n", "1", "--v", "2")
        assert code == 2
        assert "unphysical" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--v", "0", "--n", "inf"],
            ["--v", "nan", "--n", "1"],
            ["--v", "1e200", "--n", "1"],
            ["--v", "1e200", "--n", "1e200"],
            ["--v", "0", "--n", "1e100"],
            ["--v", "1", "--n", "1", "--theta", "inf"],
        ],
    )
    def test_nonfinite_or_overflowing_input_exits_2(self, capsys, args):
        code, out, err = run_cli(capsys, "measure", *args)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_invalid_splitter_exits_1(self, capsys):
        # At t = 1e200 the square overflows; that is rejected, not raised.
        for t in ("2", "nan", "1e200"):
            code, _, err = run_cli(capsys, "measure", "--n", "1", "--v", "1",
                                   "--mode", "fixed", "--t", t)
            assert code == 1
            assert err.startswith("invalid splitter")

    def test_occupation_within_tolerance_below_zero_is_clamped(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--v", "0", "--n=-1e-10")
        assert code == 0
        assert json.loads(out)["E_N"] == 0.0

    def test_large_squeezing_at_every_angle(self, capsys):
        r = 6.0
        v, n = math.sinh(2.0 * r) / 2.0, math.sinh(r) ** 2
        lambda_simon = set()
        for theta in [2.0 * math.pi * k / 16 for k in range(16)]:
            code, out, _ = run_cli(
                capsys, "measure", "--v", repr(v), "--n", repr(n), "--theta", repr(theta)
            )
            assert code == 0
            assert abs(json.loads(out)["E_N"] - r) < 1e-6
            lambda_simon.add(json.loads(out)["lambda_simon"])
        assert len(lambda_simon) == 1  # a local-symplectic invariant

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "--n", "0", "--v", "0", "--bogus", "1")
        assert code == 1

    def test_missing_required_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "--v", "0")
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "measure", "--n", "0", "--v", "0", "--output", str(path)
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["E_N"] == 0.0


class TestSqueezedSweep:
    def test_csv_shape_and_r0_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "squeezed-sweep", "--r-min", "0", "--r-max", "1", "--steps", "5"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "E_N_fixed_theta", "E_N_optimized_theta", "best_t", "best_phi"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0

    def test_monotone_and_superset(self, capsys):
        code, out, _ = run_cli(
            capsys, "squeezed-sweep", "--r-min", "0", "--r-max", "1.2", "--steps", "7"
        )
        assert code == 0
        _, rows = parse_csv(out)
        fixed = [float(r[1]) for r in rows]
        optimized = [float(r[2]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(fixed, fixed[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(optimized, optimized[1:]))
        assert all(o >= f for f, o in zip(fixed, optimized))

    def test_bit_stable_output(self, capsys):
        args = ("squeezed-sweep", "--r-min", "0", "--r-max", "0.8", "--steps", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_squeezing_beyond_moment_rounding_exits_2(self, capsys):
        # From r ~ 10 on, lambda- = e^{-2r}/2 is below the rounding of n and v.
        # Further out the moments overflow: to NaN at r = 400, and in an
        # OverflowError of cosh r at r = 1000, of |alpha|^2 at alpha = 1e200
        # and of |<a>|^2 = (e^r alpha)^2 at r = 200, alpha = 1e100, theta = pi.
        for args in (
            ("--r-min", "10", "--r-max", "14", "--steps", "9"),
            ("--steps", "2", "--r-max", "400"),
            ("--steps", "2", "--r-max", "1000"),
            ("--steps", "2", "--alpha", "1e200"),
            ("--steps", "2", "--r-max", "200", "--alpha", "1e100", "--theta", "3.14159"),
        ):
            code, out, err = run_cli(capsys, "squeezed-sweep", *args)
            assert code == 2, args
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("unphysical moments at r="), args

    def test_bad_range_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "squeezed-sweep", "--steps", "1")
        assert code == 1
        code, _, _ = run_cli(
            capsys, "squeezed-sweep", "--r-min", "2", "--r-max", "1"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--r-min", "nan"),
            ("--r-max", "nan"),
            ("--r-max", "inf"),
            ("--theta", "nan"),
            ("--theta", "inf"),
            ("--alpha", "nan+0j"),
            ("--alpha", "1+infj"),
        ],
    )
    def test_non_finite_arguments_exit_1_before_any_row(self, capsys, option, value):
        code, out, err = run_cli(capsys, "squeezed-sweep", "--steps", "3", option, value)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


class TestDickeSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8",
            "--g-min", "0", "--g-max", "2", "--steps", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "g", "g_over_gc", "ground_energy", "mean_photon",
            "E_N", "lambda_simon", "degenerate_flag",
        ]
        assert len(rows) == 5
        g0 = rows[0]
        assert float(g0[0]) == 0.0
        assert float(g0[3]) == 0.0  # mean_photon
        assert float(g0[4]) == 0.0  # E_N
        assert float(g0[2]) == pytest.approx(-1.0)  # -omega_eg * N / 2

    def test_g_over_gc_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "1", "--fock-dim", "6",
            "--g-min", "0", "--g-max", "1", "--steps", "3",
            "--omega", "4.0", "--omega-eg", "1.0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[2][1]) == pytest.approx(0.5)  # g=1, g_c=2

    def test_nonconvergence_exits_3_with_nan_row(self, capsys, cholesky_refused):
        self.check_nan_rows_exit_3(capsys)

    def test_failed_solve_exits_3_with_nan_row(self, capsys, sector_solve_fails):
        self.check_nan_rows_exit_3(capsys)

    def test_failed_tridiagonal_solve_exits_3_with_nan_row(self, capsys, lapack_no_convergence):
        self.check_nan_rows_exit_3(capsys, counter_rotating=False)

    @staticmethod
    def check_nan_rows_exit_3(capsys, counter_rotating=True):
        model = ["--counter-rotating"] if counter_rotating else []
        code, out, _ = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "20", "--fock-dim", "36", *model,
            "--g-min", "1", "--g-max", "2", "--steps", "2",
        )
        assert code == 3
        _, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert all(math.isnan(float(x)) for x in row[2:6]) and row[6] == "0", row

    def test_repeated_sweep_matches_a_fresh_process(self, capsys):
        # The second sweep of a size reuses its cached sector layout; a sweep
        # of another size, or of the other model, in between must not leak
        # into it.
        sweep = ["dicke-sweep", "--n-atoms", "4", "--fock-dim", "12", "--steps", "7",
                 "--counter-rotating", "--mix-degenerate"]
        co_rotating = [arg for arg in sweep if arg != "--counter-rotating"]
        outputs = []
        for argv in (sweep, sweep[:2] + ["3"] + sweep[3:], co_rotating, sweep):
            code, out, err = run_cli(capsys, *argv)
            outputs.append((code, out, err))
        fresh = [subprocess.run([sys.executable, "-m", "nonclassicality", *argv],
                                capture_output=True, text=True, env=subprocess_env())
                 for argv in (sweep, co_rotating)]
        fresh = [(run.returncode, run.stdout, run.stderr) for run in fresh]
        assert outputs[0] == outputs[3] == fresh[0]
        assert outputs[2] == fresh[1]

    def test_rounding_ties_are_reproducible(self):
        # At omega = 1e-300 the g = 0 sectors hold levels tied to rounding.
        # The mix of them that a row reports is the same in every process.
        args = [sys.executable, "-m", "nonclassicality", "dicke-sweep", "--n-atoms", "2",
                "--fock-dim", "8", "--steps", "5", "--counter-rotating", "--omega", "1e-300"]
        runs = [subprocess.run(args, capture_output=True, text=True, env=subprocess_env())
                for _ in range(3)]
        assert all(run.returncode == 0 for run in runs)
        assert len({run.stdout for run in runs}) == 1

    def test_tiny_frequencies_give_finite_g_over_gc(self):
        # omega omega_eg = 1e-600 underflows to 0; g_c must not.
        args = [sys.executable, "-m", "nonclassicality", "dicke-sweep", "--n-atoms", "2",
                "--fock-dim", "8", "--omega", "1e-300", "--omega-eg", "1e-300", "--steps", "3",
                "--counter-rotating"]
        run = subprocess.run(args, capture_output=True, text=True, env=subprocess_env())
        assert run.returncode == 0
        _, rows = parse_csv(run.stdout)
        assert [float(row[1]) for row in rows] == pytest.approx([0.0, 2e300, 4e300], rel=1e-15)
        warnings = run.stderr.splitlines()
        assert warnings and all(line.startswith("warning: g=") for line in warnings), run.stderr

    @pytest.mark.parametrize("mix", [[], ["--mix-degenerate"]])
    def test_vacuum_at_the_resolution_bound_is_exact(self, capsys, mix):
        # Near the DickeConfig bound the counter-rotating g = 0 row is the
        # exact vacuum: no solver noise certifies it nonclassical.
        code, out, _ = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8", "--steps", "3",
            "--omega", "6e4", "--counter-rotating", *mix,
        )
        assert code == 0
        _, rows = parse_csv(out)
        energy, photons, e_n, simon = map(float, rows[0][2:6])
        assert (energy, photons, e_n, simon) == (-1.0, 0.0, 0.0, 0.0)

    def test_unphysical_row_exits_2(self, capsys, monkeypatch):
        def reject(moments):
            raise UnphysicalMomentsError("covariance matrix has det V = 0.0 <= 0")

        monkeypatch.setattr(cli, "build_report", reject)
        code, out, err = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8",
            "--g-min", "0", "--g-max", "1", "--steps", "2",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("unphysical moments at g=0:")

    def test_vacuum_below_threshold_is_not_certified(self, capsys):
        # Below g_c the co-rotating ground state is the vacuum |m=0>|n=0>,
        # which no criterion may call nonclassical.
        args = ["--n-atoms", "20", "--fock-dim", "36", "--g-min", "0", "--g-max", "0.98"]
        code, out, _ = run_cli(capsys, "dicke-sweep", *args, "--steps", "50")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 50
        for row in rows:
            assert row[4] == "0" and row[5] == "0" and row[6] == "0", row
        for g in (0.3, 0.98):
            cfg = DickeConfig(n_atoms=20, fock_dim=36, g=g)
            moments = field_moments(ground_state(cfg), cfg)
            assert build_report(moments).dgcz_simple is False

    def test_counter_rotating_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "10",
            "--g-min", "0", "--g-max", "2", "--steps", "3", "--counter-rotating",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_truncated_rows_warn_on_stderr_only(self, capsys, tmp_path):
        args = ["dicke-sweep", "--n-atoms", "2", "--fock-dim", "10",
                "--g-min", "0", "--g-max", "2", "--steps", "3", "--counter-rotating"]
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        # g = 1 and g = 2 put weight on the top Fock levels; g = 0 is vacuum.
        warnings = err.splitlines()
        assert len(warnings) == 2
        assert all(line.startswith("warning: g=") for line in warnings)
        path = tmp_path / "sweep.csv"
        assert run_cli(capsys, *args, "--output", str(path))[0] == 0
        assert path.read_text() == out
        _, rows = parse_csv(out)
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--g-max", "nan"),
            ("--g-max", "inf"),
            ("--g-min", "nan"),
            ("--omega", "nan"),
            ("--omega", "0"),
            ("--omega-eg", "inf"),
            ("--omega-eg", "-1"),
            ("--omega", "1e308"),  # finite, but omega (fock_dim - 1) overflows
            ("--omega-eg", "1e308"),  # finite, but the diagonal's spread overflows
            # Finite entries whose energies double precision cannot resolve
            # to DEGENERACY_TOL; at --omega 1e20 the g = 0 row read E0 = 0, not -1.
            ("--omega", "1e307"),
            ("--omega", "1e20"),
            ("--omega-eg", "1e300"),
            ("--g-max", "1e200"),
            ("--n-atoms", "0"),
            ("--fock-dim", "1"),
            # The solver's tolerance is fixed: these exit 1 as unrecognized.
            ("--tol", "nan"),
            ("--tol", "-1"),
            ("--max-iter", "0"),
        ],
    )
    def test_malformed_arguments_exit_1_before_any_row(self, capsys, option, value):
        for model in ([], ["--counter-rotating"]):
            code, out, err = run_cli(
                capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8", "--steps", "2",
                *model, option, value,
            )
            assert code == 1, model
            assert out == ""
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("model", [[], ["--counter-rotating"]])
    def test_sweep_matches_dense_reference(self, capsys, model):
        # Energies and degeneracy flags of the default grid against dense
        # solves of the whole matrix.  The one flagged row is the co-rotating
        # crossing at g = g_c; at N = 4 the parity doublet stays split.
        code, out, _ = run_cli(capsys, "dicke-sweep", "--n-atoms", "4", "--fock-dim", "12", *model)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 101
        for row in rows:
            cfg = DickeConfig(n_atoms=4, fock_dim=12, g=float(row[0]), counter_rotating=bool(model))
            energies, _ = dense_reference(cfg)
            assert abs(float(row[2]) - energies[0]) < 1e-9, row
            assert row[6] == str(int(energies[1] - energies[0] < DEGENERACY_TOL)), row
        assert [row[0] for row in rows if row[6] == "1"] == ([] if model else ["1"])

    def test_method_option_is_gone(self, capsys):
        code, out, _ = run_cli(capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8",
                               "--method", "dense")
        assert code == 1
        assert out == ""

    def test_solver_options_are_gone(self, capsys):
        for option, value in (("--tol", "1e-9"), ("--max-iter", "100000")):
            code, out, err = run_cli(capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8",
                                     option, value)
            assert code == 1, option
            assert out == ""
            assert f"unrecognized arguments: {option} {value}" in err

    def test_healthy_sweep_prints_no_warning(self, capsys):
        code, _, err = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "30",
            "--g-min", "0", "--g-max", "0.5", "--steps", "3", "--counter-rotating",
        )
        assert code == 0
        assert err == ""


class TestOracleCheck:
    def test_default_trial_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--trials", "3", "--dim", "60", "--seed", "7"
        )
        assert code == 0
        assert "PASS" in out

    def test_vacuum_trial_discrepancy_tiny(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--trials", "1", "--dim", "24", "--seed", "7",
            "--r-max", "0", "--alpha-max", "0",
        )
        assert code == 0
        discrepancy = float(out.split("max covariance discrepancy:")[1].split()[0])
        assert discrepancy < 1e-12

    def test_nan_discrepancy_exits_4(self, capsys, monkeypatch):
        # A NaN prediction is no agreement: it must fail, not vanish from the maximum.
        def nan_blocks(moments, bs):
            return CovarianceBlocks(*np.full((3, 2, 2), math.nan))

        monkeypatch.setattr(fock, "covariance_from_input", nan_blocks)
        code, out, _ = run_cli(capsys, "oracle-check", "--trials", "3", "--dim", "20")
        assert code == 4
        assert out.splitlines()[1:] == ["max covariance discrepancy: nan", "FAIL (threshold 1e-06)"]

    def test_corrupted_phase_exits_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--trials", "3", "--dim", "40", "--seed", "7",
            "--corrupt-phase",
        )
        assert code == 4
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--trials", "0"),
            ("--trials", "-3"),
            ("--dim", "1"),
            ("--dim", "0"),
            ("--seed", "-1"),
            ("--r-max", "-1"),
            ("--r-max", "nan"),
            ("--alpha-max", "inf"),
            ("--alpha-max", "nan"),
        ],
    )
    def test_malformed_arguments_exit_1_before_any_trial(self, capsys, option, value):
        code, out, err = run_cli(capsys, "oracle-check", "--trials", "3", option, value)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


class TestOutputOption:
    @pytest.mark.parametrize(
        "command",
        [
            ["measure", "--v", "0.9", "--n", "0.6"],
            ["squeezed-sweep", "--steps", "2"],
            ["dicke-sweep", "--n-atoms", "2", "--fock-dim", "8", "--steps", "2"],
            ["oracle-check", "--trials", "2"],
        ],
        ids=lambda command: command[0],
    )
    def test_unwritable_output_exits_1(self, capsys, tmp_path, command):
        # One stderr line, no traceback and nothing on stdout.
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *command, "--output", str(path))
        assert code == 1 and out == ""
        assert err == f"cannot write {path}: {os.strerror(errno.ENOENT)}\n"
        assert not path.parent.exists()

    def test_failed_sweep_leaves_no_file(self, capsys, tmp_path):
        # The file is opened only once every row is computed.
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "squeezed-sweep", "--r-max", "400", "--output", str(path))
        assert code == 2 and out == ""
        assert not path.exists()


class TestHelpAndEntryPoints:
    @pytest.mark.parametrize(
        "args",
        [
            ["--help"],
            ["measure", "--help"],
            ["squeezed-sweep", "--help"],
            ["dicke-sweep", "--help"],
            ["oracle-check", "--help"],
        ],
    )
    def test_help_exits_0(self, capsys, args):
        assert main(args) == 0

    def test_parser_reuse_leaves_outputs_unchanged(self, capsys):
        valid = ["measure", "--v", "1.1752", "--theta", "3.14159", "--n", "1.3811"]
        first = run_cli(capsys, *valid)
        assert first[0] == 0
        assert run_cli(capsys, "measure", "--v", "1")[0] == 1
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, *valid) == first
        assert cli._build_parser() is cli._build_parser()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nonclassicality", "measure", "--n", "0", "--v", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["E_N"] == 0.0
