import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_reference, subprocess_env
from nonclassicality import (
    BeamSplitterParams,
    CenteredMoments,
    DickeConfig,
    NonclassicalityReport,
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
            "--theta", repr(math.pi),
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["E_N"] - 1.0) < 1e-6
        assert abs(report["best_t"] - math.sqrt(0.5)) < 1e-5
        assert report["dgcz_simple"] is True

    def test_fixed_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--n", "1", "--v", "0", "--t", "0.6", "--phi", "0.3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["best_t"] == 0.6
        assert report["best_phi"] == 0.3
        assert report["E_N"] == 0.0

    @pytest.mark.parametrize("given, t, phi", [
        (["--t", "0.3"], 0.3, 0.0),
        (["--phi", "0.3"], math.sqrt(0.5), 0.3),
    ], ids=["t-alone", "phi-alone"])
    def test_either_splitter_option_fixes_the_splitter(self, capsys, given, t, phi):
        # The half not given keeps its default of (1/sqrt(2), 0).  At v > n
        # the maximizing splitter is (1/sqrt(2), 0), so an ignored --t or
        # --phi would print that.
        code, out, _ = run_cli(capsys, "measure", "--v", "0.9", "--n", "0.6", *given)
        assert code == 0
        report = json.loads(out)
        assert (report["best_t"], report["best_phi"]) == (t, phi)
        assert out == json.dumps(vars(build_report(
            CenteredMoments(0.9, 0.0, 0.6), BeamSplitterParams(t, phi)))) + "\n"

    def test_removed_mode_option_exits_1(self, capsys):
        # The splitter is fixed exactly when --t or --phi is given.
        code, out, err = run_cli(capsys, "measure", "--v", "0.9", "--n", "0.6", "--mode", "fixed")
        assert (code, out) == (1, "")
        assert err == "nonclassicality: error: unrecognized arguments: --mode fixed\n"

    @pytest.mark.parametrize("t", ["0", "1"])
    def test_degenerate_fixed_splitter_prints_no_negative_zero(self, capsys, t):
        code, out, _ = run_cli(
            capsys, "measure", "--v", "0.5", "--n", "0.4", "--t", t
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
            code, _, err = run_cli(capsys, "measure", "--n", "1", "--v", "1", "--t", t)
            assert code == 1
            assert err.startswith("invalid splitter")

    def test_occupation_within_tolerance_below_zero_is_clamped(self, capsys):
        zero = run_cli(capsys, "measure", "--v", "0", "--n", "0")
        for n in (["--n=-1e-10"], ["--n", "-1e-10"]):
            code, out, err = run_cli(capsys, "measure", "--v", "0", *n)
            assert code == 0
            assert json.loads(out)["E_N"] == 0.0
            assert (code, out, err) == zero  # reported as n = 0

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

    @pytest.mark.parametrize(
        "args",
        [
            ["--v", "0.5", "--n", "-1e-10"],
            ["--v", "0.9", "--n", "0.6", "--theta", "-1e-3"],
            ["--v", "0.9", "--n", "0.6", "--t", "0.3", "--phi", "-1e-300"],
            # Non-finite values exit 2, as unphysical or invalid moments.
            ["--v", "0", "--n", "-inf"],
            ["--v", "0", "--n", "-Infinity"],
            ["--v", "0", "--n", "-nan"],
            ["--v", "0", "--n", "-INF"],
            ["--v", "1", "--n", "1", "--theta", "-inf"],
            ["--v", "1", "--n", "1", "--theta", "-NaN"],
            ["--n", "1", "--v", "-inf"],
        ],
    )
    def test_negative_values_in_scientific_notation_are_values(self, capsys, args):
        spaced = run_cli(capsys, "measure", *args)
        joined = run_cli(capsys, "measure", *args[:-2], f"{args[-2]}={args[-1]}")
        assert spaced == joined
        assert spaced[0] != 1

    def test_value_that_is_not_a_number_still_exits_1(self, capsys):
        spaced = run_cli(capsys, "measure", "--v", "0", "--n", "-infx")
        assert spaced == run_cli(capsys, "measure", "--v", "0", "--n=-infx")
        assert spaced[0] == 1 and spaced[1] == ""
        assert "invalid float value" in spaced[2]

    @pytest.mark.parametrize("phi", ["-1e-300", "-1e-17", "-0.0"])
    def test_tiny_negative_phi_prints_zero(self, capsys, phi):
        # One % would round -1e-300 up to 2 pi, outside [0, 2 pi).
        fixed = ["measure", "--v", "0.9", "--n", "0.6", "--t", "0.3"]
        zero = run_cli(capsys, *fixed, "--phi", "0")
        for args in (["--phi", phi], [f"--phi={phi}"]):
            result = run_cli(capsys, *fixed, *args)
            assert result == zero
            assert json.loads(result[1])["best_phi"] == 0.0

    def test_rounding_inside_the_physicality_slack_exits_2(self, capsys):
        # Within the slack of CenteredMoments, yet det V rounds below zero.
        v, n = 100000.50004870025, 100000.0
        assert CenteredMoments(v, 0.0, n).v == v
        code, out, err = run_cli(capsys, "measure", "--v", repr(v), "--n", repr(n))
        assert (code, out) == (2, "")
        assert err == (
            "unphysical moments: covariance matrix has det V = -2.435024896181796 <= 0\n"
        )

    def test_stdout_is_the_report_as_a_dict(self, capsys):
        for args, c, bs in (
            (["--v", "0.9", "--theta", "0.4", "--n", "0.6"], CenteredMoments(0.9, 0.4, 0.6), None),
            (["--v", "0.5", "--n", "0.4", "--t", "0.3", "--phi", "1"],
             CenteredMoments(0.5, 0.0, 0.4), BeamSplitterParams(0.3, 1.0)),
        ):
            report = build_report(c, bs)
            code, out, _ = run_cli(capsys, "measure", *args)
            assert code == 0
            assert out == json.dumps(dataclasses.asdict(report)) + "\n"
            fields = [f.name for f in dataclasses.fields(NonclassicalityReport)]
            assert list(vars(report)) == fields == REPORT_KEYS

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "--n", "0", "--v", "0", "--bogus", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "extra", [["-q"], ["-1e-3"], ["--n2", "-1e-3"]],
        ids=["short", "negative-number", "long-with-negative-value"],
    )
    def test_unknown_argument_still_exits_1(self, capsys, extra):
        code, out, err = run_cli(capsys, "measure", "--n", "0", "--v", "0", *extra)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

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

    @pytest.mark.parametrize(
        "args",
        [("--r-min", "0", "--r-max", "89.4", "--steps", "4471"),
         ("--r-min", "10", "--r-max", "14", "--steps", "9")],
        ids=["step-0.02", "r-10-to-14"],
    )
    def test_rows_are_exact_up_to_the_physicality_bound(self, capsys, args):
        # A squeezed vacuum has E_N = r.  lambda- = e^{-2r}/2 reaches the
        # spectrum in closed form, so no row loses digits to the rounding of
        # n and v, which are of size e^{2r}/4.
        code, out, err = run_cli(capsys, "squeezed-sweep", *args)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        rs = [float(row[0]) for row in rows]
        for r, row in zip(rs, rows):
            for column in (row[1], row[2]):
                error = abs(float(column) - r)
                assert error <= 4.5e-16 and (r < 0.5 or error <= 2 * math.ulp(r)), row
            assert row[3:] == (["0.70710678118654757", "0"] if r > 0 else ["0", "0"]), row
        past_5 = [float(row[1]) for r, row in zip(rs, rows) if r > 5]
        assert past_5 and all(b > a for a, b in zip(past_5, past_5[1:]))

    def test_squeezing_beyond_moment_rounding_exits_2(self, capsys):
        # From r ~ 89.416 the occupation sinh^2 r passes the physicality bound
        # of ~1.16e77.  Further out it overflows to inf (at r = 400), and
        # cosh r raises OverflowError (at r = 1000).
        for args in (
            ("--steps", "2", "--r-min", "89.45", "--r-max", "89.45"),
            ("--steps", "2", "--r-max", "400"),
            ("--steps", "2", "--r-max", "1000"),
        ):
            code, out, err = run_cli(capsys, "squeezed-sweep", *args)
            assert code == 2, args
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("unphysical moments at r="), args

    @pytest.mark.parametrize("option", ["--alpha", "--theta"])
    def test_removed_options_exit_1(self, capsys, option):
        # No printed column depends on the displacement or the squeezing angle.
        code, out, err = run_cli(capsys, "squeezed-sweep", "--steps", "2", option, "1")
        assert (code, out) == (1, "")
        assert err == f"nonclassicality: error: unrecognized arguments: {option} 1\n"

    def test_negative_zero_range_prints_zero(self, capsys):
        # linspace ends on its stop, here -0.0; the r column prints 0, not -0.
        code, out, _ = run_cli(
            capsys, "squeezed-sweep", "--steps", "2", "--r-min", "-0.0", "--r-max", "-0.0"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["0", "0"]

    def test_underflowing_step_grid(self, capsys):
        # The step 5e-324 / 2 rounds to 0: linspace's other branch, whose
        # middle point 1/2 * 5e-324 rounds to 0 too.
        code, out, err = run_cli(
            capsys, "squeezed-sweep", "--r-min", "0", "--r-max", "5e-324", "--steps", "3"
        )
        assert (code, err) == (0, "")
        assert out == (
            "r,E_N_fixed_theta,E_N_optimized_theta,best_t,best_phi\n"
            "0,0,0,0,0\n"
            "0,0,0,0,0\n"
            "4.9406564584124654e-324,0,0,0.70710678118654757,0\n"
        )

    def test_bad_range_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "squeezed-sweep", "--steps", "1")
        assert code == 1
        code, _, _ = run_cli(
            capsys, "squeezed-sweep", "--r-min", "2", "--r-max", "1"
        )
        assert code == 1

    @pytest.mark.parametrize("option,value", [("--r-max", "-inf")])
    def test_spaced_non_finite_values_are_values(self, capsys, option, value):
        spaced = run_cli(capsys, "squeezed-sweep", "--steps", "2", option, value)
        assert spaced == run_cli(capsys, "squeezed-sweep", "--steps", "2", f"{option}={value}")
        code, out, err = spaced
        assert code == 1 and out == ""
        assert err.endswith("must be finite\n")

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


#: (start, stop, num) for both branches of numpy.linspace: a zero step from
#: equal ends or from underflow (where 1e-323 / 5 rounds to 0 but the points
#: i / 5 * 1e-323 do not), a -0.0 stop, spans across zero, magnitudes near
#: 1e300, and 2 and 400 points.
GRID_CORPUS = [
    (0.3, 0.3, 7), (0.0, 5e-324, 3), (0.0, 1e-323, 6), (-0.0, -0.0, 2), (1.0, -0.0, 4),
    (0.0, -0.0, 400), (-1.5, 2.5, 41), (2.5, -1e-3, 7), (-1e300, 1.7e300, 9),
    (1e300, 1.1e300, 400), (1.7e300, 1.7e300, 3), (0.1, 0.7, 2), (0.0, 2.0, 400),
]


@pytest.mark.parametrize("start,stop,num", GRID_CORPUS)
def test_grid_is_linspace_bit_for_bit(start, stop, num):
    grid = cli._grid(start, stop, num)
    assert all(type(point) is float for point in grid)
    expected = np.linspace(start, stop, num) + 0.0
    assert [point.hex() for point in grid] == [float(point).hex() for point in expected]


def test_grid_is_linspace_on_random_grids():
    rng = np.random.default_rng(32)
    for _ in range(500):
        scale = 10.0 ** rng.integers(-320, 300)
        start, stop = (rng.standard_normal(2) * scale).tolist()
        num = int(rng.integers(2, 60))
        expected = np.linspace(start, stop, num) + 0.0
        assert [p.hex() for p in cli._grid(start, stop, num)] == [float(p).hex() for p in expected]


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

    def test_negative_zero_coupling_prints_zero(self, capsys):
        # linspace ends on its stop, here -0.0; neither g column prints -0.
        code, out, _ = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8", "--steps", "2",
            "--g-min", "-0.0", "--g-max", "-0.0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[:2] for row in rows] == [["0", "0"], ["0", "0"]]

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

    def test_frequencies_whose_g_critical_underflows_exit_1(self, capsys):
        # At the subnormal floor the counter-rotating g_c, half of
        # sqrt(omega omega_eg) = 5e-324, rounds to 0: no g / g_c column.
        code, out, err = run_cli(
            capsys, "dicke-sweep", "--n-atoms", "2", "--fock-dim", "8", "--steps", "3",
            "--omega", "5e-324", "--omega-eg", "5e-324", "--counter-rotating",
        )
        assert (code, out) == (1, "")
        assert err == ("invalid model: omega omega_eg is so small that the critical "
                       "coupling underflows to 0\n")

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

    @pytest.mark.parametrize("model", [[], ["--counter-rotating"]], ids=["co", "counter"])
    @pytest.mark.parametrize("edge", [["--omega", "1e-300"], ["--g-max", "20"]], ids=["omega1e-300", "g20"])
    def test_edge_sweeps_in_a_fresh_process(self, model, edge):
        # Photons that cost nothing (omega = 1e-300: levels tied by rounding)
        # and a coupling far above g_c, in a fresh interpreter with every
        # warning an error.  Mixing degenerate pairs runs the parity
        # sectors' scale, their inertia probes, the pair's sum and the
        # whole-H residual at those edges.  Each row's field is truncated at
        # fock_dim 8, so stderr holds the CLI's own truncation warnings and
        # nothing else.
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nonclassicality", "dicke-sweep", "--n-atoms", "2",
             "--fock-dim", "8", "--steps", "3", *edge, *model, "--mix-degenerate"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        for line in proc.stderr.splitlines():
            assert line.startswith("warning: g=") and line.endswith("; raise --fock-dim"), proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert header == ["g", "g_over_gc", "ground_energy", "mean_photon",
                          "E_N", "lambda_simon", "degenerate_flag"]
        assert len(rows) == 3

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
            moments = field_moments(ground_state(cfg))
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

    def test_coherent_trials_discrepancy_tiny(self, capsys):
        # Coherent inputs split into a product state, whose spectrum is
        # degenerate: the measured spectrum must still agree to rounding.
        code, out, _ = run_cli(
            capsys, "oracle-check", "--trials", "20", "--dim", "40", "--seed", "7", "--r-max", "0",
        )
        assert code == 0
        discrepancy = float(out.split("max covariance discrepancy:")[1].split()[0])
        assert discrepancy < 1e-12

    def test_nan_discrepancy_exits_4(self, capsys, monkeypatch):
        # A NaN prediction is no agreement: it must fail, not vanish from the maximum.
        def nan_entries(*args):
            return (math.nan,) * 10

        monkeypatch.setattr(fock, "_block_entries", nan_entries)
        code, out, _ = run_cli(capsys, "oracle-check", "--trials", "3", "--dim", "20")
        assert code == 4
        assert out.splitlines()[1:] == ["max covariance discrepancy: nan", "FAIL (threshold 1e-06)"]

    def test_split_state_off_its_norm_exits_4(self, capsys, monkeypatch):
        # A split state that fails its norm check is no agreement either: the
        # run reports NaN and fails, with no traceback.
        split = fock._apply_beam_splitter_images

        def nan_split(*args):
            out = split(*args)
            out *= math.nan
            return out

        monkeypatch.setattr(fock, "_apply_beam_splitter_images", nan_split)
        code, out, err = run_cli(capsys, "oracle-check", "--trials", "3", "--dim", "20")
        assert code == 4 and err == ""
        assert out.splitlines()[1:] == ["max covariance discrepancy: nan", "FAIL (threshold 1e-06)"]

    def test_spectrum_off_by_1e_3_exits_4(self, capsys, monkeypatch):
        # The reported spectrum is checked too: a closed form that drifts
        # from the measured one fails the oracle, with the blocks intact.
        spectrum = fock.output_spectrum

        def drifted(v, n, t):
            return tuple(x + 1e-3 for x in spectrum(v, n, t))

        monkeypatch.setattr(fock, "output_spectrum", drifted)
        code, out, err = run_cli(capsys, "oracle-check", "--trials", "3", "--dim", "40")
        assert code == 4 and err == ""
        assert out.splitlines()[2] == "FAIL (threshold 1e-06)"
        assert float(out.split("max covariance discrepancy:")[1].split()[0]) >= 1e-3 * (1 - 1e-9)

    @pytest.mark.parametrize("dim", ["2", "400"])
    def test_edge_sizes_in_a_fresh_process(self, dim):
        # The per-size tables and the shifted-slice kernel at both ends of the
        # size range, in a fresh interpreter with every warning an error.
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nonclassicality", "oracle-check",
             "--trials", "2", "--dim", dim],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[2] == "PASS (threshold 1e-06)"

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


OUTPUT_COMMANDS = {
    "measure": ["measure", "--v", "0.9", "--n", "0.6"],
    "squeezed-sweep": ["squeezed-sweep", "--steps", "2"],
    "dicke-sweep": ["dicke-sweep", "--n-atoms", "2", "--fock-dim", "8", "--steps", "2"],
    "oracle-check": ["oracle-check", "--trials", "2"],
}


class TestOutputOption:
    @pytest.mark.parametrize(
        "command", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS.keys()
    )
    def test_unwritable_output_exits_1(self, capsys, tmp_path, command):
        # One stderr line, no traceback and nothing on stdout.
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *command, "--output", str(path))
        assert code == 1 and out == ""
        assert err == f"cannot write {path}: {os.strerror(errno.ENOENT)}\n"
        assert not path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "command",
        [*OUTPUT_COMMANDS.values(), ["squeezed-sweep", "--steps", "400"]],
        ids=[*OUTPUT_COMMANDS.keys(), "write-past-the-buffer"],
    )
    def test_failed_write_exits_1(self, capsys, command):
        # /dev/full opens but refuses every write: a short output fails at the
        # flush on close, a long one at a write once the buffer fills.
        code, out, err = run_cli(capsys, *command, "--output", "/dev/full")
        assert code == 1 and out == ""
        assert err == f"cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "command", [OUTPUT_COMMANDS["measure"], ["squeezed-sweep", "--steps", "400"]],
        ids=["measure", "squeezed-sweep"],
    )
    def test_failed_stdout_write_exits_1(self, command, unbuffered):
        # A buffered stdout fails at the command's flush, an unbuffered one at
        # its first write.  Either way one stderr line, and nothing more from
        # the flush of stdout at interpreter exit.
        with open("/dev/full", "w") as full:
            run = subprocess.run(
                [sys.executable, "-m", "nonclassicality", *command], stdout=full,
                stderr=subprocess.PIPE, text=True,
                env={**subprocess_env(), "PYTHONUNBUFFERED": unbuffered},
            )
        assert run.returncode == 1
        assert run.stderr == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    @pytest.mark.parametrize("command", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS.keys())
    def test_closed_stdout_exits_1(self, command):
        # With descriptor 1 closed, Python starts with sys.stdout None: one
        # stderr line and exit 1, not a traceback.
        run = subprocess.run(
            [sys.executable, "-m", "nonclassicality", *command], stderr=subprocess.PIPE,
            text=True, env=subprocess_env(), preexec_fn=lambda: os.close(1),
        )
        assert run.returncode == 1
        assert run.stderr == f"cannot write stdout: {os.strerror(errno.EBADF)}\n"

    def test_string_io_stdout(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(OUTPUT_COMMANDS["measure"]) == 0
        assert list(json.loads(out.getvalue())) == REPORT_KEYS

    def test_failed_sweep_leaves_no_file(self, capsys, tmp_path):
        # The file is opened only once every row is computed.
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "squeezed-sweep", "--r-max", "400", "--output", str(path))
        assert code == 2 and out == ""
        assert not path.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="limits the child's address space")
    @pytest.mark.parametrize(
        "command",
        [
            ["oracle-check", "--dim", "30000", "--trials", "1"],
            ["oracle-check", "--trials", str(10**9)],
            ["dicke-sweep", "--n-atoms", "60000", "--fock-dim", "60000", "--steps", "2"],
        ],
        ids=["oracle-dim", "oracle-trials", "dicke-sweep"],
    )
    def test_refused_allocation_exits_1_with_one_line(self, tmp_path, command):
        # Allocations of 27 to 54 GiB under a 3 GiB address-space limit: one
        # stderr line naming the allocation, no traceback and no file.
        import resource

        limit = 3 * 2**30
        path = tmp_path / "out.txt"
        run = subprocess.run(
            [sys.executable, "-m", "nonclassicality", *command, "--output", str(path)],
            capture_output=True, text=True, env=subprocess_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert run.returncode == 1 and run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr
        assert run.stderr.startswith("out of memory: Unable to allocate ")
        assert not path.exists()


#: The largest occupation the physicality bound admits.
LARGEST_N = "1.1579208923731618e+77"

#: argv forms that take each branch of main's dispatch.
PARSE_CORPUS = {
    **OUTPUT_COMMANDS,
    "help": ["--help"],
    "measure-help": ["measure", "--help"],
    "help-after-options": ["measure", "--v", "1", "--n", "1", "-h"],
    "empty": [],
    "command-only": ["measure"],
    "unknown-command": ["bogus"],
    "abbreviated-command": ["meas", "--v", "1", "--n", "1"],
    "dashes-before-command": ["--", "measure", "--v", "1", "--n", "1"],
    "dashes-after-command": ["measure", "--", "--v", "1", "--n", "1"],
    "option-before-command": ["-x", "measure", "--v", "1", "--n", "1"],
    "extra-positional": ["measure", "--v", "1", "--n", "1", "extra"],
    "extra-option": ["measure", "--v", "1", "--n", "1", "--bogus", "1"],
    "extra-after-sweep": ["squeezed-sweep", "--steps", "2", "stray"],
    "missing-required": ["measure", "--v", "1"],
    "abbreviated-option": ["measure", "--v", "1", "--n", "1", "--thet", "0.5"],
    "removed-option": ["measure", "--v", "1", "--n", "1", "--mode", "fixed"],
    "repeated-option": ["measure", "--v", "1", "--v", "0.5", "--n", "1"],
    "spaced-exponent": ["measure", "--v", "0", "--n", "-1e-10"],
    "spaced-inf": ["measure", "--v", "0", "--n", "-inf"],
    "spaced-complex": ["squeezed-sweep", "--steps", "2", "--alpha", "-0.5+0.2j"],
    "attached-value": ["measure", "--v=1", "--n", "1"],
}


def top_level_main(argv):
    """main as one top-level parse_args of the whole argv, with its exit codes."""
    try:
        args = cli._build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


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

    @pytest.mark.parametrize("argv", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
    def test_both_parse_routes_agree(self, capsys, monkeypatch, argv):
        # main parses the options once, with the named subcommand's parser;
        # one top-level parse_args of the whole argv is the reference.
        direct = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["nonclassicality", *argv])
        from_sys_argv = main()
        assert (from_sys_argv, *capsys.readouterr()) == direct
        code = top_level_main(list(argv))
        assert (code, *capsys.readouterr()) == direct

    @pytest.mark.parametrize(
        "args,code,printed",
        [
            (["measure", "--n", "0", "--v", "0"], 0, '"E_N": 0.0,'),
            # The spectrum is float arithmetic, whose ** raises OverflowError
            # where NumPy returned inf: at the largest admitted occupation,
            # with v = 0 and v = n, maximized and at a fixed splitter.
            (["measure", "--v", "0", "--n", LARGEST_N], 0, ""),
            (["measure", "--v", "0", "--n", LARGEST_N, "--t", "0.3"], 0, ""),
            (["measure", "--v", LARGEST_N, "--n", LARGEST_N], 0, ""),
            (["measure", "--v", LARGEST_N, "--n", LARGEST_N, "--t", "0.3"], 0, ""),
            # A negative value in scientific notation after a space is a value.
            (["measure", "--v", "0.9", "--n", "0.6", "--theta", "-1e-3"], 0, ""),
            # So is a spaced -inf: an unphysical moment, as --n=-inf is.
            (["measure", "--v", "0", "--n", "-inf"], 2, ""),
            # theta and phi share one wrap into [0, 2 pi): a tiny negative phi is 0.
            (["measure", "--v", "0.9", "--n", "0.6", "--t", "0.3", "--phi", "-1e-300"],
             0, '"best_phi": 0.0'),
        ],
        ids=[
            "vacuum", "largest-n-v0", "largest-n-v0-fixed", "largest-n-v-n",
            "largest-n-v-n-fixed", "spaced-exponent-theta", "spaced-inf-n", "tiny-negative-phi",
        ],
    )
    def test_module_invocation(self, args, code, printed):
        # A fresh interpreter with every warning an error, through sys.argv.
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nonclassicality", *args],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
            assert list(json.loads(proc.stdout)) == REPORT_KEYS
        else:
            assert proc.stdout == "" and proc.stderr.startswith("unphysical moments: ")
            assert len(proc.stderr.splitlines()) == 1
        assert printed in proc.stdout
