"""Command-line front end: single-shot measure, figure sweeps, oracle check.

Outputs are plotting-tool neutral: a flat JSON object for ``measure`` and
headered CSV (LF endings, 17 significant digits, no locale formatting) for
the sweeps.  All angles are radians.  Exit codes: 0 success, 1 malformed
arguments, 2 unphysical moments, 3 eigensolver non-convergence in a sweep,
4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .dicke import DickeConfig, field_moments, fock_tail_weight, ground_state
from .entanglement import BALANCED_T, BeamSplitterParams, build_report
from .fock import TAIL_TOL, covariance_check
from .moments import (
    CenteredMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
    squeezed_coherent_moments,
)

ORACLE_THRESHOLD = 1e-6


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on malformed arguments, with one
    stderr line like the CLI's own argument checks (usage is under --help)."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@contextmanager
def _output_stream(path):
    if path is None:
        yield sys.stdout
    else:
        handle = open(path, "w", encoding="utf-8", newline="\n")
        try:
            yield handle
        finally:
            handle.close()


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _failed_check(checks) -> bool:
    """Write the message of the first failed (ok, message) check to stderr; True if one failed."""
    for ok, message in checks:
        if not ok:
            sys.stderr.write(message + "\n")
            return True
    return False


def _write_csv(stream, header, rows):
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def _cmd_measure(args) -> int:
    try:
        c = CenteredMoments(v=args.v, theta=args.theta, n=args.n)
    except UnphysicalMomentsError as exc:
        sys.stderr.write(f"unphysical moments: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"invalid moments: {exc}\n")
        return 2
    bs = None
    if args.mode == "fixed":
        try:
            bs = BeamSplitterParams(args.t, args.phi)
        except ValueError as exc:
            sys.stderr.write(f"invalid splitter: {exc}\n")
            return 1
    try:
        report = build_report(c, bs)
    except UnphysicalMomentsError as exc:
        sys.stderr.write(f"unphysical moments: {exc}\n")
        return 2
    with _output_stream(args.output) as stream:
        stream.write(json.dumps(dataclasses.asdict(report)) + "\n")
    return 0


def _cmd_squeezed_sweep(args) -> int:
    if _failed_check([
        (args.steps >= 2, "steps must be >= 2"),
        (math.isfinite(args.r_min) and math.isfinite(args.r_max), "r-min and r-max must be finite"),
        (0.0 <= args.r_min <= args.r_max, "need 0 <= r-min <= r-max"),
        (math.isfinite(args.theta), "theta must be finite"),
        (cmath.isfinite(args.alpha), "alpha must be finite"),
    ]):
        return 1
    header = ["r", "E_N_fixed_theta", "E_N_optimized_theta", "best_t", "best_phi"]
    rows = []
    for r in np.linspace(args.r_min, args.r_max, args.steps):
        params = SqueezedCoherentParams(alpha=args.alpha, strength=float(r), angle=args.theta)
        # The maximum over (t, phi) does not depend on the squeezing angle, so
        # the angle-optimized column equals this one.
        try:
            report = build_report(squeezed_coherent_moments(params))
        except UnphysicalMomentsError as exc:
            sys.stderr.write(f"unphysical moments at r={_fmt(r)}: {exc}\n")
            return 2
        rows.append(
            [
                _fmt(r),
                _fmt(report.E_N),
                _fmt(report.E_N),
                _fmt(report.best_t),
                _fmt(report.best_phi),
            ]
        )
    with _output_stream(args.output) as stream:
        _write_csv(stream, header, rows)
    return 0


def _cmd_dicke_sweep(args) -> int:
    # Chained comparisons are False for NaN, so these also reject it.
    if _failed_check([
        (args.steps >= 2, "steps must be >= 2"),
        (0.0 <= args.g_min <= args.g_max < math.inf, "need finite 0 <= g-min <= g-max"),
    ]):
        return 1
    try:
        # The model's own checks; its amplitudes grow with g, so a model
        # valid at g-max is valid on every row.
        model = DickeConfig(
            n_atoms=args.n_atoms,
            fock_dim=args.fock_dim,
            omega=args.omega,
            omega_eg=args.omega_eg,
            g=args.g_max,
            counter_rotating=args.counter_rotating,
        )
    except ValueError as exc:
        sys.stderr.write(f"invalid model: {exc}\n")
        return 1
    header = [
        "g", "g_over_gc", "ground_energy", "mean_photon",
        "E_N", "lambda_simon", "degenerate_flag",
    ]
    rows = []
    any_unconverged = False
    for g in np.linspace(args.g_min, args.g_max, args.steps):
        cfg = dataclasses.replace(model, g=float(g))
        result = ground_state(cfg, mix_degenerate=args.mix_degenerate)
        if not result.converged:
            any_unconverged = True
            nan = _fmt(math.nan)
            rows.append(
                [_fmt(g), _fmt(g / cfg.g_critical), nan, nan, nan, nan,
                 str(int(result.degenerate))]
            )
            continue
        tail = fock_tail_weight(result, cfg)
        if tail >= TAIL_TOL:
            sys.stderr.write(
                f"warning: g={_fmt(g)}: field truncated, squared amplitude {tail:.2g} "
                f"on the top two Fock levels (limit {TAIL_TOL:g}); raise --fock-dim\n"
            )
        moments = field_moments(result, cfg)
        try:
            report = build_report(moments)
        except UnphysicalMomentsError as exc:
            sys.stderr.write(f"unphysical moments at g={_fmt(g)}: {exc}\n")
            return 2
        rows.append(
            [
                _fmt(g),
                _fmt(g / cfg.g_critical),
                _fmt(result.energy),
                _fmt(moments.photon_number),
                _fmt(report.E_N),
                _fmt(report.lambda_simon),
                str(int(result.degenerate)),
            ]
        )
    with _output_stream(args.output) as stream:
        _write_csv(stream, header, rows)
    return 3 if any_unconverged else 0


def _cmd_oracle_check(args) -> int:
    if _failed_check([
        (args.trials >= 1, "trials must be >= 1"),
        (args.dim >= 2, "dim must be >= 2"),
        (args.seed >= 0, "seed must be >= 0"),
        (0.0 <= args.r_max < math.inf, "r-max must be finite and >= 0"),
        (math.isfinite(args.alpha_max), "alpha-max must be finite"),
    ]):
        return 1
    worst = covariance_check(
        trials=args.trials,
        dim=args.dim,
        seed=args.seed,
        r_max=args.r_max,
        alpha_max=args.alpha_max,
        corrupt_phase=args.corrupt_phase,
    )
    passed = worst < ORACLE_THRESHOLD
    with _output_stream(args.output) as stream:
        stream.write(
            f"oracle check: trials={args.trials} dim={args.dim} seed={args.seed}\n"
        )
        stream.write(f"max covariance discrepancy: {worst:.6e}\n")
        stream.write(
            f"{'PASS' if passed else 'FAIL'} (threshold {ORACLE_THRESHOLD:g})\n"
        )
    return 0 if passed else 4


@functools.cache
def _build_parser() -> _ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it costs more than the measure command's arithmetic.
    parser = _ArgumentParser(
        prog="nonclassicality",
        description="Quantify single-mode nonclassicality from <a^2> and <a^dag a>.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    measure = sub.add_parser(
        "measure",
        help="evaluate every criterion for one set of centered moments (JSON)",
    )
    measure.add_argument("--n", type=float, required=True, help="centered <a^dag a>")
    measure.add_argument("--v", type=float, required=True, help="centered |<a^2>|")
    measure.add_argument("--theta", type=float, default=0.0, help="phase of centered <a^2> (rad)")
    measure.add_argument(
        "--mode", choices=("fixed", "maximize"), default="maximize",
        help="evaluate at the given (t, phi) or at the maximizing ones",
    )
    measure.add_argument("--t", type=float, default=BALANCED_T, help="transmission for --mode fixed")
    measure.add_argument("--phi", type=float, default=0.0, help="splitter phase for --mode fixed (rad)")
    measure.add_argument("--output", default=None, help="write to file instead of stdout")
    measure.set_defaults(func=_cmd_measure)

    sweep = sub.add_parser(
        "squeezed-sweep",
        help="E_N of a squeezed coherent state versus squeezing strength (CSV)",
    )
    sweep.add_argument("--r-min", type=float, default=0.0)
    sweep.add_argument("--r-max", type=float, default=2.0)
    sweep.add_argument("--steps", type=int, default=41)
    sweep.add_argument("--theta", type=float, default=0.0, help="squeezing angle of the fixed-theta column (rad)")
    sweep.add_argument("--alpha", type=complex, default=0j, help="coherent displacement, e.g. '0.5+0.2j'")
    sweep.add_argument("--output", default=None)
    sweep.set_defaults(func=_cmd_squeezed_sweep)

    dicke = sub.add_parser(
        "dicke-sweep",
        help="ground-state field nonclassicality across the superradiant transition (CSV)",
    )
    dicke.add_argument("--n-atoms", type=int, default=80)
    dicke.add_argument("--fock-dim", type=int, default=142)
    dicke.add_argument("--g-min", type=float, default=0.0)
    dicke.add_argument("--g-max", type=float, default=2.0)
    dicke.add_argument("--steps", type=int, default=101)
    dicke.add_argument("--omega", type=float, default=1.0)
    dicke.add_argument("--omega-eg", type=float, default=1.0)
    dicke.add_argument(
        "--counter-rotating", action="store_true",
        help="include the counter-rotating coupling terms",
    )
    dicke.add_argument(
        "--mix-degenerate", action="store_true",
        help="return the equal-weight mix of a degenerate ground pair, with real <a> >= 0",
    )
    dicke.add_argument("--output", default=None)
    dicke.set_defaults(func=_cmd_dicke_sweep)

    oracle = sub.add_parser(
        "oracle-check",
        help="compare closed-form covariances against the Fock-space simulation",
    )
    oracle.add_argument("--trials", type=int, default=50)
    oracle.add_argument("--dim", type=int, default=80)
    oracle.add_argument("--seed", type=int, default=20240901, help="PCG64 stream seed")
    oracle.add_argument("--r-max", type=float, default=1.5)
    oracle.add_argument("--alpha-max", type=float, default=1.0)
    oracle.add_argument("--corrupt-phase", action="store_true", help=argparse.SUPPRESS)
    oracle.add_argument("--output", default=None)
    oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
