"""Command-line front end: single-shot measure, figure sweeps, oracle check.

Outputs are plotting-tool neutral: a flat JSON object for ``measure`` and
headered CSV (LF endings, 17 significant digits, no locale formatting) for
the sweeps.  All angles are radians.  Exit codes: 0 success, 1 malformed
arguments or an allocation that the machine refuses, 2 unphysical moments,
3 eigensolver non-convergence in a sweep, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager

from .entanglement import build_report
from .moments import BeamSplitterParams, CenteredMoments, UnphysicalMomentsError
from .optimize import BALANCED_T

ORACLE_THRESHOLD = 1e-6


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on malformed arguments, with one
    stderr line like the CLI's own argument checks (usage is under --help).

    Option values that start like a negative number are taken as values.
    argparse's default pattern in Python 3.10 to 3.12 matches only plain
    decimals such as -0.5, so it read "--n -1e-10", "--theta -1e-3" and
    "--n -inf" as an option with its value missing.  No option of this CLI
    looks like a number, so none is shadowed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Applied with re.match: "-" and a digit, "-." and a digit, or "-inf"
        # or "-nan" in any case ("-Infinity" included), as float() reads them.
        self._negative_number_matcher = re.compile(r"-\.?\d|-(?:inf|nan)", re.IGNORECASE)

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@contextmanager
def _output_stream(path):
    """stdout, or the file at path; one that cannot be opened, written, flushed
    or closed exits 1 with one stderr line.  So does a closed stdout, which
    Python gives as None when descriptor 1 is closed at start-up."""
    try:
        if path is None:
            if sys.stdout is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                yield handle
    except OSError as exc:
        sys.stderr.write(f"cannot write {'stdout' if path is None else path}: {exc.strerror or exc}\n")
        # So that Python's flush of stdout at exit has nothing to fail on; a
        # closed stdout has no descriptor to redirect.
        if path is None and sys.stdout is not None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise SystemExit(1) from None


def _grid(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) + 0.0 for num >= 2, bit for bit: point i
    is i * step + start (i / div * delta + start where the step underflows to 0),
    the last is stop, and + 0.0 turns the -0.0 of a stop of -0.0 into 0.0."""
    div, delta = num - 1, stop - start
    step = delta / div
    points = [(i / div * delta if step == 0 else i * step) + start for i in range(div)]
    return [point + 0.0 for point in (*points, stop)]


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
    if args.t is not None or args.phi is not None:  # fixed; a missing half keeps its default
        try:
            bs = BeamSplitterParams(BALANCED_T if args.t is None else args.t,
                                    0.0 if args.phi is None else args.phi)
        except ValueError as exc:
            sys.stderr.write(f"invalid splitter: {exc}\n")
            return 1
    try:
        report = build_report(c, bs)
    except UnphysicalMomentsError as exc:
        sys.stderr.write(f"unphysical moments: {exc}\n")
        return 2
    with _output_stream(args.output) as stream:
        # The report is flat, so its __dict__ serializes as asdict would,
        # in field order, without asdict's deep copy.
        stream.write(json.dumps(vars(report)) + "\n")
    return 0


def _cmd_squeezed_sweep(args) -> int:
    if _failed_check([
        (args.steps >= 2, "steps must be >= 2"),
        (math.isfinite(args.r_min) and math.isfinite(args.r_max), "r-min and r-max must be finite"),
        (0.0 <= args.r_min <= args.r_max, "need 0 <= r-min <= r-max"),
    ]):
        return 1
    header = ["r", "E_N_fixed_theta", "E_N_optimized_theta", "best_t", "best_phi"]
    rows = []
    for r in _grid(args.r_min, args.r_max, args.steps):
        # Every S(beta) D(alpha)|0> has the squeezed vacuum's centered moments,
        # with lambda- = e^{-2r}/2 exactly.  The maximum does not depend on the
        # squeezing angle, so the angle-optimized column equals this angle-0 one.
        try:
            c, s = math.cosh(r), math.sinh(r)
            moments = CenteredMoments(v=c * s, theta=math.pi, n=s * s, lam_minus=0.5 * math.exp(-2.0 * r))
            report = build_report(moments)
        except (OverflowError, UnphysicalMomentsError) as exc:
            sys.stderr.write(f"unphysical moments at r={_fmt(r)}: {exc}\n")
            return 2
        rows.append([_fmt(x) for x in (r, report.E_N, report.E_N, report.best_t, report.best_phi)])
    with _output_stream(args.output) as stream:
        _write_csv(stream, header, rows)
    return 0


def _cmd_dicke_sweep(args) -> int:
    # Imported here: dicke loads SciPy's LAPACK, which no other command needs.
    from .dicke import DickeConfig, field_moments, fock_tail_weight, ground_state
    from .fock import TAIL_TOL

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
    for g in _grid(args.g_min, args.g_max, args.steps):
        cfg = dataclasses.replace(model, g=g)
        result = ground_state(cfg, mix_degenerate=args.mix_degenerate)
        if not result.converged:
            any_unconverged = True
            nan = _fmt(math.nan)
            rows.append(
                [_fmt(g), _fmt(g / cfg.g_critical), nan, nan, nan, nan,
                 str(int(result.degenerate))]
            )
            continue
        tail = fock_tail_weight(result)
        if tail >= TAIL_TOL:
            sys.stderr.write(
                f"warning: g={_fmt(g)}: field truncated, squared amplitude {tail:.2g} "
                f"on the top two Fock levels (limit {TAIL_TOL:g}); raise --fock-dim\n"
            )
        moments = field_moments(result)
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
    from .fock import covariance_check  # imported here: the Fock oracle loads NumPy

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
    # building it costs more than the measure command's arithmetic.  Its
    # ``commands`` maps each command word to that subcommand's parser, so
    # main can parse a call's options in one pass instead of two.
    parser = _ArgumentParser(
        prog="nonclassicality",
        description="Quantify single-mode nonclassicality from <a^2> and <a^dag a>.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    parser.commands = sub.choices

    measure = sub.add_parser(
        "measure",
        help="evaluate every criterion for one set of centered moments (JSON)",
    )
    measure.add_argument("--n", type=float, required=True, help="centered <a^dag a>")
    measure.add_argument("--v", type=float, required=True, help="centered |<a^2>|")
    measure.add_argument("--theta", type=float, default=0.0, help="phase of centered <a^2> (rad)")
    # Either one fixes the splitter; without both, the maximizing one is used.
    measure.add_argument("--t", type=float, help="fixed transmission (default 1/sqrt(2) with --phi)")
    measure.add_argument("--phi", type=float, help="fixed splitter phase, rad (default 0 with --t)")
    measure.add_argument("--output", default=None, help="write to file instead of stdout")
    measure.set_defaults(func=_cmd_measure)

    sweep = sub.add_parser(
        "squeezed-sweep",
        help="E_N of a squeezed state, at any displacement, versus squeezing strength r (CSV)",
    )
    sweep.add_argument("--r-min", type=float, default=0.0)
    sweep.add_argument("--r-max", type=float, default=2.0)
    sweep.add_argument("--steps", type=int, default=41)
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        # The top-level pass would only read the command word and hand the
        # rest to the subcommand's parser.  Top-level help, an unknown or
        # missing command and leftover arguments still go through the
        # top-level parser, which words their messages.
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except MemoryError as exc:
        # NumPy's message names the size and shape that it could not allocate.
        sys.stderr.write(f"out of memory: {str(exc) or 'allocation refused'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
