"""The benchmark's workloads: the operations of one round and their checks.

A run repeats one round of operations, so every run attempts the same mix
and known failures are the same share of it.  Each operation is the argument
list of one ``nonclassicality`` CLI call.  ``check`` looks at the outputs of
one round, and may make untimed calls of its own through ``call``.  It
returns the indices of the operations that failed in a known way, which are
counted as failed, and the problems that make the run incorrect: any other
wrong output, and any failed check on the round as a whole.  A known failure
is matched by its signature, the exit code and wrong value it gives today;
an operation that gives the right output instead simply passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import (
    collective_hamiltonian,
    concavity_violations,
    corotating_ground,
    entanglement_potential,
    superradiant_photon_number,
)


@dataclass(frozen=True)
class Workload:
    warmup: list[str]
    ops: list[list[str]]
    #: ([(exit code, stdout)] of one round, call(argv) -> (exit code, stdout))
    #: -> (indices of known failures, problems)
    check: Callable[[list, Callable], tuple[set, list[str]]]


# --- measure -----------------------------------------------------------------

REPORT_KEYS = [
    "eta_minus", "eta_plus", "E_N", "lambda_simon", "lambda_dgcz",
    "dgcz_simple", "hz", "best_t", "best_phi",
]

#: Absolute tolerance on a reported E_N.  The program takes the square root of
#: a discriminant that vanishes at the optimum, so rounding leaves up to
#: ~sqrt(eps) / 4 = 4e-9 where E_N is 0 (7.5e-9 seen at n ~ 1e4).
E_N_TOL = 1e-7

#: Squeezed vacua (theta = 0) whose E_N the grid optimizer misses by more
#: than E_N_TOL, through cancellation in sigma - sqrt(sigma^2 - 4 det V) with
#: sigma ~ n^2, mapped to the E_N they get (exit 0).  They are the same in
#: every run and are counted as failed operations.
KEPT_SQUEEZING = {4.5: 4.500000971236343, 5.0: 5.000059207636061,
                  5.5: 5.5012218936829544, 6.0: 6.020313527072372}


def _squeezed_vacuum(r: float, angle: float) -> tuple[float, float, float]:
    # <a^2> = -cosh r sinh r e^{i angle}, <a^dag a> = sinh^2 r; displacement
    # drops out once the moments are centered.
    return math.sinh(2.0 * r) / 2.0, (angle + math.pi) % (2.0 * math.pi), math.sinh(r) ** 2


def measure(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    angle = lambda: float(rng.uniform(0.0, 2.0 * math.pi))  # noqa: E731
    inputs = []
    for _ in range(30):  # random physical moments, v^2 <= n(n + 1)
        n = float(rng.uniform(0.0, 3.0))
        inputs.append((float(rng.uniform()) * math.sqrt(n * (n + 1.0)), angle(), n))
    for _ in range(30):  # the squeezing figure's range
        inputs.append(_squeezed_vacuum(float(rng.uniform(0.0, 2.0)), angle()))
    for _ in range(20):  # v ~ n, the classical boundary
        n = float(rng.uniform(0.01, 3.0))
        inputs.append((n * (1.0 + float(rng.uniform(-1e-3, 1e-3))), angle(), n))
    for _ in range(16):  # large occupation on the classical side
        n = float(10.0 ** rng.uniform(2.0, 4.0))
        inputs.append((float(rng.uniform(0.0, 0.99)) * n, angle(), n))
    known = [None] * len(inputs) + list(KEPT_SQUEEZING.values())  # E_N a kept input gets
    inputs += [_squeezed_vacuum(r, math.pi) for r in KEPT_SQUEEZING]
    order = [int(i) for i in rng.permutation(len(inputs))]
    inputs, known = [inputs[i] for i in order], [known[i] for i in order]
    ops = [["measure", "--v", repr(v), "--theta", repr(t), "--n", repr(n)] for v, t, n in inputs]

    def e_n(code, text, v, n):
        """The reported E_N if the report is otherwise right, else None."""
        try:
            report = json.loads(text)
        except ValueError:
            return None
        if code != 0 or list(report) != REPORT_KEYS or report["dgcz_simple"] != (v > n):
            return None
        return report["E_N"]

    def check(outputs, call):
        failed, problems = set(), []
        for index, ((v, _, n), wrong, output) in enumerate(zip(inputs, known, outputs)):
            value = e_n(*output, v, n)
            if value is not None and abs(value - entanglement_potential(v, n)) <= E_N_TOL:
                continue
            if value is not None and wrong is not None and abs(value - wrong) <= E_N_TOL:
                failed.add(index)
            else:
                problems.append(f"wrong output from {ops[index]}: {output}")
        return failed, problems

    return Workload(
        warmup=["measure", "--v", "1.1752", "--theta", "3.14159", "--n", "1.3811"],
        ops=ops,
        check=check,
    )


# --- dicke-sweep ---------------------------------------------------------------

#: Default sizes 80 / 142 scaled down at the same ratio; the space
#: (N + 1) * fock_dim = 756 stays above the dense cutoff, so Lanczos runs.
N_ATOMS, FOCK_DIM = 20, 36
GRID = np.linspace(0.0, 2.0, 101)
CSV_HEADER = "g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag"

#: Each operation sweeps grid points i and i + 50, one on each side of
#: g_c = 1; the first also takes the last point.  Together they tile the grid.
#: Contiguous windows would put the cheap half of the grid (g < g_c, a few
#: hundred matvecs) and the expensive half in separate operations, so the
#: median latency would sit on the jump between the two and flip between them
#: from run to run.  Paired points give every operation the same make-up.
WINDOWS = [[0, 50, 100]] + [[i, i + 50] for i in range(1, 50)]

ENERGY_TOL = 1e-8
PHOTON_TOL = 1e-6
#: Below this reference gap the ground state, and so its photon number, is
#: not unique.
GAP_MIN = 1e-6
#: Counter-rotating couplings whose E0 is also compared with a dense
#: diagonalization; every grid point would cost seconds per run.
DENSE_G = GRID[::10]
#: Thermodynamic-limit window above g_c = 1/2 and its tolerance at N = 20.
LIMIT_WINDOW, LIMIT_TOL = (0.66, 0.80), 0.05

#: Co-rotating couplings where Lanczos misses the ground state: it lies in
#: the k = 1 block, to which the uniform start vector is orthogonal, so the
#: second level comes back.  Mapped to the (E0, <a^dag a>) of that level, which
#: the row reports with degenerate_flag 0 and exit 0.  The operation holding
#: such a row is counted as failed.
KEPT_COROTATING = {1.02: (-10.014338601129401, 1.0128205128205099)}


def _parse_sweep(code, text, window):
    lines = text.splitlines()
    if code != 0 or not lines or lines[0] != CSV_HEADER or len(lines) != len(window) + 1:
        return None
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError:
        return None
    if rows.shape != (len(window), 7) or np.abs(rows[:, 0] - GRID[window]).max() > 1e-12:
        return None
    return rows


def _row_ok_corotating(row) -> bool:
    g, _, energy, photons, e_n, _, degenerate = row
    ref_energy, ref_photons, gap = corotating_ground(N_ATOMS, FOCK_DIM, g)
    return (
        abs(energy - ref_energy) <= ENERGY_TOL
        and (gap <= GAP_MIN or abs(photons - ref_photons) <= PHOTON_TOL * max(1.0, ref_photons))
        and (degenerate == 1 or abs(e_n) <= E_N_TOL)
    )


def _row_known_corotating(row) -> bool:
    g, _, energy, photons, e_n, _, degenerate = row
    known = KEPT_COROTATING.get(round(float(g), 12))
    return (
        known is not None
        and abs(energy - known[0]) <= ENERGY_TOL
        and abs(photons - known[1]) <= PHOTON_TOL
        and degenerate == 0
        and abs(e_n) <= E_N_TOL
    )


def _row_ok_counter(row) -> bool:
    g, _, energy, photons = row[:4]
    if energy > -N_ATOMS / 2.0 + ENERGY_TOL:  # above <0, 0|H|0, 0>
        return False
    if np.isclose(g, DENSE_G, rtol=0.0, atol=1e-12).any():
        dense = np.linalg.eigvalsh(collective_hamiltonian(N_ATOMS, FOCK_DIM, g, True))[0]
        if abs(energy - dense) > ENERGY_TOL:
            return False
    lo, hi = LIMIT_WINDOW
    if lo <= g <= hi:
        return abs(photons / superradiant_photon_number(g, N_ATOMS) - 1.0) <= LIMIT_TOL
    return True


def dicke(seed: int, counter_rotating: bool) -> Workload:
    order = [int(i) for i in np.random.default_rng(seed).permutation(len(WINDOWS))]
    windows = [WINDOWS[i] for i in order]
    extra = ["--counter-rotating"] if counter_rotating else []
    row_ok = _row_ok_counter if counter_rotating else _row_ok_corotating
    row_known = (lambda row: False) if counter_rotating else _row_known_corotating

    def argv(window):
        return ["dicke-sweep", "--n-atoms", str(N_ATOMS), "--fock-dim", str(FOCK_DIM),
                "--g-min", repr(float(GRID[window[0]])), "--g-max", repr(float(GRID[window[-1]])),
                "--steps", str(len(window))] + extra

    ops = [argv(w) for w in windows]

    def check(outputs, call):
        failed, problems, assembled = set(), [], []
        for index, (window, (code, text)) in enumerate(zip(windows, outputs)):
            rows = _parse_sweep(code, text, window)
            if rows is None:
                problems.append(f"malformed output from {ops[index]}: exit {code}")
                continue
            assembled.extend(rows[:, [0, 2]])
            for row in rows:
                if row_known(row):
                    failed.add(index)
                elif not row_ok(row):
                    problems.append(f"wrong row from {ops[index]}: {row.tolist()}")
        if len(assembled) != len(GRID):
            return failed, problems + ["the sweeps do not cover the grid"]
        g, energy = np.array(assembled).T
        return failed, problems + concavity_violations(g, energy, ENERGY_TOL)

    return Workload(warmup=argv(WINDOWS[0]), ops=ops, check=check)


# --- oracle-check --------------------------------------------------------------

ORACLE_DIM, ORACLE_TRIALS, ORACLE_CALLS = 80, 3, 100
ORACLE_THRESHOLD = 1e-6


def oracle(seed: int) -> Workload:
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, ORACLE_CALLS)]

    def argv(call_seed):
        return ["oracle-check", "--dim", str(ORACLE_DIM), "--trials", str(ORACLE_TRIALS),
                "--seed", str(call_seed)]

    def passed(call_seed, code, text) -> bool:
        lines = text.splitlines()
        prefix = "max covariance discrepancy: "
        try:
            return (
                code == 0
                and len(lines) == 3
                and lines[0] == f"oracle check: trials={ORACLE_TRIALS} dim={ORACLE_DIM} seed={call_seed}"
                and lines[1].startswith(prefix)
                and float(lines[1][len(prefix):]) < ORACLE_THRESHOLD
                and lines[2] == f"PASS (threshold {ORACLE_THRESHOLD:g})"
            )
        except ValueError:
            return False

    def check(outputs, call):
        problems = [f"wrong output from {argv(s)}: {out}"
                    for s, out in zip(seeds, outputs) if not passed(s, *out)]
        # Negative control: a corrupted splitter phase must be refused.
        code, text = call(argv(seeds[0]) + ["--corrupt-phase"])
        if code != 4 or not text.rstrip().endswith(f"FAIL (threshold {ORACLE_THRESHOLD:g})"):
            problems.append(f"--corrupt-phase was not refused: exit {code}")
        return set(), problems

    return Workload(warmup=argv(20240901), ops=[argv(s) for s in seeds], check=check)


WORKLOADS = {
    "measure": measure,
    "dicke-corotating": lambda seed: dicke(seed, counter_rotating=False),
    "dicke-counter": lambda seed: dicke(seed, counter_rotating=True),
    "oracle-check": oracle,
}
