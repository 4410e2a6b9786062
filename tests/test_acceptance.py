"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summaries.  Criterion 7 is the full-scale ground-state sweep and dominates
the suite's runtime (about 1.5 s on 2 cores, nearly all of it the banded
solves in the two parity sectors of the counter-rotating sweep; the
co-rotating sweep takes about 0.04 s); everything else finishes in seconds.
"""

import math
import time

import numpy as np

from conftest import dense_reference, random_physical_centered
from nonclassicality import (
    BALANCED_T,
    BeamSplitterParams,
    CenteredMoments,
    DickeConfig,
    SqueezedCoherentParams,
    center,
    field_moments,
    ground_state,
    squeezed_coherent_moments,
    squeezed_coherent_vector,
)
from nonclassicality.cli import main
from nonclassicality.fock import TAIL_TOL, _tail_weight
from oracles import (
    eta_minus_sq, maximize_EN, measured_entries, predicted_entries, simon_lambda,
    split_against_vacuum, symplectic_eta,
)

ANCHOR_STRENGTHS = (0.25, 0.5, 1.0, 1.5, 2.0)
#: The balanced splitter as maximizing_splitter builds it, r from t.
BALANCED = BeamSplitterParams(BALANCED_T)


def test_criterion_1_closed_form_anchor():
    # Squeezed vacuum with theta=0, t^2=1/2, phi=0: 2 eta^- = e^-r, E_N = r.
    started = time.perf_counter()
    worst = 0.0
    for r in ANCHOR_STRENGTHS:
        moments = squeezed_coherent_moments(SqueezedCoherentParams(0.0, r, 0.0))
        eta_m, _ = symplectic_eta(predicted_entries(center(moments), BALANCED))
        assert abs(2.0 * eta_m - math.exp(-r)) < 1e-9
        assert abs(-math.log(2.0 * eta_m) - r) < 1e-9
        worst = max(worst, abs(2.0 * eta_m - math.exp(-r)))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: anchor |2eta - e^-r| <= {worst:.2e} in {elapsed:.3f}s")


def test_criterion_1_fock_oracle_rederivation():
    # Independent route to the same closed form before trusting it: prepare
    # the state in Fock space, split it, measure the covariance directly.
    worst = 0.0
    for r, dim in [(0.25, 140), (0.5, 140), (1.0, 140), (1.5, 340), (2.0, 700)]:
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, r, 0.0), dim)
        assert _tail_weight(state) < TAIL_TOL
        eta_m, _ = symplectic_eta(measured_entries(split_against_vacuum(state, BALANCED)))
        assert abs(2.0 * eta_m - math.exp(-r)) < 1e-6
        worst = max(worst, abs(2.0 * eta_m - math.exp(-r)))
    print(f"\nPASS criterion 1 (oracle): anchor re-derived, worst {worst:.2e}")


def test_criterion_2_squeezed_sweep_qualitative(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "squeezed_sweep.csv"
    code = main(
        ["squeezed-sweep", "--r-min", "0", "--r-max", "2", "--steps", "41",
         "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,E_N_fixed_theta,E_N_optimized_theta,best_t,best_phi"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 41
    fixed = [row[1] for row in rows]
    optimized = [row[2] for row in rows]
    assert fixed[0] == 0.0 and optimized[0] == 0.0
    assert all(value >= 0.0 for value in fixed + optimized)
    assert all(b >= a - 1e-9 for a, b in zip(fixed, fixed[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(optimized, optimized[1:]))
    assert all(o >= f for f, o in zip(fixed, optimized))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: 41-point sweep monotone, E_N(2) = {fixed[-1]:.6f}, "
          f"{elapsed:.1f}s")


def test_criterion_3_oracle_equivalence(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "oracle.txt"
    code = main(
        ["oracle-check", "--trials", "50", "--dim", "80", "--seed", "20240901",
         "--output", str(out)]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    report = out.read_text()
    discrepancy = float(report.split("max covariance discrepancy:")[1].split()[0])
    assert discrepancy < 1e-6
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: 50 trials, max discrepancy {discrepancy:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_4_criteria_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(20240904)

    # Part A: maximized measure positive iff v > n, zero disagreements.
    disagreements = 0
    kept = 0
    while kept < 1000:
        v, theta, n = random_physical_centered(rng)
        if abs(v - n) <= 1e-6:
            continue
        kept += 1
        result = maximize_EN(CenteredMoments(v, theta, n))
        if (result.best_value > 1e-7) != (v > n):
            disagreements += 1
    assert disagreements == 0

    # Part B: at fixed (t, phi), the Simon combination and 2 eta^- - 1 agree
    # in sign outside a 1e-8 band on eta (and a numeric zero band on lambda,
    # which sits exactly at zero for the non-entangling settings).
    bs = BeamSplitterParams(0.61, 1.3)
    checked = 0
    for _ in range(1000):
        v, theta, n = random_physical_centered(rng)
        inp = CenteredMoments(v, theta, n)
        entries = predicted_entries(inp, bs)
        eta_m, _ = symplectic_eta(entries)
        lam = simon_lambda(entries)
        if abs(2.0 * eta_m - 1.0) < 1e-8:
            continue
        if abs(lam) <= 1e-11:
            assert 2.0 * eta_m > 1.0
        else:
            assert (lam < 0.0) == (2.0 * eta_m < 1.0)
        checked += 1
    assert checked > 900
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: 1000 inputs, 0 disagreements; sign check on "
          f"{checked} inputs, {elapsed:.1f}s")


def test_criterion_5_phase_covariance():
    rng = np.random.default_rng(20240905)
    deltas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.123
    worst = 0.0
    for _ in range(200):
        v, theta, n = random_physical_centered(rng)
        t = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        base = math.sqrt(float(eta_minus_sq(v, theta, n, t, phi)))
        for delta in deltas:
            shifted = math.sqrt(
                float(eta_minus_sq(v, theta - 2.0 * delta, n, t, phi + delta))
            )
            worst = max(worst, abs(shifted - base))
    assert worst < 1e-10

    # Consequence: the (t, phi)-maximized measure is independent of theta.
    worst_max = 0.0
    for _ in range(20):
        v, theta, n = random_physical_centered(rng)
        reference = maximize_EN(CenteredMoments(v, theta, n)).best_value
        for delta in (0.9, 2.1, 4.4):
            value = maximize_EN(CenteredMoments(v, theta + delta, n)).best_value
            worst_max = max(worst_max, abs(value - reference))
    assert worst_max < 2e-6
    print(f"\nPASS criterion 5: eta invariance {worst:.2e}, "
          f"maximized-E_N theta spread {worst_max:.2e}")


def test_criterion_6_dicke_desk_scale():
    started = time.perf_counter()
    energies_match = 0.0
    # The co-rotating model is bisected as one tridiagonal chain; the counter-rotating
    # parity sectors (315 states each) go to the banded inverse iteration.
    for counter_rotating, fock_dim in ((False, 40), (True, 70)):
        for g in np.linspace(0.0, 2.0, 11):
            cfg = DickeConfig(n_atoms=8, fock_dim=fock_dim, g=float(g),
                              counter_rotating=counter_rotating)
            result = ground_state(cfg)
            assert result.converged
            assert (result.iterations > 0) == counter_rotating
            energies, _ = dense_reference(cfg)
            energies_match = max(energies_match, abs(result.energy - energies[0]))
    assert energies_match < 1e-9

    def mean_photon(g):
        cfg = DickeConfig(n_atoms=8, fock_dim=40, g=g)
        return field_moments(ground_state(cfg)).photon_number

    ratio = mean_photon(2.0) / max(mean_photon(0.5), 1e-3)
    assert ratio > 10.0
    for g in (0.2, 0.5, 0.8):
        assert mean_photon(g) < 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: energy agreement {energies_match:.2e}, "
          f"excitation ratio {ratio:.1f}, {elapsed:.1f}s")


def test_criterion_7_dicke_full_scale(tmp_path):
    started = time.perf_counter()
    results = {}
    for flag, name in ((False, "corotating"), (True, "counter")):
        out = tmp_path / f"dicke_{name}.csv"
        args = [
            "dicke-sweep", "--n-atoms", "80", "--fock-dim", "142",
            "--g-min", "0", "--g-max", "2", "--steps", "101",
            "--output", str(out),
        ]
        if flag:
            args.append("--counter-rotating")
        code = main(args)
        assert code == 0, f"non-convergence in the {name} sweep"
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag"
        )
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 101
        assert not any(math.isnan(row[2]) for row in rows)
        results[name] = rows

    # The excitation-conserving model stays dark below threshold and lights up
    # above it; exact figure curves are not reproducible, properties are.
    co = results["corotating"]
    below = [row[3] for row in co if row[1] < 0.999]
    above = [row[3] for row in co if row[1] > 1.5]
    assert max(below) < 0.1
    assert max(above) > 10.0

    # Both variants must report the degeneracy and measure columns; the
    # counter-rotating ground pair is degenerate well above threshold.
    assert any(row[6] == 1.0 for row in results["counter"])
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    print(f"\nPASS criterion 7: 2 x 101-point sweeps at N=80/dim=142, "
          f"mean photon {max(above):.1f} above threshold, {elapsed:.0f}s")
