"""Tests of the benchmark's own references and arithmetic.

    python3 -m pytest perfbench
"""

import json
import math
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest

from reference import (
    collective_hamiltonian,
    concavity_violations,
    corotating_ground,
    entanglement_potential,
    superradiant_photon_number,
)
from run import percentile
from spans import Tracer, layer_metrics, span_table
from workloads import (
    KEPT_COROTATING,
    KEPT_SQUEEZING,
    REPORT_KEYS,
    WORKLOADS,
    _row_known_corotating,
    _row_ok_corotating,
)


@pytest.mark.parametrize("r", ["0.25", "1", "2", "5", "8"])
def test_entanglement_potential_of_squeezed_vacuum_is_r(r):
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(r).exp()
        sinh, cosh = (e - 1 / e) / 2, (e + 1 / e) / 2
        v, n = sinh * cosh, sinh * sinh
    assert entanglement_potential(v, n) == pytest.approx(float(r), abs=1e-15)


def test_entanglement_potential_is_zero_on_the_classical_side():
    assert entanglement_potential(0.5, 0.5) == 0.0
    assert entanglement_potential(0.0, 3.0) == 0.0


def _hamiltonian_by_elements(n_atoms, fock_dim, g, counter_rotating):
    """H on |m> (x) |n> written out element by element."""
    dim = (n_atoms + 1) * fock_dim
    h = np.zeros((dim, dim))
    index = lambda m, n: m * fock_dim + n  # noqa: E731
    for m in range(n_atoms + 1):
        for n in range(fock_dim):
            h[index(m, n), index(m, n)] = n + (m - n_atoms / 2)
            if m == n_atoms:
                continue
            amp = g / math.sqrt(n_atoms) * math.sqrt((n_atoms - m) * (m + 1))
            if n >= 1:
                h[index(m + 1, n - 1), index(m, n)] = h[index(m, n), index(m + 1, n - 1)] = (
                    amp * math.sqrt(n))
            if counter_rotating and n + 1 < fock_dim:
                h[index(m + 1, n + 1), index(m, n)] = h[index(m, n), index(m + 1, n + 1)] = (
                    amp * math.sqrt(n + 1))
    return h


@pytest.mark.parametrize("counter_rotating", [False, True])
def test_collective_hamiltonian_matches_its_elements(counter_rotating):
    expected = _hamiltonian_by_elements(4, 7, 0.9, counter_rotating)
    assert np.abs(collective_hamiltonian(4, 7, 0.9, counter_rotating) - expected).max() < 1e-14


@pytest.mark.parametrize("g", [0.0, 0.4, 1.3, 2.0])
def test_block_diagonalization_matches_dense_eigh(g):
    n_atoms, fock_dim = 4, 7
    energies, vectors = np.linalg.eigh(collective_hamiltonian(n_atoms, fock_dim, g, False))
    photons = np.tile(np.arange(fock_dim), n_atoms + 1)
    energy, photon, gap = corotating_ground(n_atoms, fock_dim, g)
    assert energy == pytest.approx(energies[0], abs=1e-12)
    assert gap == pytest.approx(energies[1] - energies[0], abs=1e-12)
    assert photon == pytest.approx(vectors[:, 0] ** 2 @ photons, abs=1e-10)


def test_superradiant_photon_number():
    assert superradiant_photon_number(0.5, 20) == 0.0
    assert superradiant_photon_number(1.0, 20) == pytest.approx(20 * (1 - 1 / 16))


def test_concavity_holds_for_dense_ground_energies_and_catches_a_bump():
    g = np.linspace(0.0, 2.0, 21)
    energy = [np.linalg.eigvalsh(collective_hamiltonian(3, 8, x, True))[0] for x in g]
    assert concavity_violations(g, energy, 1e-10) == []
    bumped = np.array(energy)
    bumped[10] += 1.0
    problems = concavity_violations(g[::-1], bumped[::-1], 1e-10)
    assert any("rises" in p for p in problems) and any("concave" in p for p in problems)


def test_percentile_is_nearest_rank():
    values = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile([4.2], 90) == 4.2


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", -1, 0, 100],
        ["optimize.maximize_EN", 0, 10, 40],
        ["entanglement.eta_minus_sq", 1, 20, 30],
        ["entanglement.eta_minus_sq", 0, 50, 60],
    ]
    table = span_table(spans)
    assert table == {"cli.main": (1, 60), "optimize.maximize_EN": (1, 20),
                     "entanglement.eta_minus_sq": (2, 20)}
    metrics = layer_metrics(table, {"optimize.evaluations": 8}, ops=2)
    assert metrics["cli.self_ms"]["value"] == 30 / 1e6
    assert metrics["entanglement.eta_minus_sq.calls"]["value"] == 1.0
    assert metrics["optimize.evaluations"]["value"] == 4.0
    assert metrics["dicke.matvecs"]["value"] == 0.0


def test_tracer_follows_imported_names_and_restores_them():
    entanglement = types.ModuleType("pkg.entanglement")
    optimize = types.ModuleType("pkg.optimize")
    package = types.ModuleType("pkg")
    exec("def eta_minus_sq():\n    return 0.25", entanglement.__dict__)
    exec("class Result:\n    evaluations = 3\n"
         "def maximize_EN():\n    eta_minus_sq()\n    return Result()", optimize.__dict__)
    optimize.eta_minus_sq = package.eta_minus_sq = original = entanglement.eta_minus_sq
    tracer = Tracer()
    tracer.install(package, [entanglement, optimize])
    optimize.maximize_EN()
    package.eta_minus_sq()
    tracer.uninstall()
    optimize.maximize_EN()
    assert [(s[0], s[1]) for s in tracer.spans] == [
        ("optimize.maximize_EN", -1), ("entanglement.eta_minus_sq", 0),
        ("entanglement.eta_minus_sq", -1),
    ]
    assert tracer.counts["optimize.evaluations"] == 3
    assert optimize.eta_minus_sq is package.eta_minus_sq is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_are_seeded(name):
    first, again, other = WORKLOADS[name](1), WORKLOADS[name](1), WORKLOADS[name](2)
    assert first.ops == again.ops
    assert len(first.ops) == len(other.ops)
    assert first.warmup == other.warmup


def _measure_outputs(workload, e_n=lambda v, n: entanglement_potential(v, n)):
    """Right-looking exit codes and reports for every op of a measure round."""
    outputs = []
    for argv in workload.ops:
        v, n = float(argv[2]), float(argv[6])
        report = dict.fromkeys(REPORT_KEYS, 0.0)
        report.update(E_N=e_n(v, n), dgcz_simple=v > n)
        outputs.append((0, json.dumps(report)))
    return outputs


def test_measure_counts_kept_inputs_only_by_their_signature():
    workload = WORKLOADS["measure"](1)
    no_calls = lambda argv: pytest.fail("measure makes no untimed calls")  # noqa: E731
    known = {math.sinh(r) ** 2: wrong for r, wrong in KEPT_SQUEEZING.items()}
    outputs = _measure_outputs(workload, lambda v, n: known.get(n, entanglement_potential(v, n)))
    failed, problems = workload.check(outputs, no_calls)
    assert len(failed) == len(KEPT_SQUEEZING) and problems == []

    # A kept input that gives the right value passes; one that crashes does not.
    right = _measure_outputs(workload)
    assert workload.check(right, no_calls) == (set(), [])
    index = min(failed)
    outputs[index] = (1, "")
    failed_now, problems = workload.check(outputs, no_calls)
    assert index not in failed_now and len(problems) == 1


def test_corotating_rows_are_excused_only_at_the_known_coupling():
    (g, (energy, photons)), = KEPT_COROTATING.items()
    row = np.array([g, g, energy, photons, 0.0, 0.0, 0.0])
    assert _row_known_corotating(row) and not _row_ok_corotating(row)
    assert not _row_known_corotating(np.array([g, g, energy, photons, 0.0, 0.0, 1.0]))
    assert not _row_known_corotating(np.array([g, g, energy + 1e-3, photons, 0.0, 0.0, 0.0]))
    assert not _row_known_corotating(np.array([0.02, 0.02, energy, photons, 0.0, 0.0, 0.0]))
