import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from conftest import build_hamiltonian, dense_reference, subprocess_env
from nonclassicality import (
    CenteredMoments,
    DickeConfig,
    build_report,
    field_moments,
    ground_state,
)
from nonclassicality import dicke
from nonclassicality.cli import main as cli_main
from nonclassicality.dicke import (
    DEGENERACY_TOL,
    LAYOUT_CACHE,
    _lowest_in_sector,
    _lowest_pair_parity,
    _sector_layout,
    _sectors,
)


def cli_call(argv: list[str]) -> str:
    """Python code that runs one CLI command, writing its output to the null device."""
    return (
        "import os; from nonclassicality.cli import main; "
        f"assert main({argv!r} + ['--output', os.devnull]) == 0"
    )


def loaded_modules(code: str, prefix: str) -> list[str]:
    """Modules named ``prefix`` or ``prefix.*`` that a fresh interpreter holds after ``code``."""
    script = (
        f"{code}\nimport sys\n"
        f"print(*sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def total_excitation_operator(cfg):
    """a^dag a + S_z + N/2 on the same atom-major basis layout."""
    atoms = sparse.diags(np.arange(cfg.n_atoms + 1, dtype=float))
    field = sparse.diags(np.arange(cfg.fock_dim, dtype=float))
    return sparse.kron(atoms, sparse.identity(cfg.fock_dim)) + sparse.kron(
        sparse.identity(cfg.n_atoms + 1), field
    )


class TestBuildHamiltonian:
    def test_decoupled_limit_is_diagonal(self):
        cfg = DickeConfig(n_atoms=5, fock_dim=7, g=0.0)
        h = build_hamiltonian(cfg)
        diff = h - sparse.diags(h.diagonal())
        assert diff.nnz == 0
        assert h.diagonal().min() == -cfg.omega_eg * cfg.n_atoms / 2.0
        assert h.diagonal().argmin() == 0  # (m=0, n=0)

    def test_single_atom_ground_energy_below_threshold(self):
        # One atom reduces to the two-level ladder; for g < g_c the decoupled
        # state |g, 0> with energy -omega_eg / 2 stays lowest (the one-photon
        # sector's lowest level is 1/2 - g).
        for g in (0.2, 0.6, 0.9):
            cfg = DickeConfig(n_atoms=1, fock_dim=10, g=g)
            result = ground_state(cfg)
            assert math.isclose(result.energy, -0.5, rel_tol=0, abs_tol=1e-12)

    def test_entry_count_scaling(self):
        cfg = DickeConfig(n_atoms=6, fock_dim=9, g=0.7)
        h = build_hamiltonian(cfg)
        per_row = np.diff(h.indptr)
        assert per_row.max() <= 5
        assert h.nnz <= 5 * cfg.dim

    def test_counter_rotating_entry_count(self):
        cfg = DickeConfig(n_atoms=6, fock_dim=9, g=0.7, counter_rotating=True)
        per_row = np.diff(build_hamiltonian(cfg).indptr)
        assert per_row.max() <= 7

    def test_hermitian(self):
        # Each coupling and its transpose come from the same amplitude.
        for counter in (False, True):
            cfg = DickeConfig(n_atoms=4, fock_dim=6, g=1.3, counter_rotating=counter)
            h = build_hamiltonian(cfg)
            assert (h != h.T).nnz == 0

    @pytest.mark.parametrize("counter", [False, True])
    def test_matches_kronecker_assembly(self, counter):
        cfg = DickeConfig(
            n_atoms=5, fock_dim=7, omega=1.3, omega_eg=0.7, g=1.02, counter_rotating=counter
        )
        m = np.arange(cfg.n_atoms + 1, dtype=float)
        s_z = sparse.diags(m - cfg.n_atoms / 2.0)
        s_plus = sparse.diags(np.sqrt((cfg.n_atoms - m[:-1]) * (m[:-1] + 1.0)), -1)
        a = sparse.diags(np.sqrt(np.arange(1.0, cfg.fock_dim)), 1)
        number = sparse.diags(np.arange(cfg.fock_dim, dtype=float))
        field = a.T + a if counter else a
        coupling = sparse.kron(s_plus, field)
        expected = (
            cfg.omega * sparse.kron(sparse.identity(cfg.n_atoms + 1), number)
            + cfg.omega_eg * sparse.kron(s_z, sparse.identity(cfg.fock_dim))
            + cfg.g / math.sqrt(cfg.n_atoms) * (coupling + coupling.T)
        )
        h = build_hamiltonian(cfg)
        assert np.abs((h - expected).toarray()).max() < 1e-13

    def test_excitation_number_exactly_conserved_without_counter_terms(self):
        cfg = DickeConfig(n_atoms=5, fock_dim=8, g=1.1)
        h = build_hamiltonian(cfg)
        k = total_excitation_operator(cfg)
        commutator = (h @ k - k @ h).tocsr()
        assert commutator.nnz == 0 or np.abs(commutator.data).max() == 0.0

    def test_counter_terms_break_conservation(self):
        cfg = DickeConfig(n_atoms=5, fock_dim=8, g=1.1, counter_rotating=True)
        h = build_hamiltonian(cfg)
        k = total_excitation_operator(cfg)
        commutator = (h @ k - k @ h).tocsr()
        commutator.eliminate_zeros()
        assert commutator.nnz > 0


class TestGroundState:
    def test_decoupled_ground_state(self):
        cfg = DickeConfig(n_atoms=6, fock_dim=8, g=0.0)
        result = ground_state(cfg)
        assert result.energy == pytest.approx(-3.0, abs=1e-12)
        expected = np.zeros(cfg.dim)
        expected[0] = 1.0
        np.testing.assert_allclose(np.abs(result.vector), expected, atol=1e-12)
        assert result.converged and not result.degenerate

    @pytest.mark.parametrize("g_factor", [0.5, 1.0, 1.8])
    def test_iterative_matches_dense(self, g_factor):
        cfg = DickeConfig(n_atoms=8, fock_dim=60, g=g_factor, counter_rotating=True)
        energies, _ = dense_reference(cfg)
        iterative = ground_state(cfg)
        assert iterative.converged
        assert abs(iterative.energy - energies[0]) < 1e-9
        assert iterative.residual <= 1e-10
        assert iterative.iterations > 0

    def test_variational_bound(self):
        for g in np.linspace(0.0, 2.0, 9):
            cfg = DickeConfig(n_atoms=8, fock_dim=30, g=float(g))
            result = ground_state(cfg)
            assert result.energy <= -cfg.omega_eg * cfg.n_atoms / 2.0 + 1e-12

    def test_superradiant_excitation_ratio(self):
        def mean_photon(g):
            cfg = DickeConfig(n_atoms=8, fock_dim=40, g=g)
            result = ground_state(cfg)
            return field_moments(result, cfg).photon_number

        assert mean_photon(2.0) / max(mean_photon(0.5), 1e-3) > 10.0

    def test_below_threshold_stays_unexcited(self):
        for g in (0.2, 0.5, 0.8):
            cfg = DickeConfig(n_atoms=8, fock_dim=30, g=g)
            result = ground_state(cfg)
            assert field_moments(result, cfg).photon_number < 0.1

    def test_nonconvergence_reported(self, cholesky_refused):
        # A refused shift ends the sector solve; the row is reported, not raised.
        cfg = DickeConfig(n_atoms=20, fock_dim=36, g=1.0, counter_rotating=True)
        result = ground_state(cfg)
        assert not result.converged and not result.degenerate
        assert math.isnan(result.energy) and np.isnan(result.vector).all()

    def test_failed_solve_reported(self, sector_solve_fails):
        # A failed banded solve or a NaN shift ends the sector solve the same way.
        cfg = DickeConfig(n_atoms=20, fock_dim=36, g=1.0, counter_rotating=True)
        result = ground_state(cfg)
        assert not result.converged and not result.degenerate
        assert math.isnan(result.energy) and np.isnan(result.vector).all()

    def test_gauge_fixed_sign(self):
        cfg = DickeConfig(n_atoms=3, fock_dim=9, g=1.4)
        result = ground_state(cfg)
        assert result.vector[np.argmax(np.abs(result.vector))] > 0.0

    def test_degenerate_pair_detected_and_mixable(self):
        # Counter-rotating well above threshold: parity doublet.
        cfg = DickeConfig(n_atoms=8, fock_dim=40, g=2.0, counter_rotating=True)
        plain = ground_state(cfg)
        assert plain.degenerate
        mixed = ground_state(cfg, mix_degenerate=True)
        assert abs(np.linalg.norm(mixed.vector) - 1.0) < 1e-12
        assert mixed.residual < 1e-8


class TestBlockGroundState:
    """The sector paths of ground_state against dense solves of the whole matrix."""

    @pytest.mark.parametrize(
        "n_atoms, fock_dim, g, counter_rotating",
        [
            (4, 12, 0.0, False),
            (4, 12, 0.5, False),
            (4, 12, 1.02, False),
            (4, 12, 2.0, False),
            (1, 10, 1.0, False),  # k = 0 and k = 1 cross: degenerate
            (4, 12, 0.3, True),
            (4, 12, 1.0, True),
            (5, 7, 2.0, True),
            (8, 40, 1.5, True),  # parity doublet: degenerate
            (1, 2, 0.7, True),  # the smallest model: 2-state parity sectors
            (1, 2, 0.5, True),  # the odd sector, at E = 0 above the even one, is only probed
        ],
    )
    def test_auto_matches_whole_matrix_dense(self, n_atoms, fock_dim, g, counter_rotating):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=g, counter_rotating=counter_rotating)
        blocks = ground_state(cfg)
        energies, vectors = dense_reference(cfg)
        # Only the co-rotating tridiagonal bisection takes no banded solve.
        assert (blocks.iterations == 0) != counter_rotating and blocks.converged
        assert abs(blocks.energy - energies[0]) < 1e-12
        assert blocks.degenerate == (energies[1] - energies[0] < DEGENERACY_TOL)
        if not blocks.degenerate:
            assert abs(abs(np.vdot(blocks.vector, vectors[:, 0])) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "n_atoms, fock_dim, counter_rotating, block_path",
        [
            (20, 36, False, True),
            (80, 142, False, True),
            (20, 36, True, False),
            (8, 40, True, False),
        ],
    )
    def test_path_selection(self, n_atoms, fock_dim, counter_rotating, block_path):
        # The co-rotating model takes no banded solve at any size.  The
        # even parity sector of the counter-rotating model goes to the banded
        # inverse iteration, at 378 states as at 180.
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=1.5, counter_rotating=counter_rotating)
        result = ground_state(cfg)
        assert result.converged
        assert (result.iterations == 0) == block_path
        assert result.residual <= 1e-9

    def test_block_path_is_deterministic(self):
        for counter_rotating in (False, True):
            cfg = DickeConfig(n_atoms=20, fock_dim=36, g=1.3, counter_rotating=counter_rotating)
            first, second = ground_state(cfg), ground_state(cfg)
            assert first.vector.tobytes() == second.vector.tobytes()
            assert first.energy == second.energy
            assert first.iterations == second.iterations
            assert first.converged and first.residual <= 1e-10

    def test_ground_level_outside_the_start_vector(self):
        # At N = 20 and g = 1.02 the ground state (|0,1> - |1,0>)/sqrt(2) of
        # block k = 1 is orthogonal to a uniform start vector, so an iterative
        # solver started from one would miss it.  Its levels are -N/2 + 1 -+ g.
        cfg = DickeConfig(n_atoms=20, fock_dim=36, g=1.02)
        result = ground_state(cfg)
        assert abs(result.energy - (-10.02)) < 1e-12
        assert abs(field_moments(result, cfg).photon_number - 0.5) < 1e-12

    @pytest.mark.parametrize("n_atoms, fock_dim", [(20, 36), (80, 142)])
    def test_corotating_crossing_keeps_exact_vacuum(self, n_atoms, fock_dim):
        # At g = g_c the vacuum (k = 0) and the lowest k = 1 level cross; the
        # lower k is reported, with its own energy.
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=1.0)
        result = ground_state(cfg)
        assert result.degenerate and result.converged
        assert result.energy == -n_atoms / 2.0
        m = field_moments(result, cfg)
        assert m.photon_number == 0.0 and m.mean_a == 0.0 and m.a_squared == 0.0

    def test_tie_of_many_blocks_reports_the_lowest_k(self):
        # With omega = 1e-300 every |m=0, n> rounds to the vacuum energy, so
        # all eight blocks tie at g = 0; the vacuum (k = 0) must win.
        cfg = DickeConfig(n_atoms=2, fock_dim=8, omega=1e-300, g=0.0)
        result = ground_state(cfg)
        assert result.degenerate and result.energy == -1.0
        assert field_moments(result, cfg).photon_number == 0.0

    def test_nearly_tied_levels_stop_within_the_solve_cap(self):
        # At omega = 8e-14 the g = 0 levels |0, n> of each parity sector lie
        # only a few times the shift's margin apart, so each solve shrinks the
        # weight of the higher ones only about sixfold.  The sector stops once
        # the residual is within tolerance instead of running into MAX_SOLVES.
        cfg = DickeConfig(n_atoms=4, fock_dim=12, omega=8e-14, g=0.0, counter_rotating=True)
        result = ground_state(cfg)
        assert result.converged and result.degenerate
        assert abs(result.energy - (-2.0)) <= 1e-9

    def test_lapack_failure_is_nonconvergence(self, lapack_no_convergence):
        # The row is reported unconverged, not raised.
        result = ground_state(DickeConfig(n_atoms=2, fock_dim=8, g=2.0))
        assert not result.converged and not result.degenerate
        assert math.isnan(result.energy) and np.isnan(result.vector).all()

    def test_vector_failure_is_nonconvergence(self, monkeypatch):
        # dstein reports vectors that did not converge: the row is unconverged.
        def no_vectors(diagonal, off_diagonal, energies, block, split):
            return np.zeros((diagonal.size, energies.size)), energies.size

        monkeypatch.setattr(dicke, "_STEIN", no_vectors)
        result = ground_state(DickeConfig(n_atoms=2, fock_dim=8, g=2.0))
        assert not result.converged and not result.degenerate
        assert math.isnan(result.energy) and np.isnan(result.vector).all()

    def test_nan_residual_is_nonconvergence(self, monkeypatch):
        # A solver that returns NaNs without raising fails the residual check.
        def nan_vectors(diagonal, off_diagonal, energies, block, split):
            return np.full((diagonal.size, energies.size), np.nan), 0

        monkeypatch.setattr(dicke, "_STEIN", nan_vectors)
        result = ground_state(DickeConfig(n_atoms=2, fock_dim=8, g=2.0))
        assert math.isnan(result.residual) and not result.converged
        assert not result.degenerate and math.isnan(result.energy)

    @pytest.mark.parametrize("counter_rotating", [False, True])
    def test_vacuum_at_the_resolution_bound(self, counter_rotating):
        # Near the largest omega DickeConfig admits, the g = 0 ground state
        # is still the vacuum |m=0>|n=0>.  Models past the bound, which read
        # E0 = 0 instead of -1 here, are refused by DickeConfig.
        cfg = DickeConfig(n_atoms=2, fock_dim=8, omega=6e4, g=0.0,
                          counter_rotating=counter_rotating)
        result = ground_state(cfg)
        assert result.converged
        assert abs(result.energy - (-cfg.omega_eg * cfg.n_atoms / 2.0)) <= 1e-9
        assert field_moments(result, cfg).photon_number <= 1e-9

    @pytest.mark.parametrize("counter_rotating", [False, True])
    def test_tiny_frequencies_give_the_exact_vacuum(self, counter_rotating):
        # Every level lies within 1e-299 of the others, so the solvers must
        # not depend on the scale of H: the g = 0 ground state is still
        # the exact vacuum, and no solve overflows.
        cfg = DickeConfig(n_atoms=2, fock_dim=8, omega=1e-300, omega_eg=1e-300, g=0.0,
                          counter_rotating=counter_rotating)
        result = ground_state(cfg)
        assert result.converged and result.energy == -1e-300
        assert field_moments(result, cfg).photon_number == 0.0

    @pytest.mark.parametrize(
        "n_atoms, fock_dim, g", [(20, 36, 0.3), (20, 36, 0.6), (20, 36, 1.5), (8, 40, 1.5)]
    )
    def test_counter_rotating_vector_has_definite_parity(self, n_atoms, fock_dim, g):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=g, counter_rotating=True)
        vector = ground_state(cfg).vector
        m, n = np.divmod(np.arange(cfg.dim), cfg.fock_dim)
        odd = (m + n) % 2 == 1
        assert np.all(vector[odd] == 0.0) or np.all(vector[~odd] == 0.0)

    def test_degenerate_flag_matches_dense_gap(self, tmp_path):
        # Every row of the counter-rotating N = 20 sweep is flagged exactly
        # when a whole-matrix dense solve finds its two lowest levels closer
        # than DEGENERACY_TOL.  The nearest rows sit a factor 2 either side.
        out = tmp_path / "counter.csv"
        assert cli_main(["dicke-sweep", "--n-atoms", "20", "--fock-dim", "36",
                         "--counter-rotating", "--output", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        expected = []
        for g in rows[:, 0]:
            cfg = DickeConfig(n_atoms=20, fock_dim=36, g=g, counter_rotating=True)
            h = build_hamiltonian(cfg).toarray()
            low = scipy.linalg.eigh(h, subset_by_index=(0, 1), eigvals_only=True, driver="evx")
            expected.append(low[1] - low[0] < DEGENERACY_TOL)
        assert sum(expected) == 60
        np.testing.assert_array_equal(rows[:, 6] == 1.0, expected)

    def test_degenerate_flag_matches_dense_sector_gap(self):
        # At N = 8 every row of the default grid is flagged exactly when the
        # dense ground energies of the two parity sectors of the whole
        # matrix lie within DEGENERACY_TOL.
        flags, expected = [], []
        for g in np.linspace(0.0, 2.0, 101):
            cfg = DickeConfig(n_atoms=8, fock_dim=40, g=float(g), counter_rotating=True)
            h = build_hamiltonian(cfg).toarray()
            m, n = np.divmod(np.arange(cfg.dim), cfg.fock_dim)
            odd = (m + n) % 2 == 1
            even_e0, odd_e0 = (np.linalg.eigvalsh(h[np.ix_(s, s)])[0] for s in (~odd, odd))
            expected.append(abs(odd_e0 - even_e0) < DEGENERACY_TOL)
            flags.append(ground_state(cfg).degenerate)
        assert sum(expected) == 42
        assert flags == expected

    @pytest.mark.parametrize("n_atoms, fock_dim, flagged", [(8, 40, 42), (20, 36, 60)])
    def test_default_grid_solves_only_the_even_sector(self, n_atoms, fock_dim, flagged):
        # No row of the default grid has its odd sector lower, so every row,
        # each flagged one included, returns the even sector's state, and
        # iterations counts that sector's own solves: the odd one is only
        # probed.  Mixing solves the odd sector on the flagged rows alone.
        m, n = np.divmod(np.arange((n_atoms + 1) * fock_dim), fock_dim)
        odd = (m + n) % 2 == 1
        degenerate = 0
        for g in np.linspace(0.0, 2.0, 101):
            cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=float(g), counter_rotating=True)
            (_, _, bands, offsets), (_, _, odd_bands, odd_offsets) = _sectors(cfg)
            even_solves = _lowest_in_sector(bands, offsets)[2]
            result = ground_state(cfg)
            assert result.converged and np.all(result.vector[odd] == 0.0)
            assert result.iterations == even_solves
            mixed = ground_state(cfg, mix_degenerate=True)
            odd_solves = _lowest_in_sector(odd_bands, odd_offsets)[2] if result.degenerate else 0
            assert mixed.iterations == even_solves + odd_solves
            degenerate += result.degenerate
        assert degenerate == flagged

    @pytest.mark.parametrize("n_atoms, fock_dim, g", [(1, 2, 0.5), (4, 12, 0.3), (20, 36, 0.4)])
    def test_lower_odd_sector_is_solved_and_returned(self, n_atoms, fock_dim, g):
        # No default model has its odd sector lower, so hand the sectors over
        # swapped: the one solved first is the higher, and the one probed
        # lies lower, so it is solved too and its state comes back, not
        # degenerate.  At N = 1 the sector solved first has its ground
        # vector, at E = 0, as the start vector.
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=g, counter_rotating=True)
        (states, gauge, bands, offsets), higher = _sectors(cfg)
        for want_partner in (False, True):
            energy, vector, degenerate, partner, solves = _lowest_pair_parity(
                cfg, [higher, (states, gauge, bands, offsets)], want_partner)
            assert not degenerate and partner is None
            assert abs(energy - dense_reference(cfg)[0][0]) < 1e-12
            outside = np.ones(cfg.dim, dtype=bool)
            outside[states] = False
            assert np.all(vector[outside] == 0.0)
            assert np.array_equal(vector[states], gauge * _lowest_in_sector(bands, offsets)[1])
            assert solves == _lowest_in_sector(bands, offsets)[2] + _lowest_in_sector(*higher[2:])[2]

    @pytest.mark.parametrize("n_atoms, fock_dim", [(20, 36), (8, 40)])
    def test_mixed_doublet_breaks_the_symmetry(self, n_atoms, fock_dim):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=1.5, counter_rotating=True)
        plain = ground_state(cfg)
        mixed = ground_state(cfg, mix_degenerate=True)
        assert plain.degenerate and mixed.degenerate and mixed.converged
        assert abs(np.linalg.norm(mixed.vector) - 1.0) < 1e-14
        assert abs(mixed.vector @ (build_hamiltonian(cfg) @ mixed.vector) - plain.energy) < DEGENERACY_TOL
        assert field_moments(plain, cfg).mean_a == 0.0
        mean_a = field_moments(mixed, cfg).mean_a
        assert mean_a.imag == 0.0 and mean_a.real > 1.0

    def test_cli_does_not_load_scipy_sparse(self):
        # No command solves or assembles a sparse matrix.
        for model in ([], ["--counter-rotating"]):
            argv = ["dicke-sweep", "--n-atoms", "4", "--fock-dim", "12", "--steps", "3", *model]
            assert loaded_modules(cli_call(argv), "scipy.sparse") == [], model

    @pytest.mark.parametrize(
        "code",
        [
            "import nonclassicality",
            cli_call(["measure", "--v", "0.9", "--n", "0.6"]),
            cli_call(["squeezed-sweep", "--steps", "3"]),
            cli_call(["oracle-check", "--trials", "2"]),
        ],
        ids=["import", "measure", "squeezed-sweep", "oracle-check"],
    )
    def test_commands_other_than_dicke_sweep_load_no_scipy(self, code):
        # SciPy's start-up costs more than these commands' work; only the
        # Dicke solver needs it.
        assert loaded_modules(code, "scipy") == []


def tridiagonal_pair(cfg):
    """The two lowest levels of cfg's co-rotating chain, from an index solve of the whole chain."""
    [(_, _, bands, _)] = _sectors(cfg)
    return scipy.linalg.eigh_tridiagonal(bands[0], -bands[1, :-1], eigvals_only=True,
                                         select="i", select_range=(0, 1))


#: Co-rotating models and the top of their 101-point g grids.
BRACKET_GRIDS = [
    (dict(n_atoms=8, fock_dim=40), 2.0),
    (dict(n_atoms=20, fock_dim=36), 2.0),
    (dict(n_atoms=80, fock_dim=142), 2.0),
    (dict(n_atoms=20, fock_dim=36, omega=0.05, omega_eg=3.0), 2.0),
    (dict(n_atoms=20, fock_dim=36, omega=1.3, omega_eg=0.7), 2.0),
    (dict(n_atoms=20, fock_dim=36, omega=3.0, omega_eg=0.05), 2.0),
    # Up to g = 20 the Fock cutoff sets the ground block, below the least row floor's.
    (dict(n_atoms=20, fock_dim=36), 20.0),
]
BRACKET_IDS = ["N8", "N20", "N80", "omega0.05", "omega1.3", "omega3", "N20-g20"]

#: The most block bisections a row of each of BRACKET_GRIDS may take on
#: average: about 15% over the 3.04, 3.03, 3.07, 4.74, 2.93, 3.70 and 5.71
#: of a search from the least Gershgorin row floor.  A search from the
#: mean-field excitation number took 8.97 on the omega = 0.05 grid.
MEAN_BLOCK_BISECTIONS = [3.5, 3.5, 3.5, 5.5, 3.5, 4.25, 6.5]

#: Co-rotating sweeps at the edges of the block search, with the stdout and
#: stderr they print.  At omega = 1e-300 photons cost nothing, and the least
#: row floor and the ground block lie at the Fock cutoff; at omega = omega_eg
#: = 1e-300 every level ties at g = 0, where the vacuum is still reported;
#: omega = 6e4 lies at DickeConfig's bound; N = 1, fock_dim = 2 has three
#: blocks.
PINNED_SWEEPS = [
    (["--n-atoms", "2", "--fock-dim", "8", "--omega", "1e-300"],
     """g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag
0,0,-1,0,0,0,1
1,9.9999999999999998e+149,-3.7768729523167348,6.2970637785833992,0,0,0
2,2e+150,-7.3175563251706555,6.1731245949177005,0,0,0
""",
     """warning: g=1: field truncated, squared amplitude 0.46 on the top two Fock levels (limit 1e-12); raise --fock-dim
warning: g=2: field truncated, squared amplitude 0.49 on the top two Fock levels (limit 1e-12); raise --fock-dim
"""),
    (["--n-atoms", "2", "--fock-dim", "8", "--omega", "1e-300", "--omega-eg", "1e-300"],
     """g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag
0,0,-1e-300,0,0,0,1
1,9.999999999999999e+299,-3.6055512754639891,6.0384615384615383,0,0,0
2,1.9999999999999998e+300,-7.2111025509279782,6.0384615384615383,0,0,0
""",
     """warning: g=1: field truncated, squared amplitude 0.5 on the top two Fock levels (limit 1e-12); raise --fock-dim
warning: g=2: field truncated, squared amplitude 0.5 on the top two Fock levels (limit 1e-12); raise --fock-dim
"""),
    (["--n-atoms", "2", "--fock-dim", "8", "--omega", "6e4"],
     """g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag
0,0,-1,0,0,0,0
1,0.0040824829046386298,-1,0,0,0,0
2,0.0081649658092772595,-1,0,0,0,0
""",
     ""),
    (["--n-atoms", "1", "--fock-dim", "2"],
     """g,g_over_gc,ground_energy,mean_photon,E_N,lambda_simon,degenerate_flag
0,0,-0.5,0,0,0,0
1,1,-0.5,0,0,0,1
2,2,-1.5000000000000002,0.49999999999999989,0,0,0
""",
     """warning: g=0: field truncated, squared amplitude 1 on the top two Fock levels (limit 1e-12); raise --fock-dim
warning: g=1: field truncated, squared amplitude 1 on the top two Fock levels (limit 1e-12); raise --fock-dim
warning: g=2: field truncated, squared amplitude 0.5 on the top two Fock levels (limit 1e-12); raise --fock-dim
"""),
]


class TestCoRotatingBracket:
    """The value bracket of the co-rotating bisection holds the lowest pair."""

    @pytest.mark.parametrize("model, g_max", BRACKET_GRIDS, ids=BRACKET_IDS)
    def test_bracket_holds_the_lowest_pair(self, monkeypatch, model, g_max):
        stebz = dicke._STEBZ
        brackets = []

        def recording(diagonal, off_diagonal, select, *args):
            result = stebz(diagonal, off_diagonal, select, *args)
            if select == 1:  # by value: the bracket over the whole chain
                brackets.append(np.sort(result[1][:result[0]]))
            return result

        monkeypatch.setattr(dicke, "_STEBZ", recording)
        for g in np.linspace(0.0, g_max, 101):
            cfg = DickeConfig(g=float(g), **model)
            result = ground_state(cfg)
            reference = tridiagonal_pair(cfg)
            levels = brackets.pop()
            assert result.converged
            assert np.abs(levels[:2] - reference).max() <= 1e-12, g
            assert result.degenerate == (reference[1] - reference[0] < DEGENERACY_TOL), g
            if not result.degenerate:
                assert abs(result.energy - reference[0]) <= 1e-12, g
            # The bound from the blocks around a local minimum keeps the bracket small.
            assert len(levels) <= 3, g

    @pytest.mark.parametrize("model, g_max, most", [
        (*grid, most) for grid, most in zip(BRACKET_GRIDS, MEAN_BLOCK_BISECTIONS)], ids=BRACKET_IDS)
    def test_block_search_cost_is_bounded(self, monkeypatch, model, g_max, most):
        # The search walks from the block of the least Gershgorin row floor
        # to a local minimum of the block levels, bisecting each block it
        # reads once; blocks of one state are read off the diagonal.
        stebz = dicke._STEBZ
        bisections = []

        def counting(diagonal, off_diagonal, select, *args):
            bisections[-1] += select == 2  # by index: one block's lowest level
            return stebz(diagonal, off_diagonal, select, *args)

        monkeypatch.setattr(dicke, "_STEBZ", counting)
        for g in np.linspace(0.0, g_max, 101):
            bisections.append(0)
            assert ground_state(DickeConfig(g=float(g), **model)).converged
        assert np.mean(bisections) <= most

    @pytest.mark.parametrize("model, stdout, stderr", PINNED_SWEEPS, ids=[
        "tiny-omega", "tiny-frequencies", "resolution-bound", "smallest-model"])
    def test_edge_sweeps_are_pinned(self, capsys, model, stdout, stderr):
        # Energies and photon numbers may move by rounding in the bisection;
        # every other column, the warnings and the exit code may not.
        code = cli_main(["dicke-sweep", *model, "--steps", "3"])
        out, err = capsys.readouterr()
        assert code == 0 and err == stderr
        rows = [line.split(",") for line in out.splitlines()]
        pinned = [line.split(",") for line in stdout.splitlines()]
        assert rows[0] == pinned[0] and len(rows) == len(pinned)
        for row, pinned_row in zip(rows[1:], pinned[1:]):
            assert row[:2] == pinned_row[:2] and row[4:] == pinned_row[4:]
            for column in (2, 3):
                assert abs(float(row[column]) - float(pinned_row[column])) <= 2e-14


SECTOR_CASES = [
    # n_atoms, fock_dim, omega, omega_eg, g
    (1, 2, 1.0, 1.0, 0.0),
    (5, 7, 1.3, 0.7, 0.0),
    (4, 9, 0.4, 2.1, 2.5),
    (6, 11, 1.0, 1.0, 1.02),
    (20, 36, 1.0, 1.0, 1.3),
]


class TestSectorNativeOperators:
    """The auto path builds its sectors from the amplitudes, never from the whole matrix."""

    @pytest.mark.parametrize("counter_rotating", [False, True])
    @pytest.mark.parametrize("n_atoms, fock_dim, omega, omega_eg, g", SECTOR_CASES)
    def test_sectors_are_the_matrix_blocks(self, n_atoms, fock_dim, omega, omega_eg, g,
                                           counter_rotating):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, omega=omega, omega_eg=omega_eg,
                          g=g, counter_rotating=counter_rotating)
        matrix = build_hamiltonian(cfg).toarray()
        m, n = np.divmod(np.arange(cfg.dim), fock_dim)
        sectors = _sectors(cfg)
        assert len(sectors) == (2 if counter_rotating else 1)
        covered = []
        for parity, (states, gauge, bands, offsets) in enumerate(sectors):
            m_s, n_s = m[states], n[states]
            if counter_rotating:
                assert np.all((m_s + n_s) % 2 == parity)
                assert np.array_equal(np.lexsort((m_s, n_s)), np.arange(len(states)))
            else:
                # One chain ordered by (k = m + n, m), cut only between k blocks.
                k = m_s + n_s
                assert np.array_equal(np.lexsort((m_s, k)), np.arange(len(states)))
                assert offsets == (1,) and len(bands) == 2
                assert np.all(bands[1, :-1][k[1:] != k[:-1]] == 0.0)
            assert np.array_equal(gauge, (-1.0) ** m_s)
            # The template that cfg scales: photon numbers and atomic offsets
            # of the states, and the ladder factors read off each coupling's
            # ends, |m, n> and |m + 1, n -+ 1>.
            _, _, photons, atoms, offset, column, atomic, photonic, _, _ = _sector_layout(
                n_atoms, fock_dim, counter_rotating)[parity]
            assert np.array_equal(photons, n_s) and np.array_equal(atoms, m_s - n_atoms / 2)
            low, high = states[column], states[column + offset]
            low_m, high_n = np.minimum(m[low], m[high]), np.maximum(n[low], n[high])
            assert np.all(np.abs(m[low] - m[high]) == 1) and np.all(np.abs(n[low] - n[high]) == 1)
            assert np.array_equal(atomic, -np.sqrt((n_atoms - low_m) * (low_m + 1)))
            assert np.array_equal(photonic, np.sqrt(high_n))
            lower = sum(np.diag(band[: len(states) - k], -k) for k, band in enumerate(bands))
            assert np.all(lower[np.tril_indices(len(states), -1)] <= 0.0)
            # The offsets name every band below the diagonal that a coupling fills.
            assert offsets == tuple(sorted(offsets)) and len(bands) == offsets[-1] + 1
            assert np.all(np.delete(bands, (0, *offsets), axis=0) == 0.0)
            assert g == 0.0 or all(bands[k].any() for k in offsets)
            un_gauged = gauge[:, None] * (lower + np.tril(lower, -1).T) * gauge[None, :]
            assert np.array_equal(un_gauged, matrix[np.ix_(states, states)])
            covered.append(states)
        # The sectors hold every state once, so they hold all of H.
        assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(cfg.dim))

    def test_sector_layout_is_shared_per_size(self):
        # One layout serves every frequency and coupling of a size and model.
        keys = [(*size, counter_rotating)
                for size, counter_rotating in itertools.product([(4, 9), (5, 7)], (False, True))]
        for n_atoms, fock_dim, counter_rotating in keys:
            first, second = (
                _sectors(DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, omega=omega, g=g,
                                     counter_rotating=counter_rotating))
                for omega, g in ((1.0, 0.3), (2.5, 1.7))
            )
            for (states, gauge, _, offsets), (states_2, gauge_2, _, offsets_2) in zip(first, second):
                assert states is states_2 and gauge is gauge_2 and offsets is offsets_2
        # No caller can change a shared layout.
        for counter_rotating in (False, True):
            for sector in _sector_layout(4, 9, counter_rotating):
                arrays = [field for field in sector if isinstance(field, np.ndarray)]
                assert len(arrays) == (8 if counter_rotating else 9)
                for array in arrays:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = 0
        # The two models of one size are separate entries.
        co_rotating, counter = _sector_layout(4, 9, False), _sector_layout(4, 9, True)
        assert len(co_rotating) == 1 and len(counter) == 2
        assert not any(a is b for a in co_rotating[0][:8] for sector in counter for b in sector[:8])
        # Sizes and models used in turn, more of them than the cache holds, do
        # not mix: each layout equals one built afresh for its own key.
        for key in keys + [(k, 3, k % 2 == 0) for k in range(1, LAYOUT_CACHE + 1)] + keys:
            fresh = _sector_layout.__wrapped__(*key)
            cached = _sector_layout(*key)
            assert len(cached) == len(fresh)
            for cached_sector, fresh_sector in zip(cached, fresh):
                assert all(np.array_equal(a, b) for a, b in zip(cached_sector, fresh_sector))

    @pytest.mark.parametrize("counter_rotating", [False, True])
    def test_auto_path_leaves_the_matrix_unassembled(self, counter_rotating):
        cfg = DickeConfig(n_atoms=20, fock_dim=36, g=1.3, counter_rotating=counter_rotating)
        result = ground_state(cfg, mix_degenerate=True)
        assert result.converged
        # The residual from the sectors is that of the whole matrix.
        whole = np.linalg.norm(build_hamiltonian(cfg) @ result.vector - result.energy * result.vector)
        assert abs(result.residual - whole) < 1e-14


def holstein_primakoff_field(g, omega=1.0, omega_eg=1.0):
    """Centered (v, n) of the field in the normal-phase N -> infinity ground state.

    With S_+ ~ sqrt(N) b^dag the counter-rotating model becomes
    omega a^dag a + omega_eg b^dag b + g (a + a^dag)(b + b^dag), that is
    H = p^T M p / 2 + x^T K x / 2 with M = diag(omega, omega_eg) and
    K = [[omega, 2g], [2g, omega_eg]].  In y = M^{-1/2} x the ground state has
    <y y^T> = W^{-1/2} / 2 and <pi pi^T> = W^{1/2} / 2, W = M^{1/2} K M^{1/2}.
    """
    root_m = np.sqrt(np.array([omega, omega_eg]))
    stiffness = np.array([[omega, 2.0 * g], [2.0 * g, omega_eg]])
    levels, modes = np.linalg.eigh(root_m[:, None] * stiffness * root_m[None, :])
    x_var = 0.5 * root_m[0] ** 2 * (modes[0] ** 2 / np.sqrt(levels)).sum()
    p_var = 0.5 / root_m[0] ** 2 * (modes[0] ** 2 * np.sqrt(levels)).sum()
    # a = (x + i p) / sqrt(2) with <xp + px> = 0.
    return abs(x_var - p_var) / 2.0, (x_var + p_var - 1.0) / 2.0


class TestThermodynamicLimit:
    """Field moments against the N -> infinity limits.

    Emary and Brandes, PRE 67, 066203 (2003).
    """

    @pytest.mark.parametrize("g", [1.2, 1.5, 2.0])
    def test_corotating_superradiant_photons(self, g):
        # Without counter-rotating terms: (g^2 N / 4)(1 - (g_c / g)^4), g_c = 1.
        cfg = DickeConfig(n_atoms=80, fock_dim=142, g=g)
        photons = field_moments(ground_state(cfg), cfg).photon_number
        limit = g * g * cfg.n_atoms / 4.0 * (1.0 - (cfg.g_critical / g) ** 4)
        assert abs(photons / limit - 1.0) < 0.05

    def test_corotating_normal_phase_is_exact_vacuum(self):
        cfg = DickeConfig(n_atoms=80, fock_dim=142, g=0.5)
        m = field_moments(ground_state(cfg), cfg)
        assert m.photon_number == 0.0 and m.a_squared == 0.0 and m.mean_a == 0.0

    @pytest.mark.parametrize("g", [0.66, 0.73, 0.80])
    def test_counter_rotating_superradiant_photons(self, g):
        # With them: g^2 N (1 - (g_c / g)^4), g_c = 1/2.
        cfg = DickeConfig(n_atoms=20, fock_dim=36, g=g, counter_rotating=True)
        photons = field_moments(ground_state(cfg), cfg).photon_number
        limit = g * g * cfg.n_atoms * (1.0 - (cfg.g_critical / g) ** 4)
        assert abs(photons / limit - 1.0) < 0.05

    @pytest.mark.parametrize("g", [0.2, 0.3, 0.4])
    def test_counter_rotating_normal_phase_gaussian(self, g):
        # Below g_c = 1/2 the limit is the Gaussian ground state of the
        # Holstein-Primakoff form; the finite-N error shrinks like 1/N.
        v, n = holstein_primakoff_field(g)
        limit = build_report(CenteredMoments(v, 0.0, n)).E_N
        errors, photon_errors = {}, {}
        for n_atoms, fock_dim in [(20, 36), (80, 142)]:
            cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=g, counter_rotating=True)
            moments = field_moments(ground_state(cfg), cfg)
            errors[n_atoms] = build_report(moments).E_N / limit - 1.0
            photon_errors[n_atoms] = moments.photon_number / n - 1.0
        assert abs(errors[80]) < 0.015
        assert abs(photon_errors[80]) < 0.03
        assert abs(errors[80]) * 3.0 <= abs(errors[20])


class TestFieldMoments:
    def test_decoupled_vacuum_moments(self):
        cfg = DickeConfig(n_atoms=4, fock_dim=8, g=0.0)
        m = field_moments(ground_state(cfg), cfg)
        assert m.mean_a == 0.0 and m.a_squared == 0.0 and m.photon_number == 0.0

    def test_definite_excitation_sector_has_no_field_phase(self):
        # The excitation-conserving model's eigenstates carry no <a> or <a^2>.
        cfg = DickeConfig(n_atoms=4, fock_dim=14, g=3.0)
        result = ground_state(cfg)
        assert not result.degenerate
        m = field_moments(result, cfg)
        assert abs(m.mean_a) < 1e-10
        assert abs(m.a_squared) < 1e-10
        assert m.photon_number > 1.0

    def test_counter_rotating_generates_second_moment(self):
        cfg = DickeConfig(n_atoms=8, fock_dim=40, g=1.5, counter_rotating=True)
        result = ground_state(cfg)
        m = field_moments(result, cfg)
        assert abs(m.a_squared) > 1.0


class TestDickeConfig:
    def test_g_critical_derived(self):
        cfg = DickeConfig(n_atoms=2, fock_dim=4, omega=2.0, omega_eg=0.5)
        assert cfg.g_critical == 1.0

    @pytest.mark.parametrize(
        "counter_rotating, g_critical, scale",
        [(False, 1.0, 0.25), (True, 0.5, 1.0)],
    )
    def test_g_critical_per_model(self, counter_rotating, g_critical, scale):
        # Mean field: above g_c the field holds <a^dag a> = scale g^2 N
        # (1 - (g_c/g)^4), with scale 1/4 without and 1 with the
        # counter-rotating terms; below g_c it stays nearly empty.
        def config(g):
            return DickeConfig(n_atoms=8, fock_dim=40, g=g, counter_rotating=counter_rotating)

        def photons(g):
            cfg = config(g)
            return field_moments(ground_state(cfg), cfg).photon_number

        assert config(0.0).g_critical == g_critical
        assert photons(0.5 * g_critical) < 0.05
        g = 1.5 * g_critical
        mean_field = scale * g * g * 8 * (1.0 - (g_critical / g) ** 4)
        assert abs(photons(g) / mean_field - 1.0) < 0.05

    def test_validation(self):
        invalid = [
            {"n_atoms": 0},
            {"fock_dim": 1},
            {"g": -0.1},
            {"g": math.nan},
            {"g": math.inf},
            {"omega": math.nan},
            {"omega": 0.0},
            {"omega": math.inf},
            {"omega_eg": math.inf},
            {"omega_eg": math.nan},
            {"omega_eg": -1.0},
            {"n_atoms": 2.5},
            {"n_atoms": 2.0},
            {"fock_dim": 4.5},
            {"fock_dim": "4"},
            {"omega": 1e308},  # omega (fock_dim - 1) overflows
            {"omega_eg": 1e308},  # omega_eg n_atoms overflows
            {"g": 1.5e308},  # the largest coupling, g sqrt(3), overflows
            # Finite entries past the bound B eps <= DEGENERACY_TOL on ||H||:
            {"omega": 1e307},
            {"omega": 1e20},
            {"omega_eg": 1e300},
            {"g": 1e200},
            {"omega": 1.6e5},  # B = 3 (1.6e5) + 2 = 480002 > DEGENERACY_TOL / eps = 450360
        ]
        for kwargs in invalid:
            with pytest.raises(ValueError):
                DickeConfig(**{"n_atoms": 2, "fock_dim": 4, **kwargs})

    @pytest.mark.parametrize("kwargs, message", [
        ({"counter_rotating": "no"}, "counter_rotating must be a bool"),
        ({"counter_rotating": 1}, "counter_rotating must be a bool"),
        ({"counter_rotating": None}, "counter_rotating must be a bool"),
        ({"n_atoms": True}, "n_atoms must be an integer"),
        ({"fock_dim": True}, "fock_dim must be an integer"),
    ], ids=["string-flag", "int-flag", "none-flag", "bool-n-atoms", "bool-fock-dim"])
    def test_flags_and_sizes_are_not_confused(self, kwargs, message):
        # A truthy string would build the counter-rotating model, and True a one-atom one.
        with pytest.raises(ValueError, match=message):
            DickeConfig(**{"n_atoms": 2, "fock_dim": 4, **kwargs})

    def test_numpy_flags_pass(self):
        for flag in (np.True_, np.False_):
            assert DickeConfig(n_atoms=2, fock_dim=4, counter_rotating=flag).counter_rotating == flag

    def test_integer_sizes_of_any_integer_type(self):
        cfg = DickeConfig(n_atoms=np.int64(3), fock_dim=np.int32(5), omega=2, g=1)
        assert cfg.dim == 20
