import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from conftest import dense_reference, subprocess_env
from nonclassicality import (
    CenteredMoments,
    DickeConfig,
    build_hamiltonian,
    build_report,
    field_moments,
    ground_state,
)
from nonclassicality import dicke
from nonclassicality.cli import main as cli_main
from nonclassicality.dicke import DEGENERACY_TOL, _excitation_chain, _parity_sectors


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

    def test_nonconvergence_reported(self, arpack_no_convergence):
        # The partial eigenpair ARPACK holds must not leak out.
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
            (1, 2, 0.5, True),  # H v0 = 0 in the odd sector, which ARPACK refuses
        ],
    )
    def test_auto_matches_whole_matrix_dense(self, n_atoms, fock_dim, g, counter_rotating):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, g=g, counter_rotating=counter_rotating)
        blocks = ground_state(cfg)
        energies, vectors = dense_reference(cfg)
        # Only the co-rotating tridiagonal solve runs no Lanczos.
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
        # The co-rotating model is one tridiagonal solve at any size.  Both
        # parity sectors of the counter-rotating model go to Lanczos, at 378
        # states each as at 180.
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
        # block k = 1 is orthogonal to a uniform Lanczos start vector.  Its
        # levels are -N/2 + 1 -+ g.
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

    def test_lapack_failure_is_nonconvergence(self, lapack_no_convergence):
        # The row is reported unconverged, not raised.
        result = ground_state(DickeConfig(n_atoms=2, fock_dim=8, g=2.0))
        assert not result.converged and not result.degenerate
        assert math.isnan(result.energy) and np.isnan(result.vector).all()

    def test_nan_residual_is_nonconvergence(self, monkeypatch):
        # A solver that returns NaNs without raising fails the residual check.
        def nan_pair(diagonal, off_diagonal, **kwargs):
            return np.full(2, np.nan), np.full((diagonal.size, 2), np.nan)

        monkeypatch.setattr(dicke, "eigh_tridiagonal", nan_pair)
        result = ground_state(DickeConfig(n_atoms=2, fock_dim=8, g=2.0))
        assert math.isnan(result.residual) and not result.converged

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

    def test_sweep_does_not_load_csgraph(self):
        script = (
            "import sys; from nonclassicality.cli import main; "
            "assert main(['dicke-sweep', '--n-atoms', '4', '--fock-dim', '12', '--steps', '3']) == 0; "
            "assert main(['dicke-sweep', '--n-atoms', '4', '--fock-dim', '12', '--steps', '3', "
            "'--counter-rotating']) == 0; "
            "sys.exit('scipy.sparse.csgraph' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr


SECTOR_CASES = [
    # n_atoms, fock_dim, omega, omega_eg, g
    (1, 2, 1.0, 1.0, 0.0),
    (5, 7, 1.3, 0.7, 0.0),
    (4, 9, 0.4, 2.1, 2.5),
    (6, 11, 1.0, 1.0, 1.02),
    (20, 36, 1.0, 1.0, 1.3),
]


class TestSectorNativeOperators:
    """The auto path builds its sectors from the amplitudes, never from the CSR."""

    @pytest.mark.parametrize("n_atoms, fock_dim, omega, omega_eg, g", SECTOR_CASES)
    def test_excitation_chain_is_the_matrix(self, n_atoms, fock_dim, omega, omega_eg, g):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, omega=omega, omega_eg=omega_eg, g=g)
        order, k, diagonal, off_diagonal = _excitation_chain(cfg)
        chain = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
        permuted_back = np.empty_like(chain)
        permuted_back[np.ix_(order, order)] = chain
        assert np.array_equal(permuted_back, build_hamiltonian(cfg).toarray())
        m, n = np.divmod(order, fock_dim)
        assert np.array_equal(k, m + n)
        assert np.all(off_diagonal[k[1:] != k[:-1]] == 0.0)

    @pytest.mark.parametrize("n_atoms, fock_dim, omega, omega_eg, g", SECTOR_CASES)
    def test_parity_sectors_are_the_matrix_blocks(self, n_atoms, fock_dim, omega, omega_eg, g):
        cfg = DickeConfig(n_atoms=n_atoms, fock_dim=fock_dim, omega=omega, omega_eg=omega_eg,
                          g=g, counter_rotating=True)
        matrix = build_hamiltonian(cfg)
        m, n = np.divmod(np.arange(cfg.dim), fock_dim)
        sectors = _parity_sectors(cfg)
        for parity, (states, sector) in enumerate(sectors):
            assert np.array_equal(states, np.flatnonzero((m + n) % 2 == parity))
            expected = matrix[states][:, states]
            # Same stored entries in the same order, so the same matvec rounding.
            assert np.array_equal(sector.indptr, expected.indptr)
            assert np.array_equal(sector.indices, expected.indices)
            assert np.array_equal(sector.data, expected.data)
        assert sum(sector.nnz for _, sector in sectors) == matrix.nnz

    @pytest.mark.parametrize("counter_rotating", [False, True])
    def test_auto_path_leaves_the_matrix_unassembled(self, counter_rotating, monkeypatch):
        cfg = DickeConfig(n_atoms=20, fock_dim=36, g=1.3, counter_rotating=counter_rotating)
        # The whole matrix is assembled by one helper, which the sectors never call.
        monkeypatch.setattr(dicke, "_csr", _whole_matrix_refused(dicke._csr, cfg.dim))
        result = ground_state(cfg, mix_degenerate=True)
        monkeypatch.undo()
        assert result.converged
        # The residual from the sectors is that of the whole matrix.
        whole = np.linalg.norm(build_hamiltonian(cfg) @ result.vector - result.energy * result.vector)
        assert abs(result.residual - whole) < 1e-14


def _whole_matrix_refused(csr, dim):
    """dicke._csr that fails on a dim x dim matrix and builds anything smaller."""
    def refuse(rows, cols, values, size):
        assert size != dim, "whole matrix assembled"
        return csr(rows, cols, values, size)
    return refuse


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

    def test_integer_sizes_of_any_integer_type(self):
        cfg = DickeConfig(n_atoms=np.int64(3), fock_dim=np.int32(5), omega=2, g=1)
        assert cfg.dim == 20
