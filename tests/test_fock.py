import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from nonclassicality import (
    BALANCED_T,
    BeamSplitterParams,
    CovarianceBlocks,
    FockVector,
    SqueezedCoherentParams,
    TwoModeVector,
    apply_beam_splitter,
    center,
    covariance_check,
    covariance_from_input,
    moments_from_vector,
    squeezed_coherent_moments,
    squeezed_coherent_vector,
    two_mode_covariance,
)
from nonclassicality import dicke, fock
from nonclassicality.fock import _half_log_factorials, _lower
from oracles import annihilation_matrix, recommended_dim

#: (alpha, r, theta) of squeezed coherent states that fit their recommended_dim.
HEALTHY_CASES = [(0.0, 0.6, 0.0), (0.5 + 0.3j, 0.9, 1.3), (-0.8j, 0.4, 4.0), (1.0, 0.0, 0.0)]

#: The balanced splitter as maximizing_splitter builds it, r from t.
BALANCED = BeamSplitterParams(BALANCED_T)


def fock_basis_state(dim, n):
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[n] = 1.0
    return FockVector(coeffs)


class TestAnnihilationMatrix:
    def test_dim_two(self):
        np.testing.assert_array_equal(annihilation_matrix(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_superdiagonal_entries(self):
        a = annihilation_matrix(3)
        assert a[1, 2] == math.sqrt(2.0)
        assert a[0, 1] == 1.0

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_number_operator_diagonal(self, n):
        a = annihilation_matrix(9)
        number = a.T @ a
        assert number[n, n] == pytest.approx(n)

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            annihilation_matrix(1)


class TestSqueezedCoherentVector:
    def test_vacuum(self):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, 0.0, 0.0), dim=8)
        np.testing.assert_array_equal(state.coefficients[0], 1.0)
        np.testing.assert_array_equal(state.coefficients[1:], 0.0)
        assert state.truncation_healthy

    @pytest.mark.parametrize("r", [0.4, 1.0])
    def test_squeezed_vacuum_has_even_parity(self, r):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, r, 0.7), dim=80)
        odd = np.abs(state.coefficients[1::2]) ** 2
        assert odd.max() < 1e-12

    @pytest.mark.parametrize("alpha,r,theta", HEALTHY_CASES)
    def test_moments_match_closed_form(self, alpha, r, theta):
        params = SqueezedCoherentParams(alpha, r, theta)
        state = squeezed_coherent_vector(params, dim=max(80, recommended_dim(params)))
        assert state.truncation_healthy
        measured = moments_from_vector(state)
        expected = squeezed_coherent_moments(params)
        assert cmath.isclose(measured.mean_a, expected.mean_a, rel_tol=1e-8, abs_tol=1e-8)
        assert cmath.isclose(measured.a_squared, expected.a_squared, rel_tol=1e-8, abs_tol=1e-8)
        assert math.isclose(measured.photon_number, expected.photon_number, rel_tol=1e-8, abs_tol=1e-8)

    def test_truncation_overflow_flagged(self):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, 1.5, 0.0), dim=20)
        assert not state.truncation_healthy

    @pytest.mark.parametrize("alpha,r,theta", HEALTHY_CASES)
    def test_matches_exponentiated_generators(self, alpha, r, theta):
        # Reference: exp[(beta* a^2 - beta a^dag^2) / 2] exp(alpha a^dag - alpha* a)|0>
        # with both generators truncated to the same dim.
        params = SqueezedCoherentParams(alpha, r, theta)
        dim = recommended_dim(params)
        a = annihilation_matrix(dim).astype(complex)
        ad = a.conj().T
        beta = r * cmath.exp(1j * theta)
        vacuum = np.zeros(dim, dtype=complex)
        vacuum[0] = 1.0
        displaced = scipy.linalg.expm(alpha * ad - np.conj(alpha) * a) @ vacuum
        expected = scipy.linalg.expm(0.5 * (np.conj(beta) * (a @ a) - beta * (ad @ ad))) @ displaced
        psi = squeezed_coherent_vector(params, dim).coefficients
        phase = np.vdot(psi, expected)
        np.testing.assert_allclose(psi * phase / abs(phase), expected, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "alpha,r,theta,dim",
        [
            (0.0, 2.0, 0.0, 700),
            (0.7 + 0.2j, 1.5, 2.0, 340),
            (2.0, 1.0, 0.5, 200),
            (-0.8j, 0.4, 4.0, 48),
        ],
    )
    def test_eigen_equation_residual(self, alpha, r, theta, dim):
        # (cosh r a + e^{i theta} sinh r a^dag)|psi> = alpha |psi> on every row
        # that the truncation leaves complete.
        psi = squeezed_coherent_vector(SqueezedCoherentParams(alpha, r, theta), dim).coefficients
        a = annihilation_matrix(dim)
        lhs = (math.cosh(r) * a + cmath.exp(1j * theta) * math.sinh(r) * a.T) @ psi
        assert np.abs(lhs - alpha * psi)[:-1].max() <= 1e-12

    def test_extreme_squeezing_is_finite_and_normalized(self):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, 1000.0, 0.3), dim=80)
        assert np.isfinite(state.coefficients).all()
        assert abs(np.linalg.norm(state.coefficients) - 1.0) < 1e-12
        assert not state.truncation_healthy

    def test_large_coherent_amplitude_matches_log_space_reference(self):
        # Amplitudes alpha^k / sqrt(k!) pass 1e600 before level 200: the
        # recurrence has to rescale on the way up.
        alpha, dim = 1e4 * cmath.exp(0.7j), 200
        state = squeezed_coherent_vector(SqueezedCoherentParams(alpha, 0.0, 0.0), dim)
        assert np.isfinite(state.coefficients).all()
        assert abs(np.linalg.norm(state.coefficients) - 1.0) < 1e-12
        k = np.arange(dim)
        log_abs = k * math.log(abs(alpha)) - 0.5 * gammaln(k + 1.0)
        expected = np.exp(log_abs - log_abs.max() + 1j * k * cmath.phase(alpha))
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(state.coefficients, expected, rtol=0, atol=1e-12)


def splitter_by_photon_number(vec, mu1, mu2):
    """Reference: map each |n, 0> to sum_k binom(n, k)^{1/2} mu1^k mu2^{n-k} |k, n-k>."""
    dim = vec.size
    out = np.zeros((dim, dim), dtype=complex)
    log_mu1 = -np.inf if mu1 == 0 else math.log(abs(mu1))
    log_mu2 = -np.inf if mu2 == 0 else math.log(abs(mu2))
    ph1 = mu1 / abs(mu1) if mu1 != 0 else 0.0
    ph2 = mu2 / abs(mu2) if mu2 != 0 else 0.0

    def power_log(exponent, logval):
        # exponent * logval with the convention 0 * (-inf) = 0 (mu^0 = 1).
        with np.errstate(invalid="ignore"):
            product = exponent * logval
        return np.where(exponent == 0, 0.0, product)

    for n in range(dim):
        k = np.arange(n + 1)
        log_binom_half = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
        magnitude = np.exp(log_binom_half + power_log(k, log_mu1) + power_log(n - k, log_mu2))
        out[k, n - k] += vec[n] * magnitude * ph1**k * ph2 ** (n - k)
    return out


class TestApplyBeamSplitter:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0 / math.sqrt(2.0), 0.95, 1.0])
    def test_table_matches_per_photon_number_map(self, t):
        rng = np.random.default_rng(31)
        for dim in (2, 17, 80):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            bs = BeamSplitterParams(t, rng.uniform(0.0, 2.0 * math.pi))
            # B a1^dag B^dag = mu1 a1^dag + mu2 a2^dag, the oracle's phase convention.
            mu1, mu2 = t * cmath.exp(1j * bs.phi), -bs.r
            np.testing.assert_allclose(
                apply_beam_splitter(FockVector(vec), bs).coefficients,
                splitter_by_photon_number(vec, mu1, mu2),
                rtol=0, atol=1e-14,
            )

    def test_vacuum_stays_vacuum(self):
        out = apply_beam_splitter(fock_basis_state(6, 0), BALANCED)
        assert abs(out.coefficients[0, 0]) == pytest.approx(1.0)
        assert np.linalg.norm(out.coefficients.ravel()[1:]) == pytest.approx(0.0)

    def test_transparent_splitter(self):
        out = apply_beam_splitter(
            fock_basis_state(6, 1), BeamSplitterParams(1.0, 0.0)
        )
        assert abs(out.coefficients[1, 0]) == pytest.approx(1.0)

    def test_single_photon_balanced(self):
        out = apply_beam_splitter(fock_basis_state(6, 1), BALANCED)
        weights = np.abs(out.coefficients) ** 2
        assert weights[1, 0] == pytest.approx(0.5)
        assert weights[0, 1] == pytest.approx(0.5)
        # <a1^dag a1> = t^2 <a^dag a> = 1/2
        n1 = (np.arange(6)[:, None] * weights).sum()
        assert n1 == pytest.approx(0.5)

    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            raw = rng.normal(size=40) + 1j * rng.normal(size=40)
            state = FockVector(raw / np.linalg.norm(raw))
            bs = BeamSplitterParams(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            )
            out = apply_beam_splitter(state, bs)
            assert abs(np.linalg.norm(out.coefficients) - 1.0) < 1e-10

    def test_cross_moment_transformation(self):
        # <a1 a2> on the output equals -t r e^{i phi} <a^2> of the input.
        rng = np.random.default_rng(23)
        for _ in range(6):
            params = SqueezedCoherentParams(
                complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),
                rng.uniform(0.0, 1.0),
                rng.uniform(0.0, 2.0 * math.pi),
            )
            bs = BeamSplitterParams(
                rng.uniform(0.1, 0.95), rng.uniform(0.0, 2.0 * math.pi)
            )
            state = squeezed_coherent_vector(params, dim=70)
            out = apply_beam_splitter(state, bs)
            psi = out.coefficients
            n1 = np.arange(psi.shape[0])
            n2 = np.arange(psi.shape[1])
            a1_psi = np.zeros_like(psi)
            a1_psi[:-1, :] = np.sqrt(n1[1:])[:, None] * psi[1:, :]
            a1a2_psi = np.zeros_like(psi)
            a1a2_psi[:, :-1] = np.sqrt(n2[1:])[None, :] * a1_psi[:, 1:]
            measured = np.vdot(psi, a1a2_psi)
            raw_a2 = moments_from_vector(state).a_squared
            expected = -bs.t * bs.r * cmath.exp(1j * bs.phi) * raw_a2
            assert cmath.isclose(measured, expected, rel_tol=1e-8, abs_tol=1e-8)


class TestTwoModeCovariance:
    def test_two_mode_vacuum(self):
        out = apply_beam_splitter(fock_basis_state(5, 0), BALANCED)
        blocks = two_mode_covariance(out)
        np.testing.assert_allclose(blocks.A, 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(blocks.B, 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(blocks.C, np.zeros((2, 2)), atol=1e-14)

    def test_squeezed_vacuum_matches_closed_form_blocks(self):
        params = SqueezedCoherentParams(0.0, 0.8, 0.0)
        state = squeezed_coherent_vector(params, dim=90)
        measured = two_mode_covariance(apply_beam_splitter(state, BALANCED))
        predicted = covariance_from_input(center(squeezed_coherent_moments(params)), BALANCED)
        np.testing.assert_allclose(measured.A, predicted.A, atol=1e-6)
        np.testing.assert_allclose(measured.B, predicted.B, atol=1e-6)
        np.testing.assert_allclose(measured.C, predicted.C, atol=1e-6)

    def test_single_photon_input_is_classical_for_the_measure(self):
        # |1> has <a^2> = 0, so the Gaussian measure sees no entanglement.
        from oracles import symplectic_eta

        out = apply_beam_splitter(fock_basis_state(6, 1), BALANCED)
        blocks = two_mode_covariance(out)
        eta_m, _ = symplectic_eta(blocks)
        assert 2.0 * eta_m >= 1.0 - 1e-12


class TestCovarianceCheck:
    def test_vacuum_trial_is_exact(self):
        worst = covariance_check(trials=1, dim=24, seed=5, r_max=0.0, alpha_max=0.0)
        assert worst < 1e-12

    def test_random_trials_agree(self):
        worst = covariance_check(trials=10, dim=80, seed=123)
        assert worst < 1e-6

    def test_corrupted_phase_convention_detected(self):
        worst = covariance_check(trials=5, dim=60, seed=123, corrupt_phase=True)
        assert worst > 1e-3

    @pytest.mark.parametrize("nan_trial", [0, 2])
    def test_nan_discrepancy_is_kept(self, monkeypatch, nan_trial):
        # One NaN block, on the first trial or after finite ones, makes the result NaN.
        calls = []

        def predicted(moments, bs):
            blocks = covariance_from_input(moments, bs)
            calls.append(bs)
            if len(calls) - 1 == nan_trial:
                return CovarianceBlocks(blocks.A, np.full((2, 2), math.nan), blocks.C)
            return blocks

        monkeypatch.setattr(fock, "covariance_from_input", predicted)
        assert math.isnan(covariance_check(trials=3, dim=20, seed=1))
        assert len(calls) == 3

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # With nothing compared the discrepancy would read 0, a pass.
        with pytest.raises(ValueError, match="trials must be >= 1"):
            covariance_check(trials=trials, dim=80, seed=1)


def covariance_check_by_public_path(trials, dim, seed, corrupt_phase=False):
    """covariance_check's trials through the public splitter and covariance functions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = math.sqrt(rng.uniform(0.0, 1.0)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        params = SqueezedCoherentParams(
            alpha=alpha, strength=rng.uniform(0.0, 1.5), angle=rng.uniform(0.0, 2.0 * math.pi)
        )
        bs = BeamSplitterParams(t=rng.uniform(0.0, 1.0), phi=rng.uniform(0.0, 2.0 * math.pi))
        state = squeezed_coherent_vector(params, dim)
        simulated = BeamSplitterParams(bs.t, bs.phi + math.pi) if corrupt_phase else bs
        measured = two_mode_covariance(apply_beam_splitter(state, simulated))
        predicted = covariance_from_input(center(moments_from_vector(state)), bs)
        for block in ("A", "B", "C"):
            worst = max(worst, float(np.abs(getattr(measured, block) - getattr(predicted, block)).max()))
    return worst


class TestOnePath:
    """covariance_check refills one workspace per call through the public functions' kernels."""

    @pytest.mark.parametrize(
        "trials, dim, seed, corrupt_phase",
        [(6, 80, 123, False), (4, 17, 7, False), (3, 60, 123, True), (1, 2, 0, False)],
    )
    def test_check_equals_the_public_path_bit_for_bit(self, trials, dim, seed, corrupt_phase):
        worst = covariance_check(trials=trials, dim=dim, seed=seed, corrupt_phase=corrupt_phase)
        assert worst == covariance_check_by_public_path(trials, dim, seed, corrupt_phase)

    def test_split_state_norm_is_checked_on_every_trial(self, monkeypatch):
        split = fock._apply_beam_splitter_images
        calls = []

        def leaky_on_second_trial(vec, bs, half_log_fact, out, magnitude, scratch):
            calls.append(bs)
            split(vec, bs, half_log_fact, out, magnitude, scratch)
            if len(calls) == 2:
                out *= 1.001
            return out

        monkeypatch.setattr(fock, "_apply_beam_splitter_images", leaky_on_second_trial)
        with pytest.raises(ValueError, match="state norm"):
            covariance_check(trials=3, dim=30, seed=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_lower_into_a_buffer_is_exact(self, axis, dtype):
        rng = np.random.default_rng(4)
        psi = rng.normal(size=(9, 13)).astype(dtype)
        if dtype is complex:
            psi += 1j * rng.normal(size=psi.shape)
        psi[2, 3] = -0.0  # signed zeros must come out as the reference makes them
        # The reference: zeros, then sqrt(n) times the shifted levels.
        expected = np.zeros_like(psi)
        n = psi.shape[axis]
        if axis == 0:
            expected[:-1] = np.sqrt(np.arange(1, n))[:, None] * psi[1:]
        else:
            expected[:, :-1] = np.sqrt(np.arange(1, n)) * psi[:, 1:]
        buffer = np.full_like(psi, np.nan)
        assert _lower(psi, axis, out=buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()
        assert _lower(psi, axis).tobytes() == expected.tobytes()

    def test_dicke_lowers_with_the_same_function(self):
        assert dicke._lower is fock._lower

    def test_half_log_factorials_match_gammaln(self):
        dim = 2000
        table = _half_log_factorials(dim)
        expected = 0.5 * gammaln(np.arange(dim) + 1.0)
        assert table[0] == table[1] == 0.0
        assert np.all(np.abs(table - expected) <= 2.0 * np.spacing(expected))


class TestFockVectorInvariants:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, 1.0], dtype=complex))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="state norm nan"):
            FockVector(np.array([math.nan, 0.0]))
        with pytest.raises(ValueError, match="state norm nan"):
            TwoModeVector(np.full((2, 2), math.nan))

    def test_dim_exposed(self):
        assert fock_basis_state(7, 2).dim == 7
