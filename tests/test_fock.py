import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from conftest import random_physical_centered
from nonclassicality import (
    BALANCED_T,
    BeamSplitterParams,
    SqueezedCoherentParams,
    center,
    covariance_check,
    moments_from_vector,
    output_spectrum,
    squeezed_coherent_moments,
    squeezed_coherent_vector,
)
from nonclassicality import dicke, fock
from nonclassicality.fock import TAIL_TOL, _check_norm, _half_log_factorials, _lower, _tail_weight
from oracles import (
    annihilation_matrix, block_entries, five_pass_covariance_entries, lower, measured_entries,
    predicted_entries, recommended_dim, split_against_vacuum,
)

#: (alpha, r, theta) of squeezed coherent states that fit their recommended_dim.
HEALTHY_CASES = [(0.0, 0.6, 0.0), (0.5 + 0.3j, 0.9, 1.3), (-0.8j, 0.4, 4.0), (1.0, 0.0, 0.0)]

#: The balanced splitter as maximizing_splitter builds it, r from t.
BALANCED = BeamSplitterParams(BALANCED_T)


def fock_basis_state(dim, n):
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[n] = 1.0
    return coeffs


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
        np.testing.assert_array_equal(state[0], 1.0)
        np.testing.assert_array_equal(state[1:], 0.0)
        assert _tail_weight(state) < TAIL_TOL

    @pytest.mark.parametrize("r", [0.4, 1.0])
    def test_squeezed_vacuum_has_even_parity(self, r):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, r, 0.7), dim=80)
        odd = np.abs(state[1::2]) ** 2
        assert odd.max() < 1e-12

    @pytest.mark.parametrize("alpha,r,theta", HEALTHY_CASES)
    def test_moments_match_closed_form(self, alpha, r, theta):
        params = SqueezedCoherentParams(alpha, r, theta)
        state = squeezed_coherent_vector(params, dim=max(80, recommended_dim(params)))
        assert _tail_weight(state) < TAIL_TOL
        measured = moments_from_vector(state)
        expected = squeezed_coherent_moments(params)
        assert cmath.isclose(measured.mean_a, expected.mean_a, rel_tol=1e-8, abs_tol=1e-8)
        assert cmath.isclose(measured.a_squared, expected.a_squared, rel_tol=1e-8, abs_tol=1e-8)
        assert math.isclose(measured.photon_number, expected.photon_number, rel_tol=1e-8, abs_tol=1e-8)

    def test_truncation_overflow_flagged(self):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, 1.5, 0.0), dim=20)
        assert _tail_weight(state) >= TAIL_TOL

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
        psi = squeezed_coherent_vector(params, dim)
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
        psi = squeezed_coherent_vector(SqueezedCoherentParams(alpha, r, theta), dim)
        a = annihilation_matrix(dim)
        lhs = (math.cosh(r) * a + cmath.exp(1j * theta) * math.sinh(r) * a.T) @ psi
        assert np.abs(lhs - alpha * psi)[:-1].max() <= 1e-12

    def test_extreme_squeezing_is_finite_and_normalized(self):
        state = squeezed_coherent_vector(SqueezedCoherentParams(0.0, 1000.0, 0.3), dim=80)
        assert np.isfinite(state).all()
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        assert _tail_weight(state) >= TAIL_TOL

    def test_large_coherent_amplitude_matches_log_space_reference(self):
        # Amplitudes alpha^k / sqrt(k!) pass 1e600 before level 200: the
        # recurrence has to rescale on the way up.
        alpha, dim = 1e4 * cmath.exp(0.7j), 200
        state = squeezed_coherent_vector(SqueezedCoherentParams(alpha, 0.0, 0.0), dim)
        assert np.isfinite(state).all()
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        k = np.arange(dim)
        log_abs = k * math.log(abs(alpha)) - 0.5 * gammaln(k + 1.0)
        expected = np.exp(log_abs - log_abs.max() + 1j * k * cmath.phase(alpha))
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 80, 400])
    def test_recurrence_is_byte_exact(self, dim):
        rng = np.random.default_rng(dim)
        cases = [SqueezedCoherentParams(0.0, 0.0, 0.0), SqueezedCoherentParams(0.0, 1.2, 0.4)]
        cases += [
            SqueezedCoherentParams(complex(*rng.uniform(-2.0, 2.0, 2)), rng.uniform(0.0, 2.0),
                                   rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(8)
        ]
        for params in cases:
            expected, _ = squeezed_coherent_by_math_sqrt(params, dim)
            assert squeezed_coherent_vector(params, dim).tobytes() == expected.tobytes()

    def test_rescaled_recurrence_is_byte_exact(self):
        params = SqueezedCoherentParams(1e4 * cmath.exp(0.7j), 0.3, 1.1)
        expected, rescales = squeezed_coherent_by_math_sqrt(params, 200)
        assert rescales > 0
        assert squeezed_coherent_vector(params, 200).tobytes() == expected.tobytes()


def squeezed_coherent_by_math_sqrt(params, dim):
    """squeezed_coherent_vector's recurrence with math.sqrt per level, and its count of rescales.

    The reference for the cached ladder roots: the same operations in the
    same order, so the coefficients must match byte for byte.
    """
    r = params.strength
    decay = math.exp(-r)
    sech = 2.0 * decay / (1.0 + decay * decay)
    drive = params.alpha * sech
    pull = -complex(math.cos(params.angle), math.sin(params.angle)) * math.tanh(r)
    coeffs = np.zeros(dim, dtype=complex)
    prev, cur = 0j, 1 + 0j
    coeffs[0] = cur
    rescales = 0
    for k in range(1, dim):
        prev, cur = cur, (drive * cur + pull * math.sqrt(k - 1) * prev) / math.sqrt(k)
        if abs(cur) > 1e150:
            rescales += 1
            scale = 1.0 / abs(cur)
            coeffs[:k] *= scale
            prev *= scale
            cur *= scale
        coeffs[k] = cur
    return coeffs / np.linalg.norm(coeffs), rescales


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
                split_against_vacuum(vec, bs),
                splitter_by_photon_number(vec, mu1, mu2),
                rtol=0, atol=1e-14,
            )

    def test_vacuum_stays_vacuum(self):
        out = split_against_vacuum(fock_basis_state(6, 0), BALANCED)
        assert abs(out[0, 0]) == pytest.approx(1.0)
        assert np.linalg.norm(out.ravel()[1:]) == pytest.approx(0.0)

    def test_transparent_splitter(self):
        out = split_against_vacuum(
            fock_basis_state(6, 1), BeamSplitterParams(1.0, 0.0)
        )
        assert abs(out[1, 0]) == pytest.approx(1.0)

    def test_single_photon_balanced(self):
        out = split_against_vacuum(fock_basis_state(6, 1), BALANCED)
        weights = np.abs(out) ** 2
        assert weights[1, 0] == pytest.approx(0.5)
        assert weights[0, 1] == pytest.approx(0.5)
        # <a1^dag a1> = t^2 <a^dag a> = 1/2
        n1 = (np.arange(6)[:, None] * weights).sum()
        assert n1 == pytest.approx(0.5)

    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            raw = rng.normal(size=40) + 1j * rng.normal(size=40)
            state = raw / np.linalg.norm(raw)
            bs = BeamSplitterParams(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            )
            out = split_against_vacuum(state, bs)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

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
            psi = split_against_vacuum(state, bs)
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
        out = split_against_vacuum(fock_basis_state(5, 0), BALANCED)
        vacuum = (0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(measured_entries(out), vacuum, atol=1e-14)

    def test_squeezed_vacuum_matches_closed_form_blocks(self):
        params = SqueezedCoherentParams(0.0, 0.8, 0.0)
        state = squeezed_coherent_vector(params, dim=90)
        measured = measured_entries(split_against_vacuum(state, BALANCED))
        predicted = predicted_entries(center(squeezed_coherent_moments(params)), BALANCED)
        np.testing.assert_allclose(measured, predicted, atol=1e-6)

    def test_single_photon_input_is_classical_for_the_measure(self):
        # |1> has <a^2> = 0, so the Gaussian measure sees no entanglement.
        from oracles import symplectic_eta

        out = split_against_vacuum(fock_basis_state(6, 1), BALANCED)
        eta_m, _ = symplectic_eta(measured_entries(out))
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
        # One NaN entry, on the first trial or after finite ones, makes the result NaN.
        calls = []
        entries = fock._block_entries

        def predicted(*args):
            calls.append(args)
            predicted_entries = entries(*args)
            if len(calls) - 1 == nan_trial:
                return (*predicted_entries[:3], math.nan, *predicted_entries[4:])
            return predicted_entries

        monkeypatch.setattr(fock, "_block_entries", predicted)
        assert math.isnan(covariance_check(trials=3, dim=20, seed=1))
        assert len(calls) == 3

    def test_refused_blocks_are_a_nan_discrepancy(self, monkeypatch):
        # Non-finite predicted entries end the trial, not the run.
        def refused(*args):
            return (math.nan,) * 10

        monkeypatch.setattr(fock, "_block_entries", refused)
        assert math.isnan(covariance_check(trials=3, dim=20, seed=1))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", ["_covariance_entries", "output_spectrum"])
    def test_a_non_finite_value_on_either_side_is_a_nan_discrepancy(self, monkeypatch, side, value):
        # An infinite measured entry would otherwise read as an infinite
        # discrepancy, and an infinite spectrum on both sides as none.
        original = getattr(fock, side)
        monkeypatch.setattr(fock, side, lambda *args: (value, *original(*args)[1:]))
        assert math.isnan(covariance_check(trials=2, dim=20, seed=1))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # With nothing compared the discrepancy would read 0, a pass.
        with pytest.raises(ValueError, match="trials must be >= 1"):
            covariance_check(trials=trials, dim=80, seed=1)

    @pytest.mark.parametrize("r_max", [-1.0, math.inf, math.nan])
    def test_unbounded_squeezing_range_rejected(self, r_max):
        # Generator.uniform refused these ranges when each trial drew its own.
        with pytest.raises(ValueError, match="r_max must be finite and >= 0"):
            covariance_check(trials=1, dim=8, seed=1, r_max=r_max)


def covariance_check_by_public_path(trials, dim, seed, corrupt_phase=False):
    """covariance_check's trials through the oracle's kernels on arrays allocated per trial.

    Six scalar ``rng.uniform`` draws per trial are the reference for the one
    batched draw per call that covariance_check makes, and fresh arrays on
    every trial the reference for its one reused workspace.  The spectrum of
    the measured entries is compared with ``output_spectrum`` in the same
    maximum.
    """
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
        measured = measured_entries(split_against_vacuum(state, simulated))
        c = center(moments_from_vector(state))
        predicted = predicted_entries(c, bs)
        worst = max(worst, *(abs(m - p) for m, p in zip(measured, predicted)))
        spectrum = fock._spectrum(*measured)
        for m, p in zip(spectrum, output_spectrum(c.v, c.n, bs.t)):
            worst = max(worst, abs(m - p))
    return worst


class TestOnePath:
    """covariance_check refills one workspace per call; fresh arrays per trial give the same floats."""

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

        def leaky_on_second_trial(vec, bs, out, magnitude):
            calls.append(bs)
            split(vec, bs, out, magnitude)
            if len(calls) == 2:
                out *= 1.001
            return out

        monkeypatch.setattr(fock, "_apply_beam_splitter_images", leaky_on_second_trial)
        # Unchecked, the leak would read as a finite discrepancy near 1e-3.
        assert math.isnan(covariance_check(trials=3, dim=30, seed=1))
        assert len(calls) == 3

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_lower_into_a_buffer_is_exact(self, axis, dtype):
        # The tests' general lowering, which the five-pass reference kernel
        # runs; the package keeps its last-axis path as _lower.
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
        assert lower(psi, axis, out=buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()
        assert lower(psi, axis).tobytes() == expected.tobytes()
        if axis != 0:
            assert _lower(psi).tobytes() == expected.tobytes()

    def test_dicke_lowers_with_the_same_function(self):
        assert dicke._lower is fock._lower

    def test_half_log_factorials_match_gammaln(self):
        dim = 2000
        table = _half_log_factorials(dim)
        expected = 0.5 * gammaln(np.arange(dim) + 1.0)
        assert table[0] == table[1] == 0.0
        assert np.all(np.abs(table - expected) <= 2.0 * np.spacing(expected))


class TestShiftedSliceKernel:
    """The oracle's covariance kernel and its closed-form prediction, against the tests' references."""

    #: Largest gap to the five-pass reference seen on dense random tables of
    #: the shapes below, 20 tables each (3 at 400 x 400): 1.53 eps times
    #: (1 + the largest entry).  The bound leaves a factor of ten over that.
    KERNEL_TOL = 16.0 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "shape",
        [(2, 2), (3, 3), (17, 17), (80, 80), (400, 400), (5, 1), (1, 5), (1, 1), (5, 7), (7, 5)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_matches_the_five_pass_reference(self, shape):
        # Dense tables fill every level, so nothing rests on the k + j < dim
        # triangle of a split state, and every wrapped term is nonzero.
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for _ in range(3):
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            psi /= np.linalg.norm(psi)
            entries = fock._covariance_entries(psi, *np.empty((3, *shape), dtype=complex))
            expected = five_pass_covariance_entries(psi)
            assert all(type(x) is float for x in entries)
            scale = 1.0 + max(abs(x) for x in expected)
            assert max(abs(a - b) for a, b in zip(entries, expected)) <= self.KERNEL_TOL * scale

    def test_block_entries_equal_the_numpy_form_bit_for_bit(self):
        # math.cos / math.sin against NumPy's array loops, on 20,000 draws.
        rng = np.random.default_rng(33)
        size = 20_000
        n = rng.uniform(0.0, 5.0, size)
        v = rng.uniform(0.0, 1.0, size) * np.sqrt(n * (n + 1.0))
        theta, phi = rng.uniform(0.0, 2.0 * math.pi, (2, size))
        t = rng.uniform(0.0, 1.0, size)
        r = np.sqrt(1.0 - t * t)
        expected = np.array(block_entries(v, theta, n, t, phi, r)).T.tolist()
        for row, want in zip(zip(*(x.tolist() for x in (v, theta, n, t, phi, r))), expected):
            entries = fock._block_entries(*row)
            assert all(type(x) is float for x in entries)
            assert entries == tuple(want)

    def test_spectrum_of_the_predicted_entries_is_output_spectrum(self):
        # The spectrum that each trial takes of the measured entries, on exact
        # entries, is the closed form the CLI reports.  Occupations down to
        # 1e-14 (and 0) and transmissions down to 1e-10 put the spectrum on
        # or next to its degeneracy eta^- = eta^+, where a square root of the
        # invariants' discriminant would miss by about 1e-8.  The largest
        # gap seen here is 3.4e-15.
        rng = np.random.default_rng(34)
        for _ in range(2000):
            n = 10.0 ** rng.uniform(-14.0, 1.0) if rng.uniform() < 0.9 else 0.0
            v = rng.uniform() * math.sqrt(n * (n + 1.0))
            theta, phi = rng.uniform(0.0, 2.0 * math.pi, 2)
            bs = BeamSplitterParams(10.0 ** rng.uniform(-10.0, 0.0), phi)
            spectrum = fock._spectrum(*fock._block_entries(v, theta, n, bs.t, bs.phi, bs.r))
            for got, want in zip(spectrum, output_spectrum(v, n, bs.t)):
                assert abs(got - want) <= 1e-13 * max(1.0, want)

    def test_spectrum_of_entries_that_are_not_positive_definite_is_nan(self):
        entries = fock._block_entries(0.5, 0.3, 0.4, 0.6, 1.1, 0.8)
        for broken in ((0.0, *entries[1:]), (-1.0, *entries[1:]), entries[:9] + (-5.0,)):
            assert all(map(math.isnan, fock._spectrum(*broken)))


class TestSizeTables:
    """The tables that depend only on the size are built once per size and shared."""

    TABLES = [fock._ladder_roots, fock._half_log_factorials, fock._half_log_factorial_sums]

    @pytest.mark.parametrize("table", TABLES, ids=lambda table: table.__name__)
    @pytest.mark.parametrize("dim", [2, 17, 80])
    def test_cached_tables_are_read_only(self, table, dim):
        array = table(dim)
        assert table(dim) is array
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0

    def test_tables_hold_their_definitions(self):
        dim = 9
        np.testing.assert_array_equal(fock._ladder_roots(dim), [math.sqrt(k) for k in range(dim + 1)])
        half_log_fact = _half_log_factorials(dim)
        sums = fock._half_log_factorial_sums(dim)
        assert sums.flags.c_contiguous
        for k in range(dim):
            for j in range(dim):
                assert sums[k, j] == (half_log_fact[k + j] if k + j < dim else 0.0)

    def test_evicted_size_gives_the_same_value(self):
        first = covariance_check(trials=3, dim=17, seed=11)
        for dim in range(20, 20 + fock.TABLE_CACHE + 1):
            covariance_check(trials=1, dim=dim, seed=1)
        misses = [table.cache_info().misses for table in self.TABLES]
        for table in self.TABLES:
            info = table.cache_info()
            assert info.currsize == info.maxsize == fock.TABLE_CACHE
        again = covariance_check(trials=3, dim=17, seed=11)
        # Every table of dim 17 was evicted and is built again.
        assert all(table.cache_info().misses > before for table, before in zip(self.TABLES, misses))
        assert again == first
        assert again == covariance_check_by_public_path(3, 17, 11)


class TestFockVectorInvariants:
    """The checks on a prepared state: its norm check and the size of its truncation."""

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            _check_norm(np.array([1.0, 1.0], dtype=complex))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="state norm nan"):
            _check_norm(np.array([math.nan, 0.0]))

    def test_one_level_truncation_rejected(self):
        with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
            squeezed_coherent_vector(SqueezedCoherentParams(0.0, 0.5, 0.0), 1)
