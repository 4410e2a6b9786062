import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_physical_centered
from nonclassicality import (
    BALANCED_T,
    BeamSplitterParams,
    CenteredMoments,
    SingleModeMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
    build_report,
    center,
    dgcz_lambda,
    dgcz_simple,
    hz_condition,
    log_negativity,
    maximizing_splitter,
    output_spectrum,
    squeezed_coherent_moments,
    squeezed_coherent_vector,
)
from nonclassicality.fock import TAIL_TOL, _tail_weight
from oracles import (
    _invariants,
    block_entries,
    covariance_matrix,
    eta_minus_sq,
    predicted_entries,
    schmidt_log_negativity,
    simon_lambda,
    split_against_vacuum,
    symplectic_eta,
    vectorized_output_spectrum,
)

OMEGA = np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
)
PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p2 -> -p2
#: The balanced splitter as maximizing_splitter builds it, r from t.
BALANCED = BeamSplitterParams(BALANCED_T)
#: The covariance entries of two-mode vacuum: A = B = I/2, C = 0.
VACUUM = (0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0)


def pt_eigenvalue_oracle(entries):
    """Symplectic spectrum of the partial transpose via |eig(i Omega V~)|."""
    v_tilde = PT_FLIP @ covariance_matrix(entries) @ PT_FLIP
    magnitudes = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ v_tilde)))
    return magnitudes[0], magnitudes[-1]


def squeezed_vacuum_centered(r):
    return center(squeezed_coherent_moments(SqueezedCoherentParams(0.0, r, 0.0)))


physical_inputs = st.builds(
    lambda n, frac, theta: CenteredMoments(
        v=frac * math.sqrt(n * (n + 1.0)), theta=theta, n=n
    ),
    st.floats(0.0, 3.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
splitters = st.builds(
    BeamSplitterParams,
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


class TestBeamSplitterParams:
    def test_normalization_enforced(self):
        # 0 <= t, with t^2 - 1 up to 1e-12 accepted as rounding of t = 1.
        for t in (-0.5, 1.0 + 1e-12, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                BeamSplitterParams(t=t, phi=0.0)
        with pytest.raises(ValueError):
            BeamSplitterParams(t=0.5, phi=math.nan)
        assert BeamSplitterParams(1.0 + 1e-13).r == 0.0
        with pytest.raises(TypeError):
            BeamSplitterParams(0.6, 1.0, 0.8)  # r is derived, never passed

    def test_r_derived_from_t(self):
        bs = BeamSplitterParams(0.6, 1.0)
        assert math.isclose(bs.r, 0.8, rel_tol=1e-15)

    def test_phi_wrapped(self):
        assert BeamSplitterParams(BALANCED_T, phi=-1.0).phi == pytest.approx(
            2.0 * math.pi - 1.0
        )

    @pytest.mark.parametrize("angle", [-1e-300, -1e-17, -0.0, 2.0 * math.pi, -1.0, 7.0])
    def test_phi_and_theta_share_one_wrap(self, angle):
        # A tiny negative angle that one % rounds up to 2 pi lands on 0.
        phi = BeamSplitterParams(0.3, angle).phi
        assert 0.0 <= phi < 2.0 * math.pi
        assert math.copysign(1.0, phi) == 1.0
        assert phi == CenteredMoments(0.5, angle, 1.0).theta


class TestCovarianceFromInput:
    def test_vacuum_input(self):
        entries = predicted_entries(
            CenteredMoments(0.0, 0.0, 0.0), BeamSplitterParams(0.3, 2.0)
        )
        np.testing.assert_array_equal(entries, VACUUM)

    def test_thermal_like_input_balanced(self):
        # Direct substitution with v=0, n=3, t=r=1/sqrt(2), phi=0.
        n = 3.0
        matrix = covariance_matrix(predicted_entries(CenteredMoments(0.0, 0.0, n), BALANCED))
        np.testing.assert_allclose(matrix[:2, :2], (n / 2 + 0.5) * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(matrix[2:, 2:], (n / 2 + 0.5) * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(matrix[:2, 2:], -(n / 2) * np.eye(2), rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("r", [0.35, 0.8, 1.4])
    def test_squeezed_vacuum_closed_form_blocks(self, r):
        # Substitution with e^{+-r} = cosh r +- sinh r.
        s = math.sinh(r)
        matrix = covariance_matrix(predicted_entries(squeezed_vacuum_centered(r), BALANCED))
        expected_mode = np.diag(
            [(1.0 - s * math.exp(-r)) / 2.0, (1.0 + s * math.exp(r)) / 2.0]
        )
        expected_cross = 0.5 * np.diag([s * math.exp(-r), -s * math.exp(r)])
        np.testing.assert_allclose(matrix[:2, :2], expected_mode, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(matrix[2:, 2:], expected_mode, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(matrix[:2, 2:], expected_cross, rtol=1e-13, atol=1e-15)

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalMomentsError):
            predicted_entries(CenteredMoments(2.0, 0.0, 1.0), BALANCED)

    def test_assembled_matrix_is_symmetric(self):
        entries = predicted_entries(
            CenteredMoments(1.0, 0.7, 1.2), BeamSplitterParams(0.4, 0.9)
        )
        matrix = covariance_matrix(entries)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-15)


class TestSymplecticEta:
    def test_vacuum_blocks(self):
        assert symplectic_eta(VACUUM) == (0.5, 0.5)

    @pytest.mark.parametrize("s", [0.3, 0.6, 1.1])
    def test_two_mode_squeezed_form(self, s):
        # sigma = cosh(4s)/2 and det V = 1/16 give 2 eta^- = e^{-2s}.
        mode, cross = 0.5 * math.cosh(2 * s), 0.5 * math.sinh(2 * s)
        entries = (mode, 0.0, mode, mode, 0.0, mode, cross, 0.0, 0.0, -cross)
        eta_m, eta_p = symplectic_eta(entries)
        # sigma - sqrt(disc) cancels at large squeezing; 1e-11 leaves headroom.
        assert math.isclose(2 * eta_m, math.exp(-2 * s), rel_tol=1e-11)
        assert math.isclose(2 * eta_p, math.exp(2 * s), rel_tol=1e-11)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_squeezed_vacuum_balanced_splitter(self, r):
        # sigma = 1/2 + sinh^2 r and det V = 1/16 give 2 eta^- = e^{-r}.
        eta_m, _ = symplectic_eta(predicted_entries(squeezed_vacuum_centered(r), BALANCED))
        assert math.isclose(2 * eta_m, math.exp(-r), rel_tol=1e-12)

    @given(inp=physical_inputs, bs=splitters)
    def test_matches_partial_transpose_eigenvalue_oracle(self, inp, bs):
        # Near eta^- = eta^+ the split is determined only to sqrt(eps) by
        # either route, hence the absolute floor on the comparison.
        entries = predicted_entries(inp, bs)
        eta_m, eta_p = symplectic_eta(entries)
        oracle_m, oracle_p = pt_eigenvalue_oracle(entries)
        assert math.isclose(eta_m, oracle_m, rel_tol=1e-9, abs_tol=1e-7)
        assert math.isclose(eta_p, oracle_p, rel_tol=1e-9, abs_tol=1e-7)
        assert math.isclose(eta_m * eta_p, oracle_m * oracle_p, rel_tol=1e-9, abs_tol=1e-10)

    def test_negative_detv_rejected(self):
        entries = (1.0, 0.0, -1.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(UnphysicalMomentsError):
            symplectic_eta(entries)

    def test_negative_discriminant_rejected(self):
        # Frozen unphysical instance with sigma^2 - 4 det V ~ -0.02.
        entries = (
            0.82099383, 0.0, 0.96737513,
            1.19509903, 0.0, 0.34700713,
            0.68612424, 0.4424737, -0.91337841, 0.39376908,
        )
        with pytest.raises(UnphysicalMomentsError):
            symplectic_eta(entries)

    @given(n=st.floats(0.0, 3.0), theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           t=st.floats(0.0, 1.0), phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_pure_input_determinant(self, n, theta, t, phi):
        # Pure states v^2 = n(n+1) keep the output pure: det V = 1/16.
        inp = CenteredMoments(v=math.sqrt(n * (n + 1.0)), theta=theta, n=n)
        det_v = np.linalg.det(covariance_matrix(predicted_entries(inp, BeamSplitterParams(t, phi))))
        assert abs(det_v - 1.0 / 16.0) < 1e-9


class TestLogNegativity:
    def test_separability_boundary(self):
        assert log_negativity(0.5) == 0.0

    def test_unit_value(self):
        assert math.isclose(log_negativity(0.5 * math.exp(-1.0)), 1.0, rel_tol=1e-15)

    def test_clamped_above_boundary(self):
        assert log_negativity(1.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_negativity(0.0)


class TestSimonLambda:
    def test_vacuum_blocks_sit_on_boundary(self):
        assert simon_lambda(VACUUM) == 0.0

    def test_coherent_input_any_splitter(self):
        entries = predicted_entries(
            CenteredMoments(0.0, 0.0, 0.0), BeamSplitterParams(0.77, 2.3)
        )
        assert simon_lambda(entries) == 0.0

    def test_squeezed_vacuum_is_negative(self):
        assert simon_lambda(predicted_entries(squeezed_vacuum_centered(1.0), BALANCED)) < 0.0

    def test_sign_agrees_with_eta_outside_guard_band(self):
        # Exact arithmetic gives lambda = (eta~-^2 - 1/4)(eta~+^2 - 1/4) when
        # det C <= 0 and lambda = 0 exactly when det C > 0 (every splitter
        # output keeps one plain symplectic eigenvalue at the vacuum value).
        # Numerically that zero shows up as +-1e-15 noise, so sign agreement
        # is asserted outside a zero band on lambda as well.
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(400):
            v, theta, n = random_physical_centered(rng)
            bs = BeamSplitterParams(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            )
            entries = predicted_entries(CenteredMoments(v, theta, n), bs)
            eta_m, _ = symplectic_eta(entries)
            lam = simon_lambda(entries)
            if abs(2.0 * eta_m - 1.0) < 1e-8:
                continue
            if abs(lam) <= 1e-11:
                assert 2.0 * eta_m > 1.0  # boundary lambda only on the separable side
            else:
                assert (lam < 0.0) == (2.0 * eta_m < 1.0)
            checked += 1
        assert checked > 300


class TestDgczLambda:
    def test_vacuum_input(self):
        assert dgcz_lambda(CenteredMoments(0.0, 0.0, 0.0), BALANCED) == 0.0

    def test_thermal_like_input(self):
        # c* = 1; 2 * 1 * 1/2 + 2 * 1/2 + 0 = 2.
        lam = dgcz_lambda(CenteredMoments(0.0, 0.0, 1.0), BALANCED)
        assert math.isclose(lam, 2.0, rel_tol=1e-14)

    @pytest.mark.parametrize("r", [0.2, 0.9, 1.8])
    def test_squeezed_vacuum_goes_negative(self, r):
        # With phi aligning the cross term: 2 (sinh^2 - cosh sinh) < 0.
        c, s = math.cosh(r), math.sinh(r)
        lam = dgcz_lambda(squeezed_vacuum_centered(r), BALANCED)
        assert math.isclose(lam, 2.0 * (s * s - c * s), rel_tol=1e-12)
        assert lam < 0.0

    def test_degenerate_splitter_reports_zero(self):
        inp = CenteredMoments(0.5, 1.0, 1.0)
        assert dgcz_lambda(inp, BeamSplitterParams(0.0, 0.0)) == 0.0
        assert dgcz_lambda(inp, BeamSplitterParams(1.0, 0.0)) == 0.0
        # Both criteria read +0.0, never -0.0, in the report, also for v > n.
        for inp in (inp, CenteredMoments(0.5, 1.0, 0.4)):
            for t in (0.0, -0.0, 1.0):
                report = build_report(inp, BeamSplitterParams(t, 0.0))
                for value in (report.lambda_simon, report.lambda_dgcz):
                    assert value == 0.0 and math.copysign(1.0, value) == 1.0
                # A -0.0 transmission is reported as +0.0 too.
                assert report.best_t == t and math.copysign(1.0, report.best_t) == 1.0

    def test_nearly_degenerate_splitter_stays_finite(self):
        # At t = 3.3e-158 the gain r / t overflows; the quantity is 4 t r n.
        bs = BeamSplitterParams(3.3e-158, 0.0)
        assert dgcz_lambda(CenteredMoments(0.0, 0.0, 1.0), bs) == 4.0 * 3.3e-158

    @given(inp=physical_inputs, bs=splitters, gain=st.floats(0.05, 8.0), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=80)
    def test_optimal_gain_minimizes_variance_sum(self, inp, bs, gain, sign):
        # Independent route: evaluate the defining variance sum
        # <(D u)^2> + <(D v)^2> - (c^2 + 1/c^2) from the covariance blocks at
        # an arbitrary gain and check the closed-form choice is never beaten.
        if bs.t < 0.05 or bs.r < 0.05 or inp.n < 1e-3:
            return
        a11, _, a22, b11, _, b22, c11, _, _, c22 = predicted_entries(inp, bs)
        c2 = gain * gain
        u_var = c2 * a11 + b11 / c2 + 2.0 * sign * c11
        v_var = c2 * a22 + b22 / c2 - 2.0 * sign * c22
        lam_at_gain = u_var + v_var - (c2 + 1.0 / c2)
        assert dgcz_lambda(inp, bs) <= lam_at_gain + 1e-10


class TestSimpleConditions:
    @pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
    def test_dgcz_simple_squeezed_vacuum(self, r):
        # cosh r > sinh r for all finite r, so v = CS > S^2 = n.
        assert dgcz_simple(squeezed_vacuum_centered(r))

    def test_dgcz_simple_boundary_and_thermal(self):
        assert not dgcz_simple(CenteredMoments(0.0, 0.0, 0.0))
        assert not dgcz_simple(CenteredMoments(0.0, 0.0, 1.0))

    def test_hz_condition_false_cases(self):
        assert not hz_condition(SingleModeMoments(1.0, 1.0, 1.0))  # equality, strict fails
        assert not hz_condition(SingleModeMoments(0.0, 0.0, 0.0))
        assert not hz_condition(
            squeezed_coherent_moments(SqueezedCoherentParams(0.0, 1.0, 0.0))
        )


class TestPhaseCovariance:
    @given(inp=physical_inputs, bs=splitters, delta=st.floats(-3.0, 3.0))
    def test_input_phase_shift_equals_splitter_phase_shift(self, inp, bs, delta):
        # (theta, phi) -> (theta - 2 delta, phi + delta) is the local rotation
        # R by -delta of the reflected output mode: A' = A, B' = R B R^T and
        # C' = C R^T, so the whole symplectic spectrum is preserved.  The
        # blocks are compared, not eta^-, whose square root of a near-zero
        # discriminant (pure inputs) carries ~1e-9 of rounding noise.
        base = covariance_matrix(predicted_entries(inp, bs))
        shifted = covariance_matrix(predicted_entries(
            CenteredMoments(inp.v, inp.theta - 2.0 * delta, inp.n),
            BeamSplitterParams(bs.t, bs.phi + delta),
        ))
        cos, sin = math.cos(delta), math.sin(delta)
        rot = np.array([[cos, sin], [-sin, cos]])
        tol = 1e-13 * max(1.0, inp.n)
        assert np.abs(shifted[:2, :2] - base[:2, :2]).max() <= tol
        assert np.abs(shifted[2:, 2:] - rot @ base[2:, 2:] @ rot.T).max() <= tol
        assert np.abs(shifted[:2, 2:] - base[:2, 2:] @ rot.T).max() <= tol


class TestBalancedSplitterClosedForm:
    def test_phi_independent_and_optimal_at_balanced(self):
        # Brute-force scan: at t = 1/sqrt(2) the eigenvalue is flat in phi and
        # equals the global optimum 2 eta^- = sqrt(1 + 2(n - v)).
        rng = np.random.default_rng(9)
        ts = np.linspace(0.0, 1.0, 201)
        phis = np.linspace(0.0, 2.0 * math.pi, 181, endpoint=False)
        for _ in range(12):
            v, theta, n = random_physical_centered(rng)
            at_balanced = eta_minus_sq(v, theta, n, BALANCED_T, phis)
            assert at_balanced.max() - at_balanced.min() < 1e-13
            closed_form = max(1.0 + 2.0 * (n - v), 0.0) / 4.0
            assert abs(at_balanced[0] - closed_form) < 1e-12
            grid = eta_minus_sq(v, theta, n, ts[:, None], phis[None, :])
            if v > n:  # balanced splitting is the global optimum
                assert grid.min() >= closed_form - 1e-12

    def test_phase_symmetric_inputs_are_classical(self):
        # v = 0 keeps 2 eta^- >= 1 for every splitter setting.
        ts = np.linspace(0.0, 1.0, 41)
        phis = np.linspace(0.0, 2.0 * math.pi, 41, endpoint=False)
        for n in np.linspace(0.0, 10.0, 21):
            eta_sq = eta_minus_sq(0.0, 0.0, n, ts[:, None], phis[None, :])
            assert np.all(2.0 * np.sqrt(eta_sq) >= 1.0 - 1e-12)


class TestBuildReport:
    def test_report_fields_consistent(self):
        m = squeezed_coherent_moments(SqueezedCoherentParams(0.0, 1.0, 0.0))
        report = build_report(m, BALANCED)
        assert math.isclose(report.E_N, 1.0, rel_tol=1e-12)
        assert report.E_N == log_negativity(report.eta_minus)
        assert report.eta_minus <= report.eta_plus
        assert report.lambda_simon < 0.0
        assert report.lambda_dgcz < 0.0
        assert report.dgcz_simple
        assert not report.hz
        assert report.best_t == BALANCED_T
        assert report.best_phi == 0.0


def gain_formula_dgcz(c, bs):
    """The variance sum at the optimal gain |c*|^2 = (n2 / n1)^{1/2}, term by term."""
    n1, n2 = bs.t * bs.t * c.n, bs.r * bs.r * c.n
    if n1 <= 0.0 or n2 <= 0.0:
        return 0.0
    re_cross = 2.0 * (-bs.t * bs.r * c.v * math.cos(bs.phi + c.theta))
    gain_sq = math.sqrt(n2 / n1)
    sign_c = -1.0 if re_cross > 0.0 else 1.0
    return 2.0 * gain_sq * n1 + 2.0 / gain_sq * n2 + 2.0 * sign_c * re_cross


class TestClosedFormCriteria:
    @given(inp=physical_inputs, bs=splitters)
    def test_match_block_algebra_and_gain_formula(self, inp, bs):
        # The block algebra cancels at the n^4 scale and the gain formula at
        # the n scale; over 1e5 random inputs they differed from the closed
        # forms by at most 4.4e-16 n^4 and 9.1e-16 n (n >= 1).
        report = build_report(inp, bs)
        simon = simon_lambda(predicted_entries(inp, bs))
        scale = max(1.0, inp.n)
        assert abs(report.lambda_simon - simon) <= 1e-15 * scale**4
        reference = gain_formula_dgcz(inp, bs)
        if math.isfinite(reference):  # the gain n2 / n1 overflows for t or r < ~1e-154
            assert abs(report.lambda_dgcz - reference) <= 2e-15 * scale
        assert math.isfinite(report.lambda_dgcz)

    def test_simon_is_theta_invariant_at_large_squeezing(self):
        # The block algebra moved by ~70 across these angles (terms ~ n^4 ~ 3e18).
        v, n = math.sinh(12.0) / 2.0, math.sinh(6.0) ** 2
        exact = Fraction(1, 4) * (Fraction(n) - Fraction(v)) * (Fraction(n) + Fraction(v))
        values = {
            build_report(CenteredMoments(v, k * math.pi / 4.0, n)).lambda_simon
            for k in range(8)
        }
        assert len(values) == 1
        (value,) = values
        assert abs(Fraction(value) - exact) <= 1e-12 * abs(exact)

    def test_simon_negative_exactly_when_v_exceeds_n(self):
        rng = np.random.default_rng(20241018)
        inputs = [random_physical_centered(rng) for _ in range(500)]
        inputs += [(1e-15, 0.0, 1e-29), (0.6, 1.0, 0.6), (0.5, 0.0, 0.4), (0.0, 0.0, 0.0)]
        for v, theta, n in inputs:
            report = build_report(CenteredMoments(v, theta, n))
            assert (report.lambda_simon < 0.0) == (v > n)


class TestOutputSpectrum:
    @given(inp=physical_inputs, bs=splitters)
    def test_matches_partial_transpose_eigenvalue_oracle(self, inp, bs):
        eta_m_sq, eta_p_sq = output_spectrum(inp.v, inp.n, bs.t)
        expected = pt_eigenvalue_oracle(predicted_entries(inp, bs))
        if inp.v <= inp.n:  # the 1/4 floor may lift rounding noise below it
            assert eta_m_sq >= 0.25
        assert abs(math.sqrt(eta_m_sq) - expected[0]) < 1e-12
        assert abs(math.sqrt(eta_p_sq) - expected[1]) < 1e-12

    def test_invariants_match_block_algebra(self):
        # sigma = eta_-^2 + eta_+^2 and det V = eta_-^2 eta_+^2 against the
        # general block formulas, at random theta and phi.
        rng = np.random.default_rng(20240907)
        for _ in range(2000):
            v, theta, n = random_physical_centered(rng)
            t, phi = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            det_a, det_b, det_c, _, det_v = _invariants(*block_entries(v, theta, n, t, phi))
            eta_m_sq, eta_p_sq = output_spectrum(v, n, t)
            sigma = det_a + det_b - 2.0 * det_c
            assert abs(eta_m_sq + eta_p_sq - sigma) <= 1e-14 * sigma
            assert abs(eta_m_sq * eta_p_sq - det_v) <= 1e-13 * det_v

    def test_vectorized_like_scalar(self):
        ts = np.linspace(0.0, 1.0, 7)
        eta_m_sq, eta_p_sq = vectorized_output_spectrum(0.9, 0.6, ts)
        for t, m, p in zip(ts, eta_m_sq, eta_p_sq):
            assert (m, p) == output_spectrum(0.9, 0.6, float(t))


class TestExactLambdaMinus:
    """Squeezed vacua given lambda- = e^{-2r}/2 exactly, out to r = 80, where
    n and v are of size e^{2r}/4 and from r ~ 18.7 round to one double."""

    @staticmethod
    def moments(r):
        c, s = math.cosh(r), math.sinh(r)
        return CenteredMoments(c * s, math.pi, s * s, 0.5 * math.exp(-2.0 * r))

    @pytest.mark.parametrize("r", [1e-10, 0.5, 5.0, 12.0, 20.0, 40.0, 80.0])
    def test_report_is_nonclassical_with_E_N_r(self, r):
        c = self.moments(r)
        report = build_report(c)
        error = abs(report.E_N - r)
        assert error <= 4.5e-16 and (r < 0.5 or error <= 2 * math.ulp(r))
        assert (report.best_t, report.best_phi) == (BALANCED_T, 0.0)
        assert report.dgcz_simple and report.lambda_simon < 0.0
        assert maximizing_splitter(c).t == BALANCED_T

    @pytest.mark.parametrize("r", [0.5, 5.0, 20.0, 80.0])
    @pytest.mark.parametrize("t", [0.05, 0.3, 0.9])
    def test_spectrum_at_any_splitter_matches_exact_arithmetic(self, r, t):
        # A pure input has impurity 0 and det V = 1/16, so sigma = 1/2 + b n and
        # sigma^2 - 4 det V = b n (1 + b n), with n = sinh^2 r, in 60 digits.
        c = self.moments(r)
        with decimal.localcontext(decimal.Context(prec=60)):
            e_r = decimal.Decimal(r).exp()
            n = ((e_r - 1 / e_r) / 2) ** 2
            t2 = decimal.Decimal(t) ** 2
            b = 4 * t2 * (1 - t2)
            plus_sq = (decimal.Decimal(0.5) + b * n + (b * n * (1 + b * n)).sqrt()) / 2
            want = (float(1 / (16 * plus_sq)), float(plus_sq))
        got = output_spectrum(c.v, c.n, t, c.lam_minus)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * w

    def test_tiny_squeezing_is_decided_by_v_above_n(self):
        # lambda- rounds to exactly 1/2, so v > n alone marks the input nonclassical.
        c = self.moments(1e-300)
        assert c.lam_minus == 0.5
        assert maximizing_splitter(c).t == BALANCED_T and dgcz_simple(c)


def assert_spectrum_bit_identical(v, n, t):
    """The package's scalar spectrum is the NumPy reference's, bit for bit."""
    scalar = output_spectrum(v, n, t)
    assert all(type(x) is float for x in scalar)
    reference = tuple(float(x) for x in vectorized_output_spectrum(v, n, t))
    assert [x.hex() for x in scalar] == [x.hex() for x in reference], (v, n, t)


#: Inputs on which the spectrum changes by an ulp if a ``** 2`` of the
#: closed form is written ``x * x``: libm pow and the product round apart.
#: Each of the three squares has at least one such input here.
POW_ROUNDING_INPUTS = [
    (2.3412950707776243, 2.343529598003326, 0.4081600888085283),
    (0.2851134515767768, 1.8636677135575566, 0.4100225744114625),
    (0.0895922506490047, 0.08958442213651255, 0.8420041179802971),
    (5951.444876232918, 9172.173761660964, 0.3005823408320598),
    (0.6811125134461541, 0.742762462955057, 0.7909297836753186),
]

#: The largest occupation whose (n(n + 1))^2 is finite, so CenteredMoments
#: admits it; every squared term of the spectrum stays below overflow there.
PHYSICALITY_BOUND = 1.1579208923731618e77


class TestScalarSpectrum:
    """The math port of output_spectrum against the NumPy form it replaced."""

    @given(
        n=st.floats(0.0, 1e4),
        frac=st.one_of(st.floats(1.0 - 1e-3, 1.0 + 1e-3), st.floats(0.0, 1.0)),
        t=st.one_of(st.sampled_from([0.0, BALANCED_T, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300)
    def test_matches_numpy_reference_bit_for_bit(self, n, frac, t):
        v = min(frac * n, math.sqrt(n * (n + 1.0)))
        assert_spectrum_bit_identical(v, n, t)

    def test_pow_rounding_inputs_match_bit_for_bit(self):
        for v, n, t in POW_ROUNDING_INPUTS:
            assert_spectrum_bit_identical(v, n, t)

    @pytest.mark.parametrize("t", [0.0, 0.3, BALANCED_T, 1.0])
    def test_edges_match_numpy_reference_bit_for_bit(self, t):
        for n in (0.0, 1e-300, 1e-12, 0.6, 1.0, 1e2, 1e4, 1e76):
            # v = n (1 + 1e-3) is physical only up to n ~ 500.
            for v in (n, n * (1.0 - 1e-3), n * (1.0 + 1e-3)):
                if v * v <= n * (n + 1.0):
                    assert_spectrum_bit_identical(v, n, t)
        for v in (0.0, PHYSICALITY_BOUND):
            CenteredMoments(v, 0.0, PHYSICALITY_BOUND)  # admitted, so reachable
            assert_spectrum_bit_identical(v, PHYSICALITY_BOUND, t)
            assert all(map(math.isfinite, output_spectrum(v, PHYSICALITY_BOUND, t)))


class TestEntanglementPotential:
    def test_squeezed_vacuum_matches_exact_reference(self):
        # -ln(1 + 2(n - v)) / 2 evaluated exactly on the float moments; the
        # old sigma - sqrt(disc) route was off by up to 2e-2 at r = 6.
        for r in np.arange(0.5, 6.01, 0.5):
            for angle in (0.0, 0.7, 2.0, math.pi, 4.5):
                m = squeezed_coherent_moments(SqueezedCoherentParams(0.0, float(r), angle))
                c = center(m)
                two_lambda = 1 + 2 * (Fraction(c.n) - Fraction(c.v))
                reference = -0.5 * math.log(float(two_lambda))
                report = build_report(m)
                assert abs(report.E_N - reference) < 1e-12
                assert abs(report.E_N - r) < 1e-6  # rounded inputs limit this

    def test_classical_inputs_give_exact_zero(self):
        rng = np.random.default_rng(20240908)
        checked = 0
        while checked < 500:
            v, theta, n = random_physical_centered(rng)
            c = CenteredMoments(v, theta, n)
            t = rng.uniform(0.0, 1.0)
            for report in (build_report(c), build_report(c, BeamSplitterParams(t))):
                assert report.E_N == log_negativity(report.eta_minus)
                if v <= n:
                    assert report.E_N == 0.0
                    assert report.lambda_simon == 0.0
            checked += v <= n
        for n in (0.0, 1e-12, 0.3, 7.0, 1e4):
            assert build_report(CenteredMoments(n, 0.0, n)).E_N == 0.0

    def test_maximizing_splitter(self):
        assert maximizing_splitter(CenteredMoments(0.9, 1.0, 0.6)).t == BALANCED_T
        for v, n in ((0.0, 0.0), (0.6, 0.6), (0.5, 0.9)):
            bs = maximizing_splitter(CenteredMoments(v, 1.0, n))
            assert (bs.t, bs.r, bs.phi) == (0.0, 1.0, 0.0)


def schmidt_dim(r):
    """Fock levels for the Schmidt oracle at squeezing r <= 1.5 and |alpha| <= 0.7.

    The smallest Schmidt modes need far more levels than the tail weight
    suggests.  At r = 1 with alpha on the anti-squeezed axis, E_N is off by
    9e-12 at dim 240 and by 9e-16 at dim 320; at r = 0.5, by 8e-16 at dim 120.
    At r = 1.5 the worst gap at the maximizing splitter is 1.1e-8 at dim 480,
    where the truncation is already healthy, 1.2e-11 at 640 and 3.6e-13 at
    720.
    """
    return 120 if r <= 0.5 else 320 if r <= 1.0 else 720


class TestExactEntanglement:
    """The reported E_N against the Schmidt spectrum of the split Fock state."""

    def test_report_matches_schmidt_log_negativity(self):
        # Both at the maximizing splitter and at random (t, phi); alpha on
        # the squeezed, the anti-squeezed and a mixed axis.
        rng = np.random.default_rng(20261019)
        for r in (0.3, 0.5, 0.75, 1.0):
            for alpha in (0.0, 0.7, 0.7j, 0.42 + 0.56j):
                for angle in (0.0, 2.0):
                    params = SqueezedCoherentParams(alpha, r, angle)
                    state = squeezed_coherent_vector(params, schmidt_dim(r))
                    moments = squeezed_coherent_moments(params)
                    random_splitters = [
                        BeamSplitterParams(rng.uniform(), rng.uniform(0.0, 2.0 * math.pi))
                        for _ in range(2)
                    ]
                    for bs in [maximizing_splitter(center(moments)), *random_splitters]:
                        exact = schmidt_log_negativity(split_against_vacuum(state, bs))
                        assert abs(build_report(moments, bs).E_N - exact) <= 1e-12, (params, bs)

    def test_strong_squeezing_at_the_maximizing_splitter(self):
        # r = 1.5 needs dim 720 or more at 1e-12, though the tail weight
        # passes from dim 480 on: size dim from the gap, not from TAIL_TOL.
        for alpha in (0.0, 0.7, 0.7j, 0.42 + 0.56j):
            for angle in (0.0, 2.0, math.pi):
                params = SqueezedCoherentParams(alpha, 1.5, angle)
                state = squeezed_coherent_vector(params, schmidt_dim(1.5))
                assert _tail_weight(state) < TAIL_TOL
                moments = squeezed_coherent_moments(params)
                bs = maximizing_splitter(center(moments))
                exact = schmidt_log_negativity(split_against_vacuum(state, bs))
                assert abs(build_report(moments, bs).E_N - exact) <= 1e-12, params

    @pytest.mark.parametrize(
        "params",
        [SqueezedCoherentParams(0.7j, 1.0, 0.0), SqueezedCoherentParams(0.5, 0.5, 1.0)],
        ids=["anti-squeezed-alpha", "mixed"],
    )
    def test_no_splitter_on_a_grid_beats_the_maximizing_one(self, params):
        state = squeezed_coherent_vector(params, schmidt_dim(params.strength))
        best_bs = maximizing_splitter(center(squeezed_coherent_moments(params)))
        best = schmidt_log_negativity(split_against_vacuum(state, best_bs))
        assert best > 0.0
        for t in np.linspace(0.0, 1.0, 9):
            for phi in (0.0, 1.0, 2.5, 4.0):
                split = split_against_vacuum(state, BeamSplitterParams(t, phi))
                assert schmidt_log_negativity(split) <= best + 1e-12, (t, phi)
