import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonclassicality import (
    CenteredMoments,
    SingleModeMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
    center,
    squeezed_coherent_moments,
)

alphas = st.builds(
    complex,
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(-5.0, 5.0, allow_nan=False),
)
strengths = st.floats(0.0, 5.0, allow_nan=False)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False, exclude_max=True)


class TestSqueezedCoherentMoments:
    def test_vacuum_is_exact_fixed_point(self):
        m = squeezed_coherent_moments(SqueezedCoherentParams(0.0, 0.0, 0.0))
        assert m.mean_a == 0.0
        assert m.a_squared == 0.0
        assert m.photon_number == 0.0

    def test_coherent_state(self):
        m = squeezed_coherent_moments(SqueezedCoherentParams(1.0, 0.0, 0.0))
        assert m.mean_a == 1.0
        assert m.a_squared == 1.0
        assert m.photon_number == 1.0

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.0, 1.2, 4.5])
    def test_squeezed_vacuum(self, r, theta):
        m = squeezed_coherent_moments(SqueezedCoherentParams(0.0, r, theta))
        c, s = math.cosh(r), math.sinh(r)
        assert m.mean_a == 0.0
        assert cmath.isclose(m.a_squared, -c * s * cmath.exp(1j * theta), rel_tol=1e-14)
        assert math.isclose(m.photon_number, s * s, rel_tol=1e-14)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            SqueezedCoherentParams(0.0, -0.1, 0.0)

    def test_nan_strength_rejected(self):
        # Else the Fock state would be all NaN, with a RuntimeWarning.
        with pytest.raises(ValueError, match="squeezing strength must be >= 0, got nan"):
            SqueezedCoherentParams(0.0, math.nan, 0.0)

    @pytest.mark.parametrize(
        "alpha, r, theta", [(0.0, 1000.0, 0.0), (1e200, 0.0, 0.0), (1e100, 200.0, math.pi)]
    )
    def test_overflow_is_unphysical(self, alpha, r, theta):
        # cosh(1000) and |alpha|^2 = 1e400 raise OverflowError in
        # squeezed_coherent_moments, |<a>|^2 = (e^200 1e100)^2 in center.
        with pytest.raises(UnphysicalMomentsError, match="overflow double precision"):
            center(squeezed_coherent_moments(SqueezedCoherentParams(alpha, r, theta)))


class TestCenter:
    def test_coherent_state_centers_to_vacuum(self):
        c = center(SingleModeMoments(1.0, 1.0, 1.0))
        assert c.v == 0.0 and c.theta == 0.0 and c.n == 0.0

    @pytest.mark.parametrize("r", [0.25, 0.8, 1.7])
    def test_squeezed_vacuum_centered(self, r):
        # Direct evaluation: centered <a^2> = -cosh(r) sinh(r), phase pi.
        c = center(squeezed_coherent_moments(SqueezedCoherentParams(0.0, r, 0.0)))
        assert math.isclose(c.v, math.cosh(r) * math.sinh(r), rel_tol=1e-13)
        assert math.isclose(c.theta, math.pi, rel_tol=1e-13)
        assert math.isclose(c.n, math.sinh(r) ** 2, rel_tol=1e-13)

    @given(alpha=alphas, r=strengths, theta=angles)
    def test_displacement_invariance(self, alpha, r, theta):
        displaced = center(squeezed_coherent_moments(SqueezedCoherentParams(alpha, r, theta)))
        undisplaced = center(squeezed_coherent_moments(SqueezedCoherentParams(0.0, r, theta)))
        assert cmath.isclose(
            displaced.v * cmath.exp(1j * displaced.theta),
            undisplaced.v * cmath.exp(1j * undisplaced.theta),
            rel_tol=1e-12, abs_tol=1e-12
        )
        assert math.isclose(displaced.n, undisplaced.n, rel_tol=1e-12, abs_tol=1e-12)

    @given(alpha=alphas, r=strengths, theta=angles)
    def test_squeezed_coherent_family_is_physical(self, alpha, r, theta):
        # center() builds CenteredMoments, which would raise on unphysical values.
        c = center(squeezed_coherent_moments(SqueezedCoherentParams(alpha, r, theta)))
        assert c.n >= 0.0

    def test_unphysical_input_reported(self):
        with pytest.raises(UnphysicalMomentsError):
            center(SingleModeMoments(0.0, 2.0, 1.0))
        with pytest.raises(UnphysicalMomentsError):
            center(SingleModeMoments(0.0, 0.0, -0.5))
        # NaN moments center to a NaN phase too; (v, n) is checked first.
        with pytest.raises(UnphysicalMomentsError):
            center(SingleModeMoments(0.0, complex(math.nan, math.nan), math.nan))
        for mean_a, a_squared in ((1e200, 0.0), (0.0, 1.5e308 + 1.5e308j)):
            with pytest.raises(UnphysicalMomentsError, match="overflow double precision"):
                center(SingleModeMoments(mean_a, a_squared, 1.0))


class TestValidatePhysical:
    """CenteredMoments validates physicality where it is built."""

    def test_vacuum(self):
        assert CenteredMoments(0.0, 0.0, 0.0).n == 0.0

    def test_boundary_equality_case(self):
        assert CenteredMoments(math.sqrt(2.0), 0.0, 1.0).v == math.sqrt(2.0)

    def test_violation(self):
        with pytest.raises(UnphysicalMomentsError, match=r"v\^2 <= n\(n\+1\)"):
            CenteredMoments(2.0, 0.0, 1.0)

    def test_negative_occupation(self):
        with pytest.raises(UnphysicalMomentsError):
            CenteredMoments(0.0, 0.0, -1.0)

    def test_occupation_within_tolerance_below_zero_is_clamped(self):
        n = CenteredMoments(0.0, 0.0, -1e-10).n
        assert n == 0.0 and math.copysign(1.0, n) == 1.0

    @pytest.mark.parametrize("v, n", [(math.nan, 1.0), (0.0, math.inf), (1e200, 1e200)])
    def test_non_finite_or_overflowing_rejected(self, v, n):
        with pytest.raises(UnphysicalMomentsError):
            CenteredMoments(v, 0.0, n)


class TestCenteredMoments:
    def test_phase_normalized_into_period(self):
        c = CenteredMoments(1.0, -1.0, 2.0)
        assert 0.0 <= c.theta < 2.0 * math.pi
        assert math.isclose(c.theta, 2.0 * math.pi - 1.0)

    def test_zero_magnitude_gets_zero_phase(self):
        assert CenteredMoments(0.0, 1.234, 2.0).theta == 0.0

    def test_tiny_negative_phase_stays_below_the_period(self):
        # -1e-20 % 2 pi rounds up to exactly 2 pi.
        assert CenteredMoments(1.0, -1e-20, 2.0).theta == 0.0

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            CenteredMoments(-0.1, 0.0, 1.0)
