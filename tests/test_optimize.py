import math

import numpy as np
import pytest

from conftest import random_physical_centered
from nonclassicality import (
    BALANCED_T,
    CenteredMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
    build_report,
    center,
    squeezed_coherent_moments,
)
from oracles import eta_minus_sq, log_negativity_from_eta_sq, maximize_EN


def squeezed_vacuum_centered(r):
    return center(squeezed_coherent_moments(SqueezedCoherentParams(0.0, r, 0.0)))


class TestMaximizeEN:
    def test_vacuum_evaluates_grid_only(self):
        result = maximize_EN(CenteredMoments(0.0, 0.0, 0.0))
        assert result.best_value == 0.0
        # Flat landscape: only the initial grid (33 + 1 seeded t values x 64 phi).
        assert result.evaluations == 34 * 64

    def test_phase_symmetric_input_is_classical(self):
        result = maximize_EN(CenteredMoments(0.0, 0.0, 3.0))
        assert result.best_value == 0.0

    def test_squeezed_vacuum_reaches_closed_form(self):
        result = maximize_EN(squeezed_vacuum_centered(1.0))
        assert abs(result.best_value - 1.0) < 1e-6
        assert abs(result.best_t - BALANCED_T) < 1e-5

    def test_balanced_splitter_never_beaten(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            v, theta, n = random_physical_centered(rng)
            c = CenteredMoments(v, theta, n)
            result = maximize_EN(c)
            reference = float(
                log_negativity_from_eta_sq(eta_minus_sq(v, theta, n, BALANCED_T, 0.0))
            )
            assert result.best_value >= reference - 1e-12

    def test_matches_brute_force_grid(self):
        # Independent oracle: dense evaluation of E_N over (t, phi).
        rng = np.random.default_rng(77)
        ts = np.linspace(0.0, 1.0, 401)
        phis = np.linspace(0.0, 2.0 * math.pi, 361, endpoint=False)
        for _ in range(8):
            v, theta, n = random_physical_centered(rng)
            brute = log_negativity_from_eta_sq(
                eta_minus_sq(v, theta, n, ts[:, None], phis[None, :])
            ).max()
            result = maximize_EN(CenteredMoments(v, theta, n))
            assert result.best_value >= brute - 1e-9

    def test_monotone_in_grid_size(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            v, theta, n = random_physical_centered(rng)
            c = CenteredMoments(v, theta, n)
            coarse = maximize_EN(c, grid_t=33, grid_phi=64)
            fine = maximize_EN(c, grid_t=65, grid_phi=128)
            assert fine.best_value >= coarse.best_value - 1e-9

    def test_deterministic(self):
        c = squeezed_vacuum_centered(0.7)
        assert maximize_EN(c) == maximize_EN(c)

    def test_small_grids_rejected(self):
        with pytest.raises(ValueError):
            maximize_EN(CenteredMoments(0.0, 0.0, 0.0), grid_t=7)
        with pytest.raises(ValueError):
            maximize_EN(CenteredMoments(0.0, 0.0, 0.0), grid_phi=4)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalMomentsError):
            maximize_EN(CenteredMoments(2.0, 0.0, 1.0))


class TestClosedFormMatchesOracle:
    def test_same_splitter_and_value_on_random_inputs(self):
        # The closed-form maximum (build_report without a splitter) against
        # the grid search over (t, phi) on the general 4x4 algebra.
        rng = np.random.default_rng(20240906)
        for _ in range(400):
            c = CenteredMoments(*random_physical_centered(rng))
            oracle = maximize_EN(c)
            report = build_report(c)
            assert (report.best_t, report.best_phi) == (oracle.best_t, oracle.best_phi)
            assert abs(report.E_N - oracle.best_value) < 1e-12


class TestMaximizeENOverTheta:
    """The maximum over the squeezing angle as well as (t, phi).

    A squeezing-angle shift is a splitter phase shift, so the closed-form
    maximum at any one angle is already the maximum over all angles.
    """

    @staticmethod
    def closed_form(strength, angle):
        params = SqueezedCoherentParams(0.0, strength, float(angle))
        return build_report(squeezed_coherent_moments(params))

    def test_vacuum_for_every_angle(self):
        for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            assert self.closed_form(0.0, angle).E_N == 0.0

    def test_superset_of_fixed_angle_search(self):
        fixed = maximize_EN(squeezed_vacuum_centered(1.0))
        assert self.closed_form(1.0, 0.0).E_N >= fixed.best_value - 1e-12

    def test_angle_sweep_adds_nothing_beyond_phase_covariance(self):
        fixed = maximize_EN(squeezed_vacuum_centered(1.0))
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        values = [self.closed_form(1.0, angle).E_N for angle in angles]
        assert max(values) - min(values) < 1e-12
        assert abs(max(values) - fixed.best_value) < 2e-6

    def test_unphysical_moments_rejected(self):
        with pytest.raises(UnphysicalMomentsError):
            build_report(CenteredMoments(2.0, 0.0, 1.0))

    def test_nondecreasing_in_squeezing_strength(self):
        values = [self.closed_form(float(r), 0.0).E_N for r in np.linspace(0.0, 6.0, 25)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
