"""Deterministic grid maximization of the log-negativity over beam-splitter settings.

This is the brute-force oracle for the closed-form maximum of
:func:`nonclassicality.entanglement.maximizing_splitter`: it searches the 4x4
block algebra of :func:`nonclassicality.entanglement.eta_minus_sq` and
assumes nothing about where the optimum lies.  The tests compare the two.

The landscape is cheap (closed-form 4x4 algebra per point) and the measure is
clamped at zero on the classical side, which flattens gradients exactly where
near-boundary states need resolving.  The search therefore minimizes the
unclamped symplectic eigenvalue (eta^-)^2 -- the two problems share their
argmax wherever the measure is positive -- on a coarse grid followed by a
shrinking-interval coordinate refinement.  Everything is grid-based and
tie-broken deterministically: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import BALANCED_T, eta_minus_sq, log_negativity_from_eta_sq
from .moments import TWO_PI, CenteredMoments

DEFAULT_GRID_T = 33
DEFAULT_GRID_PHI = 64
DEFAULT_REFINE_ITERS = 40

#: Refinement stops once the step is below this in both coordinates.
STEP_TOL = 1e-6

#: Values within this of the best are ties, broken by lowest t then lowest phi.
TIE_TOL = 1e-12

_LOCAL_POINTS = 9  # points per coordinate in one refinement pass
_SHRINK = 4.0      # step shrink factor per refinement pass


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_t: float
    best_phi: float
    evaluations: int


def _best_on_grid(values: np.ndarray, ts: np.ndarray, phis: np.ndarray):
    """Index of the smallest value; ties within TIE_TOL go to lowest t, then phi."""
    vmin = values.min()
    tied = np.argwhere(values <= vmin + TIE_TOL)
    best = min(tied.tolist(), key=lambda ij: (ts[ij[0]], phis[ij[1]]))
    return best[0], best[1]


def maximize_EN(
    c: CenteredMoments,
    grid_t: int = DEFAULT_GRID_T,
    grid_phi: int = DEFAULT_GRID_PHI,
    refine_iters: int = DEFAULT_REFINE_ITERS,
) -> OptimizationResult:
    """Maximize E_N over t in [0, 1] and phi in [0, 2 pi).

    The initial grid is uniform, includes both t endpoints and the balanced
    point t = 1/sqrt(2) exactly, and phi is sampled without its periodic
    endpoint.  Refinement re-centers a 9x9 local grid on the incumbent and
    shrinks the step by 4x per pass until both steps fall below STEP_TOL or
    refine_iters passes are spent; phi wraps around modulo 2 pi.  When the
    coarse grid is flat to within TIE_TOL (vacuum input, for instance) there
    is nothing to refine and only the grid is evaluated.
    """
    if grid_t < 8 or grid_phi < 8:
        raise ValueError(f"grids must have >= 8 points, got ({grid_t}, {grid_phi})")

    ts = np.unique(np.append(np.linspace(0.0, 1.0, grid_t), BALANCED_T))
    phis = np.linspace(0.0, TWO_PI, grid_phi, endpoint=False)
    values = eta_minus_sq(c.v, c.theta, c.n, ts[:, None], phis[None, :])
    evaluations = values.size

    i, j = _best_on_grid(values, ts, phis)
    best_t, best_phi, best_val = float(ts[i]), float(phis[j]), float(values[i, j])

    flat = values.max() - values.min() <= TIE_TOL
    if not flat:
        h_t = 1.0 / (grid_t - 1)
        h_phi = TWO_PI / grid_phi
        offsets = np.linspace(-1.0, 1.0, _LOCAL_POINTS)
        for _ in range(refine_iters):
            if h_t < STEP_TOL and h_phi < STEP_TOL:
                break
            local_ts = np.unique(np.clip(best_t + h_t * offsets, 0.0, 1.0))
            local_phis = (best_phi + h_phi * offsets) % TWO_PI
            local = eta_minus_sq(c.v, c.theta, c.n, local_ts[:, None], local_phis[None, :])
            evaluations += local.size
            i, j = _best_on_grid(local, local_ts, local_phis)
            if local[i, j] <= best_val:
                best_t, best_phi = float(local_ts[i]), float(local_phis[j])
                best_val = float(local[i, j])
            h_t /= _SHRINK
            h_phi /= _SHRINK

    return OptimizationResult(
        best_value=float(log_negativity_from_eta_sq(best_val)),
        best_t=best_t,
        best_phi=best_phi,
        evaluations=evaluations,
    )

