"""Brute-force references that only the tests call.

The general 4x4 block algebra on a covariance matrix [[A, C], [C^T, B]]
(symplectic eigenvalues of the partial transpose and the Simon combination),
the NumPy form of the closed-form output spectrum, the log negativity of a
split pure state from its Schmidt coefficients, the dense ladder operator
of a truncated mode, and a truncation guideline for squeezed coherent
states.  The package computes every criterion from closed forms in
(v, n, t); these are what those closed forms are checked against.
"""

import math

import numpy as np

from nonclassicality import CovarianceBlocks, SqueezedCoherentParams, UnphysicalMomentsError
from nonclassicality.entanglement import _invariants

# Pure states sit exactly on the degeneracy sigma^2 = 4 det V; floating-point
# noise must not produce complex eigenvalues.
CLAMP_TOL = 1e-10


def covariance_matrix(blocks: CovarianceBlocks) -> np.ndarray:
    """The assembled 4x4 covariance matrix [[A, C], [C^T, B]]."""
    return np.block([[blocks.A, blocks.C], [blocks.C.T, blocks.B]])


def _entries_from_blocks(blocks: CovarianceBlocks):
    A, B, C = blocks.A, blocks.B, blocks.C
    return (
        A[0, 0], A[0, 1], A[1, 1],
        B[0, 0], B[0, 1], B[1, 1],
        C[0, 0], C[0, 1], C[1, 0], C[1, 1],
    )


def symplectic_eta(blocks: CovarianceBlocks) -> tuple[float, float]:
    """Symplectic eigenvalues (eta^-, eta^+) of the partially transposed V.

    eta^{+-} = [ (sigma +- sqrt(sigma^2 - 4 det V)) / 2 ]^{1/2} with
    sigma = det A + det B - 2 det C.  A discriminant or det V below -1e-10
    signals an unphysical matrix and raises; smaller excursions are clamped.
    """
    det_a, det_b, det_c, _, det_v = _invariants(*_entries_from_blocks(blocks))
    if det_v < -CLAMP_TOL:
        raise UnphysicalMomentsError(f"covariance matrix has det V = {det_v} < 0")
    sigma = det_a + det_b - 2.0 * det_c
    disc = sigma * sigma - 4.0 * det_v
    if disc < -CLAMP_TOL:
        raise UnphysicalMomentsError(
            f"negative symplectic discriminant {disc} beyond tolerance"
        )
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    eta_minus = math.sqrt(max(0.5 * (sigma - root), 0.0))
    eta_plus = math.sqrt(0.5 * (sigma + root))
    return eta_minus, eta_plus


def simon_lambda(blocks: CovarianceBlocks) -> float:
    """Simon combination; a negative value certifies two-mode entanglement.

    lambda = det A det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
             - (det A + det B) / 4.

    This is a yes/no condition, not a measure.
    """
    det_a, det_b, det_c, trace, _ = _invariants(*_entries_from_blocks(blocks))
    return (
        det_a * det_b
        + (0.25 - abs(det_c)) ** 2
        - trace
        - 0.25 * (det_a + det_b)
    )


def vectorized_output_spectrum(v, n, t):
    """((eta^-)^2, (eta^+)^2) of :func:`nonclassicality.output_spectrum`, vectorized.

    The same operations in the same order on NumPy arrays broadcast over v,
    n and t, with np.where for the v <= n branch and np.maximum for the 1/4
    floor; on scalars it gives the package's floats bit for bit.
    """
    v, n, t = np.asarray(v, dtype=float), np.asarray(n, dtype=float), np.asarray(t, dtype=float)
    t2 = t * t
    a = (1.0 - 2.0 * t2) ** 2
    b = 4.0 * t2 * (1.0 - t2)
    lam_minus, lam_plus = (n - v) + 0.5, (n + v) + 0.5
    impurity = lam_minus * lam_plus - 0.25
    excess = a * impurity + b * n  # sigma - 1/2
    classical = v <= n
    disc = np.where(
        classical,
        (a * impurity) ** 2
        + a * b * ((2.0 * n + 1.0) * (n - v) * (n + v) + 2.0 * v * v)
        + (b * v) ** 2,
        excess * excess + b * (v - n) * (v + n),
    )
    eta_plus_sq = 0.5 * (0.5 + excess + np.sqrt(disc))
    eta_minus_sq = 0.25 * lam_minus * lam_plus / eta_plus_sq
    return np.where(classical, np.maximum(eta_minus_sq, 0.25), eta_minus_sq), eta_plus_sq


def schmidt_log_negativity(table) -> float:
    """E_N = 2 ln sum_i s_i of a pure two-mode state, from its coefficient table.

    The s_i are the singular values of psi[n1, n2], the state's Schmidt
    coefficients; for a pure state the trace norm of the partial transpose
    is (sum_i s_i)^2.  No Gaussian formula enters.
    """
    return 2.0 * math.log(np.linalg.svd(table, compute_uv=False).sum())


def annihilation_matrix(dim: int) -> np.ndarray:
    """Ladder operator a with a|n> = sqrt(n)|n-1> on a dim-level truncation."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def recommended_dim(params: SqueezedCoherentParams) -> int:
    """Truncation size guideline for an effectively exact squeezed coherent state."""
    return math.ceil(
        20.0 + 8.0 * abs(params.alpha) ** 2 + 10.0 * math.exp(2.0 * params.strength)
    )
