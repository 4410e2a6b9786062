"""Brute-force references that only the tests call.

Covariances are the ten entries (a11, a12, a22, b11, b12, b22, c11, c12,
c21, c22) of the blocks of [[A, C], [C^T, B]], the one covariance format of
the Fock oracle.  Here are the general 4x4 block algebra on them
(symplectic eigenvalues of the partial transpose and the Simon combination,
also vectorized over splitter settings), the Fock oracle's split, measured
entries and predicted entries run on arrays allocated per call, the grid
search over (t, phi) that the closed-form maximizing splitter is checked
against, the NumPy forms of the closed-form output spectrum and of the
oracle's predicted block entries, the five-pass covariance kernel that the
Fock oracle's shifted-slice kernel is checked against, the log negativity
of a split pure state from its Schmidt coefficients and that of a split
Dicke field from the partial transpose of its reduced state, the dense
ladder operator of a truncated mode, and a truncation guideline for
squeezed coherent states.  The package computes every criterion from
closed forms in (v, n, t); these are what those closed forms are checked
against.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from nonclassicality import (
    BALANCED_T,
    CenteredMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
)
from nonclassicality.fock import (
    _apply_beam_splitter_images, _block_entries, _check_norm, _covariance_entries, _ladder_roots,
)
from nonclassicality.moments import TWO_PI

# Pure states sit exactly on the degeneracy sigma^2 = 4 det V; floating-point
# noise must not produce complex eigenvalues.
CLAMP_TOL = 1e-10


def block_entries(v, theta, n, t, phi, r=None):
    """Entries of A, B, C for centered input (v, theta, n) at splitter (t, phi).

    All arguments broadcast; r defaults to sqrt(1 - t^2).  Output order:
    (a11, a12, a22, b11, b12, b22, c11, c12, c21, c22).  The NumPy form of
    the Fock oracle's scalar ``_block_entries``, bit for bit equal to it on
    scalars.
    """
    t2 = np.multiply(t, t)
    r2 = np.multiply(r, r) if r is not None else 1.0 - t2
    tr = np.sqrt(t2 * r2)
    ca, sa = np.cos(theta + 2.0 * phi), np.sin(theta + 2.0 * phi)
    cb, sb = np.cos(theta), np.sin(theta)
    cc, sc = np.cos(theta + phi), np.sin(theta + phi)
    cp, sp = np.cos(phi), np.sin(phi)
    a11 = t2 * (ca * v + n) + 0.5
    a12 = t2 * v * sa
    a22 = t2 * (-ca * v + n) + 0.5
    b11 = r2 * (cb * v + n) + 0.5
    b12 = r2 * v * sb
    b22 = r2 * (-cb * v + n) + 0.5
    c11 = -tr * (cc * v + cp * n)
    c12 = tr * (-sc * v + sp * n)
    c21 = -tr * (sc * v + sp * n)
    c22 = tr * (cc * v - cp * n)
    return a11, a12, a22, b11, b12, b22, c11, c12, c21, c22


def _invariants(a11, a12, a22, b11, b12, b22, c11, c12, c21, c22):
    """det A, det B, det C, tr(A J C J B J C^T J) and det V from block entries.

    Uses the block identity det V = det A det B + (det C)^2 - tr(AJCJBJC^TJ),
    valid for any symmetric A, B, with J = [[0, 1], [-1, 0]].
    """
    det_a = a11 * a22 - a12 * a12
    det_b = b11 * b22 - b12 * b12
    det_c = c11 * c22 - c12 * c21
    trace = (
        a11 * (b11 * c22 * c22 - 2.0 * b12 * c21 * c22 + b22 * c21 * c21)
        + a22 * (b11 * c12 * c12 - 2.0 * b12 * c11 * c12 + b22 * c11 * c11)
        + 2.0
        * a12
        * (b12 * (c11 * c22 + c12 * c21) - b11 * c12 * c22 - b22 * c11 * c21)
    )
    det_v = det_a * det_b + det_c * det_c - trace
    return det_a, det_b, det_c, trace, det_v


def eta_minus_sq(v, theta, n, t, phi):
    """Vectorized (eta^-)^2 of the partial transpose; broadcasts all arguments.

    This is the general 4x4-block algebra, kept as the reference that
    :func:`nonclassicality.output_spectrum` is checked against and that
    :func:`maximize_EN` below searches.  Inputs are assumed physical; the discriminant is
    clamped at zero so pure states on the degeneracy do not generate complex
    values.  sigma - sqrt(sigma^2 - 4 det V) cancels for large squeezing.
    """
    inv = _invariants(*block_entries(v, theta, n, t, phi))
    det_a, det_b, det_c, _, det_v = inv
    sigma = det_a + det_b - 2.0 * det_c
    disc = np.maximum(sigma * sigma - 4.0 * det_v, 0.0)
    return np.maximum(0.5 * (sigma - np.sqrt(disc)), 0.0)


def log_negativity_from_eta_sq(eta_sq):
    """E_N = max(0, -ln 2 eta^-) from (eta^-)^2, vectorized."""
    with np.errstate(divide="ignore"):
        return np.maximum(0.0, -0.5 * np.log(np.maximum(4.0 * eta_sq, 1e-300))) + 0.0


def split_against_vacuum(psi: np.ndarray, bs) -> np.ndarray:
    """The two-mode table of ``psi`` split against vacuum at ``bs``, norm-checked.

    ``fock._apply_beam_splitter_images`` into arrays allocated for this call.
    """
    dim = psi.size
    out = np.empty((dim, dim), dtype=complex)
    _apply_beam_splitter_images(psi, bs, out, np.empty((dim, dim)))
    _check_norm(out)
    return out


def measured_entries(table: np.ndarray) -> tuple:
    """``fock._covariance_entries`` of a normalized two-mode table, with fresh work arrays."""
    return _covariance_entries(table, *np.empty((3, *table.shape), dtype=complex))


def predicted_entries(c: CenteredMoments, bs) -> tuple:
    """``fock._block_entries`` of centered moments at a splitter: the closed-form ten entries."""
    return _block_entries(c.v, c.theta, c.n, bs.t, bs.phi, bs.r)


def covariance_matrix(entries) -> np.ndarray:
    """The assembled 4x4 covariance matrix [[A, C], [C^T, B]] of the ten entries."""
    a11, a12, a22, b11, b12, b22, c11, c12, c21, c22 = entries
    return np.array([
        [a11, a12, c11, c12],
        [a12, a22, c21, c22],
        [c11, c21, b11, b12],
        [c12, c22, b12, b22],
    ])


def symplectic_eta(entries) -> tuple[float, float]:
    """Symplectic eigenvalues (eta^-, eta^+) of the partially transposed V.

    eta^{+-} = [ (sigma +- sqrt(sigma^2 - 4 det V)) / 2 ]^{1/2} with
    sigma = det A + det B - 2 det C.  A discriminant or det V below -1e-10
    signals an unphysical matrix and raises; smaller excursions are clamped.
    """
    det_a, det_b, det_c, _, det_v = _invariants(*entries)
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


def simon_lambda(entries) -> float:
    """Simon combination; a negative value certifies two-mode entanglement.

    lambda = det A det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
             - (det A + det B) / 4.

    This is a yes/no condition, not a measure.
    """
    det_a, det_b, det_c, trace, _ = _invariants(*entries)
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


def balanced_split(rows: np.ndarray) -> np.ndarray:
    """Each row c of rows split against vacuum at the balanced splitter, t = 1/sqrt(2), phi = 0.

    out[..., k, j] = c_{k+j} binom(k+j, k)^{1/2} 2^{-(k+j)/2} (-1)^j, zero
    where k + j reaches the rows' length: the table of
    ``fock._apply_beam_splitter_images`` at mu1 = 1/sqrt(2) and
    mu2 = -1/sqrt(2), from binomials in floating point, which stay exact to
    rounding at the sizes the tests use.
    """
    d = rows.shape[-1]
    k, j = np.indices((d, d))
    total = k + j
    weights = np.where(total < d, np.sqrt(scipy.special.comb(total, k)) * 0.5 ** (total / 2.0), 0.0)
    weights[:, 1::2] *= -1.0
    return rows[..., np.minimum(total, d - 1)] * weights


def split_field_log_negativity(rows: np.ndarray) -> float:
    """ln ||rho^{T_B}||_1 of a field state split against vacuum at the balanced splitter.

    rows[m] holds the field amplitudes that go with the atomic state m of a
    normalized atoms-field state, cut to its first d Fock levels, so the
    field's reduced state is rho = sum_m psi_m psi_m^dag.  Each row is split
    by ``balanced_split``, the partial transpose of the two-mode state on
    the second mode is formed, and its trace norm is the sum of the absolute
    eigenvalues of the d^2 x d^2 matrix, from a dense ``eigvalsh``.  This is
    the exact log negativity of a state that need not be Gaussian; no
    moment enters.
    """
    d = rows.shape[-1]
    split = balanced_split(rows)
    # rho^{T_B}[(i, j), (k, l)] = rho[(i, l), (k, j)] = sum_m split_m[i, l] conj(split_m[k, j]).
    transposed = np.einsum("mil,mkj->ijkl", split, split.conj()).reshape(d * d, d * d)
    return math.log(np.abs(np.linalg.eigvalsh(transposed)).sum())


def lower(psi: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the annihilation operator of the mode on ``axis`` (the first or last) by index shifting.

    The result is written to ``out`` when given, which must not overlap
    ``psi``.  The last-axis path is the Fock oracle's ``_lower``.
    """
    if out is None:
        out = np.empty_like(psi)
    if axis % psi.ndim == psi.ndim - 1:
        out[..., :-1] = psi[..., 1:]
        out[..., -1] = 0.0
        out *= _ladder_roots(psi.shape[-1])[1:]
    else:
        np.multiply(_ladder_roots(psi.shape[0])[1:-1, None], psi[1:], out=out[:-1])
        out[-1] = 0.0
    return out


def five_pass_covariance_entries(psi: np.ndarray) -> tuple:
    """The ten covariance entries of a normalized two-mode table, by five whole-array lowerings.

    The reference for the Fock oracle's shifted-slice ``_covariance_entries``:
    each ladder expectation is a ``np.vdot`` of psi, a1 psi or a2 psi with a
    lowered copy of the table, so no index bookkeeping is shared with it.
    """
    a1_psi, a2_psi, scratch = np.empty((3, *psi.shape), dtype=complex)
    lower(psi, 0, out=a1_psi)
    lower(psi, 1, out=a2_psi)
    m1 = np.vdot(psi, a1_psi)
    m2 = np.vdot(psi, a2_psi)
    sq1 = np.vdot(psi, lower(a1_psi, 0, out=scratch)) - m1 * m1
    sq2 = np.vdot(psi, lower(a2_psi, 1, out=scratch)) - m2 * m2
    n1 = np.vdot(a1_psi, a1_psi).real - abs(m1) ** 2
    n2 = np.vdot(a2_psi, a2_psi).real - abs(m2) ** 2
    w = np.vdot(psi, lower(a1_psi, 1, out=scratch)) - m1 * m2      # <da1 da2>
    z = np.vdot(a1_psi, a2_psi) - np.conj(m1) * m2                  # <da1^dag da2>
    return (
        sq1.real + n1 + 0.5, sq1.imag, -sq1.real + n1 + 0.5,
        sq2.real + n2 + 0.5, sq2.imag, -sq2.real + n2 + 0.5,
        w.real + z.real, w.imag + z.imag, w.imag - z.imag, -w.real + z.real,
    )


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


# --- The grid search over (t, phi) ------------------------------------------
#
# The brute-force oracle for the closed-form maximum of
# nonclassicality.optimize.maximizing_splitter: it searches the 4x4 block
# algebra of eta_minus_sq and assumes nothing about where the optimum lies.
# The measure is clamped at zero on the classical side, which flattens
# gradients exactly where near-boundary states need resolving, so the search
# minimizes the unclamped (eta^-)^2 -- the two problems share their argmax
# wherever the measure is positive -- on a coarse grid followed by a
# shrinking-interval coordinate refinement.  Ties break deterministically:
# identical inputs give bit-identical outputs.

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

