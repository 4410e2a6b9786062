"""Beam-splitter output covariance matrix and the entanglement criteria on it.

A single mode with centered moments (v e^{i theta}, n) entering one port of a
beam splitter (vacuum at the other) produces a two-mode Gaussian covariance
matrix V = [[A, C], [C^T, B]].  This module computes the partial-transpose
symplectic eigenvalues eta-+ and the logarithmic negativity, maximizes the
latter over the splitter in closed form (the entanglement potential), and
evaluates the auxiliary separability quantities: the Simon determinant
combination lambda_simon, the variance-sum quantity lambda_dgcz with its
optimal gain, the simple second-moment condition v > n, and the first-moment
condition |<a>|^2 > <a^dag a>.  The report takes every criterion from closed
forms in (v, n, t, theta + phi); the 2x2 blocks feed the Fock oracle, and
:func:`eta_minus_sq` runs the block algebra on them for :mod:`.optimize`.

Quadratures are x = (a^dag + a)/sqrt(2), p = i (a^dag - a)/sqrt(2), so the
vacuum covariance matrix is I/2 and separability of the partial transpose
reads 2 eta^- >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .moments import (
    TWO_PI,
    CenteredMoments,
    SingleModeMoments,
    UnphysicalMomentsError,
    center,
)

#: Transmission amplitude of the balanced (50:50) splitter.
BALANCED_T = math.sqrt(0.5)

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterParams:
    """Transmission t and phase phi; the reflection r = sqrt(1 - t^2) is derived.

    Needs finite t >= 0 with t^2 - 1 <= 1e-12 (a t rounded just above 1 gets
    r = 0) and finite phi, which is wrapped into [0, 2 pi).
    """

    t: float
    phi: float = 0.0
    r: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.phi)):
            raise ValueError(f"t and phi must be finite, got {self.t}, {self.phi}")
        t = float(self.t)
        # t * t, unlike t**2, gives inf instead of raising OverflowError.
        if t < 0.0 or t * t - 1.0 > _SYMMETRY_TOL:
            raise ValueError(f"need 0 <= t <= 1, got t={t}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "r", math.sqrt(max(0.0, 1.0 - t**2)))


@dataclass(frozen=True)
class CovarianceBlocks:
    """The 2x2 blocks of the two-mode covariance matrix [[A, C], [C^T, B]].

    A and B are symmetric; C is stored unsymmetrized and enters the assembled
    matrix as C in the upper-right and C^T in the lower-left block.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C"):
            block = np.array(getattr(self, name), dtype=float)
            if block.shape != (2, 2):
                raise ValueError(f"block {name} must be 2x2, got {block.shape}")
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        for name in ("A", "B"):
            block = getattr(self, name)
            if abs(block[0, 1] - block[1, 0]) > _SYMMETRY_TOL:
                raise ValueError(f"block {name} must be symmetric")


@dataclass(frozen=True)
class NonclassicalityReport:
    """Every criterion evaluated at one beam-splitter setting."""

    eta_minus: float
    eta_plus: float
    E_N: float
    lambda_simon: float
    lambda_dgcz: float
    dgcz_simple: bool
    hz: bool
    best_t: float
    best_phi: float


def _block_entries(v, theta, n, t, phi, r=None):
    """Entries of A, B, C for centered input (v, theta, n) at splitter (t, phi).

    All arguments broadcast; r defaults to sqrt(1 - t^2).  Output order:
    (a11, a12, a22, b11, b12, b22, c11, c12, c21, c22).
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
    :func:`output_spectrum` and the grid oracle of :mod:`.optimize` are
    checked against.  Inputs are assumed physical; the discriminant is
    clamped at zero so pure states on the degeneracy do not generate complex
    values.  sigma - sqrt(sigma^2 - 4 det V) cancels for large squeezing.
    """
    inv = _invariants(*_block_entries(v, theta, n, t, phi))
    det_a, det_b, det_c, _, det_v = inv
    sigma = det_a + det_b - 2.0 * det_c
    disc = np.maximum(sigma * sigma - 4.0 * det_v, 0.0)
    return np.maximum(0.5 * (sigma - np.sqrt(disc)), 0.0)


def output_spectrum(v, n, t):
    """Vectorized ((eta^-)^2, (eta^+)^2) for centered (v, n) at transmission t.

    The spectrum depends on neither theta nor phi: both are local phase
    rotations of the output modes.  With a = (1 - 2 t^2)^2, b = 4 t^2 (1 - t^2)
    (so a + b = 1), the input covariance eigenvalues l-+ = (n -+ v) + 1/2 and
    the impurity g = l- l+ - 1/4 >= 0,

        sigma  = 1/2 + a g + b n,         det V = l- l+ / 4,
        disc   = sigma^2 - 4 det V
               = (a g + b n)^2 + b (v - n)(v + n)                    if v > n,
               = (a g)^2 + a b [(2n + 1)(n - v)(n + v) + 2 v^2] + (b v)^2  else,

    and (eta^+)^2 = (sigma + sqrt(disc)) / 2, (eta^-)^2 = det V / (eta^+)^2.
    Every term is non-negative, so no step cancels; near the boundary n - v
    and l- are exact in floating point (Sterbenz).  A classical input
    (v <= n) has 2 eta^- >= 1 at every splitter, and (eta^-)^2 is held at
    1/4 or above there so that rounding cannot report E_N ~ 1e-16.
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


def maximizing_splitter(c: CenteredMoments) -> BeamSplitterParams:
    """The splitter setting that maximizes E_N: balanced if v > n, else t = 0.

    (eta^-)^2 is phi-independent and, for v > n, smallest at t = 1/sqrt(2),
    where 2 (eta^-)^2 = l- = (n - v) + 1/2.  The maximum is therefore the
    entanglement potential E_N^max = max(0, -ln(1 + 2 (n - v)) / 2) of
    Asboth, Calsamiglia & Ritsch, PRL 94, 173602 (2005).  A classical input
    entangles at no setting; it gets (t, phi) = (0, 0), the tie-break of the
    grid oracle :func:`nonclassicality.optimize.maximize_EN`.
    """
    return BeamSplitterParams(BALANCED_T if c.v > c.n else 0.0)


def log_negativity_from_eta_sq(eta_sq):
    """E_N = max(0, -ln 2 eta^-) from (eta^-)^2, vectorized."""
    with np.errstate(divide="ignore"):
        return np.maximum(0.0, -0.5 * np.log(np.maximum(4.0 * eta_sq, 1e-300))) + 0.0


def covariance_from_input(
    c: CenteredMoments, bs: BeamSplitterParams
) -> CovarianceBlocks:
    """Two-mode output covariance blocks for a centered input state.

    With <a^2> = v e^{i theta} and <a^dag a> = n at the fed port and vacuum at
    the idle port, the transformed mode operators a1 = t e^{i phi} a1 + r a2,
    a2 = -r a1 + t e^{-i phi} a2 give

        A11 = t^2 [cos(theta + 2 phi) v + n] + 1/2,   A12 = t^2 v sin(theta + 2 phi),
        B   = same with r^2 and phase theta,
        C   = t r [[-(cos(theta+phi) v + cos(phi) n),  -sin(theta+phi) v + sin(phi) n],
                   [-(sin(theta+phi) v + sin(phi) n),   cos(theta+phi) v - cos(phi) n]].
    """
    a11, a12, a22, b11, b12, b22, c11, c12, c21, c22 = _block_entries(
        c.v, c.theta, c.n, bs.t, bs.phi, r=bs.r
    )
    return CovarianceBlocks(
        A=np.array([[a11, a12], [a12, a22]]),
        B=np.array([[b11, b12], [b12, b22]]),
        C=np.array([[c11, c12], [c21, c22]]),
    )


def log_negativity(eta_minus: float) -> float:
    """E_N = max(0, -ln(2 eta^-))."""
    if eta_minus <= 0.0:
        raise ValueError(f"eta_minus must be > 0, got {eta_minus}")
    return max(0.0, -math.log(2.0 * eta_minus))


def dgcz_lambda(c: CenteredMoments, bs: BeamSplitterParams) -> float:
    """Variance-sum separability quantity at its optimal gain; negative means entangled.

    The output moments are <a1^dag a1> = t^2 n, <a2^dag a2> = r^2 n and
    <a1 a2> = <a2 a1> = -t r e^{i phi} v e^{i theta}.  With the gain magnitude
    |c*|^2 = (<a2^dag a2> / <a1^dag a1>)^{1/2} and sign(c) opposite to
    Re{<a1 a2> + <a2 a1>}, the quantity is

        2 |c*|^2 <a1^dag a1> + (2 / |c*|^2) <a2^dag a2>
        + 2 sign(c) Re{<a1 a2> + <a2 a1>}.

    At |c*|^2 = r / t this is 4 t r (n - v |cos(theta + phi)|).

    Degenerate splitters (t = 0 or r = 0) and an empty input (n = 0) leave
    an output empty and no gain can be formed; the quantity is defined as 0
    there (no decision possible).
    """
    n1 = bs.t * bs.t * c.n
    n2 = bs.r * bs.r * c.n
    if n1 <= 0.0 or n2 <= 0.0:
        return 0.0
    return 4.0 * bs.t * bs.r * (c.n - c.v * abs(math.cos(bs.phi + c.theta)))


def dgcz_simple(c: CenteredMoments) -> bool:
    """Simple nonclassicality condition on centered moments: |<a^2>| > <a^dag a>."""
    return c.v > c.n


def hz_condition(m: SingleModeMoments) -> bool:
    """First-moment condition |<a>|^2 > <a^dag a>, on raw (uncentered) moments."""
    return abs(m.mean_a) ** 2 > m.photon_number


def build_report(
    m: SingleModeMoments | CenteredMoments, bs: BeamSplitterParams | None = None
) -> NonclassicalityReport:
    """Evaluate every criterion for the given moments at one splitter setting.

    ``m`` is either raw moments, centered here, or centered moments, taken as
    a state with <a> = 0.  ``bs=None`` selects :func:`maximizing_splitter`.
    eta-+ and E_N come from :func:`output_spectrum`.  No covariance matrix is
    formed: with x = n - v and y = n + v the blocks have det A = (t^2 x + 1/2)
    (t^2 y + 1/2), det B the same with r, det C = t^2 r^2 x y and det V =
    (x + 1/2)(y + 1/2)/4, so Simon's combination
    det V + 1/16 - (det A + det B + 2 |det C|)/4 is exactly
    t^2 r^2 min(0, x y).  The moments are physical by construction, but
    UnphysicalMomentsError is raised where rounding leaves det V <= 0.
    """
    if isinstance(m, CenteredMoments):
        c, hz = m, False
    else:
        c, hz = center(m), hz_condition(m)
    if bs is None:
        bs = maximizing_splitter(c)
    eta_m_sq, eta_p_sq = (float(x) for x in output_spectrum(c.v, c.n, bs.t))
    if not eta_m_sq > 0.0:
        raise UnphysicalMomentsError(
            f"covariance matrix has det V = {eta_m_sq * eta_p_sq} <= 0"
        )
    eta_m = math.sqrt(eta_m_sq)
    return NonclassicalityReport(
        eta_minus=eta_m,
        eta_plus=math.sqrt(eta_p_sq),
        E_N=log_negativity(eta_m),
        # + 0.0 turns the -0.0 of a zero t or r into 0.0.
        lambda_simon=bs.t * bs.t * bs.r * bs.r * min(0.0, (c.n - c.v) * (c.n + c.v)) + 0.0,
        lambda_dgcz=dgcz_lambda(c, bs),
        dgcz_simple=dgcz_simple(c),
        hz=hz,
        best_t=bs.t,
        best_phi=bs.phi,
    )
