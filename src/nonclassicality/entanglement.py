"""Beam-splitter output covariance matrix and the entanglement criteria on it.

A single mode with centered moments (v e^{i theta}, n) entering one port of a
beam splitter (vacuum at the other) produces a two-mode Gaussian covariance
matrix V = [[A, C], [C^T, B]].  This module computes the partial-transpose
symplectic eigenvalues eta-+ and the logarithmic negativity, at a given
splitter or at the one that maximizes it (the entanglement potential), and
evaluates the auxiliary separability quantities: the Simon determinant
combination lambda_simon, the variance-sum quantity lambda_dgcz with its
optimal gain, the simple second-moment condition v > n, and the first-moment
condition |<a>|^2 > <a^dag a>.  The report takes every criterion from closed
forms in (v, n, t, theta + phi), evaluated on Python floats with :mod:`math`
(:func:`output_spectrum`, :func:`build_report`); the maximizing splitter
comes from :mod:`.optimize`.  Only the Fock oracle (:mod:`.fock`) forms the
covariance blocks themselves, to check them against a simulated splitter.

Quadratures are x = (a^dag + a)/sqrt(2), p = i (a^dag - a)/sqrt(2), so the
vacuum covariance matrix is I/2 and separability of the partial transpose
reads 2 eta^- >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import (
    BeamSplitterParams,
    CenteredMoments,
    SingleModeMoments,
    UnphysicalMomentsError,
    _n_minus_v,
    center,
)
from .optimize import maximizing_splitter


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


def output_spectrum(v: float, n: float, t: float, lam_minus: float | None = None) -> tuple[float, float]:
    """((eta^-)^2, (eta^+)^2) for centered (v, n) at transmission t.

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
    1/4 or above there so that rounding cannot report E_N ~ 1e-16.  An exact
    ``lam_minus`` (see :class:`.CenteredMoments`) replaces l-, and 1/2 - lam_minus
    replaces v - n where it is below 1/2, which makes the input nonclassical.

    Scalar arithmetic in :mod:`math`, in the same order as the vectorized
    NumPy reference in the tests, and bit for bit equal to it.  The squares
    written ``** 2`` stay so: libm ``pow`` rounds them, as NumPy's float64
    power does, and ``x * x`` differs from it by 1 ulp on some inputs.  On
    physical moments (see :class:`.CenteredMoments`) no term overflows,
    where Python's float ``**`` would raise OverflowError.
    """
    t2 = t * t
    a = (1.0 - 2.0 * t2) ** 2
    b = 4.0 * t2 * (1.0 - t2)
    x = _n_minus_v(v, n, lam_minus)
    lam_minus = x + 0.5 if lam_minus is None else lam_minus
    lam_plus = (n + v) + 0.5
    impurity = lam_minus * lam_plus - 0.25
    excess = a * impurity + b * n  # sigma - 1/2
    classical = x >= 0.0
    if classical:
        disc = (
            (a * impurity) ** 2
            + a * b * ((2.0 * n + 1.0) * x * (n + v) + 2.0 * v * v)
            + (b * v) ** 2
        )
    else:
        disc = excess * excess - b * x * (v + n)
    plus_sq = 0.5 * (0.5 + excess + math.sqrt(disc))
    minus_sq = 0.25 * lam_minus * lam_plus / plus_sq
    return (max(minus_sq, 0.25) if classical else minus_sq), plus_sq


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
    """Simple nonclassicality condition on centered moments: |<a^2>| > <a^dag a> (or lam_minus < 1/2)."""
    return _n_minus_v(c.v, c.n, c.lam_minus) < 0.0


def hz_condition(m: SingleModeMoments) -> bool:
    """First-moment condition |<a>|^2 > <a^dag a>, on raw (uncentered) moments."""
    return abs(m.mean_a) ** 2 > m.photon_number


def build_report(
    m: SingleModeMoments | CenteredMoments, bs: BeamSplitterParams | None = None
) -> NonclassicalityReport:
    """Evaluate every criterion for the given moments at one splitter setting.

    ``m`` is either raw moments, centered here, or centered moments, taken as
    a state with <a> = 0.  ``bs=None`` selects :func:`maximizing_splitter`.
    eta-+ and E_N come from the two floats of :func:`output_spectrum`; every
    field is a Python float or bool, so ``vars(report)`` is the flat dict of
    the fields in declaration order.  No covariance matrix is formed: with
    x = n - v and y = n + v the blocks have det A = (t^2 x + 1/2)
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
    eta_m_sq, eta_p_sq = output_spectrum(c.v, c.n, bs.t, c.lam_minus)
    n_minus_v = _n_minus_v(c.v, c.n, c.lam_minus)
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
        lambda_simon=bs.t * bs.t * bs.r * bs.r * min(0.0, n_minus_v * (c.n + c.v)) + 0.0,
        lambda_dgcz=dgcz_lambda(c, bs),
        dgcz_simple=dgcz_simple(c),
        hz=hz,
        best_t=bs.t,
        best_phi=bs.phi,
    )
