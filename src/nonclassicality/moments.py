"""Validated inputs: single-mode moments, the beam splitter, the squeezed-coherent family.

Every criterion in this package consumes a mode through the pair
(<a^2>, <a^dag a>), optionally after subtracting first moments, and a
beam-splitter setting (t, phi).  This module owns the containers for those
numbers and the checks that guard the downstream Gaussian formulas: center()
forms the centered pair, CenteredMoments refuses to hold an unphysical one
and BeamSplitterParams a t outside [0, 1], so nothing downstream checks them
again.  Both wrap their angle, theta and phi, into [0, 2 pi) by one rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi

# Physicality tolerance: double-precision headroom above eigensolver noise.
PHYSICALITY_EPS = 1e-9

# Centered |<a^2>| below this is treated as exactly zero when assigning a phase.
ZERO_MAGNITUDE_CUTOFF = 1e-14

# A transmission t with t^2 - 1 up to this is taken as t = 1 (r = 0).
_UNIT_T_TOL = 1e-12


class UnphysicalMomentsError(ValueError):
    """Raised for moment combinations no quantum state can produce."""


def _wrap_angle(x: float) -> float:
    # A second % maps a tiny negative x, which the first rounds up to 2 pi, to 0.
    return x % TWO_PI % TWO_PI


def _physicality_slack(v: float, n: float) -> float:
    # Absolute at order-one scales; relative above, because cosh/sinh products
    # at large squeezing carry rounding noise proportional to their magnitude.
    return PHYSICALITY_EPS * max(1.0, n * (n + 1.0), v * v)


def _is_physical(v: float, n: float) -> bool:
    # The square of the bound must stay finite too: the two-mode covariance
    # invariants downstream scale as (n(n + 1))^2.  The finiteness tests also
    # reject infinite v or n, which inf <= inf + slack would let pass.
    bound = n * (n + 1.0)
    return (
        math.isfinite(v * v)
        and math.isfinite(bound * bound)
        and n >= -PHYSICALITY_EPS
        and v * v <= bound + _physicality_slack(v, n)
    )


@dataclass(frozen=True)
class SingleModeMoments:
    """First and second moments <a>, <a^2>, <a^dag a> of one bosonic mode.

    Construction only coerces the three numbers; their physicality is a
    property of the centered pair, checked where :func:`center` builds
    :class:`CenteredMoments`.
    """

    mean_a: complex
    a_squared: complex
    photon_number: float

    def __post_init__(self):
        object.__setattr__(self, "mean_a", complex(self.mean_a))
        object.__setattr__(self, "a_squared", complex(self.a_squared))
        object.__setattr__(self, "photon_number", float(self.photon_number))


@dataclass(frozen=True)
class CenteredMoments:
    """Centered second moments in polar form.

    v and theta are the magnitude and phase of <a^2> - <a>^2, n is the
    centered occupation <a^dag a> - |<a>|^2.  Every quantum state has
    n >= 0 and v^2 <= n (n + 1) (Cauchy-Schwarz on the centered operators).
    Construction rejects (v, n) that violate this beyond the physicality
    tolerance, NaN and inf included, before it looks at theta, and clamps
    an n within tolerance below zero to zero.

    An exact lam_minus, such as e^{-2r}/2 for a squeezed vacuum, stands in
    for l- = (n - v) + 1/2, a difference of large floats at strong squeezing;
    it must be finite, > 0 and within the rounding 4 eps (n + v + 1) of l-.
    v > n or lam_minus < 1/2 is then nonclassical (:func:`_n_minus_v`).
    """

    v: float
    theta: float
    n: float
    lam_minus: float | None = None

    def __post_init__(self):
        if self.v < 0.0:
            raise ValueError(f"v is a magnitude and must be >= 0, got {self.v}")
        v, n = float(self.v), float(self.n)
        if not _is_physical(v, n):
            raise UnphysicalMomentsError(
                "need finite n >= 0 and v^2 <= n(n+1), with (n(n+1))^2 "
                f"within double precision, got v={v}, n={n}"
            )
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        theta = 0.0 if v < ZERO_MAGNITUDE_CUTOFF else _wrap_angle(self.theta)
        n = max(n, 0.0)
        if self.lam_minus is not None:
            lam = float(self.lam_minus)
            slack = 4.0 * 2.0**-52 * (n + v + 1.0)  # 4 eps: the rounding of n and v
            if not (0.0 < lam < math.inf and abs(lam - ((n - v) + 0.5)) <= slack):
                raise ValueError(f"lam_minus must be > 0 and agree with (n - v) + 1/2, got {lam}")
            object.__setattr__(self, "lam_minus", lam)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "n", n)


def _n_minus_v(v: float, n: float, lam_minus: float | None) -> float:
    """n - v, or lam_minus - 1/2 below 1/2: negative iff v > n or lam_minus < 1/2.
    Both are needed: lam_minus rounds to 1/2 at tiny r, and v to n from r ~ 18.7."""
    return lam_minus - 0.5 if lam_minus is not None and lam_minus < 0.5 else n - v


@dataclass(frozen=True)
class BeamSplitterParams:
    """Transmission t and phase phi; the reflection r = sqrt(1 - t^2) is derived.

    Needs finite t >= 0 with t^2 - 1 <= 1e-12 (a t rounded just above 1 gets
    r = 0) and finite phi, which is wrapped into [0, 2 pi) as
    :class:`CenteredMoments` wraps theta.
    """

    t: float
    phi: float = 0.0
    r: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.phi)):
            raise ValueError(f"t and phi must be finite, got {self.t}, {self.phi}")
        t = float(self.t) + 0.0  # + 0.0 turns a -0.0 into 0.0
        # t * t, unlike t**2, gives inf instead of raising OverflowError.
        if t < 0.0 or t * t - 1.0 > _UNIT_T_TOL:
            raise ValueError(f"need 0 <= t <= 1, got t={t}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", _wrap_angle(float(self.phi)))
        object.__setattr__(self, "r", math.sqrt(max(0.0, 1.0 - t**2)))


@dataclass(frozen=True)
class SqueezedCoherentParams:
    """Displacement alpha and complex squeezing strength * exp(i angle).

    The state is S(beta) D(alpha) |0> with beta = strength * exp(i angle),
    D(alpha) = exp(alpha a^dag - alpha* a) and the squeeze operator
    S(beta) = exp[(beta* a^2 - beta a^dag^2) / 2], so that
    S^dag a S = cosh(strength) a - exp(i angle) sinh(strength) a^dag.
    """

    alpha: complex
    strength: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "strength", float(self.strength))
        object.__setattr__(self, "angle", float(self.angle))
        if not self.strength >= 0.0:  # NaN included
            raise ValueError(f"squeezing strength must be >= 0, got {self.strength}")


def squeezed_coherent_moments(params: SqueezedCoherentParams) -> SingleModeMoments:
    """Moments of the squeezed coherent state S(beta) D(alpha) |0>.

    With C = cosh r, S = sinh r, r = strength and theta = angle:

        <a>        = C alpha - S e^{i theta} alpha*
        <a^2>      = C^2 alpha^2 + S^2 e^{2i theta} alpha*^2
                     - C S e^{i theta} (2 |alpha|^2 + 1)
        <a^dag a>  = C^2 |alpha|^2 + S^2 (1 + |alpha|^2)
                     - C S (e^{i theta} alpha*^2 + e^{-i theta} alpha^2)

    The sum of the first two terms in <a^2> is required by the alpha -> 0
    limit (squeezed vacuum has <a^2> = -C S e^{i theta}).  Raises
    UnphysicalMomentsError where cosh r (from r ~ 710) or |alpha|^2 (from
    |alpha| ~ 1e154) overflows.  Moments that overflow to inf or NaN, or
    whose centered values overflow, are returned as they are: center()
    rejects them.
    """
    alpha = params.alpha
    try:
        c = math.cosh(params.strength)
        s = math.sinh(params.strength)
        alpha_sq = abs(alpha) ** 2
    except OverflowError as exc:
        raise UnphysicalMomentsError(
            f"moments overflow double precision at alpha={alpha}, strength={params.strength}"
        ) from exc
    ph = cmath.exp(1j * params.angle)
    ac = alpha.conjugate()
    mean_a = c * alpha - s * ph * ac
    a_squared = (
        c * c * alpha * alpha
        + s * s * ph * ph * ac * ac
        - c * s * ph * (2.0 * alpha_sq + 1.0)
    )
    photon_number = (
        c * c * alpha_sq
        + s * s * (1.0 + alpha_sq)
        - c * s * (ph * ac * ac + ph.conjugate() * alpha * alpha).real
    )
    return SingleModeMoments(mean_a, a_squared, photon_number)


def center(m: SingleModeMoments) -> CenteredMoments:
    """Subtract first moments: v e^{i theta} = <a^2> - <a>^2, n = <a^dag a> - |<a>|^2.

    The one place raw moments are centered: a centered value that overflows
    double precision raises UnphysicalMomentsError, and CenteredMoments
    checks the rest.
    """
    try:
        d2 = m.a_squared - m.mean_a * m.mean_a
        v = abs(d2)
        n = m.photon_number - abs(m.mean_a) ** 2
    except OverflowError as exc:
        raise UnphysicalMomentsError(
            f"centered moments overflow double precision: <a>={m.mean_a}"
        ) from exc
    return CenteredMoments(v=v, theta=cmath.phase(d2), n=n)
