"""Single-mode bosonic moment data: validation, centering, squeezed-coherent family.

Every criterion in this package consumes a mode through the pair
(<a^2>, <a^dag a>), optionally after subtracting first moments.  This module
owns the containers for those numbers and the physicality check that guards
the downstream Gaussian formulas: center() forms the centered pair and
CenteredMoments refuses to hold an unphysical one, so nothing downstream
checks it again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Physicality tolerance: double-precision headroom above eigensolver noise.
PHYSICALITY_EPS = 1e-9

# Centered |<a^2>| below this is treated as exactly zero when assigning a phase.
ZERO_MAGNITUDE_CUTOFF = 1e-14


class UnphysicalMomentsError(ValueError):
    """Raised for moment combinations no quantum state can produce."""


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
    """

    v: float
    theta: float
    n: float

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
        # A second % maps a tiny negative theta, which rounds up to 2 pi, to 0.
        theta = 0.0 if v < ZERO_MAGNITUDE_CUTOFF else self.theta % TWO_PI % TWO_PI
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "n", max(n, 0.0))


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
