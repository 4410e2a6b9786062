"""Brute-force verification path in truncated Fock space.

Each squeezed coherent state is the exact state projected onto a truncated
number basis.  It is pushed through the beam splitter exactly (photon number
is conserved, so no additional truncation occurs there), and its two-mode
covariance matrix is measured directly from expectation values.  Agreement
with the closed-form covariance blocks of
:mod:`nonclassicality.entanglement` validates those formulas independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .entanglement import BeamSplitterParams, CovarianceBlocks, covariance_from_input
from .moments import SingleModeMoments, SqueezedCoherentParams, center

_NORM_TOL = 1e-10

#: Squared amplitude allowed on the last retained Fock level of an "exact" state.
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class FockVector:
    """Normalized single-mode state as coefficients over |0>, ..., |dim-1>."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValueError("coefficients must be a 1-d array with dim >= 2")
        if abs(np.linalg.norm(coeffs) - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {np.linalg.norm(coeffs)} is not 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return self.coefficients.size

    @property
    def truncation_healthy(self) -> bool:
        """True when the top retained levels carry less than TAIL_TOL weight.

        The two highest levels are checked rather than one: definite-parity
        states put exactly zero on every other level, which would defeat a
        single-level probe.
        """
        return _tail_weight(self.coefficients) < TAIL_TOL


@dataclass(frozen=True)
class TwoModeVector:
    """Normalized two-mode state, indexed [n1, n2]."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        if coeffs.ndim != 2:
            raise ValueError("coefficients must be a 2-d array")
        if abs(np.linalg.norm(coeffs) - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {np.linalg.norm(coeffs)} is not 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _tail_weight(psi: np.ndarray) -> float:
    """Largest squared amplitude on the two highest Fock levels of the last axis."""
    return float(np.max(np.abs(psi[..., -2:]) ** 2))


def _lower(psi: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply the annihilation operator of the mode on ``axis`` (the first or last) by index shifting."""
    out = np.zeros_like(psi)
    sqrt_n = np.sqrt(np.arange(1, psi.shape[axis]))
    if axis % psi.ndim == psi.ndim - 1:
        out[..., :-1] = sqrt_n * psi[..., 1:]
    else:
        out[:-1] = sqrt_n[:, None] * psi[1:]
    return out


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


def squeezed_coherent_vector(params: SqueezedCoherentParams, dim: int) -> FockVector:
    """S(beta) D(alpha) |0> projected onto |0>, ..., |dim-1> and renormalized.

    The state is the eigenvector of S a S^dag = cosh r a + e^{i theta} sinh r a^dag
    with eigenvalue alpha (beta = r e^{i theta}), so its amplitudes obey
    c_{k+1} = (alpha sech r c_k - e^{i theta} tanh r sqrt(k) c_{k-1}) / sqrt(k+1)
    from c_0 = 1.  The levels found so far are rescaled whenever an amplitude
    passes 1e150, since amplitudes grow like e^{|alpha|^2 / 2} before they fall.
    Check ``truncation_healthy`` on the result: leakage past the truncation
    shows up there, not as an exception.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    r = params.strength
    decay = math.exp(-r)
    sech = 2.0 * decay / (1.0 + decay * decay)  # cannot overflow at large r
    drive = params.alpha * sech
    pull = -complex(math.cos(params.angle), math.sin(params.angle)) * math.tanh(r)
    coeffs = np.zeros(dim, dtype=complex)
    prev, cur = 0j, 1 + 0j
    coeffs[0] = cur
    for k in range(1, dim):
        prev, cur = cur, (drive * cur + pull * math.sqrt(k - 1) * prev) / math.sqrt(k)
        if abs(cur) > 1e150:
            scale = 1.0 / abs(cur)
            coeffs[:k] *= scale
            prev *= scale
            cur *= scale
        coeffs[k] = cur
    return FockVector(coeffs / np.linalg.norm(coeffs))


def moments_from_vector(state: FockVector) -> SingleModeMoments:
    """Measure <a>, <a^2>, <a^dag a> directly on a Fock-basis state."""
    return _mode_moments(state.coefficients)


def _mode_moments(psi: np.ndarray) -> SingleModeMoments:
    """<a>, <a^2>, <a^dag a> of the mode on the last axis of a normalized state."""
    a_psi = _lower(psi)
    aa_psi = _lower(a_psi)
    return SingleModeMoments(
        mean_a=np.vdot(psi, a_psi),
        a_squared=np.vdot(psi, aa_psi),
        photon_number=float(np.vdot(a_psi, a_psi).real),
    )


def _creation_images(bs: BeamSplitterParams) -> tuple[complex, complex]:
    """Images (mu1, mu2) of the fed port's creation operator in the output modes.

    The splitter maps B a1^dag B^dag = mu1 a1^dag + mu2 a2^dag.  This pair is
    the frozen phase convention of the whole oracle; it is pinned by the
    covariance-equivalence test, which fails loudly for any other choice.
    """
    return bs.t * np.exp(1j * bs.phi), -bs.r


def _powers(mu: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(k log|mu|, (mu / |mu|)^k) for k = 0, ..., dim-1, with mu^0 = 1 also at mu = 0."""
    log_abs = np.zeros(dim)
    if mu == 0:
        log_abs[1:] = -np.inf
        return log_abs, np.ones(dim)
    log_abs[1:] = np.arange(1, dim) * math.log(abs(mu))
    return log_abs, (mu / abs(mu)) ** np.arange(dim)


def _hankel(values: np.ndarray) -> np.ndarray:
    """Read-only view h[k, j] = values[k + j], reading 0 past the end."""
    padded = np.concatenate([values, np.zeros(values.size - 1, dtype=values.dtype)])
    return np.lib.stride_tricks.sliding_window_view(padded, values.size)


def _apply_beam_splitter_images(
    vec: np.ndarray, mu1: complex, mu2: complex
) -> np.ndarray:
    """Map sum_n c_n |n, 0> to sum_n c_n (mu1 a1^dag + mu2 a2^dag)^n / sqrt(n!) |0, 0>.

    Expanding the binomial, |n, 0> goes to
    sum_k binom(n, k)^{1/2} mu1^k mu2^{n-k} |k, n-k>, so the output is the
    table out[k, j] = c_{k+j} binom(k+j, k)^{1/2} mu1^k mu2^j, zero where
    k + j >= dim (there c reads 0 and the magnitude stays <= 1).  Magnitudes
    are built in log space: binomials overflow float64 long before the
    bounded products do.
    """
    dim = vec.size
    half_log_fact = 0.5 * gammaln(np.arange(dim) + 1.0)
    log_abs1, phase1 = _powers(mu1, dim)
    log_abs2, phase2 = _powers(mu2, dim)
    magnitude = np.exp(
        _hankel(half_log_fact)
        + (log_abs1 - half_log_fact)[:, None]
        + (log_abs2 - half_log_fact)[None, :]
    )
    return _hankel(vec) * magnitude * np.multiply.outer(phase1, phase2)


def apply_beam_splitter(state: FockVector, bs: BeamSplitterParams) -> TwoModeVector:
    """Split a single-mode state against vacuum; exact up to the input truncation.

    Photon number is conserved, so the output lives on n1 + n2 <= dim - 1 and
    the transformation itself introduces no truncation error.
    """
    mu1, mu2 = _creation_images(bs)
    return TwoModeVector(_apply_beam_splitter_images(state.coefficients, mu1, mu2))


def two_mode_covariance(state: TwoModeVector) -> CovarianceBlocks:
    """Measure the centered covariance blocks of a two-mode state.

    All ten independent symmetrized quadrature moments follow from the eight
    ladder expectations <a_i>, <a_i^2>, <a_i^dag a_i>, <a1 a2>, <a1^dag a2>;
    first moments are subtracted before assembly.
    """
    psi = state.coefficients
    a1_psi = _lower(psi, 0)
    a2_psi = _lower(psi, 1)
    m1 = np.vdot(psi, a1_psi)
    m2 = np.vdot(psi, a2_psi)
    sq1 = np.vdot(psi, _lower(a1_psi, 0)) - m1 * m1
    sq2 = np.vdot(psi, _lower(a2_psi, 1)) - m2 * m2
    n1 = np.vdot(a1_psi, a1_psi).real - abs(m1) ** 2
    n2 = np.vdot(a2_psi, a2_psi).real - abs(m2) ** 2
    w = np.vdot(psi, _lower(a1_psi, 1)) - m1 * m2      # <da1 da2>
    z = np.vdot(a1_psi, a2_psi) - np.conj(m1) * m2     # <da1^dag da2>

    def mode_block(sq: complex, occ: float) -> np.ndarray:
        return np.array(
            [[sq.real + occ + 0.5, sq.imag], [sq.imag, -sq.real + occ + 0.5]]
        )

    cross = np.array(
        [
            [w.real + z.real, w.imag + z.imag],
            [w.imag - z.imag, -w.real + z.real],
        ]
    )
    return CovarianceBlocks(A=mode_block(sq1, n1), B=mode_block(sq2, n2), C=cross)


def covariance_check(
    trials: int,
    dim: int,
    seed: int,
    r_max: float = 1.5,
    alpha_max: float = 1.0,
    corrupt_phase: bool = False,
) -> float:
    """Max elementwise discrepancy between measured and closed-form covariances.

    Each trial draws a squeezed coherent state and splitter setting (PCG64
    stream from ``seed``), prepares the state on ``dim`` levels, measures its
    moments, and compares the beam-split state's covariance against the
    closed-form blocks evaluated on those same measured input moments.  That
    isolates the transformation formulas from preparation truncation.

    ``corrupt_phase`` simulates the splitter at phi + pi but predicts it at
    phi, and serves as a negative control: the discrepancy must become large.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        alpha = (
            alpha_max
            * math.sqrt(rng.uniform(0.0, 1.0))
            * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        )
        params = SqueezedCoherentParams(
            alpha=alpha,
            strength=rng.uniform(0.0, r_max),
            angle=rng.uniform(0.0, 2.0 * math.pi),
        )
        bs = BeamSplitterParams(t=rng.uniform(0.0, 1.0), phi=rng.uniform(0.0, 2.0 * math.pi))
        state = squeezed_coherent_vector(params, dim)
        measured_input = center(moments_from_vector(state))
        simulated = BeamSplitterParams(bs.t, bs.phi + math.pi) if corrupt_phase else bs
        measured = two_mode_covariance(apply_beam_splitter(state, simulated))
        predicted = covariance_from_input(measured_input, bs)
        worst = max(
            worst,
            float(np.abs(measured.A - predicted.A).max()),
            float(np.abs(measured.B - predicted.B).max()),
            float(np.abs(measured.C - predicted.C).max()),
        )
    return worst
