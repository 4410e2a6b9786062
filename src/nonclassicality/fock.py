"""Brute-force verification path in truncated Fock space.

Each squeezed coherent state is the exact state projected onto a truncated
number basis.  It is pushed through the beam splitter exactly (photon number
is conserved, so no additional truncation occurs there), and its two-mode
covariance matrix is measured directly from expectation values.  Agreement
with the closed-form covariance blocks of
:mod:`nonclassicality.entanglement` validates those formulas independently.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

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
        _check_norm(coeffs)
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
        _check_norm(coeffs)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _check_norm(coeffs: np.ndarray) -> None:
    """Raise ValueError unless ``coeffs`` has unit norm within _NORM_TOL."""
    norm = np.linalg.norm(coeffs)
    if not abs(norm - 1.0) <= _NORM_TOL:  # NaN included
        raise ValueError(f"state norm {norm} is not 1")


def _tail_weight(psi: np.ndarray) -> float:
    """Largest squared amplitude on the two highest Fock levels of the last axis."""
    return float(np.max(np.abs(psi[..., -2:]) ** 2))


def _lower(psi: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the annihilation operator of the mode on ``axis`` (the first or last) by index shifting.

    The result is written to ``out`` when given, which must not overlap ``psi``.
    """
    if out is None:
        out = np.empty_like(psi)
    if axis % psi.ndim == psi.ndim - 1:
        # Shift, then scale the whole array in place: a ufunc over the strided
        # column slices would allocate NumPy's iteration buffers on every call.
        out[..., :-1] = psi[..., 1:]
        out[..., -1] = 0.0
        out *= np.sqrt(np.arange(1, psi.shape[-1] + 1))
    else:
        np.multiply(np.sqrt(np.arange(1, psi.shape[0]))[:, None], psi[1:], out=out[:-1])
        out[-1] = 0.0
    return out


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


def _half_log_factorials(dim: int) -> np.ndarray:
    """(1/2) log k! for k = 0, ..., dim-1, from the exact integer factorials.

    ``math.log`` of an int stays within about 1 ulp of the true value at any
    size, while ``math.lgamma`` (CPython's own Lanczos sum) is already 3 ulp
    off at log 2!.
    """
    factorials = itertools.accumulate(range(1, dim), operator.mul, initial=1)
    return np.array([0.5 * math.log(factorial) for factorial in factorials])


def apply_beam_splitter(state: FockVector, bs: BeamSplitterParams) -> TwoModeVector:
    """Split a single-mode state against vacuum; exact up to the input truncation.

    The splitter maps B a1^dag B^dag = mu1 a1^dag + mu2 a2^dag with
    mu1 = t e^{i phi} and mu2 = -r, the frozen phase convention of the whole
    oracle; the covariance-equivalence test pins it and fails loudly for any
    other choice.  Expanding the binomial, |n, 0> goes to
    sum_k binom(n, k)^{1/2} mu1^k mu2^{n-k} |k, n-k>, so the output is the
    table out[k, j] = c_{k+j} binom(k+j, k)^{1/2} mu1^k mu2^j, zero where
    k + j >= dim (there c reads 0 and the magnitude stays <= 1).  Magnitudes
    are built in log space: binomials overflow float64 long before the
    bounded products do.  Photon number is conserved, so the output lives on
    n1 + n2 <= dim - 1 and the transformation itself introduces no
    truncation error.
    """
    dim = state.dim
    out, scratch = np.empty((2, dim, dim), dtype=complex)
    magnitude = np.empty((dim, dim))
    half_log_fact = _half_log_factorials(dim)
    return TwoModeVector(
        _apply_beam_splitter_images(state.coefficients, bs, half_log_fact, out, magnitude, scratch)
    )


def _apply_beam_splitter_images(
    vec: np.ndarray, bs: BeamSplitterParams, half_log_fact: np.ndarray,
    out: np.ndarray, magnitude: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """Fill the dim x dim ``out`` with the split table of ``apply_beam_splitter`` and return it.

    ``half_log_fact`` is ``_half_log_factorials(dim)``; ``magnitude`` (real)
    and ``scratch`` (complex) are dim x dim work arrays, overwritten.
    """
    dim = vec.size
    log_abs1, phase1 = _powers(bs.t * np.exp(1j * bs.phi), dim)
    log_abs2, phase2 = _powers(-bs.r, dim)
    np.add(_hankel(half_log_fact), (log_abs1 - half_log_fact)[:, None], out=magnitude)
    magnitude += (log_abs2 - half_log_fact)[None, :]
    np.exp(magnitude, out=magnitude)
    # Copies and whole-array in-place products only: a casting product over
    # the Hankel view, or an outer product, allocates NumPy's iteration
    # buffers on every call.
    out[...] = _hankel(vec)
    out *= magnitude
    scratch[...] = phase1[:, None]
    scratch *= phase2
    out *= scratch
    return out


def two_mode_covariance(state: TwoModeVector) -> CovarianceBlocks:
    """Measure the centered covariance blocks of a two-mode state.

    All ten independent symmetrized quadrature moments follow from the eight
    ladder expectations <a_i>, <a_i^2>, <a_i^dag a_i>, <a1 a2>, <a1^dag a2>;
    first moments are subtracted before assembly.
    """
    psi = state.coefficients
    return _covariance_blocks(psi, *np.empty((3, *psi.shape), dtype=complex))


def _covariance_blocks(
    psi: np.ndarray, a1_psi: np.ndarray, a2_psi: np.ndarray, scratch: np.ndarray
) -> CovarianceBlocks:
    """``two_mode_covariance`` of the normalized table ``psi``.

    ``a1_psi``, ``a2_psi`` and ``scratch`` are work arrays of psi's shape,
    overwritten.
    """
    _lower(psi, 0, out=a1_psi)
    _lower(psi, 1, out=a2_psi)
    m1 = np.vdot(psi, a1_psi)
    m2 = np.vdot(psi, a2_psi)
    sq1 = np.vdot(psi, _lower(a1_psi, 0, out=scratch)) - m1 * m1
    sq2 = np.vdot(psi, _lower(a2_psi, 1, out=scratch)) - m2 * m2
    n1 = np.vdot(a1_psi, a1_psi).real - abs(m1) ** 2
    n2 = np.vdot(a2_psi, a2_psi).real - abs(m2) ** 2
    w = np.vdot(psi, _lower(a1_psi, 1, out=scratch)) - m1 * m2      # <da1 da2>
    z = np.vdot(a1_psi, a2_psi) - np.conj(m1) * m2                  # <da1^dag da2>

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

    The dim x dim arrays of the split and its covariance are allocated once
    per call and refilled by every trial, through the same kernels that
    ``apply_beam_splitter`` and ``two_mode_covariance`` wrap, so trials give
    no memory back to the allocator between them.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    half_log_fact = _half_log_factorials(dim)
    split, a1_psi, a2_psi, scratch = np.empty((4, dim, dim), dtype=complex)
    magnitude = np.empty((dim, dim))
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
        _apply_beam_splitter_images(
            state.coefficients, simulated, half_log_fact, split, magnitude, scratch
        )
        _check_norm(split)
        measured = _covariance_blocks(split, a1_psi, a2_psi, scratch)
        predicted = covariance_from_input(measured_input, bs)
        discrepancies = (
            worst,
            float(np.abs(measured.A - predicted.A).max()),
            float(np.abs(measured.B - predicted.B).max()),
            float(np.abs(measured.C - predicted.C).max()),
        )
        # Python's max drops a NaN; a sum of non-negatives is NaN only if a term is.
        worst = math.nan if math.isnan(sum(discrepancies)) else max(discrepancies)
    return worst
