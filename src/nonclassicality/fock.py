"""Brute-force verification path in truncated Fock space.

Each squeezed coherent state is the exact state projected onto a truncated
number basis.  It is pushed through the beam splitter exactly (photon number
is conserved, so no additional truncation occurs there), and its two-mode
covariance matrix is measured directly from expectation values and compared
with the oracle's own closed-form prediction, :func:`covariance_from_input`.
Their agreement validates the splitter formulas that the closed-form spectrum
of :mod:`nonclassicality.entanglement` rests on.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .moments import (
    BeamSplitterParams, CenteredMoments, SingleModeMoments, SqueezedCoherentParams, center,
)

_NORM_TOL = 1e-10
_SYMMETRY_TOL = 1e-12

#: Squared amplitude allowed on the last retained Fock level of an "exact" state.
TAIL_TOL = 1e-12

#: Sizes whose read-only tables (ladder roots, half-log-factorials and their
#: Hankel sums) stay cached.
TABLE_CACHE = 8


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
        # One test of all twelve entries; a NaN would pass the symmetry test below.
        if not np.isfinite((self.A, self.B, self.C)).all():
            raise ValueError("covariance blocks must be finite")
        for name in ("A", "B"):
            block = getattr(self, name)
            if abs(block[0, 1] - block[1, 0]) > _SYMMETRY_TOL:
                raise ValueError(f"block {name} must be symmetric")


def _check_norm(coeffs: np.ndarray) -> None:
    """Raise ValueError unless ``coeffs`` has unit norm within _NORM_TOL."""
    norm = np.linalg.norm(coeffs)
    if not abs(norm - 1.0) <= _NORM_TOL:  # NaN included
        raise ValueError(f"state norm {norm} is not 1")


def _tail_weight(psi: np.ndarray) -> float:
    """Largest squared amplitude on the two highest Fock levels of the last axis."""
    return float((np.abs(psi[..., -2:]) ** 2).max())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=TABLE_CACHE)
def _ladder_roots(size: int) -> np.ndarray:
    """Read-only sqrt(k) for k = 0, ..., size, the ladder factors of a mode with size levels."""
    return _read_only(np.sqrt(np.arange(size + 1)))


def _lower(psi: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the annihilation operator of the mode on ``axis`` (the first or last) by index shifting.

    The result is written to ``out`` when given, which must not overlap ``psi``.
    The factors sqrt(k) are read from the cached ``_ladder_roots`` of the
    mode's size.
    """
    if out is None:
        out = np.empty_like(psi)
    if axis % psi.ndim == psi.ndim - 1:
        # Shift, then scale the whole array in place: a ufunc over the strided
        # column slices would allocate NumPy's iteration buffers on every call.
        out[..., :-1] = psi[..., 1:]
        out[..., -1] = 0.0
        out *= _ladder_roots(psi.shape[-1])[1:]
    else:
        np.multiply(_ladder_roots(psi.shape[0])[1:-1, None], psi[1:], out=out[:-1])
        out[-1] = 0.0
    return out


def squeezed_coherent_vector(params: SqueezedCoherentParams, dim: int) -> FockVector:
    """S(beta) D(alpha) |0> projected onto |0>, ..., |dim-1> and renormalized.

    The state is the eigenvector of S a S^dag = cosh r a + e^{i theta} sinh r a^dag
    with eigenvalue alpha (beta = r e^{i theta}), so its amplitudes obey
    c_{k+1} = (alpha sech r c_k - e^{i theta} tanh r sqrt(k) c_{k-1}) / sqrt(k+1)
    from c_0 = 1.  The levels found so far are rescaled whenever an amplitude
    passes 1e150, since amplitudes grow like e^{|alpha|^2 / 2} before they fall.
    The square roots are read from the cached ``_ladder_roots`` of ``dim``.
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
    roots = _ladder_roots(dim).tolist()
    coeffs = np.zeros(dim, dtype=complex)
    prev, cur = 0j, 1 + 0j
    coeffs[0] = cur
    for k in range(1, dim):
        prev, cur = cur, (drive * cur + pull * roots[k - 1] * prev) / roots[k]
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
    size = values.size
    padded = np.zeros(2 * size - 1, dtype=values.dtype)
    padded[:size] = values
    # Both axes step one element: row k starts at values[k].
    return _read_only(np.ndarray((size, size), values.dtype, padded, strides=2 * padded.strides))


@functools.lru_cache(maxsize=TABLE_CACHE)
def _half_log_factorials(dim: int) -> np.ndarray:
    """Read-only (1/2) log k! for k = 0, ..., dim-1, from the exact integer factorials.

    ``math.log`` of an int stays within about 1 ulp of the true value at any
    size, while ``math.lgamma`` (CPython's own Lanczos sum) is already 3 ulp
    off at log 2!.  The table is cached per size, with its Hankel sums.
    """
    factorials = itertools.accumulate(range(1, dim), operator.mul, initial=1)
    return _read_only(np.array([0.5 * math.log(factorial) for factorial in factorials]))


@functools.lru_cache(maxsize=TABLE_CACHE)
def _half_log_factorial_sums(dim: int) -> np.ndarray:
    """Read-only contiguous dim x dim table h[k, j] = (1/2) log (k + j)!, 0 where k + j >= dim."""
    return _read_only(np.ascontiguousarray(_hankel(_half_log_factorials(dim))))


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
    return TwoModeVector(_apply_beam_splitter_images(state.coefficients, bs, out, magnitude, scratch))


def _apply_beam_splitter_images(
    vec: np.ndarray, bs: BeamSplitterParams, out: np.ndarray, magnitude: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Fill the dim x dim ``out`` with the split table of ``apply_beam_splitter`` and return it.

    ``magnitude`` (real) and ``scratch`` (complex) are dim x dim work arrays,
    overwritten.  The half-log-factorials and their Hankel sums are the
    cached tables of ``dim``.
    """
    dim = vec.size
    half_log_fact = _half_log_factorials(dim)
    log_abs1, phase1 = _powers(bs.t * np.exp(1j * bs.phi), dim)
    log_abs2, phase2 = _powers(-bs.r, dim)
    np.add(_half_log_factorial_sums(dim), (log_abs1 - half_log_fact)[:, None], out=magnitude)
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


def _blocks(a11, a12, a22, b11, b12, b22, c11, c12, c21, c22) -> CovarianceBlocks:
    """The blocks of the ten entries, in the order that ``_block_entries`` returns them."""
    return CovarianceBlocks(
        A=[[a11, a12], [a12, a22]], B=[[b11, b12], [b12, b22]], C=[[c11, c12], [c21, c22]]
    )


def covariance_from_input(c: CenteredMoments, bs: BeamSplitterParams) -> CovarianceBlocks:
    """Two-mode output covariance blocks for a centered input state.

    With <a^2> = v e^{i theta} and <a^dag a> = n at the fed port and vacuum at
    the idle port, the transformed mode operators a1 = t e^{i phi} a1 + r a2,
    a2 = -r a1 + t e^{-i phi} a2 give

        A11 = t^2 [cos(theta + 2 phi) v + n] + 1/2,   A12 = t^2 v sin(theta + 2 phi),
        B   = same with r^2 and phase theta,
        C   = t r [[-(cos(theta+phi) v + cos(phi) n),  -sin(theta+phi) v + sin(phi) n],
                   [-(sin(theta+phi) v + sin(phi) n),   cos(theta+phi) v - cos(phi) n]].
    """
    return _blocks(*_block_entries(c.v, c.theta, c.n, bs.t, bs.phi, r=bs.r))


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

    return _blocks(
        sq1.real + n1 + 0.5, sq1.imag, -sq1.real + n1 + 0.5,
        sq2.real + n2 + 0.5, sq2.imag, -sq2.real + n2 + 0.5,
        w.real + z.real, w.imag + z.imag, w.imag - z.imag, -w.real + z.real,
    )


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

    A trial whose split state fails the norm check, or whose blocks are not
    finite, has a NaN discrepancy, and any NaN discrepancy makes the result
    NaN: such a run fails the oracle rather than raising or passing.

    The dim x dim arrays of the split and its covariance are allocated once
    per call and refilled by every trial, through the same kernels that
    ``apply_beam_splitter`` and ``two_mode_covariance`` wrap, so trials give
    no memory back to the allocator between them.  The tables that depend
    only on ``dim`` (ladder roots, half-log-factorials and their Hankel sums)
    are built once per size and cached across calls.  One draw per call
    gives every trial's six uniform parameters.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= r_max < math.inf:  # NaN included
        raise ValueError(f"r_max must be finite and >= 0, got {r_max}")
    rng = np.random.default_rng(seed)
    # Generator.uniform(low, high) is low + (high - low) u for the stream's
    # next double u, so these are the doubles that six uniform calls per
    # trial give: |alpha|^2 / alpha_max^2, arg alpha, r, its angle, t, phi.
    low, high = 0.0, np.array([1.0, 2.0 * math.pi, r_max, 2.0 * math.pi, 1.0, 2.0 * math.pi])
    draws = low + (high - low) * rng.random((trials, 6))
    split, a1_psi, a2_psi, scratch = np.empty((4, dim, dim), dtype=complex)
    magnitude = np.empty((dim, dim))
    worst = 0.0
    for row in draws:
        radius_sq, phase, strength, angle, t, phi = row.tolist()
        alpha = alpha_max * math.sqrt(radius_sq) * np.exp(1j * phase)
        params = SqueezedCoherentParams(alpha=alpha, strength=strength, angle=angle)
        bs = BeamSplitterParams(t=t, phi=phi)
        state = squeezed_coherent_vector(params, dim)
        measured_input = center(moments_from_vector(state))
        simulated = BeamSplitterParams(bs.t, bs.phi + math.pi) if corrupt_phase else bs
        _apply_beam_splitter_images(state.coefficients, simulated, split, magnitude, scratch)
        try:
            _check_norm(split)
            measured = _covariance_blocks(split, a1_psi, a2_psi, scratch)
            predicted = covariance_from_input(measured_input, bs)
        except ValueError:  # a split state off its norm, or blocks that are not finite
            worst = math.nan
            continue
        discrepancies = (
            worst,
            float(np.abs(measured.A - predicted.A).max()),
            float(np.abs(measured.B - predicted.B).max()),
            float(np.abs(measured.C - predicted.C).max()),
        )
        # Python's max drops a NaN; a sum of non-negatives is NaN only if a term is.
        worst = math.nan if math.isnan(sum(discrepancies)) else max(discrepancies)
    return worst
