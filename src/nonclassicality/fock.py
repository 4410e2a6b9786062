"""Brute-force verification path in truncated Fock space.

States are plain normalized NumPy arrays of Fock amplitudes, the mode on
the last axis.  Each squeezed coherent state is the exact state projected
onto a truncated number basis.  It is pushed through the beam splitter
exactly (photon number is conserved, so no additional truncation occurs
there), and the ten entries of its two-mode covariance matrix are measured
directly, each ladder expectation one ``np.vdot`` of two offset slices of
the flattened state and a ladder-root weighted copy of it.  They are
compared with the closed-form prediction of the same entries
(:func:`_block_entries`), and their partial-transpose spectrum with
:func:`nonclassicality.entanglement.output_spectrum`, the numbers that the
CLI reports.  Their agreement validates the splitter formulas that the
closed-form spectrum rests on.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .entanglement import output_spectrum
from .moments import BeamSplitterParams, SingleModeMoments, SqueezedCoherentParams, center

_NORM_TOL = 1e-10

#: Squared amplitude allowed on the last retained Fock level of an "exact" state.
TAIL_TOL = 1e-12

#: Sizes whose read-only tables (ladder roots, half-log-factorials and their
#: Hankel sums) stay cached.
TABLE_CACHE = 8


def _check_norm(coeffs: np.ndarray) -> None:
    """Raise ValueError unless ``coeffs`` has unit norm within _NORM_TOL."""
    norm = math.sqrt(np.vdot(coeffs, coeffs).real)
    if not abs(norm - 1.0) <= _NORM_TOL:  # NaN included
        raise ValueError(f"state norm {norm} is not 1")


def _tail_weight(psi: np.ndarray) -> float:
    """Largest squared amplitude on the two highest Fock levels of the last axis.

    Two levels, not one: a definite-parity state leaves every other level empty.
    """
    return float((np.abs(psi[..., -2:]) ** 2).max())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=TABLE_CACHE)
def _ladder_roots(size: int) -> np.ndarray:
    """Read-only sqrt(k) for k = 0, ..., size, the ladder factors of a mode with size levels."""
    return _read_only(np.sqrt(np.arange(size + 1)))


def _lower(psi: np.ndarray) -> np.ndarray:
    """Apply the annihilation operator of the mode on the last axis by index shifting.

    The factors sqrt(k) are read from the cached ``_ladder_roots`` of the
    mode's size.
    """
    out = np.empty_like(psi)
    # Shift, then scale the whole array in place: a ufunc over the strided
    # column slices would allocate NumPy's iteration buffers on every call.
    out[..., :-1] = psi[..., 1:]
    out[..., -1] = 0.0
    out *= _ladder_roots(psi.shape[-1])[1:]
    return out


def squeezed_coherent_vector(params: SqueezedCoherentParams, dim: int) -> np.ndarray:
    """S(beta) D(alpha) |0> projected onto |0>, ..., |dim-1> and renormalized.

    The state is the eigenvector of S a S^dag = cosh r a + e^{i theta} sinh r a^dag
    with eigenvalue alpha (beta = r e^{i theta}), so its amplitudes obey
    c_{k+1} = (alpha sech r c_k - e^{i theta} tanh r sqrt(k) c_{k-1}) / sqrt(k+1)
    from c_0 = 1.  The levels found so far are rescaled whenever an amplitude
    passes 1e150, since amplitudes grow like e^{|alpha|^2 / 2} before they fall.
    The square roots are read from the cached ``_ladder_roots`` of ``dim``.
    Returns the dim amplitudes as a complex array of unit norm, checked by
    ``_check_norm``.  Check ``_tail_weight(psi) < TAIL_TOL`` on the result:
    leakage past the truncation shows up there, not as an exception.
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
    psi = coeffs / np.linalg.norm(coeffs)
    _check_norm(psi)
    return psi


def moments_from_vector(psi: np.ndarray) -> SingleModeMoments:
    """<a>, <a^2>, <a^dag a> of the mode on the last axis of a normalized state.

    Leading axes are traced out: an atoms-field vector shaped (atomic
    levels, Fock levels) gives the field's moments.
    """
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


def _apply_beam_splitter_images(vec: np.ndarray, bs: BeamSplitterParams, out: np.ndarray,
                                magnitude: np.ndarray) -> np.ndarray:
    """Fill the dim x dim ``out`` with ``vec`` split against vacuum and return it.

    The split is exact up to the input truncation.  The splitter maps
    B a1^dag B^dag = mu1 a1^dag + mu2 a2^dag with mu1 = t e^{i phi} and
    mu2 = -r, the frozen phase convention of the whole oracle; the
    covariance-equivalence test pins it and fails loudly for any other
    choice.  Expanding the binomial, |n, 0> goes to
    sum_k binom(n, k)^{1/2} mu1^k mu2^{n-k} |k, n-k>, so the output is the
    table out[k, j] = c_{k+j} binom(k+j, k)^{1/2} mu1^k mu2^j, zero where
    k + j >= dim (there c reads 0 and the magnitude stays <= 1).  Magnitudes
    are built in log space: binomials overflow float64 long before the
    bounded products do.  Photon number is conserved, so the output lives on
    n1 + n2 <= dim - 1 and the transformation itself introduces no
    truncation error.

    ``magnitude`` is a real dim x dim work array, overwritten, that takes
    mu2's sign (-1)^j; mu1's phase e^{i k phi} is one product with a column.
    The half-log-factorials and their Hankel sums are cached per ``dim``.
    """
    dim = vec.size
    half_log_fact = _half_log_factorials(dim)
    log_abs1, phase1 = _powers(bs.t * np.exp(1j * bs.phi), dim)
    log_abs2, _ = _powers(bs.r, dim)
    np.add(_half_log_factorial_sums(dim), (log_abs1 - half_log_fact)[:, None], out=magnitude)
    magnitude += (log_abs2 - half_log_fact)[None, :]
    np.exp(magnitude, out=magnitude)
    magnitude[:, 1::2] *= -1.0
    # Copies and whole-array in-place products only: a casting product over
    # the Hankel view allocates NumPy's iteration buffers on every call.
    out[...] = _hankel(vec)
    out *= magnitude
    out *= phase1[:, None]
    return out


def _block_entries(v, theta, n, t, phi, r):
    """Entries of the blocks A, B, C for centered input (v, theta, n) at splitter (t, phi, r).

    The two-mode covariance matrix is [[A, C], [C^T, B]], with A and B
    symmetric.  With <a^2> = v e^{i theta} and <a^dag a> = n at the fed port
    and vacuum at the idle port, the transformed mode operators
    a1 = t e^{i phi} a1 + r a2, a2 = -r a1 + t e^{-i phi} a2 give

        A11 = t^2 [cos(theta + 2 phi) v + n] + 1/2,   A12 = t^2 v sin(theta + 2 phi),
        B   = same with r^2 and phase theta,
        C   = t r [[-(cos(theta+phi) v + cos(phi) n),  -sin(theta+phi) v + sin(phi) n],
                   [-(sin(theta+phi) v + sin(phi) n),   cos(theta+phi) v - cos(phi) n]].

    Output order: (a11, a12, a22, b11, b12, b22, c11, c12, c21, c22), as
    Python floats, the one covariance format of the oracle.  Scalar
    :mod:`math` in the same order as the broadcasting NumPy form in the
    tests, and bit for bit equal to it.
    """
    t2 = t * t
    r2 = r * r
    tr = math.sqrt(t2 * r2)
    ca, sa = math.cos(theta + 2.0 * phi), math.sin(theta + 2.0 * phi)
    cb, sb = math.cos(theta), math.sin(theta)
    cc, sc = math.cos(theta + phi), math.sin(theta + phi)
    cp, sp = math.cos(phi), math.sin(phi)
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


def _shifted_vdot(x: np.ndarray, y: np.ndarray, shift: int) -> complex:
    """sum_i conj(x[i]) y[i + shift] over the i where both exist, for 1-d x and y of one size."""
    stop = max(x.size - shift, 0)  # an explicit stop: x[:-shift] would be empty at shift 0
    return complex(np.vdot(x[:stop], y[shift:]))


def _covariance_entries(
    psi: np.ndarray, a1_psi: np.ndarray, a2_psi: np.ndarray, scratch: np.ndarray
) -> tuple[float, ...]:
    """The measured centered covariance entries of the normalized two-mode table ``psi[n1, n2]``.

    All ten independent symmetrized quadrature moments follow from the eight
    ladder expectations <a_i>, <a_i^2>, <a_i^dag a_i>, <a1 a2>, <a1^dag a2>;
    first moments are subtracted before assembly.  Returned as Python floats
    in the order of ``_block_entries``.  Each
    ladder expectation is one ``np.vdot`` of two contiguous slices of
    flattened tables, offset by the flat shift of the operator: the row
    length d2 for a1, 1 for a2.  The tables are psi weighted along one axis
    by ladder roots: A1 = sqrt(k) psi and A2 = sqrt(j) psi, read one row or
    column on, act as a1 and a2, and R1 = sqrt(k + 1) psi and R2 = sqrt(j + 1)
    psi stand on the left of the second moments <a1^2>, <a1 a2> and <a2^2>.
    A column shift runs off the end of each row into the start of the next.
    There A2's factor sqrt(0) = 0 zeroes the wrapped terms, except for the
    last column of R2, which is zeroed before <a2^2> is taken.

    ``a1_psi``, ``a2_psi`` and ``scratch`` are C-contiguous work arrays of
    psi's shape, overwritten.  Works on any (d1, d2) table, 1-wide and
    1-tall ones included.
    """
    cols = psi.shape[1]
    roots1, roots2 = _ladder_roots(psi.shape[0]), _ladder_roots(cols)
    flat, a1, a2, weighted = (array.reshape(-1) for array in (psi, a1_psi, a2_psi, scratch))
    np.multiply(psi, roots1[:-1, None], out=a1_psi)
    np.multiply(psi, roots2[:-1], out=a2_psi)
    m1 = _shifted_vdot(flat, a1, cols)
    m2 = _shifted_vdot(flat, a2, 1)
    n1 = float(np.vdot(a1, a1).real) - abs(m1) ** 2
    n2 = float(np.vdot(a2, a2).real) - abs(m2) ** 2
    # <da1^dag da2>: a1 psi is A1 one row on, a2 psi is A2 one column on.
    z = complex(np.vdot(a1[cols:], a2[1:a2.size - cols + 1])) - m1.conjugate() * m2
    np.multiply(psi, roots1[1:, None], out=scratch)
    sq1 = _shifted_vdot(weighted, a1, 2 * cols) - m1 * m1
    w = _shifted_vdot(weighted, a2, cols + 1) - m1 * m2  # <da1 da2>
    np.multiply(psi, roots2[1:], out=scratch)
    scratch[:, -1] = 0.0
    sq2 = _shifted_vdot(weighted, a2, 2) - m2 * m2
    return (
        sq1.real + n1 + 0.5, sq1.imag, -sq1.real + n1 + 0.5,
        sq2.real + n2 + 0.5, sq2.imag, -sq2.real + n2 + 0.5,
        w.real + z.real, w.imag + z.imag, w.imag - z.imag, -w.real + z.real,
    )


def _spectrum(a11, a12, a22, b11, b12, b22, c11, c12, c21, c22) -> tuple[float, float]:
    """((eta^-)^2, (eta^+)^2) of the partial transpose of the blocks with these entries.

    The partial transpose flips p2: V~ = P V P with P = diag(1, 1, 1, -1) in
    the order (x1, p1, x2, p2), positive definite as V is.  With its Cholesky
    factor L, Omega V~ is similar to the antisymmetric Y = L^T Omega L, so
    eta^-+ are the singular values of Y.  For a 4x4 antisymmetric Y they are
    (|u| -+ |w|) / 2 in either order, where u = (y12 + y34, y13 - y24,
    y14 + y23) and w = (y12 - y34, y13 + y24, y14 - y23), so that
    |u|^2 |w|^2 = Delta^2 - 4 det V with Delta = det A + det B - 2 det C.
    Taking the splitting from |u| and |w| keeps it exact to rounding at a
    degenerate spectrum (a product of coherent states has eta^- = eta^+ =
    1/2), where sqrt(Delta^2 - 4 det V) from the invariants would carry the
    square root of their rounding, about 1e-8.  Entries that are not
    positive definite give NaN.
    """
    try:
        l11 = math.sqrt(a11)
        l21, l31, l41 = a12 / l11, c11 / l11, -c12 / l11
        l22 = math.sqrt(a22 - l21 * l21)
        l32, l42 = (c21 - l31 * l21) / l22, (-c22 - l41 * l21) / l22
        l33 = math.sqrt(b11 - l31 * l31 - l32 * l32)
        l43 = (-b12 - l41 * l31 - l42 * l32) / l33
        l44 = math.sqrt(b22 - l41 * l41 - l42 * l42 - l43 * l43)
    except (ValueError, ZeroDivisionError):  # a pivot at or below 0
        return math.nan, math.nan
    # y_ij = L_1i L_2j - L_2i L_1j + L_3i L_4j - L_4i L_3j, with L lower triangular.
    y12 = l11 * l22 + l31 * l42 - l41 * l32
    y13, y14 = l31 * l43 - l41 * l33, l31 * l44
    y23, y24, y34 = l32 * l43 - l42 * l33, l32 * l44, l33 * l44
    u = math.hypot(y12 + y34, y13 - y24, y14 + y23)
    w = math.hypot(y12 - y34, y13 + y24, y14 - y23)
    minus, plus = 0.5 * abs(u - w), 0.5 * (u + w)
    return minus * minus, plus * plus


def covariance_check(
    trials: int,
    dim: int,
    seed: int,
    r_max: float = 1.5,
    alpha_max: float = 1.0,
    corrupt_phase: bool = False,
) -> float:
    """Max discrepancy between measured and closed-form covariances and spectra.

    Each trial draws a squeezed coherent state and splitter setting (PCG64
    stream from ``seed``), prepares the state on ``dim`` levels, measures its
    moments, and compares the beam-split state's ten covariance entries
    against the closed-form entries evaluated on those same measured input
    moments.  That isolates the transformation formulas from preparation
    truncation.  In the same maximum it compares (eta^-)^2 and (eta^+)^2 of
    the measured entries with ``output_spectrum`` of the measured input
    moments, the closed form behind every reported number.  The entries
    hold A12 and B12 once, so their maximum is the maximum over the twelve
    block entries.

    ``corrupt_phase`` simulates the splitter at phi + pi but predicts it at
    phi, and serves as a negative control: the discrepancy must become large.
    That phase is local to one output mode, so only the entries see it; the
    spectrum does not.

    A trial whose split state fails the norm check, or whose measured or
    predicted values are not all finite, has a NaN discrepancy, and any NaN
    discrepancy makes the result NaN: such a run fails the oracle rather
    than raising or passing.

    The dim x dim arrays of the split and its weighted tables are allocated
    once per call and refilled by every trial, through the kernels
    ``_apply_beam_splitter_images`` and ``_covariance_entries``, so trials
    give no memory back to the allocator between them.  The tables that
    depend only on ``dim`` (ladder roots, half-log-factorials and their
    Hankel sums) are built once per size and cached across calls.  One draw
    per call gives every trial's six uniform parameters.
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
        c = center(moments_from_vector(state))
        simulated = BeamSplitterParams(bs.t, bs.phi + math.pi) if corrupt_phase else bs
        _apply_beam_splitter_images(state, simulated, split, magnitude)
        try:
            _check_norm(split)
        except ValueError:  # a split state off its norm
            worst = math.nan
            continue
        measured = _covariance_entries(split, a1_psi, a2_psi, scratch)
        predicted = _block_entries(c.v, c.theta, c.n, bs.t, bs.phi, bs.r)
        measured += _spectrum(*measured)
        predicted += output_spectrum(c.v, c.n, bs.t)
        if not all(map(math.isfinite, measured + predicted)):
            worst = math.nan
        elif not math.isnan(worst):  # a NaN from an earlier trial stays
            worst = max(worst, *map(abs, map(operator.sub, measured, predicted)))
    return worst
