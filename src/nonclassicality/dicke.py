"""Collective atoms-field Hamiltonian, its ground state, and the field moments.

N identical two-level atoms couple to one field mode.  Because the atoms are
identical they stay on the symmetric ladder |m>, m = 0..N excited atoms, so
the joint basis |m> (x) |n> has dimension (N+1) * fock_dim rather than
2^N * fock_dim.  The field's ground-state moments feed the nonclassicality
measure.

The ground state is found block by block where H allows it.  Without the
counter-rotating terms H conserves k = m + n, so it splits into N + fock_dim - 1
blocks of at most min(N + 1, fock_dim) states, each diagonalized densely; the
vacuum below g_c is then the exact 1-state block k = 0.  With them only the
parity (-1)^(m + n) is conserved: its two sectors are diagonalized densely up
to a total of 2 * DENSE_CUTOFF states, and above that the whole matrix goes to
sparse Lanczos iteration.

In units hbar = 1:

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) (S_+ a + S_- a^dag)

plus the counter-rotating pair (g / sqrt(N)) (S_+ a^dag + S_- a) when
enabled.  The excitation-conserving form keeps <a^2> = 0 in nondegenerate
eigenstates, so a nonzero measure requires either the counter-rotating terms
or explicit mixing of a degenerate ground pair; both are exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from .moments import SingleModeMoments

#: Largest connected block of H solved by dense diagonalization when
#: method="auto"; an operator with a larger block goes to Lanczos whole.  The
#: counter-rotating model splits into two parity sectors of dim / 2 states, so
#: 256 keeps its boundary at a total of 512 states, where it always was.
DENSE_CUTOFF = 256

#: Ground pairs closer than this in energy are reported as degenerate.
DEGENERACY_TOL = 1e-10

_HERMITICITY_TOL = 1e-14


@dataclass(frozen=True)
class DickeConfig:
    """System sizes, frequencies and coupling; g_critical is always derived."""

    n_atoms: int
    fock_dim: int
    omega: float = 1.0
    omega_eg: float = 1.0
    g: float = 0.0
    counter_rotating: bool = False

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        if self.omega <= 0.0 or self.omega_eg <= 0.0:
            raise ValueError("omega and omega_eg must be > 0")
        if self.g < 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.g}")

    @property
    def g_critical(self) -> float:
        """Superradiant threshold: sqrt(omega omega_eg), halved by the counter-rotating terms."""
        g_c = math.sqrt(self.omega * self.omega_eg)
        return 0.5 * g_c if self.counter_rotating else g_c

    @property
    def dim(self) -> int:
        return (self.n_atoms + 1) * self.fock_dim


@dataclass(frozen=True)
class SparseOperator:
    """Hermitian operator in compressed sparse row form (all entries real)."""

    dim: int
    matrix: sparse.csr_matrix

    def __post_init__(self):
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dim {self.dim}"
            )

    def is_hermitian(self, tol: float = _HERMITICITY_TOL) -> bool:
        diff = self.matrix - self.matrix.T
        return diff.nnz == 0 or float(np.abs(diff.data).max()) <= tol


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair plus solver diagnostics.

    ``iterations`` counts operator applications for the iterative path and is
    0 for dense and block solves.  ``degenerate`` is set when the two lowest
    values sit within DEGENERACY_TOL of each other.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    degenerate: bool


def build_hamiltonian(cfg: DickeConfig) -> SparseOperator:
    """Assemble H on the symmetric-ladder (x) Fock basis.

    Ladder amplitudes: S_+|m> = sqrt((N - m)(m + 1)) |m+1> and S_z|m> =
    (m - N/2)|m>, with a|n> = sqrt(n)|n-1>.  Without counter-rotating terms
    each row holds at most 5 nonzeros (diagonal plus two coupling pairs).
    Zero couplings (g = 0) stay stored, so the pattern does not depend on g.
    """
    n_atoms, fock_dim = cfg.n_atoms, cfg.fock_dim
    coupling = cfg.g / math.sqrt(n_atoms)
    # Atom-major layout: |m> (x) |n>  ->  m * fock_dim + n.
    index = np.arange(cfg.dim).reshape(n_atoms + 1, fock_dim)
    m = np.arange(n_atoms + 1)[:, None]
    n = np.arange(fock_dim)
    diagonal = cfg.omega * n + cfg.omega_eg * (m - n_atoms / 2.0)
    # <m+1, n-1| S_+ a |m, n> and <m+1, n| S_+ a^dag |m, n-1> share one
    # amplitude array over m < N, n >= 1.
    amp = coupling * np.sqrt((n_atoms - m[:-1]) * (m[:-1] + 1)) * np.sqrt(n[1:])
    raised, lowered = [index[1:, :-1]], [index[:-1, 1:]]  # S_+ a
    if cfg.counter_rotating:  # S_+ a^dag
        raised.append(index[1:, 1:])
        lowered.append(index[:-1, :-1])
    rows = np.concatenate([index, *raised, *lowered], axis=None)
    cols = np.concatenate([index, *lowered, *raised], axis=None)
    vals = np.concatenate([diagonal, *[amp] * (2 * len(raised))], axis=None)
    matrix = sparse.csr_matrix(
        sparse.coo_matrix((vals, (rows, cols)), shape=(cfg.dim, cfg.dim))
    )
    return SparseOperator(dim=cfg.dim, matrix=matrix)


def _fix_gauge(vector: np.ndarray) -> np.ndarray:
    # Deterministic global sign: largest-magnitude coefficient made positive.
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0.0 else vector


def _lowest_pair_dense(matrix: sparse.csr_matrix):
    energies, vectors = np.linalg.eigh(matrix.toarray())
    return energies[:2], vectors[:, :2]


def _lowest_pair_blocks(matrix: sparse.csr_matrix, labels: np.ndarray):
    """Two lowest eigenpairs from a dense eigh of every connected block.

    Blocks are laid out by (size, label), so each size is one contiguous
    diagonal range of the permuted matrix and one batched eigh.  Energy ties
    break by block label, then by level within the block, so reruns pick the
    same pair.  The stacks hold at most DENSE_CUTOFF * dim entries.
    """
    dim = matrix.shape[0]
    sizes = np.bincount(labels)
    order = np.lexsort((np.arange(dim), labels, sizes[labels]))
    permuted = matrix[order][:, order]
    candidates = []  # (energy, label, level, block states, block vector)
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        stop = start + size * count
        lo, hi = permuted.indptr[start], permuted.indptr[stop]
        rows = np.repeat(np.arange(size * count), np.diff(permuted.indptr[start:stop + 1]))
        cols = permuted.indices[lo:hi] - start
        stack = np.zeros((count, size, size))
        stack[rows // size, rows % size, cols % size] = permuted.data[lo:hi]
        energies, vectors = np.linalg.eigh(stack)
        for block, states in enumerate(order[start:stop].reshape(count, size)):
            for level in range(min(2, size)):
                candidates.append((energies[block, level], labels[states[0]], level,
                                   states, vectors[block, :, level]))
        start = stop
    lowest = sorted(candidates, key=lambda c: c[:3])[:2]
    pair = np.zeros((dim, len(lowest)))
    for j, (_, _, _, states, vector) in enumerate(lowest):
        pair[states, j] = vector
    return np.array([c[0] for c in lowest]), pair


def _lowest_pair_lanczos(matrix: sparse.csr_matrix, tol: float, max_iter: int):
    dim = matrix.shape[0]
    matvecs = [0]

    def matvec(x):
        matvecs[0] += 1
        return matrix @ x

    operator = sparse_linalg.LinearOperator((dim, dim), matvec=matvec, dtype=float)
    v0 = np.full(dim, 1.0 / math.sqrt(dim))
    ncv = min(dim, 40)
    # ARPACK's tolerance is relative to the Ritz value, so the requested
    # absolute residual is divided by the matrix norm.  It is additionally
    # floored at 1e-11: a loosely converged run can return a correct ground
    # value next to a wrong-order second value, silently skipping the
    # quasi-degenerate partner the degeneracy flag exists to detect.
    norm_1 = float(np.abs(matrix).sum(axis=0).max())
    arpack_tol = min(tol / max(1.0, norm_1), 1e-11)
    try:
        energies, vectors = sparse_linalg.eigsh(
            operator, k=2, which="SA", v0=v0, tol=arpack_tol,
            maxiter=max_iter, ncv=ncv,
        )
    except sparse_linalg.ArpackNoConvergence as exc:
        if exc.eigenvalues is not None and len(exc.eigenvalues) > 0:
            order = np.argsort(exc.eigenvalues)
            return exc.eigenvalues[order], exc.eigenvectors[:, order], matvecs[0], False
        return None, None, matvecs[0], False
    order = np.argsort(energies)
    return energies[order], vectors[:, order], matvecs[0], True


def ground_state(
    operator: SparseOperator,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    method: str = "auto",
    mix_degenerate: bool = False,
) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian sparse operator.

    method: "auto" finds the connected blocks of H's sparsity pattern.  When
    none has more than DENSE_CUTOFF states, every block is diagonalized
    densely and the two lowest levels over all blocks are kept, with the
    vectors embedded in the full space.  Otherwise the whole matrix goes to
    Lanczos (ARPACK, deterministic uniform positive start vector).  Unlike
    Lanczos, the block path cannot miss a ground state orthogonal to that
    start vector, such as the co-rotating k = 1 level just above g_c.
    "dense" and "iterative" force a whole-matrix dense or Lanczos solve; they
    are the cross-checks of the block path.

    The two lowest values are always computed so near-degenerate ground
    spaces are detected rather than silently resolved.  By default the
    converged Ritz vector is returned as-is; ``mix_degenerate=True`` instead
    returns the equal-weight sum of the two vectors when they are degenerate,
    emulating symmetry-broken numerics.  The global sign is fixed by making
    the largest-magnitude coefficient positive.
    """
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if not operator.is_hermitian(tol=1e-12):
        raise ValueError("operator is not Hermitian")
    matrix = operator.matrix
    labels = None
    if method == "auto":
        # Imported here: csgraph adds about 1 MB that the other commands never use.
        from scipy.sparse.csgraph import connected_components

        labels = connected_components(matrix, directed=False)[1]
        if np.bincount(labels).max() > DENSE_CUTOFF:
            labels = None
    if labels is not None:
        energies, vectors = _lowest_pair_blocks(matrix, labels)
        iterations, converged = 0, True
    elif method == "dense":
        energies, vectors = _lowest_pair_dense(matrix)
        iterations, converged = 0, True
    else:
        energies, vectors, iterations, converged = _lowest_pair_lanczos(
            matrix, tol, max_iter
        )
        if energies is None:
            nan_vec = np.full(operator.dim, np.nan)
            return GroundStateResult(
                energy=math.nan, vector=nan_vec, residual=math.inf,
                iterations=iterations, converged=False, degenerate=False,
            )

    energy = float(energies[0])
    gap = float(energies[1] - energies[0]) if len(energies) > 1 else math.inf
    degenerate = gap < DEGENERACY_TOL
    vector = _fix_gauge(vectors[:, 0])
    if mix_degenerate and degenerate:
        pair = _fix_gauge(vectors[:, 0]) + _fix_gauge(vectors[:, 1])
        vector = _fix_gauge(pair / np.linalg.norm(pair))
    residual = float(np.linalg.norm(matrix @ vector - energy * vector))
    if converged and residual > tol:
        converged = False
    return GroundStateResult(
        energy=energy,
        vector=vector,
        residual=residual,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
    )


def fock_tail_weight(result: GroundStateResult, cfg: DickeConfig) -> float:
    """Largest squared amplitude on the two highest retained Fock levels.

    At or above fock.TAIL_TOL the field is truncated, by the test of
    FockVector.truncation_healthy: two levels, because a parity-symmetric
    ground state leaves every other level empty.
    """
    psi = result.vector.reshape(cfg.n_atoms + 1, cfg.fock_dim)
    return float(np.max(np.abs(psi[:, -2:]) ** 2))


def field_moments(result: GroundStateResult, cfg: DickeConfig) -> SingleModeMoments:
    """<a>, <a^2>, <a^dag a> of the field factor of a ground-state vector."""
    psi = result.vector.reshape(cfg.n_atoms + 1, cfg.fock_dim)
    root_n = np.sqrt(np.arange(1, cfg.fock_dim))
    a_psi = np.zeros_like(psi)
    a_psi[:, :-1] = root_n[None, :] * psi[:, 1:]
    aa_psi = np.zeros_like(psi)
    aa_psi[:, :-1] = root_n[None, :] * a_psi[:, 1:]
    return SingleModeMoments(
        mean_a=complex(np.vdot(psi, a_psi)),
        a_squared=complex(np.vdot(psi, aa_psi)),
        photon_number=float(np.vdot(a_psi, a_psi).real),
    )
