"""Collective atoms-field Hamiltonian, its ground state, and the field moments.

N identical two-level atoms couple to one field mode.  Because the atoms are
identical they stay on the symmetric ladder |m>, m = 0..N excited atoms, so
the joint basis |m> (x) |n> has dimension (N+1) * fock_dim rather than
2^N * fock_dim.  The field's ground-state moments feed the nonclassicality
measure.

The ground state is found in the sectors of the quantum number each model
conserves, built straight from the amplitudes of the DickeConfig the
Hamiltonian records.  Without the counter-rotating terms H conserves
k = m + n: ordered by (k, m) it is one tridiagonal matrix whose off-diagonal
vanishes between the N + fock_dim - 1 blocks, and one LAPACK call gives its
two lowest levels.  The vacuum below g_c is then the exact 1-state block
k = 0.  With them only the parity (-1)^(m + n) is conserved: each of its two
sectors is assembled from the entries of its own rows, diagonalized densely
up to DENSE_CUTOFF states and by sparse Lanczos iteration above that, and
the two sector ground energies decide the degeneracy flag.  The whole sparse
matrix is assembled only when something reads it, such as the dense and
iterative cross-checks.

In units hbar = 1:

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) (S_+ a + S_- a^dag)

plus the counter-rotating pair (g / sqrt(N)) (S_+ a^dag + S_- a) when
enabled.  The excitation-conserving form keeps <a^2> = 0 in nondegenerate
eigenstates, so a nonzero measure requires either the counter-rotating terms
or explicit mixing of a degenerate ground pair; both are exposed.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import eigh_tridiagonal

from .moments import SingleModeMoments

#: Largest parity sector of the counter-rotating model, and largest operator
#: that records no model, solved by dense diagonalization when method="auto";
#: larger ones go to Lanczos.  A sector holds dim / 2 states, so the model's
#: boundary stays at a total of 512 states, where it always was.
DENSE_CUTOFF = 256

#: Ground pairs closer than this in energy are reported as degenerate.
DEGENERACY_TOL = 1e-10

_HERMITICITY_TOL = 1e-14
#: Largest asymmetry ground_state accepts in a matrix it diagonalizes.
_SOLVE_HERMITICITY_TOL = 1e-12


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
        for name in ("n_atoms", "fock_dim"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        # Chained comparisons are False for NaN, so these also reject it.
        if not (0.0 < self.omega < math.inf and 0.0 < self.omega_eg < math.inf):
            raise ValueError("omega and omega_eg must be finite and > 0")
        if not 0.0 <= self.g < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.g}")

    @property
    def g_critical(self) -> float:
        """Superradiant threshold: sqrt(omega omega_eg), halved by the counter-rotating terms."""
        g_c = math.sqrt(self.omega * self.omega_eg)
        return 0.5 * g_c if self.counter_rotating else g_c

    @property
    def dim(self) -> int:
        return (self.n_atoms + 1) * self.fock_dim


class SparseOperator:
    """Hermitian operator in compressed sparse row form (all entries real).

    Built by hand from an explicit ``matrix``, or by build_hamiltonian from a
    ``config``, the model whose sectors ground_state builds straight from its
    amplitudes.  An operator from a config assembles ``matrix`` on first
    access and keeps it, so a sector solve never builds it.  An operator
    without a config is solved whole.
    """

    def __init__(
        self,
        dim: int,
        matrix: sparse.csr_matrix | None = None,
        config: DickeConfig | None = None,
    ):
        if (matrix is None) == (config is None):
            raise ValueError("give exactly one of matrix and config")
        if matrix is not None:
            if matrix.shape != (dim, dim):
                raise ValueError(f"matrix shape {matrix.shape} does not match dim {dim}")
            self.matrix = matrix
        elif config.dim != dim:
            raise ValueError(f"config has dim {config.dim}, operator has {dim}")
        self.dim, self.config = dim, config

    @functools.cached_property
    def matrix(self) -> sparse.csr_matrix:
        return _csr(*_entries(self.config), self.dim)

    def is_hermitian(self, tol: float = _HERMITICITY_TOL) -> bool:
        return _is_hermitian(self.matrix, tol)


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair plus solver diagnostics.

    ``iterations`` counts operator applications of the Lanczos runs, summed
    over the parity sectors, and is 0 for dense and tridiagonal solves.
    ``degenerate`` is set when the two lowest values (for the counter-rotating
    model, the two sector ground energies) sit within DEGENERACY_TOL of each
    other.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    degenerate: bool


def build_hamiltonian(cfg: DickeConfig) -> SparseOperator:
    """H on the symmetric-ladder (x) Fock basis, with its CSR matrix assembled lazily.

    Ladder amplitudes: S_+|m> = sqrt((N - m)(m + 1)) |m+1> and S_z|m> =
    (m - N/2)|m>, with a|n> = sqrt(n)|n-1>.  Without counter-rotating terms
    each row holds at most 5 nonzeros (diagonal plus two coupling pairs).
    Zero couplings (g = 0) stay stored, so the pattern does not depend on g.
    The operator records cfg; ground_state(method="auto") solves it from the
    amplitudes, and ``.matrix`` is assembled only when read.
    """
    return SparseOperator(dim=cfg.dim, config=cfg)


def _amplitudes(cfg: DickeConfig):
    """Diagonal of H and the amplitude of each coupling, the one source of both.

    diagonal[m, n] = omega n + omega_eg (m - N/2) for every state |m, n>, and
    hop[m, n - 1] = (g / sqrt(N)) sqrt((N - m)(m + 1)) sqrt(n) for m < N and
    n >= 1 is both <m+1, n-1| S_+ a |m, n> and <m+1, n| S_+ a^dag |m, n-1>.
    """
    n_atoms = cfg.n_atoms
    m = np.arange(n_atoms + 1)[:, None]
    n = np.arange(cfg.fock_dim)
    diagonal = cfg.omega * n + cfg.omega_eg * (m - n_atoms / 2.0)
    hop = cfg.g / math.sqrt(n_atoms) * np.sqrt((n_atoms - m[:-1]) * (m[:-1] + 1)) * np.sqrt(n[1:])
    return diagonal, hop


def _entries(cfg: DickeConfig):
    """(rows, cols, values) of every stored entry of H, both triangles."""
    diagonal, hop = _amplitudes(cfg)
    # Atom-major layout: |m> (x) |n>  ->  m * fock_dim + n.
    index = np.arange(cfg.dim).reshape(cfg.n_atoms + 1, cfg.fock_dim)
    raised, lowered = [index[1:, :-1]], [index[:-1, 1:]]  # S_+ a
    if cfg.counter_rotating:  # S_+ a^dag
        raised.append(index[1:, 1:])
        lowered.append(index[:-1, :-1])
    rows = np.concatenate([index, *raised, *lowered], axis=None)
    cols = np.concatenate([index, *lowered, *raised], axis=None)
    values = np.concatenate([diagonal, *[hop] * (2 * len(raised))], axis=None)
    return rows, cols, values


def _csr(rows, cols, values, dim: int) -> sparse.csr_matrix:
    return sparse.csr_matrix(sparse.coo_matrix((values, (rows, cols)), shape=(dim, dim)))


def _is_hermitian(matrix: sparse.csr_matrix, tol: float) -> bool:
    diff = matrix - matrix.T
    return diff.nnz == 0 or float(np.abs(diff.data).max()) <= tol


def _fix_gauge(vector: np.ndarray) -> np.ndarray:
    # Deterministic global sign: largest-magnitude coefficient made positive.
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0.0 else vector


def _quantum_numbers(cfg: DickeConfig):
    """Excited atoms m and photons n of every state in the atom-major layout."""
    return np.divmod(np.arange(cfg.dim), cfg.fock_dim)


def _lower_field(psi: np.ndarray) -> np.ndarray:
    """a applied to the field factor of psi, shaped (n_atoms + 1, fock_dim)."""
    a_psi = np.zeros_like(psi)
    a_psi[:, :-1] = np.sqrt(np.arange(1, psi.shape[1]))[None, :] * psi[:, 1:]
    return a_psi


def _excitation_chain(cfg: DickeConfig):
    """The co-rotating H as one tridiagonal matrix over the states ordered by (k = m + n, m).

    Returns the atom-major index and the k of each ordered state, the
    diagonal d and the off-diagonal e.  S_+ a links (m, n) only to
    (m + 1, n - 1), the next state of the same block, so e is exactly 0
    between blocks.
    """
    diagonal, hop = _amplitudes(cfg)
    m, n = _quantum_numbers(cfg)
    k = m + n
    order = np.lexsort((m, k))
    m, n, k = m[order], n[order], k[order]
    inside = np.flatnonzero(k[1:] == k[:-1])
    off_diagonal = np.zeros(cfg.dim - 1)
    off_diagonal[inside] = hop[m[inside], n[inside] - 1]
    return order, k, diagonal.ravel()[order], off_diagonal


def _lowest_pair_excitation(cfg: DickeConfig):
    """Two lowest eigenpairs of the co-rotating model from one tridiagonal solve.

    LAPACK's bisection and inverse iteration split the chain where its
    off-diagonal is 0, so each vector lies inside one block.  When the two
    lowest levels are degenerate, every level within DEGENERACY_TOL of the
    lowest is taken and the two of lowest k are kept, lower k first: at
    g = g_c the vacuum (k = 0) and the lowest k = 1 level cross, and the
    vacuum is reported with its own energy.
    """
    order, k, diagonal, off_diagonal = _excitation_chain(cfg)
    energies, vectors = eigh_tridiagonal(diagonal, off_diagonal, select="i", select_range=(0, 1))
    if energies[1] - energies[0] < DEGENERACY_TOL:
        # A tie can span more than two blocks, as when omega << omega_eg.
        margin = max(DEGENERACY_TOL, 4.0 * np.spacing(abs(energies[0])))
        energies, vectors = eigh_tridiagonal(
            diagonal, off_diagonal, select="v",
            select_range=(energies[0] - margin, energies[0] + margin),
        )
        by_k = np.argsort(k[np.argmax(np.abs(vectors), axis=0)], kind="stable")[:2]
        energies, vectors = energies[by_k], vectors[:, by_k]
    pair = np.zeros((cfg.dim, len(energies)))
    pair[order] = vectors

    def apply(x):  # H x: in the chain's order the tridiagonal matrix is H
        chained = x[order]
        h_chained = diagonal * chained
        h_chained[:-1] += off_diagonal * chained[1:]
        h_chained[1:] += off_diagonal * chained[:-1]
        h_x = np.empty_like(x)
        h_x[order] = h_chained
        return h_x

    return energies, pair, 0, True, apply


def _parity_sectors(cfg: DickeConfig):
    """(states, CSR matrix) of each parity sector (m + n) mod 2, even first.

    Each sector is assembled from the entries of its own rows: H conserves
    the parity, so their columns lie in the same sector.
    """
    m, n = _quantum_numbers(cfg)
    parity = (m + n) % 2
    rows, cols, values = _entries(cfg)
    position = np.empty(cfg.dim, dtype=np.intp)  # index of each state inside its sector
    sectors = []
    for p in (0, 1):
        states = np.flatnonzero(parity == p)
        position[states] = np.arange(len(states))
        keep = parity[rows] == p
        matrix = _csr(position[rows[keep]], position[cols[keep]], values[keep], len(states))
        sectors.append((states, matrix))
    return sectors


def _lowest_pair_parity(cfg: DickeConfig, tol: float, max_iter: int):
    """Ground pair of each parity sector of the counter-rotating model.

    H conserves the parity (-1)^(m + n).  A sector of at most DENSE_CUTOFF
    states is diagonalized densely; a larger one goes to k = 1 Lanczos started
    from (-1)^m.  In that gauge the off-diagonals of H are <= 0, so the ground
    vector of a connected sector is positive (Perron-Frobenius) and cannot be
    orthogonal to the start vector.  The even sector comes first unless the
    odd one lies lower.
    """
    sectors = _parity_sectors(cfg)
    if not all(_is_hermitian(matrix, _SOLVE_HERMITICITY_TOL) for _, matrix in sectors):
        raise ValueError("operator is not Hermitian")

    def apply(x):
        h_x = np.empty_like(x)
        for states, matrix in sectors:
            h_x[states] = matrix @ x[states]
        return h_x

    energies, pair = np.zeros(2), np.zeros((cfg.dim, 2))
    matvecs, converged = 0, True
    for parity, (states, matrix) in enumerate(sectors):
        if len(states) <= DENSE_CUTOFF:
            values, vectors = np.linalg.eigh(matrix.toarray())
        else:
            start = np.where(states // cfg.fock_dim % 2, -1.0, 1.0) / math.sqrt(len(states))
            values, vectors, count, done = _lowest_lanczos(matrix, tol, max_iter, 1, start)
            matvecs, converged = matvecs + count, converged and done
            if values is None:
                return None, None, matvecs, False, apply
        energies[parity], pair[states, parity] = values[0], vectors[:, 0]
    if energies[1] < energies[0]:
        return energies[::-1], pair[:, ::-1], matvecs, converged, apply
    return energies, pair, matvecs, converged, apply


def _lowest_pair_whole(operator: SparseOperator, method: str, tol: float, max_iter: int):
    """Two lowest eigenpairs of the whole matrix, dense or by k = 2 Lanczos."""
    matrix = operator.matrix
    if not _is_hermitian(matrix, _SOLVE_HERMITICITY_TOL):
        raise ValueError("operator is not Hermitian")
    if method == "dense" or (method == "auto" and operator.dim <= DENSE_CUTOFF):
        energies, vectors = np.linalg.eigh(matrix.toarray())
        return energies[:2], vectors[:, :2], 0, True, matrix.__matmul__
    uniform = np.full(operator.dim, 1.0 / math.sqrt(operator.dim))
    return (*_lowest_lanczos(matrix, tol, max_iter, 2, uniform), matrix.__matmul__)


def _lowest_lanczos(matrix: sparse.csr_matrix, tol: float, max_iter: int, k: int, v0: np.ndarray):
    """k lowest eigenpairs by ARPACK Lanczos from v0, ascending, with the matvec count."""
    dim = matrix.shape[0]
    matvecs = [0]

    def matvec(x):
        matvecs[0] += 1
        return matrix @ x

    operator = sparse_linalg.LinearOperator((dim, dim), matvec=matvec, dtype=float)
    # ARPACK's tolerance is relative to the Ritz value, so the requested
    # absolute residual is divided by the matrix norm.  It is additionally
    # floored at 1e-11: the degeneracy flag compares two lowest values to
    # DEGENERACY_TOL, and a loosely converged run can return a wrong-order
    # second value or sector energies too coarse for that comparison.
    norm_1 = float(np.abs(matrix).sum(axis=0).max())
    arpack_tol = min(tol / max(1.0, norm_1), 1e-11)
    try:
        energies, vectors = sparse_linalg.eigsh(
            operator, k=k, which="SA", v0=v0, tol=arpack_tol,
            maxiter=max_iter,
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

    method: "auto" solves an operator from build_hamiltonian in the sectors
    of the quantum number its model conserves.  The co-rotating model is one
    tridiagonal matrix ordered by excitation number k = m + n, and the two
    lowest levels over all blocks come from one LAPACK call.  The
    counter-rotating model is solved in its two parity sectors, and the two
    sector ground energies are the pair compared for degeneracy.  Neither
    path can miss a ground state orthogonal to a start vector, such as the
    co-rotating k = 1 level just above g_c or the odd member of the parity
    doublet above g_c.  Both paths build what they diagonalize from the
    model's amplitudes and never assemble the whole matrix; the residual is
    still that of the whole H.  An operator that records no model is solved
    whole: densely up to DENSE_CUTOFF states, by Lanczos (ARPACK, uniform
    positive start vector) above that.  "dense" and "iterative" force a
    whole-matrix dense or Lanczos solve; they are the cross-checks of the
    sector paths.  Every explicit or sector matrix must be symmetric to
    within 1e-12, or ValueError is raised.

    The two lowest values are always computed so near-degenerate ground
    spaces are detected rather than silently resolved.  By default the first
    member of the pair is returned: the lowest value, the lower k or the even
    sector on a tie.  ``mix_degenerate=True`` instead returns the normalized
    sum of the two vectors when they are degenerate, emulating
    symmetry-broken numerics; for an operator from build_hamiltonian the
    relative sign makes <a> the larger of the two choices, so the exact
    (psi_even +- psi_odd) / sqrt(2) has real <a> >= 0.  The global sign is
    fixed by making the largest-magnitude coefficient positive.
    """
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    cfg = operator.config
    try:
        if method == "auto" and cfg is not None and cfg.counter_rotating:
            solved = _lowest_pair_parity(cfg, tol, max_iter)
        elif method == "auto" and cfg is not None:
            solved = _lowest_pair_excitation(cfg)
        else:
            solved = _lowest_pair_whole(operator, method, tol, max_iter)
    except np.linalg.LinAlgError:  # LAPACK did not converge, e.g. on entries near overflow
        solved = None, None, 0, False, None
    energies, vectors, iterations, converged, apply = solved
    if energies is None:
        return GroundStateResult(
            energy=math.nan, vector=np.full(operator.dim, np.nan), residual=math.inf,
            iterations=iterations, converged=False, degenerate=False,
        )

    energy = float(energies[0])
    degenerate = len(energies) > 1 and abs(energies[1] - energies[0]) < DEGENERACY_TOL
    vector = _fix_gauge(vectors[:, 0])
    if mix_degenerate and degenerate:
        other = _fix_gauge(vectors[:, 1])
        if cfg is not None:
            shape = (cfg.n_atoms + 1, cfg.fock_dim)
            u, w = vector.reshape(shape), other.reshape(shape)
            # <a> of (u + s w) / sqrt(2) is its diagonal part plus s times this.
            if np.vdot(u, _lower_field(w)) + np.vdot(w, _lower_field(u)) < 0.0:
                other = -other
        pair = vector + other
        vector = _fix_gauge(pair / np.linalg.norm(pair))
    residual = float(np.linalg.norm(apply(vector) - energy * vector))
    if converged and residual > tol:
        converged = False
    return GroundStateResult(
        energy=energy,
        vector=vector,
        residual=residual,
        iterations=iterations,
        converged=converged,
        degenerate=bool(degenerate),
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
    a_psi = _lower_field(psi)
    aa_psi = _lower_field(a_psi)
    return SingleModeMoments(
        mean_a=complex(np.vdot(psi, a_psi)),
        a_squared=complex(np.vdot(psi, aa_psi)),
        photon_number=float(np.vdot(a_psi, a_psi).real),
    )
