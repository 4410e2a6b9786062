"""Collective atoms-field Hamiltonian, its ground state, and the field moments.

N identical two-level atoms couple to one field mode.  Because the atoms are
identical they stay on the symmetric ladder |m>, m = 0..N excited atoms, so
the joint basis |m> (x) |n> has dimension (N+1) * fock_dim rather than
2^N * fock_dim.  The field's ground-state moments feed the nonclassicality
measure.

The ground state is found in the sectors of the quantum number each model
conserves, built straight from the amplitudes of its DickeConfig.  Without
the counter-rotating terms H conserves k = m + n: ordered by (k, m) it is
one tridiagonal matrix whose off-diagonal vanishes between the
N + fock_dim - 1 blocks, and one LAPACK call gives its two lowest levels.
The vacuum below g_c is then the exact 1-state block k = 0.  With them only
the parity (-1)^(m + n) is conserved: each of its two sectors is assembled
from the entries of its own rows and solved by sparse Lanczos iteration,
and the two sector ground energies decide the degeneracy flag.  The whole
sparse matrix is assembled only by build_hamiltonian, the reference the
tests solve densely.

In units hbar = 1:

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) (S_+ a + S_- a^dag)

plus the counter-rotating pair (g / sqrt(N)) (S_+ a^dag + S_- a) when
enabled.  The excitation-conserving form keeps <a^2> = 0 in nondegenerate
eigenstates, so a nonzero measure requires either the counter-rotating terms
or explicit mixing of a degenerate ground pair; both are exposed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import eigh_tridiagonal

from .fock import _lower, _mode_moments, _tail_weight
from .moments import SingleModeMoments

#: Ground pairs closer than this in energy are reported as degenerate.
DEGENERACY_TOL = 1e-10

#: Largest whole-H residual ||H v - E v|| of a converged ground state.
RESIDUAL_TOL = 1e-9


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
        # The diagonal's spread plus the four couplings a row can hold bound
        # ||H||; double precision must resolve energies of that size to the
        # degeneracy tolerance.  Then no solver or residual overflows either.
        n_atoms, top = self.n_atoms, self.fock_dim - 1
        m = (n_atoms - 1) // 2  # where (N - m)(m + 1), the S_+ amplitude squared, peaks
        coupling = self.g / math.sqrt(n_atoms) * math.sqrt((n_atoms - m) * (m + 1)) * math.sqrt(top)
        bound = self.omega * top + self.omega_eg * n_atoms + 4.0 * coupling
        if not bound * np.finfo(float).eps <= DEGENERACY_TOL:
            raise ValueError(f"omega (fock_dim - 1) + omega_eg n_atoms + 4 x largest coupling = "
                             f"{bound:g} is too large to resolve {DEGENERACY_TOL:g} in double precision")

    @property
    def g_critical(self) -> float:
        """Superradiant threshold: sqrt(omega omega_eg), halved by the counter-rotating terms."""
        g_c = math.sqrt(self.omega * self.omega_eg)
        return 0.5 * g_c if self.counter_rotating else g_c

    @property
    def dim(self) -> int:
        return (self.n_atoms + 1) * self.fock_dim


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair plus solver diagnostics.

    ``iterations`` counts operator applications of the Lanczos runs, summed
    over the parity sectors, and is 0 for the co-rotating tridiagonal solve
    and when a solver raised.  ``degenerate`` is set when the two lowest
    values (for the counter-rotating model, the two sector ground energies)
    sit within DEGENERACY_TOL of each other.  An unconverged result
    (``converged`` False) carries NaN energy and vector and is never
    degenerate.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    degenerate: bool


def build_hamiltonian(cfg: DickeConfig) -> sparse.csr_matrix:
    """H on the symmetric-ladder (x) Fock basis, as a CSR matrix.

    Ladder amplitudes: S_+|m> = sqrt((N - m)(m + 1)) |m+1> and S_z|m> =
    (m - N/2)|m>, with a|n> = sqrt(n)|n-1>.  Without counter-rotating terms
    each row holds at most 5 nonzeros (diagonal plus two coupling pairs).
    Zero couplings (g = 0) stay stored, so the pattern does not depend on g.
    Each coupling and its transpose are written from the same amplitude, so
    the matrix is exactly symmetric.  ground_state(cfg) does not need it: it
    builds its sectors from the amplitudes, so this matrix serves as the
    independent reference of the tests.
    """
    return _csr(*_entries(cfg), cfg.dim)


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


def _fix_gauge(vector: np.ndarray) -> np.ndarray:
    # Deterministic global sign: largest-magnitude coefficient made positive.
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0.0 else vector


def _quantum_numbers(cfg: DickeConfig):
    """Excited atoms m and photons n of every state in the atom-major layout."""
    return np.divmod(np.arange(cfg.dim), cfg.fock_dim)


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

    return energies, pair, 0, apply


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


def _lowest_pair_parity(cfg: DickeConfig):
    """Ground pair of each parity sector of the counter-rotating model.

    H conserves the parity (-1)^(m + n).  Each sector, down to the 2 states
    of the smallest model, goes to k = 1 Lanczos from the alternating start
    vector.  The even sector comes first unless the odd one lies lower.
    """
    sectors = _parity_sectors(cfg)

    def apply(x):
        h_x = np.empty_like(x)
        for states, matrix in sectors:
            h_x[states] = matrix @ x[states]
        return h_x

    energies, pair = np.zeros(2), np.zeros((cfg.dim, 2))
    matvecs = 0
    for parity, (states, matrix) in enumerate(sectors):
        start = _alternating_start(states, cfg.fock_dim)
        energies[parity], pair[states, parity], count = _lowest_lanczos(matrix, start)
        matvecs += count
    if energies[1] < energies[0]:
        return energies[::-1], pair[:, ::-1], matvecs, apply
    return energies, pair, matvecs, apply


def _alternating_start(states: np.ndarray, fock_dim: int) -> np.ndarray:
    """Normalized (-1)^m over the given states: the Lanczos start vector.

    In that gauge the off-diagonals of H are <= 0, so a connected block's or
    sector's ground vector is positive (Perron-Frobenius), never orthogonal to it.
    """
    return np.where(states // fock_dim % 2, -1.0, 1.0) / math.sqrt(len(states))


def _lowest_lanczos(matrix: sparse.csr_matrix, v0: np.ndarray):
    """Lowest eigenvalue and vector by ARPACK Lanczos from v0, with the matvec count.

    Raises ArpackNoConvergence when ARPACK runs out of restarts.
    """
    dim = matrix.shape[0]
    matvecs = [0]

    def matvec(x):
        matvecs[0] += 1
        return matrix @ x

    operator = sparse_linalg.LinearOperator((dim, dim), matvec=matvec, dtype=float)
    # ARPACK's tolerance is relative to the Ritz value, so the absolute
    # residual tolerance is divided by the matrix norm.  It is additionally
    # floored at 1e-11: the degeneracy flag compares the two sector ground
    # energies to DEGENERACY_TOL, and a loosely converged run leaves them
    # too coarse for that comparison.
    norm_1 = float(np.abs(matrix).sum(axis=0).max())
    arpack_tol = min(RESIDUAL_TOL / max(1.0, norm_1), 1e-11)
    try:
        energies, vectors = sparse_linalg.eigsh(operator, k=1, which="SA", v0=v0, tol=arpack_tol)
    except sparse_linalg.ArpackNoConvergence:
        raise  # a subclass of ArpackError, but not the failure handled below
    except sparse_linalg.ArpackError:
        # ARPACK stops where H v0 = 0, as in the odd sector of N = 1 and
        # fock_dim = 2 at g = g_c.  An eigenvector v0 is positive in the gauge
        # of _alternating_start, so it is the ground one (Perron-Frobenius).
        # Whether v0 is one is left to the residual check of ground_state.
        return v0 @ matvec(v0), v0, matvecs[0]
    return energies[0], vectors[:, 0], matvecs[0]


def ground_state(cfg: DickeConfig, mix_degenerate: bool = False) -> GroundStateResult:
    """Lowest eigenpair of the Hamiltonian of cfg.

    H is solved in the sectors of the quantum number the model conserves,
    built from its amplitudes as the module docstring describes; the whole
    matrix is never assembled, but the residual is that of the whole H.  No
    ground state is missed for being orthogonal to a start vector, such as
    the co-rotating k = 1 level just above g_c or the odd member of the
    parity doublet.

    Convergence is decided here alone: a result whose whole-H residual
    exceeds RESIDUAL_TOL or is NaN, or whose solver raised, is returned
    with NaN energy and vector, converged=False and degenerate=False.
    DickeConfig admits only models whose energies double precision resolves
    to DEGENERACY_TOL, so no entry, vector or residual here can overflow.

    The two lowest values are always computed so near-degenerate ground
    spaces are detected rather than silently resolved.  By default the first
    member of the pair is returned: the lowest value, the lower k or the even
    sector on a tie.  ``mix_degenerate=True`` instead returns the normalized
    sum of the two vectors when they are degenerate, emulating
    symmetry-broken numerics; the relative sign makes <a> the larger of the
    two choices, so the exact (psi_even +- psi_odd) / sqrt(2) has real
    <a> >= 0.  The global sign is fixed by making the largest-magnitude
    coefficient positive.
    """
    try:
        if cfg.counter_rotating:
            energies, vectors, iterations, apply = _lowest_pair_parity(cfg)
        else:
            energies, vectors, iterations, apply = _lowest_pair_excitation(cfg)
    except (sparse_linalg.ArpackNoConvergence, np.linalg.LinAlgError):
        # ARPACK ran out of restarts, or LAPACK did not converge.
        return _unconverged(cfg, math.inf, 0)

    energy = float(energies[0])
    degenerate = len(energies) > 1 and abs(energies[1] - energies[0]) < DEGENERACY_TOL
    vector = _fix_gauge(vectors[:, 0])
    if mix_degenerate and degenerate:
        other = _fix_gauge(vectors[:, 1])
        shape = (cfg.n_atoms + 1, cfg.fock_dim)
        u, w = vector.reshape(shape), other.reshape(shape)
        # <a> of (u + s w) / sqrt(2) is its diagonal part plus s times this.
        if np.vdot(u, _lower(w)) + np.vdot(w, _lower(u)) < 0.0:
            other = -other
        pair = vector + other
        vector = _fix_gauge(pair / np.linalg.norm(pair))
    residual = float(np.linalg.norm(apply(vector) - energy * vector))
    if not residual <= RESIDUAL_TOL:  # NaN included
        return _unconverged(cfg, residual, iterations)
    return GroundStateResult(
        energy=energy,
        vector=vector,
        residual=residual,
        iterations=iterations,
        converged=True,
        degenerate=bool(degenerate),
    )


def _unconverged(cfg: DickeConfig, residual: float, iterations: int) -> GroundStateResult:
    return GroundStateResult(
        energy=math.nan, vector=np.full(cfg.dim, np.nan), residual=residual,
        iterations=iterations, converged=False, degenerate=False,
    )


def fock_tail_weight(result: GroundStateResult, cfg: DickeConfig) -> float:
    """Largest squared amplitude on the two highest retained Fock levels.

    At or above fock.TAIL_TOL the field is truncated, by the test of
    FockVector.truncation_healthy: two levels, because a parity-symmetric
    ground state leaves every other level empty.
    """
    return _tail_weight(result.vector.reshape(cfg.n_atoms + 1, cfg.fock_dim))


def field_moments(result: GroundStateResult, cfg: DickeConfig) -> SingleModeMoments:
    """<a>, <a^2>, <a^dag a> of the field factor of a ground-state vector."""
    return _mode_moments(result.vector.reshape(cfg.n_atoms + 1, cfg.fock_dim))
