"""Collective atoms-field Hamiltonian, its ground state, and the field moments.

N identical two-level atoms couple to one field mode.  Because the atoms are
identical they stay on the symmetric ladder |m>, m = 0..N excited atoms, so
the joint basis |m> (x) |n> has dimension (N+1) * fock_dim rather than
2^N * fock_dim.  The field's ground-state moments feed the nonclassicality
measure.

The ground state is found in the sectors of the quantum number each model
conserves.  Each size and model has one cached sector layout, a template of
photon numbers, atomic offsets and ladder factors that the frequencies and
g of a DickeConfig scale.  Without the counter-rotating terms H
conserves k = m + n: its one sector, ordered by (k, m), is a tridiagonal
matrix whose off-diagonal vanishes between its N + fock_dim blocks.  The
lowest levels of three adjacent blocks, around a local minimum of the block
levels found by walking from the block of the chain's least Gershgorin row
floor, bound its second level, and one LAPACK bisection below that bound
gives its two lowest levels.  The vacuum below g_c is then the exact
1-state block k = 0.  With them only the parity (-1)^(m + n) is
conserved: each of its two sectors is a banded matrix, and its ground state
is found by a certified inverse iteration on banded Cholesky factors.  Only
the even sector is solved as a rule: whether the odd sector lies lower, or
within DEGENERACY_TOL of the even ground energy, which sets the degeneracy
flag, is decided by whether its banded Cholesky factorization exists at
shifts around that energy.  In the gauge (-1)^m every off-diagonal entry
of a sector is <= 0.  The whole matrix is never assembled.

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
from scipy.linalg import get_lapack_funcs

from .fock import _lower, _mode_moments, _tail_weight
from .moments import SingleModeMoments

#: Ground pairs closer than this in energy are reported as degenerate.
DEGENERACY_TOL = 1e-10

#: Largest whole-H residual ||H v - E v|| of a converged ground state.
RESIDUAL_TOL = 1e-9

#: Banded solves one parity sector may take before it counts as unconverged.
MAX_SOLVES = 100

#: Distance of each shift below the Collatz-Wielandt bound, in units of eps ||H||.
SHIFT_MARGIN = 64.0

#: A sector's residual has stopped falling once a solve leaves it above
#: STALL times its previous value.
STALL = 1e-4

#: Sizes and models (n_atoms, fock_dim, counter_rotating) whose sector
#: layouts stay cached.
LAYOUT_CACHE = 8

#: LAPACK's banded Cholesky factorization and solve, bound once: each
#: sector takes several solves, and every one of them would look these up.
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)

#: LAPACK's tridiagonal bisection and inverse iteration, bound once for the
#: same reason: each co-rotating row bisects several k blocks.
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), dtype=np.float64)

#: Smallest normal double, bound once for the same reason.
_TINY = np.finfo(float).tiny


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
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # A truthy string such as "no" would otherwise pick the counter-rotating model.
        if not isinstance(self.counter_rotating, (bool, np.bool_)):
            raise ValueError(f"counter_rotating must be a bool, got {self.counter_rotating!r}")
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
        # omega omega_eg underflows at 1e-300 each; split off the exponents, which scale exactly.
        (m1, e1), (m2, e2) = math.frexp(self.omega), math.frexp(self.omega_eg)
        e = e1 + e2
        g_c = math.ldexp(math.sqrt(math.ldexp(m1 * m2, e % 2)), e // 2)
        return 0.5 * g_c if self.counter_rotating else g_c

    @property
    def dim(self) -> int:
        return (self.n_atoms + 1) * self.fock_dim


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair plus solver diagnostics.

    ``iterations`` counts the banded solves, summed over the parity
    sectors solved: the even sector always, the odd one only when it lies
    lower or when mix_degenerate needs its vector.  The factorizations that
    probe the odd sector are not solves and are not counted.  It is 0 for
    the co-rotating tridiagonal bisection and when a solver raised.
    ``degenerate`` is set when the two lowest levels sit within
    DEGENERACY_TOL of each other: for the co-rotating model, when the two
    lowest levels that its bisection finds in the bracket below the bound
    on the second level do; for the counter-rotating model, when the
    odd sector's lowest level lies within DEGENERACY_TOL of the even
    ground energy, as its inertia at the shifts E_even -+ DEGENERACY_TOL
    shows.  An unconverged result (``converged`` False) carries NaN energy
    and vector and is never degenerate.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    degenerate: bool


def _fix_gauge(vector: np.ndarray) -> np.ndarray:
    # Deterministic global sign: largest-magnitude coefficient made positive.
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0.0 else vector


@functools.lru_cache(maxsize=LAYOUT_CACHE)
def _sector_layout(n_atoms: int, fock_dim: int, counter_rotating: bool):
    """Where each sector of a model puts its entries, and what scales them.

    Without the counter-rotating terms the one sector holds every state,
    ordered by (k = m + n, m): S_+ a links |m, n> only to |m + 1, n - 1>, the
    next state of the same k, so every coupling lies on the first band and
    none joins two k blocks.  With them there are two parity sectors
    (m + n) mod 2, even first, whose states are ordered by n, then m, so each
    coupling of |m, n> to |m + 1, n -+ 1> spans about N/2 + 1 places of the
    order.  H conserves k or the parity, so no coupling leaves a sector.

    Per sector this returns the states; the gauge (-1)^m of each; the photon
    number n and atomic offset m - N/2 of each, which omega and omega_eg
    scale into the diagonal; the band row (i - j) and column j of the lower
    entry (i, j), i >= j, of each coupling; its ladder factors, which
    g / sqrt(N) scales into the gauged entry: -sqrt((N - m)(m + 1)), that
    of S_+ from the lower m of its ends, less its sign in the gauge, and
    sqrt(n), that of a or a^dag from the higher n; the sorted band rows that
    hold a coupling; and, for the co-rotating sector, where each k block
    starts (k = 0 .. N + fock_dim - 1, then the sector's length; None for a
    parity sector).  None of this depends on the frequencies or g, so each
    size and model is laid out once; the arrays are read-only, as every
    caller shares them.
    """
    dim = (n_atoms + 1) * fock_dim
    m, n = np.divmod(np.arange(dim), fock_dim)
    index = np.arange(dim).reshape(n_atoms + 1, fock_dim)
    # The couplings: S_+ a, and S_+ a^dag if present.
    first, second = index[:-1, 1:].ravel(), index[1:, :-1].ravel()
    if counter_rotating:
        first = np.concatenate([first, index[:-1, :-1]], axis=None)
        second = np.concatenate([second, index[1:, 1:]], axis=None)
        sector_count, order = 2, np.lexsort((m, n))
    else:
        sector_count, order = 1, np.lexsort((m, m + n))
    lower_m = m[first]
    atomic = -np.sqrt((n_atoms - lower_m) * (lower_m + 1))
    photonic = np.sqrt(np.maximum(n[first], n[second]))
    sector = (m + n) % sector_count
    position = np.empty(dim, dtype=np.intp)  # index of each state inside its sector
    layout = []
    for p in range(sector_count):
        states = order[sector[order] == p]
        position[states] = np.arange(len(states))
        inside = sector[first] == p
        column, row = np.sort([position[first[inside]], position[second[inside]]], axis=0)
        offset = row - column
        arrays = (states, np.where(m[states] % 2, -1.0, 1.0), n[states].astype(float),
                  m[states] - n_atoms / 2.0, offset, column, atomic[inside], photonic[inside])
        blocks = None if counter_rotating else np.searchsorted(
            (m + n)[states], np.arange(n_atoms + fock_dim + 1))
        for array in (*arrays, blocks):
            if array is not None:
                array.flags.writeable = False
        layout.append((*arrays, tuple(np.unique(offset).tolist()), blocks))
    return tuple(layout)


def _sectors(cfg: DickeConfig):
    """(states, gauge, lower bands, band offsets) of each sector of cfg's model.

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) times the couplings,
    each scaled from _sector_layout's template.  In the gauge (-1)^m, the
    sign of each state, every off-diagonal entry is <= 0; bands[i - j, j]
    holds the entry (i, j), i >= j, of the gauged sector, and the offsets
    list the rows of bands below the diagonal that hold a coupling.
    """
    coupling = cfg.g / math.sqrt(cfg.n_atoms)
    sectors = []
    for states, gauge, photons, atoms, offset, column, atomic, photonic, offsets, _ in (
            _sector_layout(cfg.n_atoms, cfg.fock_dim, cfg.counter_rotating)):
        bands = np.zeros((offsets[-1] + 1, len(states)))
        bands[0] = cfg.omega * photons + cfg.omega_eg * atoms
        bands[offset, column] = coupling * atomic * photonic
        sectors.append((states, gauge, bands, offsets))
    return sectors


def _band_apply(bands: np.ndarray, x: np.ndarray, offsets) -> np.ndarray:
    """The symmetric matrix held by lower bands, applied to x.

    A sector's couplings fill only some of its bands; offsets lists them,
    and the empty bands are skipped.
    """
    h_x = bands[0] * x
    for k in offsets:
        h_x[k:] += bands[k, :-k] * x[:-k]
        h_x[:-k] += bands[k, :-k] * x[k:]
    return h_x


def _lowest_pair_excitation(cfg: DickeConfig, sectors, want_partner: bool):
    """Ground state of the co-rotating model from one bisection over a value bracket.

    The one sector is the chain; it goes to LAPACK un-gauged, its
    off-diagonal >= 0.  Any two eigenvalues of H bound its second level
    from above, so _second_level_bound, plus the tie margin, is a ceiling
    over the two lowest levels and every level tied to the lowest; the
    Gershgorin bound, the least row floor (diagonal entry less the
    couplings of its row), less the same margin, is a floor below them all.
    The block of that least row floor, where the search for the bound
    starts, sets only how many levels the bracket holds, never whether it
    holds the pair.  dstebz bisects the bracket and dstein takes the
    vectors; both split the chain where its off-diagonal is 0, so each
    vector lies inside one block.  When the two lowest levels are
    degenerate, every level within the tie margin of the lowest is taken
    and the two of lowest k are kept, lower k first: at g = g_c the vacuum
    (k = 0) and the lowest k = 1 level cross, and the vacuum is reported
    with its own energy.  Fewer than two levels in the bracket, or a LAPACK
    error, raises LinAlgError.  Returns what _lowest_pair_parity returns,
    with no banded solve.
    """
    [(states, _, bands, _)] = sectors
    blocks = _sector_layout(cfg.n_atoms, cfg.fock_dim, False)[0][-1]
    # S_+ a changes m by 1, so the gauge turned each coupling's sign.
    diagonal, off_diagonal = bands[0], -bands[1, :-1]
    # The least diagonal entry less the couplings of its row; bands[1, -1] is 0.
    row_floor = diagonal + bands[1]
    row_floor[1:] += bands[1, :-1]
    lowest = int(row_floor.argmin())
    gershgorin = float(row_floor[lowest])
    start = int(np.searchsorted(blocks, lowest, side="right")) - 1
    second = _second_level_bound(diagonal, off_diagonal, blocks, start)
    margin = _tie_margin(max(abs(gershgorin), abs(second)))
    count, energies, block, split, info = _STEBZ(
        diagonal, off_diagonal, 1, gershgorin - margin, second + margin, 0, 0, 0.0, "B")
    if info or count < 2:
        raise np.linalg.LinAlgError(f"dstebz found {count} levels in the bracket (info {info})")
    energies = energies[:count]
    vectors, info = _STEIN(diagonal, off_diagonal, energies, block, split)
    if info:
        raise np.linalg.LinAlgError(f"dstein: {info} vectors did not converge")
    keep = np.argsort(energies, kind="stable")
    if energies[keep[1]] - energies[keep[0]] < DEGENERACY_TOL:
        # A tie can span more than two blocks, as when omega << omega_eg.
        keep = keep[energies[keep] <= energies[keep[0]] + _tie_margin(energies[keep[0]])]
        # Each level's k, counted from 1: the block of its largest amplitude.
        k = np.searchsorted(blocks, np.argmax(np.abs(vectors[:, keep]), axis=0), side="right")
        keep = keep[np.argsort(k, kind="stable")]
    energies, keep = energies[keep[:2]], keep[:2]
    pair = np.zeros((cfg.dim, 2))
    pair[states] = vectors[:, keep]
    degenerate = abs(energies[1] - energies[0]) < DEGENERACY_TOL
    partner = pair[:, 1] if degenerate and want_partner else None
    return float(energies[0]), pair[:, 0], degenerate, partner, 0


def _tie_margin(energy: float) -> float:
    """Levels within this of a co-rotating level at energy tie with it."""
    return max(DEGENERACY_TOL, 4.0 * math.ulp(abs(energy)))


def _second_level_bound(diagonal: np.ndarray, off_diagonal: np.ndarray, blocks: np.ndarray,
                        k: int) -> float:
    """The second-lowest of the lowest levels of three adjacent k blocks of the chain.

    Two levels of H, each the lowest of its block, bound its second level
    from above.  The blocks are those around a block whose lowest level lies
    below both its neighbours': the search starts at block k, the one that
    holds the chain's least Gershgorin row floor, and steps to the lower
    neighbour while that one lies lower.  Each block's lowest level is
    bisected once, by dstebz.
    """

    @functools.cache
    def level(k: int) -> float:
        start, stop = blocks[k], blocks[k + 1]
        if stop - start == 1:
            return float(diagonal[start])
        count, energies, _, _, info = _STEBZ(
            diagonal[start:stop], off_diagonal[start:stop - 1], 2, 0.0, 0.0, 1, 1, 0.0, "E")
        if info or count < 1:
            raise np.linalg.LinAlgError(f"dstebz found no level in block {k} (info {info})")
        return float(energies[0])

    last = len(blocks) - 2
    while True:
        lower = min((j for j in (k - 1, k + 1) if 0 <= j <= last), key=level)
        if not level(lower) < level(k):  # NaN levels stop the search too
            break
        k = lower
    first = min(max(k - 1, 0), last - 2)
    return sorted(level(j) for j in range(first, first + 3))[1]


def _lowest_pair_parity(cfg: DickeConfig, sectors, want_partner: bool):
    """Ground state of the counter-rotating model and whether its parity doublet is degenerate.

    H conserves the parity (-1)^(m + n).  The even sector, down to the 2
    states of the smallest model, is solved by _lowest_in_sector.  The odd
    sector is only probed: if dpbtrf factors it shifted to E_even +
    DEGENERACY_TOL, its lowest level lies above that (Sylvester's law of
    inertia) and the even state is the ground state.  If not, but it
    factors at E_even - DEGENERACY_TOL, the odd level lies within
    DEGENERACY_TOL of E_even: the pair is degenerate and the even state is
    returned.  The odd sector is solved only when it lies lower, and then
    its state is returned, or when want_partner asks for its vector on a
    degenerate pair.

    Returns the energy, the whole-basis vector, the degeneracy flag, the
    partner's vector (None unless the pair is degenerate and want_partner
    asks for it) and the number of banded solves; probes are not solves.
    """
    (states, gauge, bands, offsets), (odd_states, odd_gauge, odd_bands, odd_offsets) = sectors
    energy, x, solves = _lowest_in_sector(bands, offsets)
    odd_scaled, unit, _ = _unit_scaled(odd_bands)
    above = _factor_shifted(odd_scaled, (energy + DEGENERACY_TOL) / unit)[1] == 0
    degenerate = not above and _factor_shifted(odd_scaled, (energy - DEGENERACY_TOL) / unit)[1] == 0
    pair = np.zeros((cfg.dim, 2))  # the even sector's state, then the odd one's
    pair[states, 0] = gauge * x
    if above or (degenerate and not want_partner):
        return energy, pair[:, 0], degenerate, None, solves
    odd_energy, odd_x, odd_solves = _lowest_in_sector(odd_bands, odd_offsets)
    pair[odd_states, 1] = odd_gauge * odd_x
    solves += odd_solves
    if degenerate:
        return energy, pair[:, 0], True, pair[:, 1], solves
    return odd_energy, pair[:, 1], False, None, solves


def _unit_scaled(bands: np.ndarray):
    """bands divided by a power of 4 near the bound on their norm, that power and the scaled bound.

    Rounding in a sector's products and factorization scales with ||H||,
    which the diagonal and the four couplings of a row bound.  Dividing by a
    power of 4 leaves every step exact, the square roots of a Cholesky
    factor included, and brings that bound near 1, so that no product or
    factorization overflows however small the frequencies are.
    """
    norm_bound = np.abs(bands[0]).max() + 4.0 * np.abs(bands[1:]).max()
    unit = math.ldexp(1.0, 2 * (math.frexp(norm_bound)[1] // 2))
    return bands / unit, unit, norm_bound / unit


def _factor_shifted(bands: np.ndarray, shift: float):
    """dpbtrf's banded Cholesky factor of bands - shift, and its info.

    info 0, a factor that exists, proves that shift lies below the lowest
    level of the sector (Sylvester's law of inertia).
    """
    shifted = bands.copy(order="F")  # dpbtrf factors it in place
    shifted[0] -= shift
    return _PBTRF(shifted, lower=1, overwrite_ab=1)


def _lowest_in_sector(bands: np.ndarray, offsets):
    """Lowest eigenvalue and positive vector of a sector, with the number of banded solves.

    Noda's inverse iteration (Numer. Math. 17, 382 (1971)) on the gauged
    sector, whose off-diagonal entries are <= 0.  For a positive x the
    Collatz-Wielandt bound min_i (H x)_i / x_i lies at or below the lowest
    eigenvalue E0; each solve shifts to just below it.  LAPACK's banded
    Cholesky factorization (dpbtrf) succeeding proves the shift s lies below
    E0 (Sylvester's law of inertia), and then (H - s)^-1 >= 0 keeps x
    positive, so x tends to the sector's ground vector; dpbtrs solves with
    the factor.  The iteration stops once the residual
    ||H x - E x|| of the Rayleigh quotient E is at most RESIDUAL_TOL and has
    stopped falling: the last solve left it above STALL times its previous
    value.  Near the end each solve about squares the error, so a weaker
    fall means that rounding holds the residual, or that levels within a few
    shift margins of the lowest, such as levels tied to rounding, share the
    vector.  A falling residual keeps the solves going, so the weight of
    higher levels falls to exact zeros where it can (the vacuum at g = 0).
    A shift that is not finite or that LAPACK refuses, or no stop within
    MAX_SOLVES, raises LinAlgError.
    """
    # The iteration runs on the sector scaled by _unit_scaled, whose bound
    # also sets the shift margin.
    bands, unit, norm_bound = _unit_scaled(bands)
    margin = SHIFT_MARGIN * np.finfo(float).eps * norm_bound
    x = np.full(bands.shape[1], 1.0 / math.sqrt(bands.shape[1]))
    previous = math.inf
    for solves in range(MAX_SOLVES + 1):
        h_x = _band_apply(bands, x, offsets)
        energy = float(x @ h_x)
        r = h_x - energy * x
        residual = math.sqrt(r @ r)
        if unit * residual <= RESIDUAL_TOL and residual >= STALL * previous:
            return unit * energy, x, solves
        if solves == MAX_SOLVES:
            raise np.linalg.LinAlgError(f"sector not converged in {MAX_SOLVES} solves")
        previous = residual
        # Components that underflowed past the normal range bound nothing;
        # with none left (a NaN x) the shift is infinite and refused.
        normal = x >= _TINY
        shift = float(np.min(h_x[normal] / x[normal], initial=math.inf)) - margin
        if not math.isfinite(shift):
            raise np.linalg.LinAlgError(f"shift {shift} is not finite")
        factor, info = _factor_shifted(bands, shift)
        if info:
            raise np.linalg.LinAlgError(f"dpbtrf refused the shift {unit * shift:g} (info {info})")
        x, info = _PBTRS(factor, x, lower=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"dpbtrs failed (info {info})")
        x /= math.sqrt(x @ x)


def ground_state(cfg: DickeConfig, mix_degenerate: bool = False) -> GroundStateResult:
    """Lowest eigenpair of the Hamiltonian of cfg.

    H is solved in the sectors of the quantum number the model conserves,
    built from its amplitudes as the module docstring describes; the whole
    matrix is never assembled, but the residual is that of the whole H.  No
    ground state is missed for being orthogonal to a start vector: the
    co-rotating chain is bisected whole, between its Gershgorin bound and
    a bound on its second level, the shifts of each parity sector
    solved stay below its lowest level, whose positive vector the iterate
    tends to, and the inertia test of the odd sector counts all its levels.

    Convergence is decided here alone: a result whose whole-H residual
    exceeds RESIDUAL_TOL or is NaN, or whose solver raised, is returned
    with NaN energy and vector, converged=False and degenerate=False.
    DickeConfig admits only models whose energies double precision resolves
    to DEGENERACY_TOL, so no entry, vector or residual here can overflow.

    Near-degenerate ground spaces are always detected rather than silently
    resolved: the co-rotating bisection finds every level up to a bound on
    the second one, and the odd parity sector's inertia is tested around
    the even ground energy.
    By default the first member of the pair is returned: the lowest value,
    the lower k or, within DEGENERACY_TOL, the even sector.
    ``mix_degenerate=True`` instead returns the normalized sum of the two
    vectors when they are degenerate, emulating
    symmetry-broken numerics; the relative sign makes <a> the larger of the
    two choices, so the exact (psi_even +- psi_odd) / sqrt(2) has real
    <a> >= 0.  The global sign is fixed by making the largest-magnitude
    coefficient positive.
    """
    sectors = _sectors(cfg)
    lowest_pair = _lowest_pair_parity if cfg.counter_rotating else _lowest_pair_excitation
    try:
        energy, vector, degenerate, partner, iterations = lowest_pair(cfg, sectors, mix_degenerate)
    except np.linalg.LinAlgError:
        # A refused shift or no convergence, in LAPACK or in the sector iteration.
        return _unconverged(cfg, math.inf, 0)

    vector = _fix_gauge(vector)
    if partner is not None:
        other = _fix_gauge(partner)
        shape = (cfg.n_atoms + 1, cfg.fock_dim)
        u, w = vector.reshape(shape), other.reshape(shape)
        # <a> of (u + s w) / sqrt(2) is its diagonal part plus s times this.
        if np.vdot(u, _lower(w)) + np.vdot(w, _lower(u)) < 0.0:
            other = -other
        pair = vector + other
        vector = _fix_gauge(pair / np.linalg.norm(pair))
    h_x = np.empty_like(vector)
    for states, gauge, bands, offsets in sectors:
        h_x[states] = gauge * _band_apply(bands, gauge * vector[states], offsets)
    residual = float(np.linalg.norm(h_x - energy * vector))
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
