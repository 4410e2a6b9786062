"""Collective atoms-field Hamiltonian, its ground state, and the field moments.

N identical two-level atoms couple to one field mode.  Because the atoms are
identical they stay on the symmetric ladder |m>, m = 0..N excited atoms, so
the joint basis |m> (x) |n> has dimension (N+1) * fock_dim rather than
2^N * fock_dim.  ground_state returns the state as the array psi[m, n],
from which alone field_moments reads the moments that feed the measure.

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
shifts around that energy.  The signs (-1)^m of a sector's ground vector
seed its iteration.  Each parity sector is built once, divided by a power
of 4 near its norm, as every step reads it.  The whole H is never assembled.

In units hbar = 1:

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) (S_+ a + S_- a^dag)

plus the counter-rotating pair (g / sqrt(N)) (S_+ a^dag + S_- a) when
enabled.  The excitation-conserving form keeps <a^2> = 0 in nondegenerate
eigenstates, so a nonzero measure requires either the counter-rotating terms
or explicit mixing of a degenerate ground pair; both are exposed.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .fock import _lower, _tail_weight, moments_from_vector
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

#: Banded solves each Cholesky factor of a parity sector serves while the
#: residual is above RESIDUAL_TOL; within it, the factor serves every solve.
SOLVES_PER_FACTOR = 2

#: Sizes and models (n_atoms, fock_dim, counter_rotating) whose sector
#: layouts stay cached.
LAYOUT_CACHE = 8


def _load_lapack():
    """SciPy's double-precision LAPACK routines dpbtrf, dpbtrs, dstebz, dstein.

    They are the objects scipy.linalg.get_lapack_funcs returns, taken from
    SciPy's compiled _flapack extension without importing the scipy.linalg
    package, whose import costs more than a full co-rotating sweep.  Only
    the top-level scipy package is imported, which also sets up SciPy's
    library search path on Windows.  The extension is loaded by file path
    under its own name, so a later scipy.linalg import finds the same
    module already initialized; sys.modules is left as it was.  There is no
    other way to these routines: if the file is missing this raises
    ImportError naming the directory searched.
    """
    directory = os.path.join(scipy.__path__[0], "linalg")
    paths = [os.path.join(directory, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled LAPACK extension _flapack in {directory}")
    name = "scipy.linalg._flapack"
    loaded = name in sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    if not loaded:
        # A single-phase extension enters itself into sys.modules as it loads.
        sys.modules.pop(name, None)
    return flapack.dpbtrf, flapack.dpbtrs, flapack.dstebz, flapack.dstein


#: LAPACK's banded Cholesky factorization and solve, and its tridiagonal
#: bisection and inverse iteration, bound once: each sector takes several
#: solves and each co-rotating row bisects several k blocks.
_PBTRF, _PBTRS, _STEBZ, _STEIN = _load_lapack()

#: Smallest normal double and the double epsilon, bound once for the same reason.
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps


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
        if not self.g_critical > 0.0:  # g / g_critical is a column of the sweep
            raise ValueError("omega omega_eg is so small that the critical coupling underflows to 0")
        if not 0.0 <= self.g < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.g}")
        # The diagonal's spread plus the four couplings a row can hold bound
        # ||H||; double precision must resolve energies of that size to the
        # degeneracy tolerance.  Then no solver or residual overflows either.
        n_atoms, top = self.n_atoms, self.fock_dim - 1
        m = (n_atoms - 1) // 2  # where (N - m)(m + 1), the S_+ amplitude squared, peaks
        coupling = self.g / math.sqrt(n_atoms) * math.sqrt((n_atoms - m) * (m + 1)) * math.sqrt(top)
        bound = self.omega * top + self.omega_eg * n_atoms + 4.0 * coupling
        if not bound * _EPS <= DEGENERACY_TOL:
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


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair plus solver diagnostics.

    ``vector`` is the ground state psi[m, n], the amplitude of |m> (x) |n>,
    as a C-contiguous array of shape (n_atoms + 1, fock_dim), field axis last.
    ``iterations`` counts the banded solves, summed over the parity
    sectors solved: the even sector always, the odd one only when it lies
    lower or when mix_degenerate needs its vector.  Factorizations are not
    counted: each serves one or more solves, and those that probe the odd
    sector serve none.  It is 0 for the co-rotating tridiagonal bisection
    and when a solver raised.
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


def _fix_gauge(psi: np.ndarray) -> np.ndarray:
    # Deterministic global sign: largest-magnitude coefficient made positive.
    pivot = int(np.argmax(np.abs(psi)))
    return -psi if psi.flat[pivot] < 0.0 else psi


def _joint(shape: tuple, states: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The joint array psi[m, n] of a sector's level x on its states, 0 elsewhere."""
    psi = np.zeros(shape)
    psi.reshape(-1)[states] = x  # a view; fancy assignment through .flat is 3x slower
    return psi


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

    Per sector this returns the states; the signs (-1)^m that seed
    _lowest_in_sector (None for the co-rotating chain); the photon number
    n and atomic offset m - N/2 of each state, which omega and omega_eg
    scale into the diagonal; the band row (i - j) and column j of the lower
    entry (i, j), i >= j, of each coupling; its ladder factors, which
    g / sqrt(N) scales into the entry: sqrt((N - m)(m + 1)), that of S_+
    from the lower m of its ends, and sqrt(n), that of a or a^dag from the
    higher n; the sorted band rows that hold a coupling; and where each k
    block of the co-rotating chain starts (k = 0 .. N + fock_dim - 1, then
    the sector's length; None for a parity sector).  None of this depends
    on the frequencies or g, so each size and model is laid out once; the
    arrays are read-only, as every caller shares them.
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
    atomic = np.sqrt((n_atoms - lower_m) * (lower_m + 1))
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
        signs, blocks = (np.where(m[states] % 2, -1.0, 1.0), None) if counter_rotating else (
            None, np.searchsorted((m + n)[states], np.arange(n_atoms + fock_dim + 1)))
        arrays = (states, signs, n[states].astype(float), m[states] - n_atoms / 2.0,
                  offset, column, atomic[inside], photonic[inside])
        for array in (*arrays, blocks):
            if array is not None:
                array.flags.writeable = False
        layout.append((*arrays, tuple(np.unique(offset).tolist()), blocks))
    return tuple(layout)


def _sectors(cfg: DickeConfig):
    """(states, signs, lower bands, unit, band offsets, blocks) of each sector of cfg's model.

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) times the couplings,
    each scaled from _sector_layout's template, whose signs and blocks pass
    through; unit times bands[i - j, j] is the entry (i, j), i >= j, every
    off-diagonal one >= 0, and the offsets list the rows of bands below the
    diagonal that hold a coupling.  A parity sector's unit is the power of
    4 near the bound on its norm, the largest diagonal entry plus 4 times
    the largest coupling: dividing by it is exact, square roots of Cholesky
    factors included, and no product or factorization then overflows however
    small the frequencies are.  The co-rotating chain, whose bisection tie
    margins are absolute, keeps unit 1.0.
    """
    coupling = cfg.g / math.sqrt(cfg.n_atoms)
    sectors = []
    for states, signs, photons, atoms, offset, column, atomic, photonic, offsets, blocks in (
            _sector_layout(cfg.n_atoms, cfg.fock_dim, cfg.counter_rotating)):
        diagonal = cfg.omega * photons + cfg.omega_eg * atoms
        couplings = coupling * atomic * photonic
        unit = 1.0
        if cfg.counter_rotating:
            norm_bound = np.abs(diagonal).max() + 4.0 * couplings.max()
            unit = math.ldexp(1.0, 2 * (math.frexp(norm_bound)[1] // 2))
            diagonal /= unit
            couplings /= unit
        bands = np.zeros((offsets[-1] + 1, len(states)))
        bands[0] = diagonal
        bands[offset, column] = couplings
        sectors.append((states, signs, bands, unit, offsets, blocks))
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


def _lowest_pair_excitation(sectors, want_partner: bool):
    """Ground state of the co-rotating model from one bisection over a value bracket.

    The one sector is the chain, which goes to LAPACK as it is, its
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
    [(states, _, bands, _, _, blocks)] = sectors
    diagonal, off_diagonal = bands[0], bands[1, :-1]
    # The least diagonal entry less the couplings of its row; bands[1, -1] is 0.
    row_floor = diagonal - bands[1]
    row_floor[1:] -= off_diagonal
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
    degenerate = abs(energies[1] - energies[0]) < DEGENERACY_TOL
    partner = (states, vectors[:, keep[1]]) if degenerate and want_partner else None
    return float(energies[0]), (states, vectors[:, keep[0]]), degenerate, partner, 0


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
    levels = {}

    def level(k: int) -> float:
        if k not in levels:
            start, stop = blocks[k], blocks[k + 1]
            if stop - start == 1:
                levels[k] = float(diagonal[start])
            else:
                count, energies, _, _, info = _STEBZ(
                    diagonal[start:stop], off_diagonal[start:stop - 1], 2, 0.0, 0.0, 1, 1, 0.0, "E")
                if info or count < 1:
                    raise np.linalg.LinAlgError(f"dstebz found no level in block {k} (info {info})")
                levels[k] = float(energies[0])
        return levels[k]

    last = len(blocks) - 2
    while True:
        lower = min((j for j in (k - 1, k + 1) if 0 <= j <= last), key=level)
        if not level(lower) < level(k):  # NaN levels stop the search too
            break
        k = lower
    first = min(max(k - 1, 0), last - 2)
    return sorted(level(j) for j in range(first, first + 3))[1]


def _lowest_pair_parity(sectors, want_partner: bool):
    """Ground state of the counter-rotating model and whether its parity doublet is degenerate.

    H conserves the parity (-1)^(m + n).  The even sector, down to the 2
    states of the smallest model, is solved by _lowest_in_sector.  The odd
    sector is only probed, in its own unit: if dpbtrf factors it shifted to
    E_even + DEGENERACY_TOL, its lowest level lies above that (Sylvester's
    law of inertia) and the even state is the ground state.  If not, but it
    factors at E_even - DEGENERACY_TOL, the odd level lies within
    DEGENERACY_TOL of E_even: the pair is degenerate and the even state is
    returned.  The odd sector is solved only when it lies lower, and then
    its state is returned, or when want_partner asks for its vector on a
    degenerate pair.

    Returns the energy, the level as its sector's (states, x), the
    degeneracy flag, the partner's (states, x) (None unless the pair is
    degenerate and want_partner asks for it) and the number of banded
    solves; probes are not solves.
    """
    (states, signs, bands, unit, offsets, _), odd = sectors
    odd_states, odd_signs, odd_bands, odd_unit, odd_offsets, _ = odd
    energy, x, solves = _lowest_in_sector(bands, unit, offsets, signs)
    above = _factor_shifted(odd_bands, (energy + DEGENERACY_TOL) / odd_unit)[1] == 0
    degenerate = not above and _factor_shifted(odd_bands, (energy - DEGENERACY_TOL) / odd_unit)[1] == 0
    if above or (degenerate and not want_partner):
        return energy, (states, x), degenerate, None, solves
    odd_energy, odd_x, odd_solves = _lowest_in_sector(odd_bands, odd_unit, odd_offsets, odd_signs)
    solves += odd_solves
    if degenerate:
        return energy, (states, x), True, (odd_states, odd_x), solves
    return odd_energy, (odd_states, odd_x), False, None, solves


def _factor_shifted(bands: np.ndarray, shift: float):
    """dpbtrf's banded Cholesky factor of bands - shift, and its info.

    info 0, a factor that exists, proves that shift lies below the lowest
    level of the sector (Sylvester's law of inertia).
    """
    shifted = bands.copy(order="F")  # dpbtrf factors it in place
    shifted[0] -= shift
    return _PBTRF(shifted, lower=1, overwrite_ab=1)


def _lowest_in_sector(bands: np.ndarray, unit: float, offsets, signs: np.ndarray):
    """Lowest eigenvalue and vector of a sector, with the number of banded solves.

    bands is divided by unit, as _sectors stores it: the shifts and their
    margin, set by the scaled bound on the norm, stay in that scale, and the
    energy and residual are multiplied back by unit.  Noda's inverse iteration (Numer. Math. 17, 382 (1971)) from the signs,
    normalized.  Every coupling changes m by 1 and is >= 0, so while each
    signs[i] x[i] is positive the Collatz-Wielandt bound min_i (H x)_i / x_i
    lies at or below the lowest eigenvalue E0; each solve shifts to just
    below it.  LAPACK's banded Cholesky factorization (dpbtrf) succeeding
    proves the shift s lies below E0 (Sylvester's law of inertia), and then
    each entry of (H - s)^-1 has the sign of signs[i] signs[j], so x keeps
    its signs and tends to the sector's ground vector; dpbtrs solves with
    the factor.  Each factor serves SOLVES_PER_FACTOR solves while the
    residual ||H x - E x|| of the Rayleigh quotient E is above RESIDUAL_TOL,
    and every later solve once it is within.  The iteration stops once the
    residual is at most RESIDUAL_TOL and has stopped falling: the last solve
    left it above STALL times its previous value.  Near the end each solve
    on a new factor about squares the error, so a weaker fall means that
    rounding holds the residual, or that levels within a few shift margins
    of the lowest, such as levels tied to rounding, share the vector.  A
    solve at an older shift s cuts the error only by the fixed ratio
    (E0 - s) / (E1 - s), E1 the next level, which can exceed STALL; so only
    a solve on a new factor, or one that began with the residual within
    RESIDUAL_TOL, can end the iteration, and a stall after any other solve
    takes a new factor instead.  A falling residual keeps the solves going,
    so the weight of higher levels falls to exact zeros where it can (the
    vacuum at g = 0).  The count returned is of solves, not factorizations.
    A shift that is not finite or that LAPACK refuses, or no stop within
    MAX_SOLVES, raises LinAlgError.
    """
    margin = SHIFT_MARGIN * _EPS * (np.abs(bands[0]).max() + 4.0 * bands[1:].max())
    x = signs / math.sqrt(len(signs))
    previous = math.inf
    factor, uses, trusted = None, 0, False
    for solves in range(MAX_SOLVES + 1):
        h_x = _band_apply(bands, x, offsets)
        energy = float(x @ h_x)
        r = h_x - energy * x
        residual = math.sqrt(r @ r)
        within = unit * residual <= RESIDUAL_TOL
        if within and residual >= STALL * previous:
            if trusted:
                return unit * energy, x, solves
            factor = None  # the fall of a solve at an older shift proves no stall
        if solves == MAX_SOLVES:
            raise np.linalg.LinAlgError(f"sector not converged in {MAX_SOLVES} solves")
        previous = residual
        if factor is None or (uses == SOLVES_PER_FACTOR and not within):
            # Components that underflowed past the normal range bound nothing;
            # with none left (a NaN x) the shift is infinite and refused.
            normal = np.abs(x) >= _TINY
            shift = float(np.min(h_x[normal] / x[normal], initial=math.inf)) - margin
            if not math.isfinite(shift):
                raise np.linalg.LinAlgError(f"shift {shift} is not finite")
            factor, info = _factor_shifted(bands, shift)
            if info:
                raise np.linalg.LinAlgError(f"dpbtrf refused the shift {unit * shift:g} (info {info})")
            uses = 0
        trusted = uses == 0 or within  # whether a stall after this solve ends the iteration
        uses += 1
        x, info = _PBTRS(factor, x, lower=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"dpbtrs failed (info {info})")
        x /= math.sqrt(x @ x)


def ground_state(cfg: DickeConfig, mix_degenerate: bool = False) -> GroundStateResult:
    """Lowest eigenpair of the Hamiltonian of cfg, its vector the array psi[m, n].

    H is solved in the sectors of the quantum number the model conserves,
    built from its amplitudes as the module docstring describes; the whole
    matrix is never assembled, but the residual is that of the whole H.  No
    ground state is missed for being orthogonal to a start vector: the
    co-rotating chain is bisected whole, between its Gershgorin bound and
    a bound on its second level, each parity sector solved starts from its
    ground vector's signs, with shifts below its lowest level, and the
    inertia test of the odd sector counts all its levels.

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
    coefficient positive.  Each solver returns a level on its sector's
    states, scattered here into psi; a NaN psi has the same shape.
    """
    sectors = _sectors(cfg)
    shape = (cfg.n_atoms + 1, cfg.fock_dim)
    lowest_pair = _lowest_pair_parity if cfg.counter_rotating else _lowest_pair_excitation
    try:
        energy, level, degenerate, partner, iterations = lowest_pair(sectors, mix_degenerate)
    except np.linalg.LinAlgError:
        # A refused shift or no convergence, in LAPACK or in the sector iteration.
        return _unconverged(shape, math.inf, 0)

    vector = _fix_gauge(_joint(shape, *level))
    if partner is not None:
        other = _fix_gauge(_joint(shape, *partner))
        # <a> of (vector + s other) / sqrt(2) is its diagonal part plus s times this.
        if np.vdot(vector, _lower(other)) + np.vdot(other, _lower(vector)) < 0.0:
            other = -other
        pair = vector + other
        vector = _fix_gauge(pair / np.linalg.norm(pair))
    flat = vector.reshape(-1)
    h_x = np.empty_like(flat)
    for states, _, bands, unit, offsets, _ in sectors:
        h_x[states] = unit * _band_apply(bands, flat[states], offsets)
    r = h_x - energy * flat
    residual = math.sqrt(r @ r)
    if not residual <= RESIDUAL_TOL:  # NaN included
        return _unconverged(shape, residual, iterations)
    return GroundStateResult(
        energy=energy,
        vector=vector,
        residual=residual,
        iterations=iterations,
        converged=True,
        degenerate=bool(degenerate),
    )


def _unconverged(shape: tuple, residual: float, iterations: int) -> GroundStateResult:
    return GroundStateResult(
        energy=math.nan, vector=np.full(shape, np.nan), residual=residual,
        iterations=iterations, converged=False, degenerate=False,
    )


def fock_tail_weight(result: GroundStateResult) -> float:
    """Largest squared amplitude of result.vector on the two highest retained Fock levels.

    At or above fock.TAIL_TOL the field is truncated, by the test that
    ``fock._tail_weight`` makes on any state: two levels, because a
    parity-symmetric ground state leaves every other level empty.
    """
    return _tail_weight(result.vector)


def field_moments(result: GroundStateResult) -> SingleModeMoments:
    """<a>, <a^2>, <a^dag a> of the field, the atoms traced out of result.vector."""
    return moments_from_vector(result.vector)
