"""Reference values computed apart from the program under test.

Nothing here imports ``nonclassicality``: each function restates the physics
from its definition so that the benchmark can check the program's outputs
against it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np


def entanglement_potential(v, n) -> float:
    """max(0, -ln(1 + 2(n - v)) / 2) evaluated in 50-digit decimal arithmetic.

    This is the beam-splitter log-negativity maximized over the splitter for
    centered moments |<a^2>| = v and <a^dag a> = n (Asboth, Calsamiglia and
    Ritsch, PRL 94, 173602 (2005)).  Float inputs convert to Decimal exactly.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x = 1 + 2 * (Decimal(n) - Decimal(v))
        return 0.0 if x >= 1 else float(-x.ln() / 2)


def corotating_ground(n_atoms: int, fock_dim: int, g: float,
                      omega: float = 1.0, omega_eg: float = 1.0):
    """(E0, <a^dag a>, gap) of the excitation-conserving collective model.

    H = omega a^dag a + omega_eg S_z + (g / sqrt(N)) (S_+ a + S_- a^dag) on the
    symmetric ladder |m>, m = 0..N, times Fock levels |n>, n < fock_dim.  H
    conserves k = m + n, so each block k is a tridiagonal matrix in m that is
    diagonalized on its own.  ``gap`` is the distance between the two lowest
    levels over all blocks; the photon number is only meaningful when it is
    well above zero.
    """
    levels = []
    ground = (math.inf, math.nan)
    for k in range(n_atoms + fock_dim - 1):
        m = np.arange(max(0, k - fock_dim + 1), min(n_atoms, k) + 1)
        n = k - m
        block = np.diag(omega * n + omega_eg * (m - n_atoms / 2.0))
        # <m+1, n-1| S_+ a |m, n> = sqrt((N - m)(m + 1)) sqrt(n)
        hop = g / math.sqrt(n_atoms) * np.sqrt((n_atoms - m[:-1]) * (m[:-1] + 1.0) * n[:-1])
        block += np.diag(hop, 1) + np.diag(hop, -1)
        energies, vectors = np.linalg.eigh(block)
        levels.extend(energies[:2])
        if energies[0] < ground[0]:
            ground = (float(energies[0]), float(vectors[:, 0] ** 2 @ n))
    lowest = np.sort(levels)
    return ground[0], ground[1], float(lowest[1] - lowest[0])


def collective_hamiltonian(n_atoms: int, fock_dim: int, g: float, counter_rotating: bool,
                           omega: float = 1.0, omega_eg: float = 1.0) -> np.ndarray:
    """Dense H on |m> (x) |n>, index m * fock_dim + n, with or without S_+ a^dag + S_- a."""
    m = np.arange(n_atoms + 1.0)
    lower = np.diag(np.sqrt(np.arange(1.0, fock_dim)), 1)  # a|n> = sqrt(n)|n-1>
    raise_ = np.diag(np.sqrt((n_atoms - m[:-1]) * (m[:-1] + 1.0)), -1)  # S_+|m>
    coupling = np.kron(raise_, lower + lower.T if counter_rotating else lower)
    return (omega * np.kron(np.eye(n_atoms + 1), lower.T @ lower)
            + omega_eg * np.kron(np.diag(m - n_atoms / 2.0), np.eye(fock_dim))
            + g / math.sqrt(n_atoms) * (coupling + coupling.T))


def superradiant_photon_number(g: float, n_atoms: int,
                               omega: float = 1.0, omega_eg: float = 1.0) -> float:
    """Thermodynamic-limit <a^dag a> of the model with counter-rotating terms.

    g^2 N / omega^2 (1 - g_c^4 / g^4) above g_c = sqrt(omega omega_eg) / 2 and
    0 below it (Emary and Brandes, PRE 67, 066203 (2003)).
    """
    g_c = math.sqrt(omega * omega_eg) / 2.0
    if g <= g_c:
        return 0.0
    return g * g * n_atoms / (omega * omega) * (1.0 - (g_c / g) ** 4)


def concavity_violations(g, energy, tol: float) -> list[str]:
    """Where E0(g) on a uniform grid fails to be concave and non-increasing.

    H is linear in g, so E0 is concave; a -> -a maps g to -g, so E0 is even
    and hence non-increasing for g >= 0.  Both hold in any Fock truncation.
    """
    order = np.argsort(g)
    g, e = np.asarray(g)[order], np.asarray(energy)[order]
    problems = [f"E0 rises from g={g[i]:.4g} to g={g[i + 1]:.4g}"
                for i in np.flatnonzero(np.diff(e) > tol)]
    problems += [f"E0 not concave at g={g[i + 1]:.4g}"
                 for i in np.flatnonzero(np.diff(e, 2) > tol)]
    return problems
