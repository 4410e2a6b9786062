import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import HealthCheck, settings

import nonclassicality
from nonclassicality import dicke

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def random_physical_centered(rng: np.random.Generator, n_max: float = 3.0):
    """Draw (v, theta, n) with v^2 <= n(n+1) guaranteed by construction."""
    n = rng.uniform(0.0, n_max)
    v = rng.uniform(0.0, 1.0) * np.sqrt(n * (n + 1.0))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return v, theta, n


def build_hamiltonian(cfg: nonclassicality.DickeConfig) -> sparse.csr_matrix:
    """H on the symmetric-ladder (x) Fock basis, as a CSR matrix.

    Ladder amplitudes: S_+|m> = sqrt((N - m)(m + 1)) |m+1> and S_z|m> =
    (m - N/2)|m>, with a|n> = sqrt(n)|n-1>.  Without counter-rotating terms
    each row holds at most 5 nonzeros (diagonal plus two coupling pairs).
    Zero couplings (g = 0) stay stored, so the pattern does not depend on g.
    Each coupling and its transpose are written from the same amplitude, so
    the matrix is exactly symmetric.  ground_state(cfg) never assembles it:
    this whole matrix is the tests' independent reference.
    """
    return _csr(*_entries(cfg), (cfg.n_atoms + 1) * cfg.fock_dim)


def _entries(cfg: nonclassicality.DickeConfig):
    """(rows, cols, values) of every stored entry of H, both triangles."""
    n_atoms = cfg.n_atoms
    m = np.arange(n_atoms + 1)[:, None]
    n = np.arange(cfg.fock_dim)
    diagonal = cfg.omega * n + cfg.omega_eg * (m - n_atoms / 2.0)
    # hop[m, n - 1] = <m+1, n-1| S_+ a |m, n> = <m+1, n| S_+ a^dag |m, n-1>.
    hop = cfg.g / np.sqrt(n_atoms) * np.sqrt((n_atoms - m[:-1]) * (m[:-1] + 1)) * np.sqrt(n[1:])
    # Atom-major layout: |m> (x) |n>  ->  m * fock_dim + n.
    index = np.arange((cfg.n_atoms + 1) * cfg.fock_dim).reshape(cfg.n_atoms + 1, cfg.fock_dim)
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


def dense_reference(cfg: nonclassicality.DickeConfig):
    """Ascending energies and eigenvectors of the whole dense build_hamiltonian(cfg)."""
    return np.linalg.eigh(build_hamiltonian(cfg).toarray())


def subprocess_env() -> dict:
    """The environment with this package's source directory on PYTHONPATH."""
    src = str(Path(nonclassicality.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def cholesky_refused(monkeypatch):
    """Every banded factorization fails, as it does for a shift above the lowest level."""

    def refused(bands, **kwargs):
        return bands, 1  # dpbtrf's info: the 1st leading minor is not positive definite

    monkeypatch.setattr(dicke, "_PBTRF", refused)


@pytest.fixture(params=["dpbtrs", "nan_shift"])
def sector_solve_fails(request, monkeypatch):
    """A sector solve fails past the factorization: dpbtrs reports an error, or the shift is NaN."""
    if request.param == "dpbtrs":
        monkeypatch.setattr(dicke, "_PBTRS", lambda factor, b, **kwargs: (b, -2))
        return
    band_apply = dicke._band_apply

    def poisoned(*args):
        h_x = band_apply(*args)
        h_x[0] = np.nan  # then min_i (H x)_i / x_i, the shift, is NaN
        return h_x

    monkeypatch.setattr(dicke, "_band_apply", poisoned)


@pytest.fixture
def lapack_no_convergence(monkeypatch):
    """Every tridiagonal bisection fails as LAPACK does when it does not converge."""
    stebz = dicke._STEBZ

    def no_convergence(*args):
        return (*stebz(*args)[:4], 1)  # dstebz's info: some levels did not converge

    monkeypatch.setattr(dicke, "_STEBZ", no_convergence)
