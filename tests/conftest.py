import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg
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


def dense_reference(cfg: nonclassicality.DickeConfig):
    """Ascending energies and eigenvectors of the whole dense build_hamiltonian(cfg)."""
    return np.linalg.eigh(nonclassicality.build_hamiltonian(cfg).toarray())


def subprocess_env() -> dict:
    """The environment with this package's source directory on PYTHONPATH."""
    src = str(Path(nonclassicality.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def arpack_no_convergence(monkeypatch):
    """Every Lanczos run ends out of restarts, holding a partial eigenpair."""

    def no_convergence(operator, k, v0, **kwargs):
        raise sparse_linalg.ArpackNoConvergence("no convergence", np.array([-1.0]), v0[:, None])

    monkeypatch.setattr(dicke.sparse_linalg, "eigsh", no_convergence)


@pytest.fixture
def lapack_no_convergence(monkeypatch):
    """Every tridiagonal solve fails as LAPACK does when it does not converge."""

    def no_convergence(diagonal, off_diagonal, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue computation did not converge")

    monkeypatch.setattr(dicke, "eigh_tridiagonal", no_convergence)
