import subprocess
import sys
from pathlib import Path

import nonclassicality
from conftest import subprocess_env
from nonclassicality import CenteredMoments, fock

#: Run in a fresh interpreter, so that the fock and dicke names are first
#: served by the package's lazy module __getattr__ rather than by an earlier
#: import.
LAZY_API = """
import inspect
import sys
import nonclassicality

assert "nonclassicality.dicke" not in sys.modules
assert "nonclassicality.fock" not in sys.modules
assert not hasattr(nonclassicality, "no_such_name")
# __all__ is what the package binds on import and what it serves lazily, modules aside.
eager = {name for name, obj in vars(nonclassicality).items()
         if not name.startswith("_") and not inspect.ismodule(obj)}
lazy = {name for name, module in nonclassicality._LAZY.items() if name != module}
assert len(nonclassicality.__all__) == len(set(nonclassicality.__all__))
assert set(nonclassicality.__all__) == eager | lazy, set(nonclassicality.__all__) ^ (eager | lazy)
# fock first: dicke imports it.
fock = getattr(nonclassicality, "fock")
assert fock is sys.modules["nonclassicality.fock"]
assert "nonclassicality.dicke" not in sys.modules
assert nonclassicality.covariance_check is fock.covariance_check
dicke = getattr(nonclassicality, "dicke")
assert dicke is sys.modules["nonclassicality.dicke"]
for name in nonclassicality.__all__:
    getattr(nonclassicality, name)
assert nonclassicality.ground_state is dicke.ground_state
namespace = {}
exec("from nonclassicality import *", namespace)
assert set(nonclassicality.__all__) <= set(namespace), set(nonclassicality.__all__) - set(namespace)
assert not hasattr(nonclassicality, "no_such_name")
"""


def test_lazy_public_api():
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_API], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr


#: References that only the tests run; they live in tests/oracles.py.
TEST_ONLY_NAMES = (
    "symplectic_eta", "simon_lambda", "annihilation_matrix", "recommended_dim",
    "maximize_EN", "OptimizationResult", "eta_minus_sq", "_invariants",
    "log_negativity_from_eta_sq",
)


def test_test_only_references_are_not_shipped():
    for name in TEST_ONLY_NAMES:
        assert not hasattr(nonclassicality, name), name
    src = Path(nonclassicality.__file__).parent
    for module in src.glob("*.py"):
        for name in TEST_ONLY_NAMES:
            assert name not in module.read_text(), (module.name, name)
    assert not hasattr(CenteredMoments, "a_squared")


#: Oracle-only containers and wrappers that left the package; the Fock oracle
#: keeps one covariance format, the ten entries of its private kernels.
REMOVED_NAMES = (
    "FockVector", "TwoModeVector", "CovarianceBlocks", "apply_beam_splitter",
    "two_mode_covariance", "covariance_from_input",
)


def test_removed_oracle_names_stay_removed():
    for name in REMOVED_NAMES:
        assert not hasattr(nonclassicality, name), name
        assert not hasattr(fock, name), name
        assert name not in nonclassicality.__all__, name
