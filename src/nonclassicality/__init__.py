"""Nonclassicality of a single-mode bosonic field from its second moments.

The degree of nonclassicality is quantified as the logarithmic negativity of
the two-mode entanglement the field would generate through a beam splitter,
evaluated directly from <a^2> and <a^dag a>; an analytic variance-sum
condition |<a^2>| > <a^dag a> comes along with it.  Desk-scale examples
cover squeezed coherent states and the superradiant phase transition of a
collectively coupled atomic ensemble.
"""

import importlib

from .entanglement import (
    NonclassicalityReport,
    build_report,
    dgcz_lambda,
    dgcz_simple,
    hz_condition,
    log_negativity,
    output_spectrum,
)
from .moments import (
    BeamSplitterParams,
    CenteredMoments,
    SingleModeMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
    center,
    squeezed_coherent_moments,
)
from .optimize import BALANCED_T, maximizing_splitter

__version__ = "0.1.0"

#: Served on first use from the back end that holds them: fock loads NumPy,
#: and dicke also SciPy's compiled LAPACK (the top-level scipy package, not
#: scipy.linalg), neither of which the measure core needs.
_LAZY = {
    "fock": "fock", "dicke": "dicke",
    **dict.fromkeys(["covariance_check", "moments_from_vector", "squeezed_coherent_vector"], "fock"),
    **dict.fromkeys(["DickeConfig", "GroundStateResult", "field_moments", "ground_state"], "dicke"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import fock": the from-import probes the
    # package with hasattr, which would call back into this hook.
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = [
    "BALANCED_T",
    "BeamSplitterParams",
    "CenteredMoments",
    "DickeConfig",
    "GroundStateResult",
    "NonclassicalityReport",
    "SingleModeMoments",
    "SqueezedCoherentParams",
    "UnphysicalMomentsError",
    "build_report",
    "center",
    "covariance_check",
    "dgcz_lambda",
    "dgcz_simple",
    "field_moments",
    "ground_state",
    "hz_condition",
    "log_negativity",
    "maximizing_splitter",
    "moments_from_vector",
    "output_spectrum",
    "squeezed_coherent_moments",
    "squeezed_coherent_vector",
]
