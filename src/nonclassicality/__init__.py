"""Nonclassicality of a single-mode bosonic field from its second moments.

The degree of nonclassicality is quantified as the logarithmic negativity of
the two-mode entanglement the field would generate through a beam splitter,
evaluated directly from <a^2> and <a^dag a>; an analytic variance-sum
condition |<a^2>| > <a^dag a> comes along with it.  Desk-scale examples
cover squeezed coherent states and the superradiant phase transition of a
collectively coupled atomic ensemble.
"""

from .dicke import (
    DickeConfig,
    GroundStateResult,
    build_hamiltonian,
    field_moments,
    ground_state,
)
from .entanglement import (
    BALANCED_T,
    BeamSplitterParams,
    CovarianceBlocks,
    NonclassicalityReport,
    build_report,
    covariance_from_input,
    dgcz_lambda,
    dgcz_simple,
    hz_condition,
    log_negativity,
    maximizing_splitter,
    output_spectrum,
    simon_lambda,
    symplectic_eta,
)
from .fock import (
    FockVector,
    TwoModeVector,
    annihilation_matrix,
    apply_beam_splitter,
    covariance_check,
    moments_from_vector,
    squeezed_coherent_vector,
    two_mode_covariance,
)
from .moments import (
    CenteredMoments,
    SingleModeMoments,
    SqueezedCoherentParams,
    UnphysicalMomentsError,
    center,
    squeezed_coherent_moments,
    validate_physical,
)
from .optimize import OptimizationResult, maximize_EN

__version__ = "0.1.0"

__all__ = [
    "BALANCED_T",
    "BeamSplitterParams",
    "CenteredMoments",
    "CovarianceBlocks",
    "DickeConfig",
    "FockVector",
    "GroundStateResult",
    "NonclassicalityReport",
    "OptimizationResult",
    "SingleModeMoments",
    "SqueezedCoherentParams",
    "TwoModeVector",
    "UnphysicalMomentsError",
    "annihilation_matrix",
    "apply_beam_splitter",
    "build_hamiltonian",
    "build_report",
    "center",
    "covariance_check",
    "covariance_from_input",
    "dgcz_lambda",
    "dgcz_simple",
    "field_moments",
    "ground_state",
    "hz_condition",
    "log_negativity",
    "maximize_EN",
    "maximizing_splitter",
    "moments_from_vector",
    "output_spectrum",
    "simon_lambda",
    "squeezed_coherent_moments",
    "squeezed_coherent_vector",
    "symplectic_eta",
    "two_mode_covariance",
    "validate_physical",
]
