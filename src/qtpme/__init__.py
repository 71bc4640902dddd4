"""Quasithermodynamic analysis of Pauli master equations.

Decomposes finite-state Markov rate dynamics into a conserved total plus a
nondecreasing quadratic entropy with an antisymmetric circulation part,
classifies relaxation as monotonic or oscillatory, and evaluates the
three-state arousal-learning model.
"""

from .core import (
    Generator,
    ProbabilityVector,
    QTDecomposition,
    QuadraticEntropy,
    RateMatrix,
    RelaxationClass,
    RelaxationKind,
    SpectralInfo,
    UVWCoordinates,
    centering_projector,
    generator_from_rates,
    rate_matrix_from_json,
    rate_matrix_to_json,
    validate_rates,
)
from .integrate import Method, MonitorSeries, Trajectory, extrema_count, integrate, monitor
from .monotonicity import RegionMap, discriminant, ellipse_value, sweep, uvw
from .pme import StructureReport, classify_structure, spectrum, stationary_distribution
from .qt import (
    decompose,
    decompose_2state,
    decompose_3state,
    decompose_nstate,
    decomposition_to_json,
    qt_vector_field,
    reconstruction_residual,
)
from .yd import (
    ConsistencyReport,
    YDCurve,
    YDParams,
    yd_consistency,
    yd_curve,
    yd_optimal_arousal,
    yd_rates,
    yd_stationary,
)

__all__ = [
    "Generator",
    "Method",
    "MonitorSeries",
    "ProbabilityVector",
    "QTDecomposition",
    "QuadraticEntropy",
    "RateMatrix",
    "RegionMap",
    "RelaxationClass",
    "RelaxationKind",
    "SpectralInfo",
    "StructureReport",
    "Trajectory",
    "UVWCoordinates",
    "YDCurve",
    "YDParams",
    "ConsistencyReport",
    "centering_projector",
    "classify_structure",
    "decompose",
    "decompose_2state",
    "decompose_3state",
    "decompose_nstate",
    "decomposition_to_json",
    "discriminant",
    "ellipse_value",
    "extrema_count",
    "generator_from_rates",
    "integrate",
    "monitor",
    "qt_vector_field",
    "rate_matrix_from_json",
    "rate_matrix_to_json",
    "reconstruction_residual",
    "spectrum",
    "stationary_distribution",
    "sweep",
    "uvw",
    "validate_rates",
    "yd_consistency",
    "yd_curve",
    "yd_optimal_arousal",
    "yd_rates",
    "yd_stationary",
]

__version__ = "0.1.0"
