"""Quasithermodynamic analysis of Pauli master equations.

Decomposes finite-state Markov rate dynamics into a conserved total plus a
nondecreasing quadratic entropy with an antisymmetric circulation part,
classifies relaxation as monotonic or oscillatory, and evaluates the
three-state arousal-learning model.

The public names below are loaded from their submodules on first use, so
``import qtpme`` itself loads no numpy.
"""

import sys
import types

_SUBMODULE_OF = {
    name: module
    for module, names in {
        "core": (
            "Generator",
            "ProbabilityVector",
            "QTDecomposition",
            "QuadraticEntropy",
            "RateMatrix",
            "RelaxationClass",
            "RelaxationKind",
            "SpectralInfo",
            "UVWCoordinates",
            "centering_projector",
            "generator_from_rates",
            "rate_matrix_from_json",
            "rate_matrix_to_json",
            "validate_rates",
        ),
        "integrate": ("Method", "MonitorSeries", "Trajectory", "extrema_count", "integrate",
                      "monitor"),
        "monotonicity": ("RegionMap", "discriminant", "ellipse_value", "sweep", "uvw"),
        "pme": ("StructureReport", "classify_structure", "spectrum", "stationary_distribution"),
        "qt": (
            "decompose",
            "decompose_2state",
            "decompose_3state",
            "decompose_nstate",
            "decomposition_to_json",
            "qt_vector_field",
            "reconstruction_residual",
        ),
        "yd": (
            "ConsistencyReport",
            "YDCurve",
            "YDParams",
            "yd_consistency",
            "yd_curve",
            "yd_optimal_arousal",
            "yd_rates",
            "yd_stationary",
        ),
    }.items()
    for name in names
}

# Submodules reachable as ``qtpme.<name>`` after a plain ``import qtpme``:
# those the public names live in, and ``errors``.
_SUBMODULES = frozenset(_SUBMODULE_OF.values()) | {"errors"}

__all__ = sorted(_SUBMODULE_OF)

__version__ = "0.1.0"


def _submodule(name):
    # ``__import__`` rather than ``importlib.import_module``: only the
    # former's imports are reported by ``python -X importtime``
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        if name in _SUBMODULES:
            return _submodule(name)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module.  Importing a submodule binds it as an attribute
    of the package; for ``integrate``, which names both a submodule and the
    function it exports, the function keeps the name in every import order.
    """

    def __setattr__(self, name, value):
        if not (name in _SUBMODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
