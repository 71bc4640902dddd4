"""Exception hierarchy shared by all modules.

Validation errors describe rejected inputs; solver errors describe
well-formed problems the numerical machinery could not complete.  The CLI
maps the two branches to distinct exit codes.
"""


class QtpmeError(Exception):
    """Base class for all package errors."""


class ValidationError(QtpmeError):
    """Input rejected before any computation was attempted."""


class BadShape(ValidationError):
    pass


class NegativeRate(ValidationError):
    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"negative rate {value!r} at (row={row}, col={col}) [1-based]"
        )


class NonzeroDiagonal(ValidationError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"nonzero diagonal entry {value!r} at index {index} [1-based]")


class BadAxis(ValidationError):
    pass


class DomainError(ValidationError):
    """Arguments outside the mathematical domain of an operation."""


class ZeroRateProduct(ValidationError):
    """a1*f1 = 0: the arousal curve has no interior maximum."""


class DegenerateDenominator(ValidationError):
    """Stationary-state denominator vanishes; the stationary set is not a point."""


class SolverError(QtpmeError):
    """A numerical routine failed on well-formed input."""


class NonUniqueStationary(SolverError):
    def __init__(self, null_dim):
        self.null_dim = null_dim
        super().__init__(
            f"stationary state is not unique (kernel dimension {null_dim}); "
            "the chain is reducible"
        )


class UnstableStep(SolverError):
    """RK4 step outside the method's stability region: the iteration would
    amplify some eigenmode of the generator instead of damping it."""

    def __init__(self, steps, steps_needed, amplification):
        self.steps = steps
        self.steps_needed = steps_needed
        self.amplification = amplification
        super().__init__(
            f"RK4 with {steps} steps is unstable (amplification factor "
            f"{amplification:.3e} > 1); use at least {steps_needed} steps"
        )


class ProbabilityDrift(SolverError):
    """The integrated state lost probability beyond the conservation budget."""

    def __init__(self, drift, limit):
        self.drift = drift
        super().__init__(f"probability sum drifted by {drift:.3e} (> {limit:g})")


class NoConvergence(SolverError):
    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"decomposition did not reach tolerance: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class DegenerateRatesWarning(UserWarning):
    """All transition rates vanish; the decomposition is trivially zero."""
