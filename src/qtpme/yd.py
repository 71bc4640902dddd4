"""Three-state arousal-learning model with an inverted-U performance curve.

States: untrained (1), poorly trained (2), well trained (3).  Arousal k
scales the primary-learning rate a = a1*k and the habit-loss rate
f = f1*k, while the secondary-learning rate d and the forgetting rate e
stay fixed, so the stationary well-trained probability rho3(k) rises and
then falls with a single interior maximum at k = sqrt(d*e / (a1*f1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProbabilityVector, RateMatrix, _frozen_array
from .errors import (
    DegenerateDenominator,
    DomainError,
    QtpmeError,
    ValidationError,
    ZeroRateProduct,
)


@dataclass(frozen=True)
class YDParams:
    """Arousal-independent model rates (all per unit time; a1 and f1 per
    arousal unit)."""

    a1: float
    f1: float
    d: float
    e: float

    def __post_init__(self):
        for name in ("a1", "f1", "d", "e"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class YDCurve:
    """Stationary occupations sampled over an arousal grid."""

    k_grid: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray

    def __post_init__(self):
        for name in ("k_grid", "rho1", "rho2", "rho3"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def yd_rates(params: YDParams, k: float) -> RateMatrix:
    """Rate matrix at arousal k: (a, b, c, d, e, f) = (a1*k, 0, 0, d, e, f1*k)."""
    if not k >= 0.0:
        raise ValidationError(f"arousal must be >= 0, got {k!r}")
    return RateMatrix.from_coeffs(params.a1 * k, 0.0, 0.0, params.d, params.e, params.f1 * k)


def _stationary_parts(params: YDParams, k):
    a = params.a1 * k
    f = params.f1 * k
    d, e = params.d, params.e
    denom = d * e + a * (d + e + f)
    return d * e, a * (e + f), a * d, denom


def yd_stationary(params: YDParams, k: float) -> ProbabilityVector:
    """Closed-form stationary state (de, a(e+f), ad) / (de + a(d+e+f)).

    Raises :class:`DegenerateDenominator` when the denominator vanishes
    (for example k = 0 with e = 0): the stationary set is then not a
    single point.
    """
    if not k >= 0.0:
        raise ValidationError(f"arousal must be >= 0, got {k!r}")
    num1, num2, num3, denom = _stationary_parts(params, k)
    if denom <= 0.0:
        raise DegenerateDenominator(
            f"stationary denominator de + a(d+e+f) = {denom!r}; no unique stationary state"
        )
    return ProbabilityVector(np.array([num1, num2, num3]) / denom)


def yd_curve(params: YDParams, k_min: float, k_max: float, steps: int) -> YDCurve:
    """Sample the stationary occupations over a uniform arousal grid.

    The occupations are (de, a(e+f), ad) / (de + a(d+e+f)); rho3 vanishes
    at k = 0 and as k grows without bound, which is the inverted-U shape.
    """
    if not (0.0 <= k_min < k_max < np.inf):
        raise ValidationError(f"need finite 0 <= k_min < k_max, got ({k_min}, {k_max})")
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    k_grid = np.linspace(k_min, k_max, steps)
    num1, num2, num3, denom = _stationary_parts(params, k_grid)
    if denom.min() <= 0.0:
        raise DegenerateDenominator(
            "stationary denominator vanishes somewhere on the arousal grid"
        )
    return YDCurve(k_grid=k_grid, rho1=num1 / denom, rho2=num2 / denom, rho3=num3 / denom)


def yd_optimal_arousal(params: YDParams) -> float:
    """Arousal maximizing the well-trained occupation: sqrt(d*e / (a1*f1)).

    Raises :class:`ZeroRateProduct` when a1*f1 = 0, in which case the
    curve is monotone and has no interior maximum.
    """
    product = params.a1 * params.f1
    if product == 0.0:
        raise ZeroRateProduct(
            f"a1*f1 = 0 (a1={params.a1}, f1={params.f1}); rho3(k) has no interior maximum"
        )
    return math.sqrt(params.d * params.e / product)


@dataclass(frozen=True)
class ConsistencyReport:
    """Both sides of the balanced-training condition and the rate-sum
    imbalance at optimal arousal (zero exactly when the condition holds)."""

    lhs: float
    rhs: float
    satisfied: bool
    omega_at_kopt: float


def yd_consistency(params: YDParams, tol: float = 1e-9) -> ConsistencyReport:
    """Check the balanced-training condition (d+e)/sqrt(de) = (f1-a1)/sqrt(f1*a1).

    The condition holds exactly when the rate-sum imbalance
    omega = (a + d + e) - f vanishes at optimal arousal, which also rules
    out oscillatory relaxation there.  The two formulations are
    cross-checked against each other to ``tol``.
    """
    de = params.d * params.e
    product = params.a1 * params.f1
    if de <= 0.0 or product <= 0.0:
        raise DomainError(
            f"consistency condition needs d*e > 0 and a1*f1 > 0 (d*e={de}, a1*f1={product})"
        )
    lhs = (params.d + params.e) / math.sqrt(de)
    rhs = (params.f1 - params.a1) / math.sqrt(product)
    k_opt = yd_optimal_arousal(params)
    omega = (params.a1 * k_opt + params.d + params.e) - params.f1 * k_opt
    scale = max(1.0, abs(lhs), abs(rhs))
    mismatch = abs(omega - math.sqrt(de) * (lhs - rhs))
    if mismatch > tol * scale:
        raise QtpmeError(
            f"internal cross-check failed: omega(k_opt) differs from "
            f"sqrt(de)*(lhs-rhs) by {mismatch:.3e}"
        )
    satisfied = abs(lhs - rhs) <= tol * scale
    return ConsistencyReport(lhs=lhs, rhs=rhs, satisfied=satisfied, omega_at_kopt=omega)
