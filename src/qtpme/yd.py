"""Three-state arousal-learning model with an inverted-U performance curve.

States: untrained (1), poorly trained (2), well trained (3).  Arousal k
scales the primary-learning rate a = a1*k and the habit-loss rate
f = f1*k, while the secondary-learning rate d and the forgetting rate e
stay fixed, so the stationary well-trained probability rho3(k) rises and
then falls with a single interior maximum at k = sqrt(d*e / (a1*f1)).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (
    ProbabilityVector,
    RateMatrix,
    _Frozen,
    _FrozenValue,
    _frozen_array,
    uniform_grid,
)
from .errors import (
    DegenerateDenominator,
    DomainError,
    QtpmeError,
    ValidationError,
    ZeroRateProduct,
)


class YDParams(_FrozenValue):
    """Arousal-independent model rates (all per unit time; a1 and f1 per
    arousal unit)."""

    __slots__ = ("a1", "f1", "d", "e")

    def __init__(self, a1: float, f1: float, d: float, e: float) -> None:
        for name, value in (("a1", a1), ("f1", f1), ("d", d), ("e", e)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        self._set(a1=a1, f1=f1, d=d, e=e)


class YDCurve(_Frozen):
    """Stationary occupations sampled over an arousal grid."""

    __slots__ = ("k_grid", "rho1", "rho2", "rho3")

    def __init__(self, k_grid: np.ndarray, rho1: np.ndarray, rho2: np.ndarray,
                 rho3: np.ndarray) -> None:
        self._set(k_grid=_frozen_array(k_grid), rho1=_frozen_array(rho1),
                  rho2=_frozen_array(rho2), rho3=_frozen_array(rho3))


def yd_rates(params: YDParams, k: float) -> RateMatrix:
    """Rate matrix at arousal k: (a, b, c, d, e, f) = (a1*k, 0, 0, d, e, f1*k).

    Raises :class:`DomainError` when a1*k or f1*k is not a finite double:
    the matrix holds the rates themselves, so unlike the stationary state
    they cannot be rescaled into range.
    """
    if not k >= 0.0:
        raise ValidationError(f"arousal must be >= 0, got {k!r}")
    a, f = params.a1 * k, params.f1 * k
    for what, rate, r1 in (("a1*k", a, params.a1), ("f1*k", f, params.f1)):
        if not math.isfinite(rate):
            raise DomainError(
                f"rate {what} = {r1!r}*{k!r} is outside the float range "
                f"(|x| <= {sys.float_info.max!r})"
            )
    return RateMatrix.from_coeffs(a, 0.0, 0.0, params.d, params.e, f)


def _exponent(x: float) -> int:
    """The exponent p of ``x = m * 2**p`` with m in [0.5, 1), so that
    ``|x| < 2**p``; zero gets one far below every double, so a zero rate
    never bounds a scale."""
    m, p = math.frexp(x)
    return p if m else -4096


def _stationary_parts(params: YDParams, k):
    """Numerators (de, a(e+f), ad) and denominator de + a(d+e+f) at arousal
    k >= 0, with the four rates of each point scaled by one power of two.

    The power 2**s is the largest for which no scaled rate and no product
    of two reaches 2**1020, so no sum overflows, and small rates are lifted
    as far as that allows: the denominator lies within a factor 4 of
    2**1020, and a numerator whose ratio to it is a double at all is a
    normal number.  Scaling by 2**s is exact wherever the values stay
    normal, so the state is that of the unscaled rates to the last bit
    whenever those neither over- nor underflow; only a rate some 2**2040
    below the largest stays subnormal and keeps fewer bits.  s depends on
    k only through its binary exponent, so it is tabulated once per
    exponent field (field 0, zero and subnormals, as the smallest normal
    binade).
    """
    k = np.asarray(k, dtype=np.float64)
    pa1, pf1, pd, pe = (_exponent(r) for r in (params.a1, params.f1, params.d, params.e))
    pde = max(pd, pe)
    pk = np.arange(-1022, 1026)
    top = np.maximum(pk + max(pa1, pf1), pde)
    top_product = np.maximum(pd + pe, pk + pa1 + np.maximum(pk + pf1, pde))
    scales = np.minimum(1020 - top, (1020 - top_product) // 2).astype(np.int32)
    s = scales.take((k.view(np.int64) >> 52) & 0x7FF)
    a = np.ldexp(k, s + pa1)
    a *= math.frexp(params.a1)[0]
    f = np.ldexp(k, s + pf1)
    f *= math.frexp(params.f1)[0]
    d, e = np.ldexp(float(params.d), s), np.ldexp(float(params.e), s)
    de = d * e
    # in place, in the order of de + a*(d + e + f), a*(e + f) and a*d, so
    # the bytes match the plain expressions with fewer temporary arrays
    denom = d + e
    denom += f
    denom *= a
    denom += de
    f += e
    f *= a
    d *= a
    return de, f, d, denom


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
            f"stationary denominator de + a(d+e+f) = {float(denom)!r}; no unique stationary state"
        )
    return ProbabilityVector(np.array([num1, num2, num3]) / denom)


#: arousal points per block of a curve
_BLOCK_POINTS = 1 << 14


def _curve_blocks(params: YDParams, k_min: float, k_max: float, steps: int):
    """Validate a curve and return its arousal grid and a function whose
    every call evaluates the grid anew, yielding ``(part, rho1, rho2, rho3)``
    per block of ``_BLOCK_POINTS`` points: the slice of the grid and the
    occupations there.  A block where the denominator vanishes raises
    :class:`DegenerateDenominator`.
    """
    if not (0.0 <= k_min < k_max < np.inf):
        raise ValidationError(f"need finite 0 <= k_min < k_max, got ({k_min}, {k_max})")
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    k_grid = uniform_grid(k_min, k_max, steps)

    def blocks():
        for start in range(0, steps, _BLOCK_POINTS):
            part = slice(start, start + _BLOCK_POINTS)
            num1, num2, num3, denom = _stationary_parts(params, k_grid[part])
            if denom.min() <= 0.0:
                raise DegenerateDenominator(
                    "stationary denominator vanishes somewhere on the arousal grid"
                )
            yield part, num1 / denom, num2 / denom, num3 / denom

    return k_grid, blocks


def yd_curve(params: YDParams, k_min: float, k_max: float, steps: int) -> YDCurve:
    """Sample the stationary occupations over a uniform arousal grid.

    The occupations are (de, a(e+f), ad) / (de + a(d+e+f)); rho3 vanishes
    at k = 0 and as k grows without bound, which is the inverted-U shape.
    """
    k_grid, blocks = _curve_blocks(params, k_min, k_max, steps)
    rho = np.empty((3, steps))
    for part, *block in blocks():
        rho[:, part] = block
    return YDCurve(k_grid=k_grid, rho1=rho[0], rho2=rho[1], rho3=rho[2])


def _product(x: float, y: float) -> tuple[float, int]:
    """``x*y`` as ``(m, p)`` with ``x*y = m * 2**p``: the rounded product,
    scaled exactly by a power of two so that it neither overflows nor
    underflows."""
    mx, px = math.frexp(x)
    my, py = math.frexp(y)
    return mx * my, px + py


def _sqrt(m: float, p: int) -> tuple[float, int]:
    """``sqrt(m * 2**p)`` as ``(r, q)`` with the root ``r * 2**q``; the
    square root is taken at the even power ``2**(2q)``, so it is exact
    scaling of the rounded root."""
    q, odd = divmod(p, 2)
    return math.sqrt(math.ldexp(m, odd)), q


def _ldexp(x: float, p: int) -> float:
    """``x * 2**p``, infinite where that overflows."""
    try:
        return math.ldexp(x, p)
    except OverflowError:
        return math.copysign(math.inf, x)


def _as_float(m: float, p: int, what: str) -> float:
    """``m * 2**p``; ValidationError when that is outside the float range."""
    value = _ldexp(m, p)
    if m != 0.0 and not 0.0 < abs(value) < math.inf:
        raise ValidationError(f"{what} = {m!r} * 2**{p} is outside the float range")
    return value


def yd_optimal_arousal(params: YDParams) -> float:
    """Arousal maximizing the well-trained occupation: sqrt(d*e / (a1*f1)).

    Raises :class:`ZeroRateProduct` when a1*f1 = 0, in which case the
    curve is monotone and has no interior maximum.  The products are
    formed with exact power-of-two scaling, so only an optimum outside the
    float range is an error (:class:`ValidationError`).
    """
    return math.ldexp(*_optimum(params))


def _optimum(params: YDParams) -> tuple[float, int]:
    """The optimal arousal as ``(r, q)`` with ``k_opt = r * 2**q``, checked
    to be a double; see :func:`yd_optimal_arousal`."""
    if params.a1 == 0.0 or params.f1 == 0.0:
        raise ZeroRateProduct(
            f"a1*f1 = 0 (a1={params.a1}, f1={params.f1}); rho3(k) has no interior maximum"
        )
    de, de_exp = _product(params.d, params.e)
    af, af_exp = _product(params.a1, params.f1)
    root, exp = _sqrt(de / af, de_exp - af_exp)
    _as_float(root, exp, "optimal arousal sqrt(d*e / (a1*f1))")
    return root, exp


class ConsistencyReport(_FrozenValue):
    """Both sides of the balanced-training condition and the rate-sum
    imbalance at optimal arousal (zero exactly when the condition holds)."""

    __slots__ = ("lhs", "rhs", "satisfied", "omega_at_kopt")

    def __init__(self, lhs: float, rhs: float, satisfied: bool, omega_at_kopt: float) -> None:
        self._set(lhs=lhs, rhs=rhs, satisfied=satisfied, omega_at_kopt=omega_at_kopt)


def yd_consistency(params: YDParams, tol: float = 1e-9) -> ConsistencyReport:
    """Check the balanced-training condition (d+e)/sqrt(de) = (f1-a1)/sqrt(f1*a1).

    The condition holds exactly when the rate-sum imbalance
    omega = (a + d + e) - f vanishes at optimal arousal, which also rules
    out oscillatory relaxation there.  The two formulations are
    cross-checked against each other to ``tol``, in units of sqrt(de).
    Both sides are ratios of rates, formed with exact power-of-two scaling
    so that no product over- or underflows; a result outside the float
    range is a :class:`ValidationError`.
    """
    a1, f1, d, e = params.a1, params.f1, params.d, params.e
    if not (d > 0.0 and e > 0.0 and a1 > 0.0 and f1 > 0.0):
        raise DomainError(
            f"consistency condition needs d*e > 0 and a1*f1 > 0 (d={d}, e={e}, a1={a1}, f1={f1})"
        )
    root_de, de_exp = _sqrt(*_product(d, e))
    root_af, af_exp = _sqrt(*_product(a1, f1))
    lhs = (_ldexp(d, -de_exp) + _ldexp(e, -de_exp)) / root_de
    rhs = (_ldexp(f1, -af_exp) - _ldexp(a1, -af_exp)) / root_af
    # omega = (a1*k_opt + d + e) - f1*k_opt with every term scaled exactly
    # by 2**-de_exp, so that subnormal rates keep their digits
    k, k_exp = _optimum(params)
    a_s, f_s = (_ldexp(m, p + k_exp - de_exp) for m, p in (_product(a1, k), _product(f1, k)))
    omega_s = (a_s + _ldexp(d, -de_exp) + _ldexp(e, -de_exp)) - f_s
    omega = _ldexp(omega_s, de_exp)
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(omega)):
        raise ValidationError(
            f"consistency terms overflow a double (lhs={lhs}, rhs={rhs}, omega={omega})"
        )
    scale = max(1.0, abs(lhs), abs(rhs))
    mismatch = abs(omega_s / root_de - (lhs - rhs))  # in units of sqrt(de)
    if mismatch > tol * scale:
        raise QtpmeError(
            f"internal cross-check failed: omega(k_opt) differs from "
            f"sqrt(de)*(lhs-rhs) by {mismatch:.3e} sqrt(de)"
        )
    satisfied = abs(lhs - rhs) <= tol * scale
    return ConsistencyReport(lhs=lhs, rhs=rhs, satisfied=satisfied, omega_at_kopt=omega)
