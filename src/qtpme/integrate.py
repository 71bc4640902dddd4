"""Time evolution of master equations with conservation and entropy monitors."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import TOL_SUM, Generator, ProbabilityVector, QTDecomposition, _frozen_array
from .errors import BadShape, ProbabilityDrift, UnstableStep, ValidationError
from .pme import eigenvalues

#: rounding allowance on the RK4 amplification factor; the generator's zero
#: eigenvalue is computed only to about machine precision times its norm
RK4_STABILITY_SLACK = 1e-12
#: Taylor terms of exp(b) for the scaled step, where b is nonnegative with
#: 1-norm at most 1; the first omitted term is below 1/19! ~ 8e-18
_TAYLOR_TERMS = 18


class Method(enum.Enum):
    EXACT = "exact"
    RK4 = "rk4"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution p(t): row ``states[k]`` is the state at ``times[k]``.

    The row sums carry whatever drift the integrator produced; they are
    checked against ``TOL_SUM`` but never rescaled, so a broken
    generator shows up here instead of being hidden.
    """

    times: np.ndarray
    states: np.ndarray
    method: Method

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise BadShape("times must be 1-D and states (T, N) with matching T")
        if not np.all(np.diff(times) > 0.0):
            raise ValidationError("times must be strictly increasing")
        drift = np.abs(states.sum(axis=1) - 1.0).max()
        if not drift <= TOL_SUM:
            raise ProbabilityDrift(drift, TOL_SUM)
        object.__setattr__(self, "times", _frozen_array(times))
        object.__setattr__(self, "states", _frozen_array(states))

    @property
    def n(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class MonitorSeries:
    """Conserved total, quadratic entropy (when available), and the
    Boltzmann-Shannon entropy along a trajectory."""

    h_vals: np.ndarray
    s_vals: np.ndarray | None
    s_bs_vals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_vals", _frozen_array(self.h_vals))
        if self.s_vals is not None:
            object.__setattr__(self, "s_vals", _frozen_array(self.s_vals))
        object.__setattr__(self, "s_bs_vals", _frozen_array(self.s_bs_vals))


def integrate(
    g: Generator,
    p0: ProbabilityVector,
    t_end: float,
    steps: int,
    method: Method = Method.EXACT,
) -> Trajectory:
    """Propagate dp/dt = m p from p0 over ``steps`` uniform intervals.

    ``Method.EXACT`` applies the one-step matrix ``T = exp(h*m)`` (see
    :func:`_step_matrix`), which needs no spectrum and so works alike for
    defective, boundary-class and stiff generators; state ``k`` is
    ``T^k p0``, built by doubling.  ``Method.RK4`` takes fixed classical
    Runge-Kutta steps: one step is the stability polynomial ``R(h*m)``
    (see :func:`_taylor`), applied by the same doubling.  Neither
    renormalizes the state: sum drift is reported by the trajectory
    invariant, not repaired.

    Raises
    ------
    ValidationError
        When ``t_end`` is not finite and positive, or ``t_end/steps`` is
        too small to give strictly increasing times; in RK4 mode when an
        eigenvalue of the generator overflows.
    UnstableStep
        In RK4 mode when the step lies outside the stability region for
        some generator eigenvalue; the error names the smallest stable
        step count.
    ProbabilityDrift
        When the row sums drift from 1 by more than ``TOL_SUM``.
    """
    if g.n != p0.n:
        raise BadShape(f"generator dimension {g.n} does not match state {p0.n}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise ValidationError(f"t_end (--t-end) must be finite and positive, got {t_end}")
    times = np.linspace(0.0, t_end, steps + 1)
    if not np.all(np.diff(times) > 0.0):
        raise ValidationError(f"the step t_end/steps (--t-end/--steps) = {t_end}/{steps} "
                              "is too small to give strictly increasing times")
    h = t_end / steps
    if method is Method.EXACT:
        power, floor = _step_matrix(g.m, h), 0.0
    elif method is Method.RK4:
        _check_rk4_stability(eigenvalues(g), t_end, steps)
        # On a linear system one RK4 step is its stability polynomial R(h*m),
        # the degree-4 Taylor polynomial of exp(h*m); R need not be
        # nonnegative even when stable, so its diagonal takes no floor.
        power, floor = _taylor(h * g.m, 4), -np.inf
    else:
        raise ValidationError(f"unknown method {method!r}")

    # Rows [k, 2k) are rows [0, k) advanced by T^k; T^k then squares.
    states = np.empty((steps + 1, g.n))
    states[0] = p0.entries
    k = 1
    while k <= steps:
        power = _conserving(power, floor)
        count = min(k, steps + 1 - k)
        states[k:k + count] = states[:count] @ power.T
        power = power @ power
        k *= 2
    return Trajectory(times=times, states=states, method=method)


def _conserving(t: np.ndarray, floor: float) -> np.ndarray:
    """Set each diagonal entry of a transition matrix, in place, to one
    minus the rest of its column, but not below ``floor``.

    The exact matrix has columns summing to exactly 1; without the reset
    the rounding error of the sums would double with every squaring.  The
    floor 0 keeps ``exp(h*m)``, and so every state it propagates,
    entrywise nonnegative.
    """
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, np.maximum(1.0 - t.sum(axis=0), floor))
    return t


def _taylor(a: np.ndarray, terms: int) -> np.ndarray:
    """The Taylor polynomial of ``exp(a)`` of degree ``terms``, by Horner's rule."""
    eye = np.eye(a.shape[0])
    t = eye
    for k in range(terms, 0, -1):
        t = eye + (a @ t) / k
    return t


def _step_matrix(m: np.ndarray, h: float) -> np.ndarray:
    """The transition matrix ``exp(h*m)`` of a generator by scaling and
    squaring (Moler & Van Loan, SIAM Review 45(1), 2003).

    ``a = (h / 2^s) m`` has largest exit rate ``c < 1``, so ``b = a + c*I``
    is entrywise nonnegative with columns summing to ``c``.  Every term of
    the Taylor series of ``exp(b)`` is then nonnegative, no cancellation
    occurs, and ``_TAYLOR_TERMS`` terms reach rounding level;
    ``exp(a) = exp(-c) exp(b)`` is squared ``s`` times.  The binary
    exponents of h and of the largest exit rate give s, so ``h * rate``
    is never formed and cannot overflow.
    """
    rate = float(-np.diag(m).min())
    s = max(int(np.frexp(h)[1] + np.frexp(rate)[1]), 0)
    scaled = float(np.ldexp(h, -s))
    c = scaled * rate
    b = scaled * m + c * np.eye(m.shape[0])
    t = _conserving(np.exp(-c) * _taylor(b, _TAYLOR_TERMS), 0.0)
    for _ in range(s):
        t = _conserving(t @ t, 0.0)
    return t


def _check_rk4_stability(eigvals: np.ndarray, t_end: float, steps: int) -> None:
    """Raise :class:`UnstableStep` unless every ``z = h * lambda``, with
    ``h = t_end / steps``, lies in the RK4 stability region
    ``|1 + z + z^2/2 + z^3/6 + z^4/24| <= 1``.

    Along every ray into the left half-plane the region is an interval
    from the origin, so stability is monotone in the step count and the
    smallest stable count is found by bisection.  Every such interval
    reaches past |z| = 2.6, which gives a stable upper bracket.
    """
    def amplification(count):
        z = (t_end / count) * eigvals
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: unstable
            amp = np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
        return float(np.nan_to_num(amp, nan=np.inf, posinf=np.inf).max())

    worst = amplification(steps)
    if worst <= 1.0 + RK4_STABILITY_SLACK:
        return
    lo = steps
    hi = max(steps + 1, int(np.ceil(t_end * float(np.abs(eigvals).max()) / 2.6)))
    while amplification(hi) > 1.0 + RK4_STABILITY_SLACK:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if amplification(mid) > 1.0 + RK4_STABILITY_SLACK:
            lo = mid
        else:
            hi = mid
    raise UnstableStep(steps, hi, worst)


def monitor(traj: Trajectory, qt: QTDecomposition | None = None) -> MonitorSeries:
    """Evaluate the conserved total and the entropies along a trajectory.

    h is the plain probability sum; the quadratic entropy p' sigma p / 2 is
    filled in when a decomposition is supplied; the Boltzmann-Shannon
    entropy uses the convention 0 * log 0 = 0.
    """
    states = traj.states
    h_vals = states.sum(axis=1)
    s_vals = None
    if qt is not None:
        if qt.n != traj.n:
            raise BadShape(f"decomposition dimension {qt.n} does not match trajectory {traj.n}")
        s_vals = 0.5 * np.einsum("ti,ij,tj->t", states, qt.entropy.sigma, states)
    positive = states > 0.0
    s_bs_vals = -np.sum(np.where(positive, states * np.log(np.where(positive, states, 1.0)), 0.0), axis=1)
    return MonitorSeries(h_vals=h_vals, s_vals=s_vals, s_bs_vals=s_bs_vals)


def extrema_count(traj: Trajectory, component: int, tol: float | None = None) -> int:
    """Count strict sign changes of the discrete derivative of one component.

    Differences with magnitude at most ``tol`` are ignored so that
    floating-point ripple on a flat tail is not counted as structure.  The
    default tolerance is 1e-9 times the component's maximum magnitude.
    """
    if traj.times.size < 3:
        raise ValidationError("extrema counting needs at least 3 time points")
    series = traj.states[:, component]
    if tol is None:
        tol = 1e-9 * float(np.abs(series).max())
    diffs = np.diff(series)
    signs = np.sign(diffs[np.abs(diffs) > tol])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
