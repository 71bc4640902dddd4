"""Time evolution of master equations with conservation and entropy monitors."""

from __future__ import annotations

import enum

import numpy as np

from .core import (
    TOL_SUM,
    Generator,
    ProbabilityVector,
    QTDecomposition,
    _Frozen,
    _frozen_array,
    check_count,
    uniform_grid,
)
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


class Trajectory(_Frozen):
    """Sampled solution p(t): row ``states[k]`` is the state at ``times[k]``.

    ``states`` is a copy in column order, the layout :func:`integrate`
    propagates in; no time points or no states raise :class:`BadShape`.
    The row sums carry whatever drift the integrator produced; they are
    checked against ``TOL_SUM`` but never rescaled, so a broken
    generator shows up here instead of being hidden.
    """

    __slots__ = ("times", "states", "method")

    def __init__(self, times: np.ndarray, states: np.ndarray, method: Method) -> None:
        times = np.asarray(times, dtype=float)
        states = np.array(states, dtype=float, order="F")
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size or not states.size:
            raise BadShape("times must be 1-D and states (T, N) with matching T >= 1, N >= 1")
        if not np.all(np.diff(times) > 0.0):
            raise ValidationError("times must be strictly increasing")
        _check_drift(states.T)
        states.setflags(write=False)
        self._set(times=_frozen_array(times), states=states, method=method)

    @property
    def n(self) -> int:
        return self.states.shape[1]


class MonitorSeries(_Frozen):
    """Conserved total, quadratic entropy (when available), and the
    Boltzmann-Shannon entropy along a trajectory."""

    __slots__ = ("h_vals", "s_vals", "s_bs_vals")

    def __init__(self, h_vals: np.ndarray, s_vals: np.ndarray | None,
                 s_bs_vals: np.ndarray) -> None:
        self._set(h_vals=_frozen_array(h_vals),
                  s_vals=None if s_vals is None else _frozen_array(s_vals),
                  s_bs_vals=_frozen_array(s_bs_vals))


#: rows per block of a trajectory: the first block is built by doubling and
#: each later one is the block before advanced by T^_BLOCK_ROWS
_BLOCK_ROWS = 1 << 12


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
    ``T^k p0``.  ``Method.RK4`` takes fixed classical Runge-Kutta steps:
    one step is the stability polynomial ``R(h*m)`` (see :func:`_taylor`),
    applied the same way.  The first ``_BLOCK_ROWS`` states are built by
    doubling, and each later block of as many states is the block before
    advanced by ``T^_BLOCK_ROWS`` (see :func:`_propagate_blocks`), into one
    frozen (N, T) array: ``states`` is its view.  Neither method
    renormalizes the state: sum drift is reported, not repaired.

    Raises
    ------
    ValidationError
        When ``steps`` is below 1 or above ``core.MAX_COUNT``, ``t_end``
        is not finite and positive, or ``t_end/steps`` is too small to give
        strictly increasing times; in RK4 mode when an eigenvalue of the
        generator overflows.
    UnstableStep
        In RK4 mode when the step lies outside the stability region for
        some generator eigenvalue; the error names the smallest stable
        step count.
    ProbabilityDrift
        When the row sums drift from 1 by more than ``TOL_SUM``.
    """
    blocks = _propagate_blocks(g, p0, t_end, steps, method)
    times, states = np.empty(steps + 1), np.empty((g.n, steps + 1))
    for rows, block_times, block in blocks():
        times[rows], states[:, rows] = block_times, block
    states.setflags(write=False)
    return Trajectory._adopt(times=times, states=states.T, method=method)


def _propagate_blocks(g: Generator, p0: ProbabilityVector, t_end: float, steps: int,
                      method: Method):
    """Validate a trajectory as :func:`integrate` does and return a function
    whose every call propagates it anew, yielding ``(rows, times, cols)``
    per block of ``_BLOCK_ROWS`` rows: its slice of the trajectory, its
    points of ``uniform_grid(0, t_end, steps + 1)`` and its states as
    columns (N, rows), ``T @ cols``, in a buffer that a later block reuses;
    the drift check, the monitor and the CSV writer read them as they are.
    From N = 8 on, depending on the CPU's BLAS kernel, a state may differ
    by an ulp from the row-major ``rows @ T'``.  A block whose sums drift
    from 1 by more than ``TOL_SUM`` raises :class:`ProbabilityDrift`.  The
    times are checked here, before any step matrix is built.
    """
    if g.n != p0.n:
        raise BadShape(f"generator dimension {g.n} does not match state {p0.n}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    check_count(steps, "steps (--steps)")
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise ValidationError(f"t_end (--t-end) must be finite and positive, got {t_end}")
    last = -np.inf
    for start in range(0, steps + 1, _BLOCK_ROWS):
        times = uniform_grid(0.0, t_end, steps + 1, start, min(start + _BLOCK_ROWS, steps + 1))
        if not (times[0] > last and np.all(times[1:] > times[:-1])):
            raise ValidationError(f"the step t_end/steps (--t-end/--steps) = {t_end}/{steps} "
                                  "is too small to give strictly increasing times")
        last = times[-1]
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

    # Columns [k, 2k) are columns [0, k) advanced by T^k; T^k then squares,
    # and its last square, T^B, advances every later block of B columns.
    first = np.empty((g.n, min(steps + 1, _BLOCK_ROWS)))
    first[:, 0] = p0.entries
    k = 1
    while k < first.shape[1]:
        power = _conserving(power, floor)
        count = min(k, first.shape[1] - k)
        first[:, k:k + count] = power @ first[:, :count]
        power = power @ power
        k *= 2
    advance = _conserving(power, floor)
    buffers = np.empty((2,) + first.shape)

    def blocks():
        block = first
        for start in range(0, steps + 1, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, steps + 1)
            if start:
                block = np.matmul(advance, block[:, :stop - start],
                                  out=buffers[start // _BLOCK_ROWS % 2, :, :stop - start])
            _check_drift(block)
            yield slice(start, stop), uniform_grid(0.0, t_end, steps + 1, start, stop), block

    return blocks


def _check_drift(cols: np.ndarray) -> None:
    """Raise :class:`ProbabilityDrift` when a column sum of the states
    ``cols`` (N, T) is NaN or drifts from 1 by more than ``TOL_SUM``.  The
    N rows are added in index order, N vector steps on contiguous columns;
    numpy adds a contiguous row of fewer than 8 values in index order too,
    so for N <= 7 these are the bytes of the (T, N) row sums; from N = 8 on
    it sums a row pairwise, and the two may differ by a few ulp."""
    drift = np.abs(np.sum(cols, axis=0) - 1.0).max()
    if not drift <= TOL_SUM:
        raise ProbabilityDrift(drift, TOL_SUM)


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
    # Step counts are exact integers and may pass the float range (a huge
    # t_end), so h = t_end/count and the bracket come from integer ratios.
    t_num, t_den = float(t_end).as_integer_ratio()

    def amplification(count):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: unstable
            z = (t_num / (t_den * count)) * eigvals
            amp = np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
        return float(np.nan_to_num(amp, nan=np.inf, posinf=np.inf).max())

    worst = amplification(steps)
    if worst <= 1.0 + RK4_STABILITY_SLACK:
        return
    lam_num, lam_den = float(np.abs(eigvals).max()).as_integer_ratio()
    lo = steps
    # ceil(t_end * max|lambda| / 2.6), with 2.6 = 13/5
    hi = max(steps + 1, -(-5 * t_num * lam_num // (13 * t_den * lam_den)))
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
    entropy uses the convention 0 * log 0 = 0.  See :func:`_monitor_rows`.
    Each block of states is copied once, as contiguous rows, into a workspace.
    """
    sigma = None
    if qt is not None:
        if qt.n != traj.n:
            raise BadShape(f"decomposition dimension {qt.n} does not match trajectory {traj.n}")
        sigma = qt.entropy.sigma
    values = np.empty((3, traj.times.size))
    rows_of = _monitor_rows(sigma, traj.n)
    cols = np.empty((traj.n, _BLOCK_ROWS))
    for start in range(0, traj.times.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = cols[:, :len(traj.states[rows])]
        np.copyto(block, traj.states[rows].T)
        rows_of(block, values[:, rows])
    return MonitorSeries._adopt(h_vals=values[0], s_vals=None if sigma is None else values[1],
                                s_bs_vals=values[2])


def _monitor_rows(sigma: np.ndarray | None, n: int):
    """Return a function that takes a block of at most ``_BLOCK_ROWS``
    states of dimension ``n`` as columns (n, rows), the layout that
    :func:`_propagate_blocks` yields, writes H, S and S_BS of each state
    into the three rows of ``out`` (by default a buffer of its own, which
    the next call reuses) and returns them as columns, S left out when
    ``sigma`` is None.

    H is the state's sum, S = p' sigma p / 2 and S_BS = -sum p log p with
    0 * log 0 = 0: one formula each for :func:`monitor` and the streamed
    ``simulate`` table, on a workspace allocated once.  Each quantity is
    summed across the columns, so every numpy step covers the whole block.
    H and S_BS add the n terms of a state in index order (see
    :func:`_check_drift`).  S adds the n^2 terms ``(p_i sigma_ij) p_j`` one
    by one from 0, i outer and j inner, in n steps of n + 1 rows each: the
    order of ``einsum("ti,ij,tj->t")``, except on blocks of one or two rows
    at n = 2, where einsum groups the terms by i.
    """
    buffer = np.empty((3, _BLOCK_ROWS))
    log = np.empty((n, _BLOCK_ROWS))
    positive = np.empty((n, _BLOCK_ROWS), bool)
    # row 0: S so far; rows 1..n: the terms of one i
    terms = np.empty((n + 1, _BLOCK_ROWS))

    def rows_of(p, out=None):
        size = p.shape[1]
        h, s, s_bs = buffer[:, :size] if out is None else out
        lg, pos, t = log[:, :size], positive[:, :size], terms[:, :size]
        np.sum(p, axis=0, out=h)
        if sigma is not None:
            s.fill(0.0)
            for i in range(n):
                t[0] = s
                np.multiply.outer(sigma[i], p[i], out=t[1:])
                t[1:] *= p
                np.sum(t, axis=0, out=s)
            s *= 0.5
        np.greater(p, 0.0, out=pos)
        lg.fill(1.0)
        np.copyto(lg, p, where=pos)
        np.log(lg, out=lg)  # log 1 = 0 where p <= 0
        np.multiply(lg, p, out=lg, where=pos)
        np.sum(lg, axis=0, out=s_bs)
        np.negative(s_bs, out=s_bs)
        return [h, s_bs] if sigma is None else [h, s, s_bs]

    return rows_of


def extrema_count(traj: Trajectory, component: int, tol: float | None = None) -> int:
    """Count strict sign changes of the discrete derivative of one component.

    Differences with magnitude at most ``tol`` are ignored so that
    floating-point ripple on a flat tail is not counted as structure.  The
    default tolerance is 1e-9 times the component's maximum magnitude.
    ``component`` is an integer index in ``[0, traj.n)``; anything else
    raises :class:`BadShape`.
    """
    if not (isinstance(component, (int, np.integer)) and 0 <= component < traj.n):
        raise BadShape(f"component must be an integer in [0, {traj.n}), got {component!r}")
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
