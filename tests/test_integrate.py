import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qtpme import (
    Method,
    ProbabilityVector,
    RateMatrix,
    RelaxationKind,
    decompose,
    decompose_3state,
    discriminant,
    extrema_count,
    generator_from_rates,
    integrate,
    monitor,
    rate_matrix_from_json,
    stationary_distribution,
    validate_rates,
)
from qtpme.core import MAX_COUNT, uniform_grid
from qtpme.errors import BadShape, ProbabilityDrift, SolverError, UnstableStep, ValidationError
from qtpme.integrate import _BLOCK_ROWS, Trajectory, _monitor_rows, _propagate_blocks

from conftest import random_probability, random_rate_matrix

DATA = Path(__file__).parent / "data"


def rk4_stagewise(m, p0, h, steps):
    """The classical four-stage RK4 loop, one step at a time: the reference
    for the one-step matrix that ``integrate`` applies by doubling."""
    states = np.empty((steps + 1, p0.size))
    states[0] = p = p0
    for k in range(steps):
        k1 = m @ p
        k2 = m @ (p + 0.5 * h * k1)
        k3 = m @ (p + 0.5 * h * k2)
        k4 = m @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = p
    return states


def test_two_state_closed_form_decay():
    # p1(t) = 1/2 + (p1(0) - 1/2) exp(-2t) for unit symmetric rates
    g = generator_from_rates(validate_rates([[0, 1], [1, 0]]))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0])), t_end=1.0, steps=10)
    expected = 0.5 + 0.5 * math.exp(-2.0)
    assert traj.states[-1, 0] == pytest.approx(expected, abs=1e-12)
    for k, t in enumerate(traj.times):
        assert traj.states[k, 0] == pytest.approx(0.5 + 0.5 * math.exp(-2.0 * t), abs=1e-12)


def test_stationary_start_stays_constant(rng):
    w = random_rate_matrix(rng)
    g = generator_from_rates(w)
    p = stationary_distribution(g)
    traj = integrate(g, p, t_end=5.0, steps=50)
    assert np.abs(traj.states - p.entries).max() <= 1e-10


def test_cyclic_rates_oscillate():
    # complex pair at -3/2 +- i sqrt(3)/2 forces repeated extrema
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0, 0.0])), t_end=20.0, steps=4000)
    assert extrema_count(traj, 0, tol=1e-12) >= 2


def test_exact_matches_rk4(rng):
    for _ in range(10):
        w = random_rate_matrix(rng)
        g = generator_from_rates(w)
        p0 = ProbabilityVector(random_probability(rng))
        exact = integrate(g, p0, t_end=10.0, steps=10_000, method=Method.EXACT)
        rk4 = integrate(g, p0, t_end=10.0, steps=10_000, method=Method.RK4)
        assert np.abs(exact.states - rk4.states).max() <= 1e-6


@pytest.mark.parametrize("steps", [10_000, 100_000])
@pytest.mark.parametrize("n", [3, 5, 10])
def test_rk4_matches_stagewise_loop(n, steps):
    # rates over four decades put h*|lambda| up to 0.3 at 1e4 steps
    rng = np.random.default_rng(n * steps)
    rates = 10.0 ** rng.uniform(-2.0, 2.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    g = generator_from_rates(validate_rates(rates))
    p0 = random_probability(rng, n)
    traj = integrate(g, ProbabilityVector(p0), t_end=10.0, steps=steps, method=Method.RK4)
    assert np.abs(traj.states - rk4_stagewise(g.m, p0, 10.0 / steps, steps)).max() <= 1e-12


def test_rk4_step_matrix_may_have_a_negative_diagonal():
    # h = 1/5 is stable (|R(h*lambda)| = 0.95 off the zero eigenvalue), yet
    # one RK4 step R has the diagonal entry -0.1664; the diagonal reset that
    # keeps the columns of R^k summing to 1 must not floor it at 0
    g = generator_from_rates(validate_rates([[0, 7, 0], [0, 0, 9], [8, 1, 0]]))
    r = np.column_stack([rk4_stagewise(g.m, e, 0.2, 1)[1] for e in np.eye(3)])
    assert r.diagonal().min() < -0.16
    p0 = np.array([1.0, 0.0, 0.0])
    traj = integrate(g, ProbabilityVector(p0), t_end=20.0, steps=100, method=Method.RK4)
    assert np.abs(traj.states - rk4_stagewise(g.m, p0, 0.2, 100)).max() <= 1e-12


def test_rk4_matches_exact_rational_recurrence():
    # rates_cyclic with h = 1/8: every RK4 stage is a rational number, and the
    # floats (the library's, and the golden CLI output's) lie within 1e-16
    w = rate_matrix_from_json(json.loads((DATA / "rates_cyclic.json").read_text()))
    g = generator_from_rates(w)
    m = [[Fraction(x) for x in row] for row in g.m.tolist()]
    h = Fraction(1, 8)

    def deriv(p, k=None, c=0):
        q = p if k is None else [x + c * y for x, y in zip(p, k)]
        return [sum(a * x for a, x in zip(row, q)) for row in m]

    p = [Fraction(1), Fraction(0), Fraction(0)]
    exact = [p]
    for _ in range(8):
        k1 = deriv(p)
        k2 = deriv(p, k1, h / 2)
        k3 = deriv(p, k2, h / 2)
        k4 = deriv(p, k3, h)
        p = [x + h / 6 * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(p, k1, k2, k3, k4)]
        exact.append(p)
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0, 0.0])), t_end=1.0, steps=8,
                     method=Method.RK4)
    golden = np.loadtxt(DATA / "golden" / "simulate_rk4.csv", delimiter=",", skiprows=1)
    for states in (traj.states, golden[:, 1:4]):
        assert max(abs(Fraction(x) - y) for row, ex in zip(states.tolist(), exact)
                   for x, y in zip(row, ex)) <= 1e-16


def test_total_probability_conservation(rng):
    w = random_rate_matrix(rng)
    g = generator_from_rates(w)
    p0 = ProbabilityVector(random_probability(rng))
    exact = integrate(g, p0, t_end=10.0, steps=1000, method=Method.EXACT)
    rk4 = integrate(g, p0, t_end=10.0, steps=10_000, method=Method.RK4)
    assert np.abs(exact.states.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(rk4.states.sum(axis=1) - 1.0).max() <= 1e-7


def test_defective_generator_matches_closed_form():
    # a = d = 1 gives a repeated eigenvalue -1 with a single eigenvector;
    # closed form: p1 = exp(-t), p2 = t exp(-t)
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 0, 0))
    p0 = ProbabilityVector(np.array([1.0, 0.0, 0.0]))
    for method, steps, tol in ((Method.EXACT, 100, 1e-12), (Method.RK4, 5000, 1e-9)):
        traj = integrate(g, p0, t_end=5.0, steps=steps, method=method)
        t = traj.times
        assert np.abs(traj.states[:, 0] - np.exp(-t)).max() <= tol
        assert np.abs(traj.states[:, 1] - t * np.exp(-t)).max() <= tol


def test_exact_conserves_on_boundary_generator():
    # D = 0 to rounding: the eigenvector matrix is nearly singular
    w = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 1 - 3e-16)
    assert discriminant(w).kind is RelaxationKind.BOUNDARY
    traj = integrate(generator_from_rates(w), ProbabilityVector(np.array([1.0, 0.0, 0.0])),
                     t_end=10.0, steps=1000, method=Method.EXACT)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
    assert traj.states.min() >= 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lo, hi, t_end", [(1e-6, 1e6, 100.0), (1e-8, 1e8, 10.0)])
def test_exact_conserves_on_stiff_chains(seed, lo, hi, t_end):
    rng = np.random.default_rng(seed)
    rates = np.exp(rng.uniform(np.log(lo), np.log(hi), (5, 5)))
    np.fill_diagonal(rates, 0.0)
    g = generator_from_rates(validate_rates(rates))
    traj = integrate(g, ProbabilityVector(np.full(5, 0.2)), t_end=t_end, steps=100_000,
                     method=Method.EXACT)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
    assert traj.states.min() >= 0.0


def test_exact_is_nonnegative_on_sparse_stiff_chains():
    # a state that a stiff chain has all but emptied must not go negative
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        rates = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), (n, n)))
        rates *= rng.uniform(size=(n, n)) < 0.3
        np.fill_diagonal(rates, 0.0)
        g = generator_from_rates(validate_rates(rates))
        traj = integrate(g, ProbabilityVector(np.full(n, 1.0 / n)), t_end=1.0, steps=100,
                         method=Method.EXACT)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
        assert traj.states.min() >= 0.0


def test_exact_step_beyond_float_range():
    # h times the exit rate, 1.7e309, is not a double; the step still works
    g = generator_from_rates(RateMatrix.from_coeffs(10, 0, 0, 10, 10, 0))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0, 0.0])), t_end=1.7e308,
                     steps=1, method=Method.EXACT)
    assert np.abs(traj.states[-1] - 1.0 / 3.0).max() <= 1e-15


def test_exact_matches_eigen_reference(rng):
    # well-conditioned chains, where the spectral solution is accurate
    for n in (3, 5, 10):
        for _ in range(5):
            w = random_rate_matrix(rng, n=n, scale=10.0)
            g = generator_from_rates(w)
            p0 = random_probability(rng, n)
            traj = integrate(g, ProbabilityVector(p0), t_end=10.0, steps=100_000,
                             method=Method.EXACT)
            lam, vecs = np.linalg.eig(g.m)
            assert np.linalg.cond(vecs) <= 1e3
            coeffs = np.linalg.solve(vecs, p0.astype(complex))
            reference = ((np.exp(np.outer(traj.times, lam)) * coeffs) @ vecs.T).real
            assert np.abs(traj.states - reference).max() <= 1e-12


def test_rk4_outside_stability_region_is_a_solver_error(monkeypatch):
    # eigenvalues 0, -64.7, -145.3: h = 1/50 puts h*lambda = -2.9 outside the
    # real stability interval [-2.785, 0]
    g = generator_from_rates(validate_rates([[0, 30, 50], [10, 0, 60], [20, 40, 0]]))
    p0 = ProbabilityVector(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(UnstableStep) as exc:
        integrate(g, p0, t_end=1.0, steps=50, method=Method.RK4)
    assert isinstance(exc.value, SolverError)
    needed = exc.value.steps_needed
    assert exc.value.steps == 50
    assert exc.value.amplification > 1.0
    assert f"at least {needed} steps" in str(exc.value)
    # the named count is the smallest stable one
    with pytest.raises(UnstableStep):
        integrate(g, p0, t_end=1.0, steps=needed - 1, method=Method.RK4)
    traj = integrate(g, p0, t_end=1.0, steps=needed, method=Method.RK4)
    assert traj.states.min() >= 0.0

    # the eigenvalues are computed once per call, not once per step
    calls = []
    eigvals = np.linalg.eigvals

    def counted(m):
        calls.append(1)
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    integrate(g, p0, t_end=1.0, steps=1000, method=Method.RK4)
    assert len(calls) == 1


def test_sum_drift_is_a_solver_error():
    times = np.linspace(0.0, 1.0, 3)
    for bad in (1.0 + 3e-5, np.nan):
        states = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, bad - 0.5]])
        with pytest.raises(ProbabilityDrift) as exc:
            Trajectory(times=times, states=states, method=Method.RK4)
        assert isinstance(exc.value, SolverError)
        assert not isinstance(exc.value, ValidationError)


@pytest.mark.parametrize("times, states", [
    (np.array([]), np.empty((0, 3))),
    (np.linspace(0.0, 1.0, 3), np.empty((3, 0))),
], ids=["no time points", "no state columns"])
def test_empty_trajectory_is_bad_shape(times, states):
    with pytest.raises(BadShape):
        Trajectory(times=times, states=states, method=Method.EXACT)


def test_integrate_validates_arguments(rng):
    g = generator_from_rates(random_rate_matrix(rng))
    p0 = ProbabilityVector(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        integrate(g, p0, t_end=0.0, steps=10)
    with pytest.raises(ValidationError):
        integrate(g, p0, t_end=1.0, steps=0)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("t_end, steps", [(math.inf, 8), (math.nan, 8), (5e-324, 8),
                                          (1e-320, 10_000), (1.5e-323, 4)])
def test_integrate_rejects_unusable_time_steps(monkeypatch, method, t_end, steps):
    # a non-finite t_end, or a step t_end/steps that leaves equal times, is an
    # input error named as such, raised before any step matrix is built; at
    # (1.5e-323, 4) the step is 5e-324 > 0 and only the last two times are equal
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    p0 = ProbabilityVector(np.array([1.0, 0.0, 0.0]))
    module = sys.modules["qtpme.integrate"]
    monkeypatch.setattr(module, "_taylor", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="t_end") as exc:
            integrate(g, p0, t_end=t_end, steps=steps, method=method)
    assert "--t-end" in str(exc.value)


def grid_times_increase(t_end, steps):
    """Whether ``uniform_grid(0, t_end, steps + 1)`` strictly increases,
    compared block by block: the reference for the one-comparison rule."""
    last = -np.inf
    for start in range(0, steps + 1, _BLOCK_ROWS):
        times = uniform_grid(0.0, t_end, steps + 1, start, min(start + _BLOCK_ROWS, steps + 1))
        if not (times[0] > last and np.all(times[1:] > times[:-1])):
            return False
        last = times[-1]
    return True


def test_time_step_rule_refuses_exactly_where_the_grid_repeats_a_time():
    # the rule in _propagate_blocks never builds the grid; it must agree with
    # the grid itself on tiny multiples of the smallest subnormal, around the
    # block size, on random normal and subnormal draws and at MAX_COUNT steps
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    p0 = ProbabilityVector(np.array([1.0, 0.0, 0.0]))
    draws = np.random.default_rng(27)
    cases = [(j * 5e-324, steps) for j in range(1, 13)
             for steps in [*range(1, 41), 4095, 4096, 4097]]
    cases += [(float(j) * 5e-324, int(steps)) for j, steps in
              zip(draws.integers(1, 1 << 14, 200), draws.integers(1, 1 << 13, 200))]
    cases += [(float(10.0 ** e), int(steps)) for e, steps in
              zip(draws.uniform(-323.5, 308.0, 200), draws.integers(1, 1 << 13, 200))]
    cases += [(t_end, steps) for t_end in (1.0, 1e-300, 2.2e-308, 1.797e308, 1e-310)
              for steps in (MAX_COUNT, MAX_COUNT - 1)]
    refused = 0
    for t_end, steps in cases:
        if grid_times_increase(t_end, steps):
            _propagate_blocks(g, p0, t_end, steps, Method.EXACT)
        else:
            with pytest.raises(ValidationError, match="strictly increasing"):
                _propagate_blocks(g, p0, t_end, steps, Method.EXACT)
            refused += 1
    assert 0 < refused < len(cases)


def test_monitor_totals_and_entropies(rng):
    w = random_rate_matrix(rng)
    g = generator_from_rates(w)
    traj = integrate(g, ProbabilityVector(random_probability(rng)), t_end=10.0, steps=500)
    series = monitor(traj)
    assert np.abs(series.h_vals - 1.0).max() <= 1e-9
    assert series.s_vals is None
    assert series.s_bs_vals.shape == traj.times.shape


def test_monitor_shannon_entropy_grows_for_symmetric_rates(rng):
    base = rng.uniform(0.1, 1.0, (3, 3))
    w = validate_rates(np.triu(base, 1) + np.triu(base, 1).T)
    g = generator_from_rates(w)
    traj = integrate(g, ProbabilityVector(np.array([0.9, 0.05, 0.05])), t_end=10.0, steps=1000)
    series = monitor(traj)
    assert np.diff(series.s_bs_vals).min() >= -1e-9


def test_monitor_quadratic_entropy_grows_on_own_trajectories(rng):
    for _ in range(20):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        assert qt.residual <= 1e-10
        g = generator_from_rates(w)
        traj = integrate(g, ProbabilityVector(random_probability(rng)), t_end=10.0, steps=1000)
        series = monitor(traj, qt)
        assert np.diff(series.s_vals).min() >= -1e-9


def test_monitor_handles_exact_zero_probabilities():
    # 0 * log 0 contributes nothing
    g = generator_from_rates(validate_rates(np.array([[0.0, 0.0], [1.0, 0.0]])))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0])), t_end=1.0, steps=10)
    series = monitor(traj)
    assert series.s_bs_vals[0] == 0.0


def monitor_reference(states, sigma):
    """H, S and S_BS of each row by the formulas that sum along the rows:
    the bytes the monitor gave before it summed across columns."""
    pos = states > 0.0
    terms = np.where(pos, states * np.log(np.where(pos, states, 1.0)), 0.0)
    return (np.sum(states, axis=1), 0.5 * np.einsum("ti,ij,tj->t", states, sigma, states),
            -np.sum(terms, axis=1))


def stiff_rows(rng, n, rows):
    """States as a stiff RK4 run leaves them: about a fifth of the entries
    exactly 0, and a twentieth tiny negatives of -1e-19 to -1e-16."""
    states = rng.dirichlet(np.ones(n), rows)
    states[rng.uniform(size=states.shape) < 0.2] = 0.0
    negative = rng.uniform(size=states.shape) < 0.05
    states[negative] = -(10.0 ** rng.uniform(-19.0, -16.0, negative.sum()))
    states[0, 0], states[-1, -1] = 0.0, -1e-17
    return states


def random_sigma(rng, n):
    a = rng.normal(size=(n, n))
    return -(a @ a.T)


@pytest.mark.parametrize("n", range(2, 8))
def test_monitor_rows_keep_the_bytes_of_the_row_formulas(n):
    # numpy adds a contiguous row of fewer than 8 values in index order, the
    # order of the column sums, and einsum adds S's terms in the monitor's order
    rng = np.random.default_rng(n)
    sigma = random_sigma(rng, n)
    rows_of = _monitor_rows(sigma, n)
    for size in (_BLOCK_ROWS, 1000, 3):
        states = stiff_rows(rng, n, size)
        assert (states == 0.0).any() and (states < 0.0).any()
        for got, want in zip(rows_of(np.ascontiguousarray(states.T)),
                             monitor_reference(states, sigma)):
            np.testing.assert_array_equal(got, want)
    # on one or two rows at n = 2, einsum groups S's terms by i instead
    states = stiff_rows(rng, n, 2)
    _, s, _ = rows_of(np.ascontiguousarray(states.T))
    assert np.abs(s - monitor_reference(states, sigma)[1]).max() <= np.spacing(np.abs(s)).max()


@pytest.mark.parametrize("n", [8, 12, 30])
def test_monitor_rows_move_h_and_s_bs_by_a_few_ulp_from_n_8(n):
    # from 8 values on numpy sums a row pairwise; S keeps einsum's bytes
    rng = np.random.default_rng(n)
    sigma = random_sigma(rng, n)
    states = stiff_rows(rng, n, _BLOCK_ROWS)
    h, s, s_bs = _monitor_rows(sigma, n)(np.ascontiguousarray(states.T))
    h_ref, s_ref, s_bs_ref = monitor_reference(states, sigma)
    np.testing.assert_array_equal(s, s_ref)
    for got, want in ((h, h_ref), (s_bs, s_bs_ref)):
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


def test_monitor_matches_the_row_formulas_across_blocks():
    # three full blocks and a short one, on a real RK4 trajectory
    w = rate_matrix_from_json(json.loads((DATA / "rates_cyclic.json").read_text()))
    qt = decompose_3state(w)
    traj = integrate(generator_from_rates(w), ProbabilityVector(np.array([1.0, 0.0, 0.0])),
                     t_end=5.0, steps=3 * _BLOCK_ROWS + 4, method=Method.RK4)
    assert traj.times.size == 3 * _BLOCK_ROWS + 5
    series = monitor(traj, qt)
    h, s, s_bs = monitor_reference(traj.states, qt.entropy.sigma)
    np.testing.assert_array_equal(series.h_vals, h)
    np.testing.assert_array_equal(series.s_vals, s)
    np.testing.assert_array_equal(series.s_bs_vals, s_bs)


def test_trajectory_states_are_stored_in_columns(rng):
    # one (N, T) array, frozen itself and not only through its (T, N) view
    g = generator_from_rates(random_rate_matrix(rng))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0, 0.0])), t_end=1.0, steps=100)
    rebuilt = Trajectory(traj.times, np.ascontiguousarray(traj.states), traj.method)
    assert not traj.states.base.flags.writeable
    for states in (traj.states, rebuilt.states):
        assert states.flags.f_contiguous and not states.flags.writeable


@pytest.mark.parametrize("n", [8, 30])
def test_monitor_reads_a_rebuilt_trajectory_with_the_same_bytes(n):
    # numpy sums a strided (N, rows) view pairwise, which would move H from
    # 8 states on; the monitor's copy into columns keeps the bytes of any layout
    rng = np.random.default_rng(n)
    w = random_rate_matrix(rng, n)
    qt = decompose(w)
    traj = integrate(generator_from_rates(w), ProbabilityVector(np.eye(n)[0]), t_end=5.0,
                     steps=2 * _BLOCK_ROWS + 10)
    rebuilt = Trajectory(traj.times, np.ascontiguousarray(traj.states), traj.method)
    for got, want in zip(monitor(rebuilt, qt)._values(), monitor(traj, qt)._values()):
        assert got.tobytes() == want.tobytes()


def test_extrema_count_monotone_decay():
    g = generator_from_rates(validate_rates([[0, 1], [1, 0]]))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0])), t_end=5.0, steps=200)
    assert extrema_count(traj, 0) == 0
    assert extrema_count(traj, 1) == 0


def test_extrema_count_bi_exponential_matches_root_oracle(rng):
    # each component of a distinct-real-root solution is
    # p_inf + c1 exp(l1 t) + c2 exp(l2 t), whose derivative has at most one
    # root, computable in closed form
    w = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    g = generator_from_rates(w)
    lam, vecs = np.linalg.eig(g.m)
    for _ in range(10):
        p0 = random_probability(rng)
        t_end = 3.0
        traj = integrate(g, ProbabilityVector(p0), t_end=t_end, steps=5000)
        coeffs = np.linalg.solve(vecs, p0)
        order = np.argsort(np.abs(lam))
        l1, l2 = lam[order[1]].real, lam[order[2]].real
        for comp in range(3):
            c1 = (coeffs[order[1]] * vecs[comp, order[1]]).real
            c2 = (coeffs[order[2]] * vecs[comp, order[2]]).real
            expected = 0
            ratio = -c2 * l2 / (c1 * l1) if c1 * l1 != 0.0 else -1.0
            if ratio > 0.0:
                t_star = math.log(ratio) / (l1 - l2)
                if 0.0 < t_star < t_end:
                    expected = 1
            assert extrema_count(traj, comp, tol=1e-11) == expected


def test_extrema_count_needs_three_points(rng):
    g = generator_from_rates(random_rate_matrix(rng))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0, 0.0])), t_end=1.0, steps=1)
    with pytest.raises(ValidationError):
        extrema_count(traj, 0)


@pytest.mark.parametrize("component", [3, -1, 1.5, "0", None, True, False])
def test_extrema_count_rejects_a_bad_component(component):
    # an index outside [0, n), or not an integer, is a typed input error
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    traj = integrate(g, ProbabilityVector(np.array([1.0, 0.0, 0.0])), t_end=5.0, steps=100)
    with pytest.raises(BadShape, match=r"\[0, 3\)"):
        extrema_count(traj, component)
    assert extrema_count(traj, np.int64(2)) == extrema_count(traj, 2)


def test_extrema_count_ignores_subtolerance_ripple():
    times = np.linspace(0.0, 1.0, 101)
    ripple = 1e-13 * np.cos(40.0 * times)
    states = np.column_stack([0.6 + ripple, 0.4 - ripple])
    traj = Trajectory(times=times, states=states, method=Method.EXACT)
    assert extrema_count(traj, 0) == 0
    assert extrema_count(traj, 0, tol=0.0) > 0
