import math

import numpy as np
import pytest

from qtpme import (
    Generator,
    RateMatrix,
    classify_structure,
    generator_from_rates,
    spectrum,
    stationary_distribution,
    validate_rates,
)
from qtpme.errors import BadShape, NonUniqueStationary, SolverError
from qtpme.monotonicity import discriminant
from qtpme.pme import kernel_dimension

from conftest import assert_near_exact, exact_stationary, random_rate_matrix


def null_space_oracle(m):
    """Independent stationary solve: smallest right singular vector."""
    _, _, vt = np.linalg.svd(m)
    v = vt[-1]
    return v / v.sum()


def test_stationary_two_state_closed_form():
    # p1 = W12/(W12+W21) for the two-state chain
    g = generator_from_rates(validate_rates([[0, 2], [1, 0]]))
    p = stationary_distribution(g)
    assert np.allclose(p.entries, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_symmetric_is_uniform(rng):
    for _ in range(50):
        base = rng.uniform(0.0, 1.0, (3, 3))
        w = validate_rates(np.triu(base, 1) + np.triu(base, 1).T)
        p = stationary_distribution(generator_from_rates(w))
        assert np.abs(p.entries - 1 / 3).max() <= 1e-10


def test_stationary_learning_rates_example():
    w = RateMatrix.from_coeffs(1, 0, 0, 2, 3, 1)
    g = generator_from_rates(w)
    p = stationary_distribution(g)
    assert np.allclose(p.entries, [0.5, 1 / 3, 1 / 6], atol=1e-12)
    assert np.allclose(p.entries, null_space_oracle(g.m), atol=1e-10)


def test_stationary_residual_random(rng):
    for _ in range(200):
        g = generator_from_rates(random_rate_matrix(rng, int(rng.integers(2, 6))))
        p = stationary_distribution(g)
        assert np.abs(g.m @ p.entries).max() <= 1e-10
        assert p.entries.min() >= 0.0


def test_stationary_reducible_chain_is_an_error():
    g = generator_from_rates(validate_rates(np.zeros((3, 3))))
    with pytest.raises(NonUniqueStationary) as exc:
        stationary_distribution(g)
    assert exc.value.null_dim == 3

    # two disconnected 2-state blocks
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = generator_from_rates(validate_rates(w))
    assert kernel_dimension(g) == 2
    with pytest.raises(NonUniqueStationary):
        stationary_distribution(g)


def test_spectrum_cyclic_three_state():
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    info = spectrum(g)
    # characteristic polynomial of [[-1,0,1],[1,-1,0],[0,1,-1]] is
    # lam*(lam^2 + 3 lam + 3); roots (-3 +- i sqrt(3))/2
    expected = np.array(
        [0.0, (-3 - 1j * math.sqrt(3)) / 2, (-3 + 1j * math.sqrt(3)) / 2]
    )
    assert np.allclose(info.eigenvalues, expected, atol=1e-12)
    assert info.zero_index == 0
    assert info.null_dim == 1
    assert info.gap == pytest.approx(1.5, abs=1e-12)


def test_spectrum_two_state_unit():
    g = generator_from_rates(validate_rates([[0, 1], [1, 0]]))
    info = spectrum(g)
    assert np.allclose(info.eigenvalues, [0.0, -2.0], atol=1e-14)
    assert info.gap == pytest.approx(2.0, abs=1e-12)


def test_spectrum_1_through_6_secular_roots():
    w = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    info = spectrum(generator_from_rates(w))
    verdict = discriminant(w)
    assert (verdict.xi, verdict.q) == (21.0, 94.0)
    # quadratic formula for lam^2 + 21 lam + 94
    lam_fast = (-21 - math.sqrt(65)) / 2
    lam_slow = (-21 + math.sqrt(65)) / 2
    assert np.allclose(sorted(info.eigenvalues.real), sorted([lam_fast, lam_slow, 0.0]), atol=1e-10)
    assert np.abs(info.eigenvalues.imag).max() <= 1e-12


def test_spectrum_sorted_and_trace_consistent(rng):
    for _ in range(200):
        g = generator_from_rates(random_rate_matrix(rng, int(rng.integers(2, 6))))
        info = spectrum(g)
        re = info.eigenvalues.real
        assert np.all(np.diff(re) <= 1e-12)
        scale = max(1.0, abs(np.trace(g.m)))
        assert abs(info.eigenvalues.sum().real - np.trace(g.m)) <= 1e-9 * scale
        nonzero = np.delete(info.eigenvalues, info.zero_index)
        assert np.all(nonzero.real <= 1e-9)


def test_secular_equation_against_eigensolver(rng):
    # the two nonzero roots of a 3-state generator satisfy
    # lam^2 + xi lam + q = 0 with q the principal-minor sum
    for _ in range(300):
        w = random_rate_matrix(rng, 3)
        g = generator_from_rates(w)
        verdict = discriminant(w)
        xi, q = verdict.xi, verdict.q
        vals = np.linalg.eigvals(g.m)
        vals = np.delete(vals, np.argmin(np.abs(vals)))
        scale = max(1.0, xi, abs(q))
        assert abs(vals.sum().real + xi) <= 1e-9 * scale
        assert abs(vals.sum().imag) <= 1e-9 * scale
        assert abs(vals.prod().real - q) <= 1e-9 * scale


def test_classify_symmetric_rates():
    w = validate_rates([[0, 2, 1], [2, 0, 3], [1, 3, 0]])
    report = classify_structure(w)
    assert report.symmetric and report.doubly_stochastic and report.detailed_balance
    assert np.abs(report.stationary.entries - 1 / 3).max() <= 1e-10
    assert report.null_dim == 1


def test_classify_cyclic_is_doubly_stochastic_without_detailed_balance():
    w = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    report = classify_structure(w)
    assert not report.symmetric
    assert report.doubly_stochastic
    assert not report.detailed_balance
    # uniform stationary state but one-way circulation: p1*W21 != p2*W12
    p = report.stationary.entries
    assert p[0] * w.a == pytest.approx(1 / 3, abs=1e-12)
    assert p[1] * w.c == 0.0


def test_classify_two_state_detailed_balance():
    report = classify_structure(validate_rates([[0, 2], [1, 0]]))
    assert report.detailed_balance
    assert not report.symmetric


def test_classify_structure_calls_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = classify_structure(validate_rates([[0, 2, 1], [2, 0, 3], [1, 3, 0]]))
    assert report.null_dim == 1
    assert calls == []

    # two disconnected 2-state blocks: the rate graph has two closed classes
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
    with pytest.raises(NonUniqueStationary) as exc:
        classify_structure(validate_rates(w))
    assert exc.value.null_dim == 2
    assert calls == []


def test_symmetric_implies_doubly_stochastic(rng):
    for _ in range(100):
        base = rng.uniform(0.0, 1.0, (4, 4))
        w = validate_rates(np.triu(base, 1) + np.triu(base, 1).T)
        report = classify_structure(w)
        assert report.symmetric
        assert report.doubly_stochastic


def test_detailed_balance_implies_real_spectrum(rng):
    # reversible rates: w[m, n] = s[m, n] * sqrt(p[m]/p[n]) with symmetric s
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p = rng.uniform(0.1, 1.0, n)
        p /= p.sum()
        base = rng.uniform(0.1, 1.0, (n, n))
        s = np.triu(base, 1) + np.triu(base, 1).T
        w_arr = s * np.sqrt(np.outer(p, 1.0 / p))
        np.fill_diagonal(w_arr, 0.0)
        w = validate_rates(w_arr)
        report = classify_structure(w)
        assert report.detailed_balance
        info = spectrum(generator_from_rates(w))
        assert np.abs(info.eigenvalues.imag).max() <= 1e-9


# states 1 and 2 swap at rate x; a one-way cycle 2 -> 3 -> 4 -> 2 runs at
# rate 1, with cycle_back for the step 4 -> 2
def swap_and_cycle(x, cycle_back=1.0):
    return [[0, x, 0, 0], [x, 0, 0, cycle_back], [0, 1, 0, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize("rates, flags", [
    (swap_and_cycle(1.0), (False, True, False)),
    (swap_and_cycle(1e13), (False, True, False)),
    # state 4 receives 1 and sends 1 + 1e-6: not doubly stochastic
    (swap_and_cycle(1e13, 1.0 + 1e-6), (False, False, False)),
    ([[0, 1e13, 1], [1e13, 0, 1], [1, 1, 0]], (True, True, True)),
])
def test_structure_flags_are_decided_per_pair(rates, flags):
    # each pair is checked against its own size: a mismatch 13 decades
    # below the largest rate is still a mismatch
    report = classify_structure(validate_rates(rates))
    assert (report.symmetric, report.doubly_stochastic, report.detailed_balance) == flags


def reversible_rates(rng, s):
    """``w[m, n] = S[m, n] * pi[m]`` with ``S`` symmetric and log-uniform over
    10^+-s, ``pi`` over 10^+-s/2: detailed balance holds at ``pi``."""
    n = int(rng.integers(3, 8))
    base = 10.0 ** rng.uniform(-s, s, (n, n))
    w = np.triu(base, 1) + np.triu(base, 1).T
    w *= 10.0 ** rng.uniform(-s / 2, s / 2, n)[:, None]
    return w


@pytest.mark.parametrize("s", [3, 12])
def test_detailed_balance_is_decided_at_the_smallest_flux(s):
    rng = np.random.default_rng(s)
    for _ in range(150):
        w = reversible_rates(rng, s)
        report = classify_structure(validate_rates(w))
        assert report.detailed_balance
        # unbalance the pair of smallest flux by a factor 1 + 1e-6
        flux = w * report.stationary.entries
        np.fill_diagonal(flux, np.inf)
        m, n = np.unravel_index(np.argmin(flux), flux.shape)
        w[m, n] *= 1.0 + 1e-6
        assert not classify_structure(validate_rates(w)).detailed_balance


def test_subnormal_fluxes_match_only_to_their_own_precision():
    # Every tree chain is reversible.  Here p[2] is about 1.7e-316, a
    # subnormal with some 20 significant bits, so the pair of fluxes
    # through it is rounded far beyond STRUCTURE_RTOL and does not match.
    report = classify_structure(validate_rates([[0, 1, 0], [1, 0, 3], [0, 1e-315, 0]]))
    assert report.stationary.entries[2] < np.finfo(float).tiny
    assert not report.detailed_balance
    # at 1e-300 the fluxes are normal numbers and the flag is right
    assert classify_structure(validate_rates([[0, 1, 0], [1, 0, 3], [0, 1e-300, 0]])).detailed_balance


def test_stationary_state_of_rates_13_decades_apart_is_exact():
    # s[-2] <= 1e-12*n*s[0], so a least-squares null vector carries an error
    # bound of 4.4e-3; the elimination gives the exact state 1/3, rounded
    g = generator_from_rates(validate_rates([[0, 1e13, 1], [1e13, 0, 1], [1, 1, 0]]))
    assert kernel_dimension(g) == 1
    assert stationary_distribution(g).entries.tolist() == [1 / 3] * 3


def test_stationary_state_matches_the_exact_state(rng):
    for _ in range(100):
        n = int(rng.integers(3, 7))
        w = 10.0 ** rng.uniform(-6.0, 6.0, (n, n))
        np.fill_diagonal(w, 0.0)
        p = stationary_distribution(generator_from_rates(validate_rates(w)))
        assert_near_exact(p.entries, exact_stationary(w), 8 * n * np.finfo(float).eps)


def test_transient_states_get_exact_zeros():
    # state 3 leaves for state 1 and is never entered again
    g = generator_from_rates(validate_rates([[0, 1, 1], [1, 0, 0], [0, 0, 0]]))
    assert stationary_distribution(g).entries.tolist() == [0.5, 0.5, 0.0]


@pytest.mark.parametrize("rates, state", [
    # p3/p1 = 1/5e-324: the normalized back-substitution cannot overflow
    ([[0, 0, 5e-324], [1, 0, 0], [0, 1, 0]], [5e-324, 5e-324, 1.0]),
    ([[0, 1e308, 1], [1e308, 0, 1], [1, 1, 0]], [1 / 3] * 3),
    # folding the fast state 3 first would round both slow exits, 1e-323/2, to 0
    ([[0, 0, 1], [0, 0, 1], [1e-323, 1e-323, 0]], [0.5, 0.5, 5e-324]),
    # the largest rate, not the largest exit sum, sets the unit: 5e-324 is kept
    ([[0, 0, 1], [0, 0, 1], [5e-324, 5e-324, 0]], [0.5, 0.5, 0.0]),
    # state 4 reaches state 3 only through state 1, at about 5e-444: that folded rate is 0
    ([[0, 0, 1, 1e-320], [1e-200, 0, 1e-100, 1], [1e-323, 0, 0, 0], [1e-200, 1e-323, 0, 0]],
     [0.0, 1.0, 0.0, 1e-323]),
])
def test_stationary_state_at_the_ends_of_the_float_range(rates, state):
    assert [float(x) for x in exact_stationary(rates)] == state
    g = generator_from_rates(validate_rates(rates))
    assert stationary_distribution(g).entries.tolist() == state


def test_stationary_state_that_underflows_is_a_solver_error():
    # at unit size the rates 5e-324 round to 0: states 1 and 2 still reach
    # state 3 on the rate graph, but state 2's exit and inflow are both 0
    w = [[0, 0, 4], [0, 0, 4], [5e-324, 5e-324, 0]]
    with pytest.raises(SolverError, match="underflows at state 2") as exc:
        stationary_distribution(generator_from_rates(validate_rates(w)))
    assert type(exc.value) is SolverError


def test_generator_rebuilds_its_diagonal_from_the_rates():
    # columns off zero by 1e-13 pass validation; the rebuilt diagonal keeps
    # the exact kernel, so the chain is irreducible with a unique state
    g = Generator([[-1.0, 1.0], [1.0, -1.0 + 1e-13]])
    assert np.array_equal(g.m, [[-1.0, 1.0], [1.0, -1.0]])
    assert kernel_dimension(g) == 1
    assert spectrum(g).gap == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(stationary_distribution(g).entries, [0.5, 0.5], rtol=0, atol=1e-15)


def test_generator_needs_two_states():
    with pytest.raises(BadShape):
        Generator([[0.0]])
