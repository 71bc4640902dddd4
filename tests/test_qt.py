import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtpme import (
    QTDecomposition,
    QuadraticEntropy,
    RateMatrix,
    centering_projector,
    decompose,
    decompose_2state,
    decompose_3state,
    decompose_nstate,
    generator_from_rates,
    qt_vector_field,
    reconstruction_residual,
    stationary_distribution,
    validate_rates,
)
from qtpme.core import K3_PATTERN
from qtpme.errors import DegenerateRatesWarning, NoConvergence, ValidationError
from qtpme.qt import _certified, free_parameter_count

from conftest import random_rate_matrix


def solve_sigma_given_r(w, r):
    """Oracle: least-squares sigma for a fixed circulation strength.

    Solves the full 9-component matching system vec((3P + r*K) sigma) =
    vec(G) over the five gauge-fixed entropy entries, independently of the
    production elimination order.
    """
    g = generator_from_rates(w).m
    operator = 3.0 * centering_projector(3) + r * K3_PATTERN
    indices = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    design = np.empty((9, 5))
    for col, (i, j) in enumerate(indices):
        basis = np.zeros((3, 3))
        basis[i, j] = 1.0
        basis[j, i] = 1.0
        design[:, col] = (operator @ basis).ravel()
    sol, *_ = np.linalg.lstsq(design, g.ravel(), rcond=None)
    sigma = np.zeros((3, 3))
    for val, (i, j) in zip(sol, indices):
        sigma[i, j] = val
        sigma[j, i] = val
    return sigma, float(np.linalg.norm(operator @ sigma - g))


def test_vector_field_projector_arithmetic():
    qt = QTDecomposition(
        entropy=QuadraticEntropy(-np.eye(3)), k_mat=np.zeros((3, 3)), r=0.0, residual=0.0
    )
    assert np.allclose(qt_vector_field(qt, [1.0, 0.0, 0.0]), [-2.0, 1.0, 1.0])


def test_vector_field_with_full_circulation(rng):
    # r = 1 with only the (1,1) entropy entry reproduces a pure 1->2 flow
    sigma = np.zeros((3, 3))
    sigma[0, 0] = -0.5
    qt = QTDecomposition(
        entropy=QuadraticEntropy(sigma), k_mat=K3_PATTERN.copy(), r=1.0, residual=0.0
    )
    for _ in range(10):
        p = rng.uniform(0.0, 1.0, 3)
        assert np.allclose(qt_vector_field(qt, p), [-p[0], p[0], 0.0], atol=1e-14)


def test_vector_field_conserves_total(rng):
    for _ in range(20):
        qt = decompose_3state(random_rate_matrix(rng))
        p = rng.uniform(0.0, 1.0, 3)
        assert abs(qt_vector_field(qt, p).sum()) <= 1e-12


def test_decompose_2state_symmetric_unit():
    qt = decompose_2state(validate_rates([[0, 1], [1, 0]]))
    assert np.array_equal(qt.entropy.sigma, -np.eye(2))
    assert np.array_equal(qt.k_mat, np.zeros((2, 2)))
    assert qt.residual <= 1e-14
    assert qt.r is None


def test_decompose_2state_asymmetric():
    w = validate_rates([[0, 2], [1, 0]])
    qt = decompose_2state(w)
    assert np.array_equal(qt.entropy.sigma, np.diag([-1.0, -2.0]))
    # the reconstructed field fixes the closed-form stationary state
    operator = qt.linear_operator() @ qt.entropy.sigma
    assert np.abs(operator @ np.array([2 / 3, 1 / 3])).max() <= 1e-14


def test_decompose_2state_zero_rates():
    qt = decompose_2state(validate_rates(np.zeros((2, 2))))
    assert np.array_equal(qt.entropy.sigma, np.zeros((2, 2)))
    assert qt.residual == 0.0


def test_decompose_3state_single_rate():
    # a = 1 alone: hand elimination gives r = 1, sigma_11 = -1/2, rest 0
    qt = decompose_3state(RateMatrix.from_coeffs(1, 0, 0, 0, 0, 0))
    assert qt.r == 1.0
    expected = np.zeros((3, 3))
    expected[0, 0] = -0.5
    assert np.array_equal(qt.entropy.sigma, expected)
    assert qt.residual <= 1e-12


def test_decompose_3state_symmetric_unit_rates():
    qt = decompose_3state(RateMatrix.from_coeffs(1, 1, 1, 1, 1, 1))
    assert qt.r == 0.0
    assert np.array_equal(qt.entropy.sigma, -np.eye(3))
    assert qt.residual <= 1e-12


def test_decompose_3state_balanced_sums_kill_circulation():
    # a+d+e = b+c+f makes the antisymmetric part vanish
    qt = decompose_3state(RateMatrix.from_coeffs(2, 1, 1, 1, 1, 2))
    assert qt.r == 0.0
    assert np.array_equal(qt.k_mat, np.zeros((3, 3)))
    assert qt.residual <= 1e-12


def test_decompose_3state_zero_rates_warns():
    with pytest.warns(DegenerateRatesWarning):
        qt = decompose_3state(validate_rates(np.zeros((3, 3))))
    assert qt.r == 0.0
    assert np.array_equal(qt.entropy.sigma, np.zeros((3, 3)))


def test_decompose_3state_round_trip(rng):
    for _ in range(300):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        assert qt.residual <= 1e-10
        assert reconstruction_residual(qt, generator_from_rates(w)) <= 1e-10
        assert qt.entropy.in_canonical_gauge


def test_decompose_3state_r_closed_form(rng):
    for _ in range(300):
        w = random_rate_matrix(rng)
        a, b, c, d, e, f = w.coeffs
        qt = decompose_3state(w)
        omega = (a + d + e) - (b + c + f)
        xi = a + b + c + d + e + f
        assert abs(qt.r - omega / xi) <= 1e-12


def test_r_matches_complement_ratio_form(rng):
    # r = (1 - kappa)/(1 + kappa) with kappa = (b+c+f)/(a+d+e)
    for _ in range(100):
        w = random_rate_matrix(rng)
        a, b, c, d, e, f = w.coeffs
        kappa = (b + c + f) / (a + d + e)
        qt = decompose_3state(w)
        assert abs(qt.r - (1 - kappa) / (1 + kappa)) <= 1e-12


def test_r_e_variant_ratio_is_inconsistent():
    # reading the ratio as (b+e+f)/(a+d+e) contradicts the matching system
    w = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    a, b, c, d, e, f = w.coeffs
    kappa_variant = (b + e + f) / (a + d + e)
    r_variant = (1 - kappa_variant) / (1 + kappa_variant)
    qt = decompose_3state(w)
    assert abs(r_variant - qt.r) > 1e-2
    # and no entropy matrix reproduces the generator at that circulation
    _, residual_ok = solve_sigma_given_r(w, qt.r)
    _, residual_variant = solve_sigma_given_r(w, r_variant)
    assert residual_ok <= 1e-12
    assert residual_variant > 1e-2


def coefficient_formulas(w, r):
    """Elimination solution for (alpha, beta, B, C) at circulation r."""
    a, b, c, d, e, f = w.coeffs
    denom = 3.0 + r * r
    alpha = ((1 + r) * c - (1 - r) * d) / denom
    beta_f = ((1 - r) * e - (1 + r) * f) / denom
    beta_d = ((1 - r) * e - (1 + r) * d) / denom
    big_b = -(2 * d + (1 - r) * c) / denom
    big_c = -(2 * f + (1 + r) * e) / denom
    return alpha, beta_f, beta_d, big_b, big_c


def test_coefficient_formulas_hold_at_solver_solution(rng):
    for _ in range(100):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        sigma = qt.entropy.sigma
        alpha, beta_f, _, big_b, big_c = coefficient_formulas(w, qt.r)
        assert abs(sigma[0, 1] - alpha) <= 1e-9
        assert abs(sigma[1, 1] - big_b) <= 1e-9
        assert abs(sigma[2, 2] - big_c) <= 1e-9
        assert abs(sigma[0, 2] - beta_f) <= 1e-9


@pytest.mark.xfail(strict=True, reason="the d-variant beta formula contradicts the matching system")
def test_beta_d_variant_formula_holds():
    w = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    qt = decompose_3state(w)
    _, _, beta_d, _, _ = coefficient_formulas(w, qt.r)
    assert abs(qt.entropy.sigma[0, 2] - beta_d) <= 1e-9


def test_beta_d_variant_zero_circulation_limit():
    # at r = 0 the d-variant predicts (e-d)/3 while elimination gives
    # (e-f)/3, consistent with the diagonal coefficient -(2f + e)/3
    w = RateMatrix.from_coeffs(2, 1, 1, 1, 1, 2)  # balanced: r = 0
    qt = decompose_3state(w)
    assert qt.r == 0.0
    e, f, d = w.e, w.f, w.d
    assert abs(qt.entropy.sigma[0, 2] - (e - f) / 3.0) <= 1e-12
    assert abs(qt.entropy.sigma[0, 2] - (e - d) / 3.0) > 0.1


def test_gauge_shift_leaves_field_unchanged(rng):
    for _ in range(50):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        k = rng.uniform(-5.0, 5.0)
        shifted = QTDecomposition(
            entropy=QuadraticEntropy(qt.entropy.sigma + 2.0 * k * np.ones((3, 3))),
            k_mat=qt.k_mat,
            r=qt.r,
            residual=qt.residual,
        )
        p = rng.uniform(0.0, 1.0, 3)
        assert np.allclose(
            qt_vector_field(qt, p), qt_vector_field(shifted, p), atol=1e-10
        )


def test_entropy_production_is_nonnegative(rng):
    # dS/dt = grad' (nP + K) grad = n |P grad|^2 >= 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        w = random_rate_matrix(rng, n)
        qt = decompose_nstate(w) if n != 3 else decompose_3state(w)
        p = rng.uniform(0.0, 1.0, n)
        grad = qt.entropy.gradient(p)
        assert grad @ (qt.linear_operator() @ grad) >= -1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_free_parameter_count_matches_rate_count(n):
    assert free_parameter_count(n) == n * (n - 1)


def test_decompose_nstate_matches_closed_forms(rng):
    for _ in range(50):
        w3 = random_rate_matrix(rng, 3)
        closed = decompose_3state(w3)
        numeric = decompose_nstate(w3)
        assert np.abs(numeric.entropy.sigma - closed.entropy.sigma).max() <= 1e-9
        assert abs(numeric.r - closed.r) <= 1e-9

        w2 = random_rate_matrix(rng, 2)
        closed2 = decompose_2state(w2)
        numeric2 = decompose_nstate(w2)
        assert np.abs(numeric2.entropy.sigma - closed2.entropy.sigma).max() <= 1e-9
        assert np.array_equal(numeric2.k_mat, np.zeros((2, 2)))


def test_decompose_nstate_four_state_symmetric(rng):
    for _ in range(20):
        base = rng.uniform(0.0, 1.0, (4, 4))
        w = validate_rates(np.triu(base, 1) + np.triu(base, 1).T)
        qt = decompose_nstate(w)
        assert qt.residual <= 1e-8
        # circulation stays inside the admissible antisymmetric space
        assert np.abs(qt.k_mat + qt.k_mat.T).max() <= 1e-12
        assert np.abs(qt.k_mat.sum(axis=0)).max() <= 1e-12
        assert reconstruction_residual(qt, generator_from_rates(w)) <= 1e-8


def test_decompose_nstate_stationary_consistency(rng):
    # the reconstructed field and the generator share their fixed point
    for n in (4, 5):
        w = random_rate_matrix(rng, n)
        qt = decompose_nstate(w)
        g = generator_from_rates(w)
        p = stationary_distribution(g)
        assert np.abs(qt_vector_field(qt, p.entries)).max() <= 1e-7


def test_reconstruction_residual_detects_perturbation(rng):
    w = random_rate_matrix(rng)
    g = generator_from_rates(w)
    qt = decompose_3state(w)
    sigma = np.array(qt.entropy.sigma)
    sigma[0, 0] += 1.0
    perturbed = QTDecomposition(
        entropy=QuadraticEntropy(sigma), k_mat=qt.k_mat, r=qt.r, residual=qt.residual
    )
    assert reconstruction_residual(perturbed, g) > 0.1


def test_reconstruction_residual_zero_case():
    qt = QTDecomposition(
        entropy=QuadraticEntropy(np.zeros((3, 3))),
        k_mat=np.zeros((3, 3)),
        r=0.0,
        residual=0.0,
    )
    g = generator_from_rates(validate_rates(np.zeros((3, 3))))
    assert reconstruction_residual(qt, g) == 0.0


def test_closed_forms_certify_rates_near_the_float_limit():
    # squaring the entries of these generators overflows; the norms scale first
    for rates in ([[0, 1e200, 1], [1e200, 0, 1], [1, 1, 0]], [[0, 1e200], [3e200, 0]]):
        w = validate_rates(rates)
        g_norm = 1e200 * np.linalg.norm(generator_from_rates(w).m * 1e-200)
        qt = decompose(w)
        assert np.isfinite(qt.residual)
        assert qt.residual <= 1e-15 * g_norm


def test_overflowing_generator_norm_is_input_error():
    for rates in ([[0, 1e308, 1], [1e308, 0, 1], [1, 1, 0]], [[0, 1e308], [1.5e308, 0]]):
        for solver in (decompose, decompose_nstate):
            with pytest.raises(ValidationError, match="norm overflows"):
                solver(validate_rates(rates))


def test_certifier_rejects_a_wrong_closed_form(rng):
    w = random_rate_matrix(rng)
    g = generator_from_rates(w)
    qt = decompose_3state(w)
    assert _certified(g, qt.entropy.sigma, qt.k_mat, qt.r).residual == qt.residual
    sigma = np.array(qt.entropy.sigma)
    sigma[0, 0] *= 1.0 + 1e-6
    with pytest.raises(NoConvergence) as info:
        _certified(g, sigma, qt.k_mat, qt.r)
    assert info.value.residual > 1e-8 * np.linalg.norm(g.m)
    assert info.value.iterations == 0


def log_uniform_rates(rng, n, lo, hi):
    """Rates drawn log-uniformly from [lo, hi]; all positive, so irreducible."""
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, n)))
    np.fill_diagonal(w, 0.0)
    return RateMatrix(w)


def zero_sum_entropy_eigenvalues(qt):
    """Eigenvalues of sigma on the zero-sum subspace, in a basis built
    independently of the solver's."""
    n = qt.n
    basis = np.linalg.svd(centering_projector(n))[0][:, : n - 1]
    return np.linalg.eigvalsh(basis.T @ qt.entropy.sigma @ basis)


def assert_certified(qt, w, tol=1e-8):
    assert qt.residual <= tol
    assert reconstruction_residual(qt, generator_from_rates(w)) <= tol
    assert qt.entropy.in_canonical_gauge
    assert np.array_equal(qt.k_mat, -qt.k_mat.T)


def test_decompose_dispatches_by_dimension(rng):
    for n, solver in ((2, decompose_2state), (3, decompose_3state), (5, decompose_nstate)):
        w = random_rate_matrix(rng, n)
        got, want = decompose(w), solver(w)
        assert np.array_equal(got.entropy.sigma, want.entropy.sigma)
        assert np.array_equal(got.k_mat, want.k_mat)
        assert got.r == want.r


def test_decompose_nstate_raises_above_tolerance(rng):
    w = random_rate_matrix(rng, 5)
    with pytest.raises(NoConvergence) as info:
        decompose_nstate(w, tol=1e-30)
    assert 0.0 < info.value.residual <= 1e-12


def test_decompose_nstate_certificate_is_relative(rng):
    # at large rates the residual's rounding floor is above 1e-8 absolute
    w = log_uniform_rates(np.random.default_rng(0), 30, 1e-6, 1e6)
    qt = decompose_nstate(w)
    assert qt.residual <= 1e-8 * np.linalg.norm(generator_from_rates(w).m)
    # at tiny rates the bound shrinks with them
    tiny = RateMatrix(1e-12 * random_rate_matrix(rng, 5).w)
    qt = decompose_nstate(tiny)
    assert qt.residual > 0.0
    relative = qt.residual / np.linalg.norm(generator_from_rates(tiny).m)
    with pytest.raises(NoConvergence):
        decompose_nstate(tiny, tol=0.5 * relative)


def test_decompose_nstate_zero_rates():
    qt = decompose_nstate(validate_rates(np.zeros((4, 4))))
    assert qt.residual == 0.0
    assert np.array_equal(qt.entropy.sigma, np.zeros((4, 4)))
    assert np.array_equal(qt.k_mat, np.zeros((4, 4)))


@pytest.mark.parametrize("rates", [
    # two disjoint 2-cycles: two stationary states
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]],
    # two absorbing states fed by one transient state
    [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
    # three disjoint 2-cycles: the kernel block of K is free and set to 0
    np.kron(np.eye(3), [[0, 1], [2, 0]]).tolist(),
])
def test_decompose_nstate_reducible_chains(rates):
    w = validate_rates(rates)
    qt = decompose_nstate(w)
    assert_certified(qt, w, tol=1e-13)
    # sigma is negative semidefinite on the zero-sum subspace and vanishes
    # on the difference of the stationary states
    assert zero_sum_entropy_eigenvalues(qt).max() <= 1e-14


def test_decompose_nstate_transient_state():
    # one-way 1 -> 2 -> {3 <-> 4}: state 1 is transient, the stationary
    # state is unique, so sigma is negative definite on the zero-sum space
    w = validate_rates([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    qt = decompose_nstate(w)
    assert_certified(qt, w, tol=1e-13)
    assert zero_sum_entropy_eigenvalues(qt).max() < -1e-3


@pytest.mark.parametrize("coupling", [1e-16, 1e-14, 1e-12, 1e-9, 1e-6])
def test_decompose_nstate_nearly_reducible_chain(coupling):
    # two 2-cycles joined by weak one-way links into one irreducible chain
    rates = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]], float)
    rates[2, 1] = rates[0, 3] = coupling
    w = validate_rates(rates)
    assert_certified(decompose_nstate(w), w, tol=1e-13)


@pytest.mark.parametrize("lo, hi, n", [
    (1e-6, 1e6, 4), (1e-6, 1e6, 6), (1e-6, 1e6, 10), (1e-4, 1e4, 20), (1e-4, 1e4, 30),
])
def test_decompose_nstate_rates_spanning_decades(lo, hi, n):
    rng = np.random.default_rng(20_000 + n)
    for _ in range(5 if n <= 10 else 2):
        w = log_uniform_rates(rng, n, lo, hi)
        assert_certified(decompose_nstate(w), w)


@pytest.mark.parametrize("c", [1e-250, 1e-20, 1e20, 1e250])
def test_decompose_nstate_any_time_unit(c):
    # the solve runs on the generator scaled exactly by a power of two, so a
    # time unit far from the rates' own neither overflows nor fails the polish
    rng = np.random.default_rng(31)
    for n in (5, 6, 10):
        w = log_uniform_rates(rng, n, 1e-6, 1e6)
        qt, scaled = decompose_nstate(w), decompose_nstate(RateMatrix(c * w.w))
        assert scaled.residual <= 1e-14 * c * np.linalg.norm(generator_from_rates(w).m)
        sigma = qt.entropy.sigma
        assert np.abs(scaled.entropy.sigma / c - sigma).max() <= 1e-9 * np.abs(sigma).max()
        assert np.abs(scaled.k_mat - qt.k_mat).max() <= 1e-9 * max(1.0, np.abs(qt.k_mat).max())


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
)
def test_decompose_nstate_certificates(n, seed, log_scale):
    # rates span [1e-6, 1e6] across the draws; N = 2, 3 take the closed forms
    w = log_uniform_rates(np.random.default_rng(seed), n, 1e-3, 1e3)
    qt = decompose(w)
    assert zero_sum_entropy_eigenvalues(qt).max() < 0.0
    k = qt.k_mat
    assert np.array_equal(k, -k.T)
    scale = max(1.0, np.abs(k).max())
    assert np.abs(k.sum(axis=0)).max() <= 1e-12 * scale
    assert np.abs(k.sum(axis=1)).max() <= 1e-12 * scale
    assert qt.entropy.sigma[n - 2, n - 1] == 0.0
    # a change of time unit scales sigma and leaves the circulation alone
    c = 10.0 ** log_scale
    scaled = decompose(RateMatrix(c * w.w))
    sigma = qt.entropy.sigma
    assert np.abs(scaled.entropy.sigma - c * sigma).max() <= 1e-9 * c * np.abs(sigma).max()
    assert np.abs(scaled.k_mat - k).max() <= 1e-9 * scale
