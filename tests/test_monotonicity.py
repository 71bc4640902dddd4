import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qtpme import (
    ProbabilityVector,
    RateMatrix,
    RelaxationKind,
    discriminant,
    ellipse_value,
    extrema_count,
    generator_from_rates,
    integrate,
    sweep,
    uvw,
    validate_rates,
)
from qtpme.errors import BadAxis, BadShape, ValidationError
from qtpme.monotonicity import classify_discriminant, discriminant_values

from conftest import (
    random_probability,
    random_rate_matrix,
    sample_monotonic,
    sample_oscillatory,
)


def test_discriminant_1_through_6_is_monotonic():
    verdict = discriminant(RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6))
    assert verdict.kind is RelaxationKind.MONOTONIC
    assert verdict.discriminant == 65.0
    assert (verdict.xi, verdict.eta, verdict.q) == (21.0, 13.0, 94.0)
    # oracle: the nonzero eigenvalues are real
    vals = np.linalg.eigvals(generator_from_rates(RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)).m)
    assert np.abs(vals.imag).max() <= 1e-12


def test_discriminant_boundary_repeated_root():
    verdict = discriminant(RateMatrix.from_coeffs(1, 0, 0, 1, 0, 0))
    assert verdict.kind is RelaxationKind.BOUNDARY
    assert verdict.discriminant == 0.0
    assert (verdict.xi, verdict.q) == (2.0, 1.0)


def test_discriminant_cyclic_is_oscillatory():
    verdict = discriminant(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    assert verdict.kind is RelaxationKind.OSCILLATORY
    assert verdict.discriminant == -3.0


def test_slow_cycle_is_oscillatory():
    # pure 3-cycle at rates 1e-5: D = -3e-10, a plainly complex pair
    verdict = discriminant(RateMatrix.from_coeffs(1e-5, 0, 0, 1e-5, 1e-5, 0))
    assert verdict.discriminant == pytest.approx(-3e-10)
    assert verdict.kind is RelaxationKind.OSCILLATORY


def test_class_is_invariant_under_time_unit(rng):
    cases = [RateMatrix.from_coeffs(1, 0, 0, 1, 1, 1)]  # D = 0 exactly
    cases += [sample_monotonic(rng)[0] for _ in range(10)]
    cases += [sample_oscillatory(rng, resolvable=False)[0] for _ in range(10)]
    for w in cases:
        kind = discriminant(w).kind
        for c in 10.0 ** np.arange(-12, 13):
            assert discriminant(RateMatrix(c * w.w)).kind is kind


def test_discriminant_requires_three_states():
    with pytest.raises(BadShape):
        discriminant(validate_rates([[0, 1], [1, 0]]))


def test_uvw_examples():
    coords = uvw(RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6))
    assert (coords.l, coords.m_c, coords.omega) == (5.0, -2.0, -1.0)
    assert (coords.u, coords.v) == (3.0, 7.0)
    assert coords.k_c == 2.0

    coords = uvw(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    assert (coords.omega, coords.u, coords.v) == (3.0, -2.0, 0.0)

    symmetric = uvw(validate_rates([[0, 2, 1], [2, 0, 3], [1, 3, 0]]))
    assert symmetric.omega == 0.0


def test_uvw_dependent_coordinate_identity(rng):
    for _ in range(200):
        coords = uvw(random_rate_matrix(rng))
        assert coords.k_c == pytest.approx(coords.omega + coords.l + coords.m_c, abs=1e-12)


def test_ellipse_value_examples():
    assert ellipse_value(uvw(RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6))) == 65.0
    assert ellipse_value(uvw(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))) == -3.0
    # omega = u = v = 0 is the degenerate single-point ellipse
    from qtpme import UVWCoordinates

    assert ellipse_value(UVWCoordinates(k_c=0, l=0, m_c=0, omega=0, u=0, v=0)) == 0.0


def test_discriminant_equals_ellipse_value(rng):
    for _ in range(2000):
        w = random_rate_matrix(rng)
        verdict = discriminant(w)
        ellipse = ellipse_value(uvw(w))
        scale = max(1.0, abs(verdict.discriminant))
        assert abs(verdict.discriminant - ellipse) <= 1e-9 * scale


def test_class_agrees_with_spectrum(rng):
    for _ in range(500):
        w = random_rate_matrix(rng)
        verdict = discriminant(w)
        vals = np.linalg.eigvals(generator_from_rates(w).m)
        complex_pair = np.abs(vals.imag).max() > 1e-9
        if verdict.kind is RelaxationKind.OSCILLATORY:
            assert complex_pair
        elif verdict.kind is RelaxationKind.MONOTONIC:
            assert not complex_pair


def test_balanced_sums_never_oscillate(rng):
    # omega = 0 forces D = 3u^2 + v^2 >= 0
    for _ in range(1000):
        a, d, e = rng.uniform(0.0, 1.0, 3)
        raw = rng.uniform(0.0, 1.0, 3)
        b, c, f = raw * (a + d + e) / raw.sum()
        verdict = discriminant(RateMatrix.from_coeffs(a, b, c, d, e, f))
        assert verdict.kind is not RelaxationKind.OSCILLATORY
        assert verdict.discriminant >= -1e-9


def test_oscillatory_instances_show_repeated_extrema(rng):
    for _ in range(20):
        w, verdict = sample_oscillatory(rng)
        g = generator_from_rates(w)
        period = 4.0 * np.pi / np.sqrt(-verdict.discriminant)
        p0 = ProbabilityVector(random_probability(rng))
        traj = integrate(g, p0, t_end=3.0 * period, steps=3000)
        counts = [extrema_count(traj, comp, tol=1e-12 * np.abs(traj.states[:, comp]).max())
                  for comp in range(3)]
        assert max(counts) >= 2


def test_monotonic_instances_have_single_extrema(rng):
    for _ in range(20):
        w, verdict = sample_monotonic(rng)
        g = generator_from_rates(w)
        p0 = ProbabilityVector(random_probability(rng))
        traj = integrate(g, p0, t_end=20.0 / verdict.xi, steps=2000)
        for comp in range(3):
            assert extrema_count(traj, comp) <= 1


def test_sweep_diagonal_axes_never_oscillate():
    template = validate_rates(np.zeros((3, 3)))
    region = sweep(template, "a", "d", ((0.0, 2.0), (0.0, 2.0)), 41)
    # with only a and d nonzero, D = (a - d)^2 >= 0
    assert not np.any(region.classes == "O")
    assert region.fraction_oscillatory == 0.0
    expected = (region.grid1[:, None] - region.grid2[None, :]) ** 2
    assert np.allclose(region.discriminants, expected, atol=1e-12)


def test_sweep_finds_oscillatory_region():
    template = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    region = sweep(template, "e", "c", ((0.0, 2.0), (0.0, 2.0)), 81)
    assert region.axis1 == "e" and region.axis2 == "c"
    # D = -3 at (e, c) = (1, 0), so cells near it must be oscillatory
    i = np.argmin(np.abs(region.grid1 - 1.0))
    j = np.argmin(np.abs(region.grid2 - 0.0))
    assert region.classes[i, j] == "O"
    assert 0.0 < region.fraction_oscillatory < 1.0


def test_sweep_zero_area_range():
    template = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    region = sweep(template, "e", "c", ((1.0, 1.0), (0.0, 0.0)), 1)
    assert region.classes.shape == (1, 1)
    assert region.classes[0, 0] == "O"


def test_sweep_rejects_bad_axes():
    template = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    with pytest.raises(BadAxis):
        sweep(template, "a", "z", ((0, 1), (0, 1)), 5)
    with pytest.raises(BadAxis):
        sweep(template, "a", "a", ((0, 1), (0, 1)), 5)
    with pytest.raises(ValidationError):
        sweep(template, "a", "b", ((-1, 1), (0, 1)), 5)


@pytest.mark.parametrize("resolution", [(), (3,), (3, 4, 5)])
def test_sweep_rejects_a_resolution_that_is_not_one_or_two_counts(resolution):
    template = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    with pytest.raises(BadAxis, match="resolution must be a count or a pair of counts"):
        sweep(template, "a", "b", ((0, 1), (0, 1)), resolution)


@pytest.mark.parametrize("ranges", [
    ((0.0, np.inf), (0.0, 1.0)),
    ((np.nan, 1.0), (0.0, 1.0)),
    ((0.0, 1.0), (0.0, np.nan)),
    ((0.0, 1.0), (-np.inf, 1.0)),
])
def test_sweep_rejects_non_finite_bounds(ranges):
    template = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    axis = "a" if not np.isfinite(ranges[0]).all() else "b"
    with pytest.raises(BadAxis, match=f"axis '{axis}' needs finite bounds"):
        sweep(template, "a", "b", ranges, 3)


def assert_sweep_matches_the_whole_grid(template, axes, ranges, steps):
    """The blocked sweep has the bits of ``discriminant_values`` and
    ``classify_discriminant`` evaluated on the whole grid at once."""
    axis1, axis2 = axes
    region = sweep(template, axis1, axis2, ranges, steps)
    values = dict(zip("abcdef", template.coeffs))
    values[axis1], values[axis2] = region.grid1[:, None], region.grid2[None, :]
    disc, xi, _ = discriminant_values(*(values[name] for name in "abcdef"))
    disc = np.broadcast_to(disc, steps)
    assert region.discriminants.shape == steps
    assert np.array_equal(region.discriminants.view(np.uint64), disc.view(np.uint64))
    classes = classify_discriminant(disc, xi)
    assert region.classes.dtype == np.dtype("<U1")
    assert np.array_equal(region.classes, classes)
    assert region.fraction_oscillatory == np.count_nonzero(classes == "O") / disc.size


@pytest.mark.parametrize("steps", [(1, 1), (7, 3), (1, 40000), (3000, 7), (1000, 1000)])
def test_sweep_blocks_match_the_whole_grid(steps):
    # a row of 40000 cells spans three blocks; 3000x7 and 1000x1000 end in
    # a partial block of whole rows
    template = RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0)
    assert_sweep_matches_the_whole_grid(template, ("e", "c"), ((0.0, 2.0), (0.0, 3.0)), steps)


@pytest.mark.parametrize("steps", [(1, 40000), (3000, 7), (130, 170)],
                         ids=lambda steps: "x".join(map(str, steps)))
@pytest.mark.parametrize("axes", list(itertools.combinations("abcdef", 2)), ids="".join)
def test_sweep_blocks_match_the_whole_grid_for_every_axis_pair(axes, steps):
    # a block's row and column operands, and so which of the formula's
    # terms broadcast to a whole block, change with the two coefficients
    # that vary and with the grid axis each one takes
    template = RateMatrix.from_coeffs(0.3, 1.7, 2.9, 0.55, 1.1, 4.2)
    ranges = ((0.0, 2.0), (0.25, 5.0))
    for pair in (axes, axes[::-1]):
        assert_sweep_matches_the_whole_grid(template, pair, ranges, steps)


def test_classify_discriminant_letters():
    disc = np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0, np.nan])
    assert classify_discriminant(disc, 1.0).tolist() == ["O", "B", "B", "B", "M", "B"]
    assert str(classify_discriminant(0.0, 0.0)) == "B"


def test_non_finite_discriminant_is_input_error():
    # xi overflows at 1e308; at 5e160 xi is finite but q overflows
    template = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        for big in (1e308, 5e160):
            with pytest.raises(ValidationError):
                discriminant(validate_rates([[0, big, 1], [big, 0, 1], [1, 1, 0]]))
        with pytest.raises(ValidationError):
            sweep(template, "a", "b", ((0.0, 1e308), (0.0, 1e308)), 3)


def test_sweep_allocates_full_grids_only_for_results():
    # the four fixed coefficients broadcast as scalars; a 1000x1000 sweep
    # holds D, the class codes (11.5 MiB together) and a few intermediates
    template = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    tracemalloc.start()
    try:
        region = sweep(template, "a", "e", ((0.0, 5.0), (0.0, 5.0)), 1000, jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.discriminants.shape == (1000, 1000)
    assert peak < 50 * 2**20


def test_sweep_cells_match_eigen_oracle(rng):
    template = random_rate_matrix(rng)
    region = sweep(template, "a", "e", ((0.0, 2.0), (0.0, 2.0)), 25)
    coeffs = dict(zip("abcdef", template.coeffs))
    # cross-check a sample of cells against the eigensolver
    for _ in range(25):
        i = int(rng.integers(0, region.grid1.size))
        j = int(rng.integers(0, region.grid2.size))
        coeffs["a"] = float(region.grid1[i])
        coeffs["e"] = float(region.grid2[j])
        w = RateMatrix.from_coeffs(**coeffs)
        vals = np.linalg.eigvals(generator_from_rates(w).m)
        complex_pair = np.abs(vals.imag).max() > 1e-9
        cell = region.classes[i, j]
        if cell == "O":
            assert complex_pair
        elif cell == "M":
            assert not complex_pair


def test_discriminant_values_vectorized_matches_scalar(rng):
    coeff_arrays = rng.uniform(0.0, 1.0, (6, 500))
    disc, xi, q = discriminant_values(*coeff_arrays)
    for idx in range(0, 500, 25):
        w = RateMatrix.from_coeffs(*coeff_arrays[:, idx])
        verdict = discriminant(w)
        assert verdict.discriminant == pytest.approx(disc[idx], rel=1e-12)
        assert verdict.xi == pytest.approx(xi[idx], rel=1e-12)
        assert verdict.q == pytest.approx(q[idx], rel=1e-12)


def exact_q(w):
    """Sum of the principal 2x2 minors of the generator of ``w``, in Fractions."""
    rates = [[Fraction(float(x)) for x in row] for row in w]
    m = [[rates[i][j] if i != j else -sum(rates[k][j] for k in range(3) if k != j)
          for j in range(3)] for i in range(3)]
    return sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i in range(3) for j in range(i + 1, 3))


@pytest.mark.parametrize("s", [1, 3, 6, 9, 12, 16])
def test_q_is_accurate_to_a_few_eps_relative(s):
    # q is a sum of nine products of positive sums: at most six roundings
    # of half an eps each on every term, whatever the spread of the rates
    rng = np.random.default_rng(s)
    tol = Fraction(4 * np.finfo(float).eps)
    for draw in range(300):
        coeffs = 10.0 ** rng.uniform(-s, s, 6)
        if draw % 3 == 0:
            coeffs[rng.uniform(size=6) < 0.4] = 0.0
        w = RateMatrix.from_coeffs(*coeffs)
        want = exact_q(w.w)
        assert abs(Fraction(discriminant(w).q) - want) <= tol * want, coeffs


@pytest.mark.parametrize("x", [1e13, 1e16])
def test_q_of_rates_many_decades_apart_is_correctly_rounded(x):
    # q = 6x + 3 exactly; the minors, formed with subtractions, cancel the 3
    # and more away
    w = validate_rates([[0, x, 1], [x, 0, 1], [1, 1, 0]])
    assert exact_q(w.w) == 6 * Fraction(x) + 3
    assert discriminant(w).q == float(6 * Fraction(x) + 3)
