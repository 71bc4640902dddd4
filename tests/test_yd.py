import math

import numpy as np
import pytest

from qtpme import (
    RelaxationKind,
    YDParams,
    discriminant,
    generator_from_rates,
    stationary_distribution,
    yd_consistency,
    yd_curve,
    yd_optimal_arousal,
    yd_rates,
    yd_stationary,
)
from qtpme.errors import (
    DegenerateDenominator,
    DomainError,
    ValidationError,
    ZeroRateProduct,
)
from qtpme.pme import kernel_dimension
from qtpme.yd import _stationary_parts


def test_yd_rates_substitution():
    w = yd_rates(YDParams(a1=1, f1=1, d=1, e=1), k=1.0)
    assert w.coeffs == (1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    w = yd_rates(YDParams(a1=1, f1=1, d=2, e=3), k=1.0)
    assert w.coeffs == (1.0, 0.0, 0.0, 2.0, 3.0, 1.0)


def test_yd_rates_zero_arousal_drains_to_untrained():
    w = yd_rates(YDParams(a1=1, f1=2, d=1, e=1), k=0.0)
    assert w.coeffs == (0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    g = generator_from_rates(w)
    assert kernel_dimension(g) == 1
    p = stationary_distribution(g)
    assert np.allclose(p.entries, [1.0, 0.0, 0.0], atol=1e-12)


def test_yd_rates_overflowing_product_is_domain_error():
    # the stationary state is still a double here, the rate a1*k is not
    params = YDParams(a1=10, f1=1, d=1, e=1)
    assert yd_stationary(params, 1e308).entries.tolist() == [0.0, 1.0, 1e-308]
    with pytest.raises(DomainError, match=r"a1\*k = 10\*1e\+308 is outside the float range"):
        yd_rates(params, 1e308)
    with pytest.raises(DomainError, match=r"f1\*k = 1e\+300\*1e\+20 .*1\.7976931348623157e\+308"):
        yd_rates(YDParams(a1=1, f1=1e300, d=1, e=1), 1e20)
    assert yd_rates(params, 1e307).coeffs[0] == 1e308


def test_yd_params_validation():
    with pytest.raises(ValidationError):
        YDParams(a1=-1, f1=1, d=1, e=1)
    with pytest.raises(ValidationError):
        yd_rates(YDParams(a1=1, f1=1, d=1, e=1), k=-0.5)


def test_yd_stationary_worked_values():
    p = yd_stationary(YDParams(a1=1, f1=1, d=2, e=3), k=1.0)
    assert np.allclose(p.entries, [0.5, 1 / 3, 1 / 6], atol=1e-15)
    p = yd_stationary(YDParams(a1=1, f1=1, d=1, e=1), k=1.0)
    assert np.allclose(p.entries, [0.25, 0.5, 0.25], atol=1e-15)
    assert p.entries.sum() == pytest.approx(1.0, abs=1e-12)


def test_yd_stationary_matches_null_space(rng):
    for _ in range(200):
        params = YDParams(*rng.uniform(0.05, 2.0, 4))
        k = float(rng.uniform(0.05, 3.0))
        direct = yd_stationary(params, k)
        g = generator_from_rates(yd_rates(params, k))
        generic = stationary_distribution(g)
        assert np.abs(direct.entries - generic.entries).max() <= 1e-10


def test_yd_stationary_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        yd_stationary(YDParams(a1=1, f1=1, d=1, e=0), k=0.0)


def test_yd_curve_closed_form_points():
    params = YDParams(a1=1, f1=1, d=1, e=1)
    curve = yd_curve(params, 0.0, 4.0, 5)
    # rho3 = k / (1 + 2k + k^2)
    assert curve.rho3[0] == 0.0
    assert curve.rho3[1] == pytest.approx(1 / 4, abs=1e-15)  # k = 1
    assert curve.rho3[4] == pytest.approx(4 / 25, abs=1e-15)  # k = 4
    assert np.abs(curve.rho1 + curve.rho2 + curve.rho3 - 1.0).max() <= 1e-12
    assert curve.rho3.min() >= 0.0


def test_yd_curve_validation():
    params = YDParams(a1=1, f1=1, d=1, e=1)
    with pytest.raises(ValidationError):
        yd_curve(params, 2.0, 1.0, 10)
    with pytest.raises(ValidationError):
        yd_curve(params, 0.0, 1.0, 1)
    with pytest.raises(DegenerateDenominator):
        yd_curve(YDParams(a1=1, f1=1, d=1, e=0), 0.0, 1.0, 10)


@pytest.mark.parametrize("steps", [2, 16385, 3 * 16384 + 5, 200000])
def test_yd_curve_blocks_match_the_whole_grid(steps):
    # 16385 points are one block and one point; 3 * 16384 + 5 end in a
    # partial fourth block
    params = YDParams(a1=0.3, f1=2.0, d=3.0, e=0.1)
    curve = yd_curve(params, 0.0, 40.0, steps)
    k = np.linspace(0.0, 40.0, steps)
    num1, num2, num3, denom = _stationary_parts(params, k)
    assert np.array_equal(curve.k_grid.view(np.uint64), k.view(np.uint64))
    for got, num in ((curve.rho1, num1), (curve.rho2, num2), (curve.rho3, num3)):
        assert np.array_equal(got.view(np.uint64), (num / denom).view(np.uint64))


@pytest.mark.parametrize("k_min, k_max", [(0.0, np.inf), (np.inf, np.inf), (0.0, np.nan),
                                          (np.nan, 1.0)])
def test_yd_curve_rejects_non_finite_arousal_bounds(k_min, k_max):
    with pytest.raises(ValidationError, match="finite"):
        yd_curve(YDParams(a1=1, f1=1, d=1, e=1), k_min, k_max, 10)


def test_yd_optimal_arousal_values():
    assert yd_optimal_arousal(YDParams(a1=1, f1=1, d=1, e=1)) == 1.0
    assert yd_optimal_arousal(YDParams(a1=1, f1=1, d=4, e=1)) == 2.0
    k = yd_optimal_arousal(YDParams(a1=1, f1=3 + 2 * math.sqrt(2), d=1, e=1))
    assert k == pytest.approx(math.sqrt(2) - 1, abs=1e-12)


def test_yd_optimal_arousal_zero_product():
    with pytest.raises(ZeroRateProduct):
        yd_optimal_arousal(YDParams(a1=0, f1=1, d=1, e=1))


def test_yd_curve_peaks_at_optimal_arousal(rng):
    for _ in range(50):
        params = YDParams(*rng.uniform(0.1, 2.0, 4))
        k_opt = yd_optimal_arousal(params)
        curve = yd_curve(params, 0.0, 4.0 * k_opt, 10_001)
        cell = curve.k_grid[1] - curve.k_grid[0]
        assert abs(curve.k_grid[np.argmax(curve.rho3)] - k_opt) <= cell + 1e-12
        # unimodal: increasing before the peak, decreasing after
        peak = int(np.argmax(curve.rho3))
        assert np.all(np.diff(curve.rho3[: peak + 1]) >= -1e-15)
        assert np.all(np.diff(curve.rho3[peak:]) <= 1e-15)


def test_yd_rho3_at_peak_closed_form(rng):
    # rho3(k_opt) = a1 d / (a1 (d + e) + 2 sqrt(a1 f1 d e))
    for _ in range(50):
        a1, f1, d, e = rng.uniform(0.1, 2.0, 4)
        params = YDParams(a1=a1, f1=f1, d=d, e=e)
        k_opt = yd_optimal_arousal(params)
        rho3 = a1 * d * k_opt / (d * e + a1 * (d + e) * k_opt + a1 * f1 * k_opt**2)
        closed = a1 * d / (a1 * (d + e) + 2.0 * math.sqrt(a1 * f1 * d * e))
        assert rho3 == pytest.approx(closed, rel=1e-12)


def test_yd_consistency_worked_instance():
    # (d+e)/sqrt(de) = 2 and (f1-a1)/sqrt(f1 a1) = 2 for f1 = 3 + 2 sqrt(2)
    report = yd_consistency(YDParams(a1=1, f1=3 + 2 * math.sqrt(2), d=1, e=1))
    assert report.lhs == pytest.approx(2.0, abs=1e-12)
    assert report.rhs == pytest.approx(2.0, abs=1e-12)
    assert report.satisfied
    assert abs(report.omega_at_kopt) <= 1e-9


def test_yd_consistency_unbalanced():
    report = yd_consistency(YDParams(a1=1, f1=1, d=1, e=1))
    assert report.lhs == pytest.approx(2.0, abs=1e-14)
    assert report.rhs == 0.0
    assert not report.satisfied
    assert report.omega_at_kopt == pytest.approx(2.0, abs=1e-12)


def test_yd_consistency_equal_rates_never_satisfied(rng):
    # a1 = f1 makes the right side zero while the left side is >= 2
    for _ in range(20):
        a1 = float(rng.uniform(0.1, 2.0))
        d, e = rng.uniform(0.1, 2.0, 2)
        report = yd_consistency(YDParams(a1=a1, f1=a1, d=d, e=e))
        assert report.rhs == 0.0
        assert report.lhs >= 2.0
        assert not report.satisfied


def test_yd_consistency_domain_errors():
    with pytest.raises(DomainError):
        yd_consistency(YDParams(a1=1, f1=1, d=0, e=1))
    with pytest.raises(DomainError):
        yd_consistency(YDParams(a1=0, f1=1, d=1, e=1))


def test_yd_consistency_implies_no_oscillation_at_optimum(rng):
    # when the condition holds, omega = 0 at k_opt, so the relaxation
    # there is never oscillatory
    for _ in range(50):
        a1, d, e = rng.uniform(0.1, 2.0, 3)
        # solve (f1 - a1)/sqrt(f1 a1) = (d+e)/sqrt(de) for f1
        target = (d + e) / math.sqrt(d * e)
        # f1 = a1 * (t + sqrt(t^2 + 4))^2 / 4 with t the target ratio
        f1 = a1 * ((target + math.sqrt(target**2 + 4.0)) / 2.0) ** 2
        params = YDParams(a1=a1, f1=f1, d=d, e=e)
        report = yd_consistency(params)
        assert report.satisfied
        k_opt = yd_optimal_arousal(params)
        verdict = discriminant(yd_rates(params, k_opt))
        assert verdict.kind is not RelaxationKind.OSCILLATORY


@pytest.mark.parametrize("power", [-900, -600, 600, 900])
def test_yd_results_do_not_depend_on_the_rate_unit(rng, power):
    # rates in another time unit (times 2**power, exactly) give the same
    # stationary states, the same optimum and the same balance report
    c = 2.0 ** power
    for _ in range(20):
        a1, f1, d, e = (float(v) for v in rng.uniform(0.1, 2.0, 4))
        params, scaled = YDParams(a1, f1, d, e), YDParams(a1 * c, f1 * c, d * c, e * c)
        k_opt = yd_optimal_arousal(params)
        assert yd_optimal_arousal(scaled) == k_opt
        curve = yd_curve(params, 0.0, 4 * k_opt, 101)
        curve_scaled = yd_curve(scaled, 0.0, 4 * k_opt, 101)
        for name in ("rho1", "rho2", "rho3"):
            assert np.array_equal(getattr(curve, name), getattr(curve_scaled, name))
        report, report_scaled = yd_consistency(params), yd_consistency(scaled)
        assert (report_scaled.lhs, report_scaled.rhs) == (report.lhs, report.rhs)
        assert report_scaled.omega_at_kopt == report.omega_at_kopt * c
        assert report_scaled.satisfied == report.satisfied


def test_yd_stationary_keeps_small_rates_beside_a_huge_one():
    # a = a1*k = 1e308 sits at the top of the float range while d, e and
    # f = 1e-8 are small; the unscaled products a*d and a*(d+e+f) are in
    # range, and scaling must not push d, e, f into the subnormals
    rho = yd_stationary(YDParams(a1=1e300, f1=1e-16, d=1e-8, e=1e-8), 1e8).entries
    assert abs(rho[2] - 1.0 / 3.0) <= 1e-15
    assert abs(rho[1] - 2.0 / 3.0) <= 1e-15
    assert rho[0] == 1e-16 / 3e300


def test_yd_stationary_with_underflowing_rate_products():
    # every product of two rates (1e-400) underflows unscaled; with all four
    # rates equal the state is (de, a(e+f), ad) / 4r^2 = (1/4, 1/2, 1/4)
    rho = yd_stationary(YDParams(1e-200, 1e-200, 1e-200, 1e-200), 1.0).entries
    assert rho.tolist() == [0.25, 0.5, 0.25]
    curve = yd_curve(YDParams(1e-200, 1e-200, 1e-200, 1e-200), 0.5, 1.0, 2)
    assert [curve.rho1[-1], curve.rho2[-1], curve.rho3[-1]] == [0.25, 0.5, 0.25]
