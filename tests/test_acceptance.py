"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qtpme import (
    Method,
    ProbabilityVector,
    RateMatrix,
    RelaxationKind,
    YDParams,
    decompose_2state,
    decompose_3state,
    decompose_nstate,
    discriminant,
    ellipse_value,
    extrema_count,
    generator_from_rates,
    integrate,
    monitor,
    stationary_distribution,
    sweep,
    uvw,
    validate_rates,
    yd_curve,
    yd_optimal_arousal,
    yd_consistency,
    yd_rates,
    yd_stationary,
)
from qtpme.errors import NoConvergence
from qtpme.monotonicity import discriminant_values
from qtpme.qt import free_parameter_count

from conftest import (
    random_probability,
    random_rate_matrix,
    sample_monotonic,
    sample_oscillatory,
)
from make_golden import CASES

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def test_criterion_01_secular_equation_fidelity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        w = random_rate_matrix(rng)
        g = generator_from_rates(w)
        xi = -np.trace(g.m)
        q = discriminant(w).q
        vals = np.linalg.eigvals(g.m)
        vals = np.delete(vals, np.argmin(np.abs(vals)))
        for lam in vals:
            value = lam * lam + xi * lam + q
            scale = max(1.0, abs(lam) ** 2, xi * abs(lam), abs(q))
            assert abs(value) <= 1e-9 * scale
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"\nPASS criterion 1: secular quadratic holds for 1000 random "
          f"3-state systems at 1e-9 relative ({elapsed:.2f}s)")


def test_criterion_02_discriminant_ellipse_identity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    a, b, c, d, e, f = rng.uniform(0.0, 1.0, (6, 100_000))
    disc, xi, _ = discriminant_values(a, b, c, d, e, f)
    l_val = f - a
    m_val = b - d
    omega = (a + d + e) - (b + c + f)
    u = l_val + m_val
    v = l_val - m_val
    ellipse = 3.0 * u * u + v * v + 4.0 * omega * u + omega * omega
    scale = np.maximum(1.0, np.abs(disc))
    assert (np.abs(disc - ellipse) <= 1e-9 * scale).all()
    # the same identity through the scalar operation surface
    for idx in range(10_000):
        w = RateMatrix.from_coeffs(a[idx], b[idx], c[idx], d[idx], e[idx], f[idx])
        verdict = discriminant(w)
        value = ellipse_value(uvw(w))
        assert abs(verdict.discriminant - value) <= 1e-9 * max(1.0, abs(value))
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"PASS criterion 2: discriminant equals ellipse form on 100000 "
          f"instances (10000 via scalar ops) at 1e-9 relative ({elapsed:.2f}s)")


def test_criterion_03_classifier_behavior_link():
    rng = np.random.default_rng(303)
    misclassified = 0

    def spectrum_has_complex_pair(w):
        vals = np.linalg.eigvals(generator_from_rates(w).m)
        return np.abs(vals.imag).max() > 1e-9

    for _ in range(200):
        w, verdict = sample_oscillatory(rng, resolvable=True)
        if not spectrum_has_complex_pair(w):
            misclassified += 1
        period = 4.0 * np.pi / np.sqrt(-verdict.discriminant)
        traj = integrate(
            generator_from_rates(w),
            ProbabilityVector(random_probability(rng)),
            t_end=3.0 * period,
            steps=3000,
        )
        counts = [
            extrema_count(traj, comp, tol=1e-12 * np.abs(traj.states[:, comp]).max())
            for comp in range(3)
        ]
        assert max(counts) >= 2

    for _ in range(200):
        w, verdict = sample_monotonic(rng)
        if spectrum_has_complex_pair(w):
            misclassified += 1
        traj = integrate(
            generator_from_rates(w),
            ProbabilityVector(random_probability(rng)),
            t_end=20.0 / verdict.xi,
            steps=2000,
        )
        for comp in range(3):
            assert extrema_count(traj, comp) <= 1

    assert misclassified == 0
    print("PASS criterion 3: 200 oscillatory instances show >= 2 derivative "
          "sign changes, 200 monotonic show <= 1, zero misclassifications")


def test_criterion_04_balanced_sums_forbid_oscillation():
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        a, d, e = rng.uniform(0.0, 1.0, 3)
        raw = rng.uniform(1e-12, 1.0, 3)
        b, c, f = raw * (a + d + e) / raw.sum()
        verdict = discriminant(RateMatrix.from_coeffs(a, b, c, d, e, f))
        assert verdict.kind is not RelaxationKind.OSCILLATORY
    print("PASS criterion 4: 10000 instances with a+d+e = b+c+f all classify "
          "monotonic or boundary")


def test_criterion_05_decomposition_round_trip():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        w = random_rate_matrix(rng)
        a, b, c, d, e, f = w.coeffs
        qt = decompose_3state(w)
        assert qt.residual <= 1e-10
        omega = (a + d + e) - (b + c + f)
        xi = a + b + c + d + e + f
        assert abs(qt.r - omega / xi) <= 1e-12

    single = decompose_3state(RateMatrix.from_coeffs(1, 0, 0, 0, 0, 0))
    assert single.r == 1.0
    expected = np.zeros((3, 3))
    expected[0, 0] = -0.5
    assert np.array_equal(single.entropy.sigma, expected)

    symmetric = decompose_3state(RateMatrix.from_coeffs(1, 1, 1, 1, 1, 1))
    assert symmetric.r == 0.0
    assert np.array_equal(symmetric.entropy.sigma, -np.eye(3))
    print("PASS criterion 5: 1000 round trips at 1e-10, r = omega/xi at 1e-12, "
          "sparse oracles exact")


def test_criterion_06_coefficient_variant_checks():
    rng = np.random.default_rng(606)
    d_variant_failures = 0
    for _ in range(50):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        a, b, c, d, e, f = w.coeffs
        r = qt.r
        denom = 3.0 + r * r
        beta_solver = qt.entropy.sigma[0, 2]
        beta_f = ((1 - r) * e - (1 + r) * f) / denom
        beta_d = ((1 - r) * e - (1 + r) * d) / denom
        assert abs(beta_solver - beta_f) <= 1e-9
        if abs(beta_solver - beta_d) > 1e-9:
            d_variant_failures += 1
    assert d_variant_failures > 45  # d == f coincidences aside, the variant fails

    r_variant_failures = 0
    for _ in range(50):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        a, b, c, d, e, f = w.coeffs
        kappa = (b + c + f) / (a + d + e)
        assert abs(qt.r - (1 - kappa) / (1 + kappa)) <= 1e-12
        kappa_variant = (b + e + f) / (a + d + e)
        r_variant = (1 - kappa_variant) / (1 + kappa_variant)
        if abs(qt.r - r_variant) > 1e-9:
            r_variant_failures += 1
    assert r_variant_failures > 45  # c == e coincidences aside, the variant fails
    print("PASS criterion 6: the f-reading of beta and the (b+c+f) ratio pass; "
          "the d-reading and the (b+e+f) ratio fail")


def test_criterion_07_general_dimension_construction():
    for n in range(2, 9):
        assert free_parameter_count(n) == n * (n - 1)

    rng = np.random.default_rng(707)
    failures = []
    total = 0
    for n in (4, 5):
        for trial in range(200):
            total += 1
            w = random_rate_matrix(rng, n)
            try:
                qt = decompose_nstate(w)
                assert qt.residual <= 1e-8
            except NoConvergence as exc:
                failures.append((n, trial, exc.residual))
    for failure in failures:
        print(f"  nonconvergence logged: n={failure[0]} trial={failure[1]} "
              f"residual={failure[2]:.3e}")
    assert len(failures) <= 0.05 * total

    for _ in range(50):
        w = random_rate_matrix(rng, 3)
        closed = decompose_3state(w)
        numeric = decompose_nstate(w)
        assert np.abs(numeric.entropy.sigma - closed.entropy.sigma).max() <= 1e-9
        assert abs(numeric.r - closed.r) <= 1e-9
    print(f"PASS criterion 7: parameter counts match for N=2..8; "
          f"{total - len(failures)}/{total} random N=4,5 instances converged "
          f"below 1e-8; numeric N=3 matches closed form at 1e-9")


def test_criterion_08_conservation_and_entropy_growth():
    rng = np.random.default_rng(808)
    for _ in range(100):
        w = random_rate_matrix(rng)
        qt = decompose_3state(w)
        assert qt.residual <= 1e-10
        traj = integrate(
            generator_from_rates(w),
            ProbabilityVector(random_probability(rng)),
            t_end=10.0,
            steps=500,
            method=Method.EXACT,
        )
        series = monitor(traj, qt)
        assert np.abs(series.h_vals - 1.0).max() <= 1e-9
        assert np.diff(series.s_vals).min() >= -1e-9

    accepted = 0
    while accepted < 100:
        a, b, c, d = rng.uniform(0.0, 1.0, 4)
        e = a + b - c
        f = c + d - a
        if e < 0.0 or f < 0.0:
            continue
        accepted += 1
        w = RateMatrix.from_coeffs(a, b, c, d, e, f)
        row_sums = w.w.sum(axis=1)
        col_sums = w.w.sum(axis=0)
        assert np.abs(row_sums - col_sums).max() <= 1e-12
        traj = integrate(
            generator_from_rates(w),
            ProbabilityVector(random_probability(rng)),
            t_end=10.0,
            steps=500,
            method=Method.EXACT,
        )
        series = monitor(traj)
        assert np.diff(series.s_bs_vals).min() >= -1e-9
    print("PASS criterion 8: totals conserved at 1e-9; quadratic entropy "
          "nondecreasing on own trajectories; Shannon entropy nondecreasing "
          "for doubly stochastic rates")


def test_criterion_09_symmetric_rates_relax_to_uniform():
    rng = np.random.default_rng(909)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        base = rng.uniform(0.0, 1.0, (n, n))
        w = validate_rates(np.triu(base, 1) + np.triu(base, 1).T)
        p = stationary_distribution(generator_from_rates(w))
        assert np.abs(p.entries - 1.0 / n).max() <= 1e-10
        flux = w.w * p.entries[np.newaxis, :]
        assert np.abs(flux - flux.T).max() <= 1e-10
    print("PASS criterion 9: 100 symmetric rate matrices give uniform "
          "stationary states and detailed balance at 1e-10")


def test_criterion_10_learning_model():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        params = YDParams(*rng.uniform(0.05, 2.0, 4))
        k = float(rng.uniform(0.05, 3.0))
        direct = yd_stationary(params, k)
        generic = stationary_distribution(generator_from_rates(yd_rates(params, k)))
        assert np.abs(direct.entries - generic.entries).max() <= 1e-10

    for _ in range(100):
        params = YDParams(*rng.uniform(0.1, 2.0, 4))
        k_opt = yd_optimal_arousal(params)
        curve = yd_curve(params, 0.0, 4.0 * k_opt, 10_000)
        cell = curve.k_grid[1] - curve.k_grid[0]
        assert abs(curve.k_grid[np.argmax(curve.rho3)] - k_opt) <= cell + 1e-12

    report = yd_consistency(YDParams(a1=1.0, f1=3.0 + 2.0 * np.sqrt(2.0), d=1.0, e=1.0))
    assert abs(report.lhs - 2.0) <= 1e-9
    assert abs(report.rhs - 2.0) <= 1e-9
    assert report.satisfied
    assert abs(report.omega_at_kopt) <= 1e-9
    print("PASS criterion 10: stationary solutions match the generic solver at "
          "1e-10; curve argmax within one grid cell of the closed form; the "
          "worked consistency instance balances")


def test_criterion_11_cli_golden_files():
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "qtpme", *args], capture_output=True, text=True
        )

    for name, args in sorted(CASES.items()):
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0, f"{name}: {first.stderr}"
        assert first.stdout == second.stdout, f"{name} differs across runs"
        assert first.stdout == golden, f"{name} differs from golden file"
    print("PASS criterion 11: all subcommand outputs byte-identical across "
          "runs and golden files")
