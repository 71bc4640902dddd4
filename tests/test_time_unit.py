"""Metamorphic checks: a time unit or a relabelling of the states changes no verdict.

Multiplying every rate by a time unit c leaves the stationary state, the
structure flags, the circulation K, r and the 3-state class unchanged, and
scales the spectrum and sigma by c.  Relabelling the states permutes every
answer and changes none of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtpme import (
    RateMatrix,
    centering_projector,
    classify_structure,
    decompose,
    discriminant,
    generator_from_rates,
    spectrum,
)
from qtpme.core import null_count, unit_scaled
from qtpme.errors import ValidationError

FLAGS = ("symmetric", "doubly_stochastic", "detailed_balance")


def draw_rates(kind, n, seed):
    """Rates of one of four kinds.

    ``spread`` has no structure and spans 12 decades; the others span two,
    so that their flags are well inside or well outside the tolerance:
    ``symmetric`` (every flag true), ``cycle`` (doubly stochastic with a
    circulation) and ``balanced`` (detailed balance at a non-uniform state).
    """
    rng = np.random.default_rng(seed)
    if kind == "spread":
        w = 10.0 ** rng.uniform(-6.0, 6.0, (n, n))
    else:
        s = 10.0 ** rng.uniform(-1.0, 1.0, (n, n))
        w = s + s.T
        if kind == "cycle":
            w = w + rng.uniform(0.1, 1.0) * np.roll(np.eye(n), 1, axis=0)
        elif kind == "balanced":
            w = w * 10.0 ** rng.uniform(-1.0, 1.0, n)[:, None]
    np.fill_diagonal(w, 0.0)
    return w


def assert_same_state(p, want):
    """Componentwise within 8*n*eps relative.  With p <= 1 and s[0]/s[-2] >= 1
    this is stricter than 10*n*eps*s[0]/s[-2], the normwise error bound of a
    least-squares null vector."""
    assert (np.abs(p - want) <= 8 * p.size * np.finfo(float).eps * want).all()


def assert_same_eigenvalues(vals, want, tol):
    # sorting is 1-Lipschitz, so each part compares as a multiset
    for part in (np.real, np.imag):
        assert np.abs(np.sort(part(vals)) - np.sort(part(want))).max() <= tol


KINDS = st.sampled_from(["spread", "symmetric", "cycle", "balanced"])


@settings(max_examples=50, deadline=None)
@given(kind=KINDS, n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
       log_c=st.floats(-250.0, 250.0))
def test_time_unit_changes_no_verdict(kind, n, seed, log_c):
    w = draw_rates(kind, n, seed)
    c = 10.0 ** log_c
    base, scaled = RateMatrix(w), RateMatrix(c * w)

    report, report_c = classify_structure(base), classify_structure(scaled)
    assert_same_state(report_c.stationary.entries, report.stationary.entries)
    for flag in FLAGS:
        assert getattr(report_c, flag) == getattr(report, flag), flag
    if kind != "spread":
        assert report.doubly_stochastic == (kind != "balanced")
        assert report.detailed_balance == (kind != "cycle")

    info, info_c = spectrum(generator_from_rates(base)), spectrum(generator_from_rates(scaled))
    top = np.abs(info.eigenvalues).max()
    assert_same_eigenvalues(info_c.eigenvalues / c, info.eigenvalues, 1e-10 * top)
    assert info_c.null_dim == info.null_dim == 1
    assert abs(info_c.gap / c - info.gap) <= 1e-10 * top

    qt, qt_c = decompose(base), decompose(scaled)
    sigma, k = qt.entropy.sigma, qt.k_mat
    assert np.abs(qt_c.entropy.sigma / c - sigma).max() <= 1e-9 * np.abs(sigma).max()
    assert np.abs(qt_c.k_mat - k).max() <= 1e-8 * max(1.0, np.abs(k).max())
    if n == 3:
        assert abs(qt_c.r - qt.r) <= 1e-12
        verdict = discriminant(base)
        reported = (verdict.discriminant * c * c, verdict.xi * c, verdict.q * c * c)
        if np.isfinite(reported).all():
            verdict_c = discriminant(scaled)
            assert verdict_c.kind is verdict.kind
            # q has positive terms only: 3 eps on each side, eps for the
            # rounded rates c*w and eps for c*c*q
            tiny = np.finfo(float).tiny
            if min(abs(verdict_c.q), abs(reported[2])) >= tiny:
                assert abs(verdict_c.q - reported[2]) <= 8 * np.finfo(float).eps * reported[2]
        else:  # D, xi or q beyond the float range is an input error
            with pytest.raises(ValidationError):
                discriminant(scaled)


@settings(max_examples=40, deadline=None)
@given(kind=KINDS, n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_relabelling_permutes_every_answer(kind, n, seed):
    w = draw_rates(kind, n, seed)
    perm = np.random.default_rng([seed, 1]).permutation(n)
    base, relabelled = RateMatrix(w), RateMatrix(w[np.ix_(perm, perm)])

    report, report_p = classify_structure(base), classify_structure(relabelled)
    assert_same_state(report_p.stationary.entries, report.stationary.entries[perm])
    for flag in FLAGS:
        assert getattr(report_p, flag) == getattr(report, flag), flag

    info = spectrum(generator_from_rates(base))
    info_p = spectrum(generator_from_rates(relabelled))
    assert_same_eigenvalues(info_p.eigenvalues, info.eigenvalues,
                            1e-10 * np.abs(info.eigenvalues).max())

    # sigma is compared on the zero-sum subspace: the gauge depends on labels
    qt, qt_p = decompose(base), decompose(relabelled)
    center = centering_projector(n)
    sigma = center @ qt.entropy.sigma @ center
    sigma_p = center @ qt_p.entropy.sigma @ center
    assert np.abs(sigma_p - sigma[np.ix_(perm, perm)]).max() <= 1e-9 * np.abs(sigma).max()
    k = qt.k_mat
    assert np.abs(qt_p.k_mat - k[np.ix_(perm, perm)]).max() <= 1e-8 * max(1.0, np.abs(k).max())
    if n == 3:
        assert discriminant(relabelled).kind is discriminant(base).kind


def test_unit_scaled_scales_exactly_to_unit_size():
    for peak in (1.0, 1.5, 2.0, 3.0e-300, 5e-324, 1.7976931348623157e308):
        a = np.array([0.0, -peak, peak / 3.0])
        scaled, e = unit_scaled(a)
        assert 1.0 <= np.abs(scaled).max() < 2.0
        assert np.array_equal(np.ldexp(scaled, e), a)
    assert unit_scaled([1.0, 6.0])[1] == 2


def test_null_count_is_the_matrix_rank_rule():
    eps = np.finfo(float).eps
    assert null_count(np.array([1.0, 0.5, 3 * eps])) == 1
    assert null_count(np.array([1.0, 0.5, 3.01 * eps])) == 0
    assert null_count(np.zeros(4)) == 4
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        a = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        s = np.linalg.svd(a, compute_uv=False)
        assert n - null_count(s) == np.linalg.matrix_rank(a)
