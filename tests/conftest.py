import math
from fractions import Fraction

import numpy as np
import pytest

from qtpme import RateMatrix, RelaxationKind, discriminant


def random_rate_matrix(rng, n=3, scale=1.0):
    w = rng.uniform(0.0, scale, (n, n))
    np.fill_diagonal(w, 0.0)
    return RateMatrix(w)


def exact_stationary(w):
    """Exact stationary state of the rates ``w[dest][src]`` as Fractions.

    Gauss-Jordan elimination on the generator with its last row (redundant:
    the columns sum to zero) replaced by ones, solved for (0, ..., 0, 1).
    Independent of the elimination in :mod:`qtpme.pme`; needs a unique state.
    """
    n = len(w)
    rates = [[Fraction(float(x)) for x in row] for row in w]
    a = [[rates[i][j] if i != j else -sum(rates[k][j] for k in range(n) if k != j)
          for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    a.append([Fraction(1)] * (n + 1))
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def assert_near_exact(p, exact, tol):
    """Every entry of ``p`` within ``tol`` of the exact state, relative."""
    assert len(p) == len(exact)
    for i, (x, e) in enumerate(zip(p, exact)):
        assert abs(Fraction(float(x)) - e) <= Fraction(tol) * e, (i, x, float(e))


def random_probability(rng, n=3):
    p = rng.uniform(0.0, 1.0, n)
    return p / p.sum()


def predicted_visible_flips(xi, disc, rel_floor=1e-11):
    """Derivative sign changes of a damped oscillation observable in floats.

    The oscillating part decays as exp(-xi t / 2) while extrema recur every
    pi / omega with omega = sqrt(-disc) / 2; once the envelope is below
    rel_floor times the state scale no further extremum is representable.
    """
    omega = math.sqrt(-disc) / 2.0
    t_detect = 2.0 * math.log(1.0 / rel_floor) / xi
    return int(t_detect * omega / math.pi)


def sample_oscillatory(rng, resolvable=True):
    """Random rates classified oscillatory; optionally require that at
    least three derivative sign changes survive double precision."""
    while True:
        w = random_rate_matrix(rng)
        verdict = discriminant(w)
        if verdict.kind is not RelaxationKind.OSCILLATORY:
            continue
        if resolvable and predicted_visible_flips(verdict.xi, verdict.discriminant) < 3:
            continue
        return w, verdict


def sample_monotonic(rng):
    """Random rates with two distinct real nonzero eigenvalues."""
    while True:
        w = random_rate_matrix(rng)
        verdict = discriminant(w)
        if verdict.kind is RelaxationKind.MONOTONIC:
            return w, verdict


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
