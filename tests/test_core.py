import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtpme import (
    ProbabilityVector,
    QTDecomposition,
    QuadraticEntropy,
    RateMatrix,
    generator_from_rates,
    rate_matrix_from_json,
    rate_matrix_to_json,
    validate_rates,
)
from qtpme.errors import BadShape, NegativeRate, NonzeroDiagonal, ValidationError

from conftest import random_rate_matrix

rates_6 = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=6, max_size=6
)


def test_validate_accepts_symmetric_unit_rates():
    w = validate_rates([[0, 1], [1, 0]])
    assert w.n == 2
    assert np.array_equal(w.w, [[0.0, 1.0], [1.0, 0.0]])


def test_validate_rejects_negative_rate_with_1based_indices():
    with pytest.raises(NegativeRate) as exc:
        validate_rates([[0, -1], [1, 0]])
    assert (exc.value.row, exc.value.col) == (1, 2)


def test_validate_rejects_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal) as exc:
        validate_rates([[0.5, 1], [1, 0]])
    assert exc.value.index == 1


@pytest.mark.parametrize("raw", [[[0, 1, 2], [1, 0, 3]], [[0]], [0, 1], [[[0]]]])
def test_validate_rejects_bad_shapes(raw):
    with pytest.raises(BadShape):
        validate_rates(raw)


def test_validate_rejects_non_finite():
    with pytest.raises(BadShape):
        validate_rates([[0, np.nan], [1, 0]])


def test_validate_does_not_mutate_input():
    raw = np.array([[0.0, 2.0], [3.0, 0.0]])
    w = validate_rates(raw)
    raw[0, 1] = 99.0
    assert w.w[0, 1] == 2.0


def test_named_coefficients_match_index_convention():
    w = validate_rates([[0, 3, 5], [1, 0, 6], [2, 4, 0]])
    assert w.coeffs == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    # dest/src convention, 0-based: a = w[1,0], b = w[2,0], c = w[0,1], ...
    assert w.a == w.w[1, 0]
    assert w.b == w.w[2, 0]
    assert w.c == w.w[0, 1]
    assert w.d == w.w[2, 1]
    assert w.e == w.w[0, 2]
    assert w.f == w.w[1, 2]


def test_named_coefficients_require_three_states():
    w = validate_rates([[0, 1], [1, 0]])
    with pytest.raises(BadShape):
        _ = w.a


def test_from_coeffs_round_trips():
    w = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    assert w.coeffs == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_generator_two_state_unit():
    g = generator_from_rates(validate_rates([[0, 1], [1, 0]]))
    assert np.array_equal(g.m, [[-1.0, 1.0], [1.0, -1.0]])


def test_generator_cyclic_three_state():
    # hand expansion of (a,b,c,d,e,f) = (1,0,0,1,1,0)
    g = generator_from_rates(RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0))
    assert np.array_equal(g.m, [[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


def test_generator_zero_rates():
    g = generator_from_rates(validate_rates(np.zeros((4, 4))))
    assert np.array_equal(g.m, np.zeros((4, 4)))


def test_generator_column_sums_random(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        g = generator_from_rates(random_rate_matrix(rng, n))
        assert np.abs(g.m.sum(axis=0)).max() <= 1e-14


@settings(max_examples=200)
@given(rates_6)
def test_generator_column_sums_hypothesis(vals):
    g = generator_from_rates(RateMatrix.from_coeffs(*vals))
    assert np.abs(g.m.sum(axis=0)).max() <= 1e-13


@settings(max_examples=100)
@given(rates_6)
def test_generator_offdiagonal_readback(vals):
    w = RateMatrix.from_coeffs(*vals)
    g = generator_from_rates(w)
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(g.m[off], w.w[off])


def test_probability_vector_validation():
    p = ProbabilityVector(np.array([0.25, 0.75]))
    assert p.n == 2
    with pytest.raises(ValidationError):
        ProbabilityVector(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        ProbabilityVector(np.array([1.1, -0.1]))
    # drift inside the tolerance bands survives
    ProbabilityVector(np.array([0.5 + 2e-10, 0.5, -5e-13]))


def test_probability_vector_is_immutable():
    p = ProbabilityVector(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        p.entries[0] = 1.0


def test_quadratic_entropy_requires_exact_symmetry():
    with pytest.raises(ValidationError):
        QuadraticEntropy(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))


def test_quadratic_entropy_value_and_gradient():
    sigma = np.array([[-1.0, 0.5], [0.5, -2.0]])
    s = QuadraticEntropy(sigma)
    p = np.array([0.3, 0.7])
    assert np.allclose(s.gradient(p), sigma @ p)


def test_quadratic_entropy_canonical_gauge():
    sigma = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    s = QuadraticEntropy(sigma)
    assert not s.in_canonical_gauge
    fixed = s.canonicalized()
    assert fixed.in_canonical_gauge
    assert fixed.sigma[1, 2] == 0.0
    # the shift is a multiple of the all-ones form
    assert np.allclose(sigma - fixed.sigma, 5.0 * np.ones((3, 3)))


def test_qt_decomposition_rejects_bad_k():
    entropy = QuadraticEntropy(-np.eye(3))
    with pytest.raises(ValidationError):
        QTDecomposition(entropy=entropy, k_mat=np.eye(3), r=None, residual=0.0)
    # antisymmetric but row sums nonzero
    k = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        QTDecomposition(entropy=entropy, k_mat=k, r=None, residual=0.0)


def test_rate_matrix_json_round_trip():
    w = RateMatrix.from_coeffs(1, 2, 3, 4, 5, 6)
    doc = rate_matrix_to_json(w)
    again = rate_matrix_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(again.w, w.w)


def test_rate_matrix_json_rejects_mismatched_n():
    with pytest.raises(BadShape):
        rate_matrix_from_json({"n": 4, "rates": [[0, 1], [1, 0]]})
    with pytest.raises(BadShape):
        rate_matrix_from_json({"n": 2})


def test_rate_document_rejects_ragged_rates():
    with pytest.raises(ValidationError, match="square array"):
        rate_matrix_from_json({"rates": [[0, 1], [1]]})
    with pytest.raises(ValidationError, match="square array"):
        validate_rates([[0, 1], [1]])


def test_rate_document_rejects_string_rates():
    with pytest.raises(ValidationError, match="rows of numbers"):
        rate_matrix_from_json({"rates": "x"})
    with pytest.raises(ValidationError, match="square array"):
        validate_rates("x")


def test_rate_document_rejects_string_n():
    with pytest.raises(ValidationError, match="not an integer"):
        rate_matrix_from_json({"n": "abc", "rates": [[0, 1], [1, 0]]})


def test_rate_document_rejects_boolean_rate():
    # JSON true is not the rate 1.0
    with pytest.raises(ValidationError, match="true/false"):
        rate_matrix_from_json({"rates": [[0, True], [1, 0]]})


def test_rate_document_rejects_fractional_n():
    for n in (2.7, 2.0, True):
        with pytest.raises(ValidationError, match="not an integer"):
            rate_matrix_from_json({"n": n, "rates": [[0, 1], [1, 0]]})
