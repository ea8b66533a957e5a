import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memflow.verification import (
    _contract,
    _row_norm,
    am_gm_checks,
    cauchy_schwarz_max_violation,
    inner_product_checks,
)


def rows(*tensors):
    """Tensors over R^2 as the rows of one block, row-major."""
    return np.array([np.ravel(t) for t in tensors], dtype=float)


def test_identity_contraction_returns_operand():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(_contract(rows(np.eye(2)), rows(b), 1)[0], b)


def test_full_contraction_is_squared_norm():
    a = rows([[1.0, -2.0], [0.5, 4.0]])
    assert math.isclose(_contract(a, a, 2)[0, 0, 0], _row_norm(a)[0] ** 2, rel_tol=1e-14)


def test_basis_tensor_contraction():
    # (e1 x e2) . (e2 x e1) expands to e1 x e1 by the k-sum
    a = rows(np.outer([1.0, 0.0], [0.0, 1.0]))
    b = rows(np.outer([0.0, 1.0], [1.0, 0.0]))
    np.testing.assert_array_equal(_contract(a, b, 1)[0], np.outer([1.0, 0.0], [1.0, 0.0]))


def test_contraction_pairs_indices_as_tensordot():
    # the last s indices of A with the first s of B, for every order pair and s, on a block of 3 rows
    rng = np.random.default_rng(3)
    for p in range(1, 5):
        for q in range(1, 5):
            a, b = rng.standard_normal((3, 2**p)), rng.standard_normal((3, 2**q))
            for s in range(min(p, q) + 1):
                out = _contract(a, b, s)
                assert out.shape == (3, 2 ** (p - s), 2 ** (q - s))
                for i in range(3):
                    ref = np.tensordot(a[i].reshape((2,) * p), b[i].reshape((2,) * q), axes=s)
                    np.testing.assert_allclose(out[i].ravel(), np.ravel(ref), rtol=1e-14, atol=1e-15)


def test_row_norm_examples():
    gd_s = 1.7
    norms = _row_norm(rows(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0], [gd_s, 1.0]]))
    assert math.isclose(norms[0], math.sqrt(2.0))
    assert norms[1] == 0.0
    assert math.isclose(norms[2], math.sqrt(2.0 + gd_s**2), rel_tol=1e-15)


def test_row_norm_subnormal_example():
    # squaring 3.5e-269 underflows to 0; the scaled norm keeps the Cauchy-Schwarz bound
    a, b = rows([1.0, 0.0]), rows([3.5e-269, 0.0])
    assert _row_norm(b)[0] == 3.5e-269
    assert abs(_contract(a, b, 1)[0, 0, 0]) <= _row_norm(a)[0] * _row_norm(b)[0]


def test_row_norm_exact_where_the_square_overflows():
    assert _row_norm(rows([1e200, 0.0], [0.0, -1e200])).tolist() == [1e200, 1e200]
    big = 2.0**660  # 3 and 4 times it square to past the largest double
    assert _row_norm(rows([3 * big, 4 * big]))[0] == 5 * big


def row_blocks(order):
    """1-4 rows of 2**order components, subnormal to 1e300 in magnitude."""
    row = st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=2**order, max_size=2**order)
    return st.lists(row, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(row_blocks))
def test_row_norm_agrees_with_hypot(values):
    # operands and products of up to order 8; ulps of the reference norm, so also on the subnormal grid
    x = np.array(values)
    for row, norm in zip(x, _row_norm(x)):
        ref = math.hypot(*row)
        assert abs(norm - ref) <= 8 * math.ulp(ref)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_generalized_cauchy_schwarz(seed):
    assert cauchy_schwarz_max_violation(n_pairs=460, seed=seed) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_full_contraction_inner_product(seed):
    assert inner_product_checks(n=40, seed=seed)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_am_gm_norm_determinant(seed):
    assert am_gm_checks(n=300, seed=seed)
