import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflow.tensors import Tensor, contract, delta, frobenius_norm, invariants2


def tensor_strategy(order):
    return st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2**order, max_size=2**order
    ).map(lambda vals: Tensor(np.array(vals).reshape((2,) * order)))


def test_identity_contraction_returns_operand():
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(contract(delta(), b, 1).components, b.components)


def test_full_contraction_is_squared_norm():
    a = Tensor(np.array([[1.0, -2.0], [0.5, 4.0]]))
    assert math.isclose(contract(a, a, 2), frobenius_norm(a) ** 2, rel_tol=1e-14)


def test_basis_tensor_contraction():
    # (e1 x e2) . (e2 x e1) expands to e1 x e1 by the k-sum
    a = Tensor(np.outer([1.0, 0.0], [0.0, 1.0]))
    b = Tensor(np.outer([0.0, 1.0], [1.0, 0.0]))
    out = contract(a, b, 1)
    np.testing.assert_array_equal(out.components, np.outer([1.0, 0.0], [1.0, 0.0]))


def test_outer_product_order():
    a = Tensor(np.ones(2))
    b = Tensor(np.ones((2, 2)))
    assert contract(a, b, 0).order == 3


def test_contraction_bounds_rejected():
    a = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        contract(a, a, 3)
    with pytest.raises(ValueError):
        contract(a, a, -1)


def test_frobenius_examples():
    assert math.isclose(frobenius_norm(delta()), math.sqrt(2.0))
    assert frobenius_norm(Tensor(np.zeros((2, 2, 2)))) == 0.0
    gd_s = 1.7
    shear = Tensor(np.array([[1.0, 0.0], [gd_s, 1.0]]))
    assert math.isclose(frobenius_norm(shear), math.sqrt(2.0 + gd_s**2), rel_tol=1e-15)


def test_frobenius_subnormal_example():
    # squaring 3.5e-269 underflows to 0; the scaled norm keeps the Cauchy-Schwarz bound
    a, b = Tensor(np.array([1.0, 0.0])), Tensor(np.array([3.5e-269, 0.0]))
    assert frobenius_norm(b) == 3.5e-269
    assert abs(contract(a, b, 1)) <= frobenius_norm(a) * frobenius_norm(b)


def test_invariants_examples():
    assert invariants2(delta()) == (2.0, 1.0, 2.0)
    assert invariants2(2.0 * delta()) == (4.0, 4.0, 8.0)
    gd_s = 0.9
    tr, det, i1 = invariants2(Tensor(np.array([[1.0, 0.0], [gd_s, 1.0]])))
    assert tr == 2.0
    assert det == 1.0  # volume-preserving shear
    assert math.isclose(i1, 2.0 + gd_s**2, rel_tol=1e-15)


def test_invariants_rejects_wrong_order():
    with pytest.raises(ValueError):
        invariants2(Tensor(np.ones(2)))


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 3)))


def test_order_limits():
    # contractions of order-4 operands build products up to order 8
    assert Tensor(np.ones((2,) * 8)).order == 8
    with pytest.raises(ValueError):
        Tensor(np.ones((2,) * 9))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 4),
    q=st.integers(1, 4),
)
def test_generalized_cauchy_schwarz(data, p, q):
    a = data.draw(tensor_strategy(p))
    b = data.draw(tensor_strategy(q))
    s = data.draw(st.integers(0, min(p, q)))
    out = contract(a, b, s)
    lhs = abs(out) if isinstance(out, float) else frobenius_norm(out)
    rhs = frobenius_norm(a) * frobenius_norm(b)
    # absolute slack covers squared-norm underflow at ~1e-270 magnitudes
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-150


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(1, 4))
def test_full_contraction_inner_product(data, p):
    a = data.draw(tensor_strategy(p))
    b = data.draw(tensor_strategy(p))
    c = data.draw(tensor_strategy(p))
    lam = data.draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
    ab = contract(a, b, p)
    assert math.isclose(ab, contract(b, a, p), rel_tol=1e-12, abs_tol=1e-9)
    lin = contract(Tensor(a.components + lam * c.components), b, p)
    scale = max(abs(ab), abs(contract(c, b, p)), 1.0)
    assert math.isclose(lin, ab + lam * contract(c, b, p), rel_tol=1e-9, abs_tol=1e-6 * scale * max(abs(lam), 1.0))
    assert contract(a, a, p) >= 0.0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_am_gm_norm_determinant(data):
    g = data.draw(tensor_strategy(2))
    _, det, i1 = invariants2(g)
    assert i1 >= 2.0 * abs(det) * (1.0 - 1e-12)
