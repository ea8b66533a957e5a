"""Dense tensor algebra in dimension 2: operands of order 1-4, products up to order 8.

Provides the generalized s-fold contraction and the Frobenius norm extended
to tensors of any order.  Everything is fixed to spatial dimension 2 with
row-major component storage (the first index varies slowest), so the
contraction index mapping is unambiguous and the inner loops stay
branch-free.

Order-4 operands serve the contraction property checks of ``memflow
verify``; the package builds no order-4 derivative (the strain measures
give directional derivatives, ``StrainMeasure.directional_derivative``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DIM = 2


@dataclass(frozen=True)
class Tensor:
    """A dense real tensor over R^2 with shape ``(2,) * order``, order 1 to 8.

    Components are stored row-major: entry ``(i1, ..., ip)`` lives at
    ``components[i1, ..., ip]``.  Instances are immutable value objects and
    safe to share across threads.
    """

    components: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        if arr.ndim < 1 or arr.ndim > 8 or arr.shape != (DIM,) * arr.ndim:
            raise ValueError(f"tensor components must have shape (2,)*order, got {arr.shape}")
        object.__setattr__(self, "components", arr)

    @property
    def order(self) -> int:
        return self.components.ndim


def contract(a: Tensor, b: Tensor, s: int):
    """s-fold contraction of a p-tensor against a q-tensor.

    Component ``(i_1..i_{p-s}, j_{s+1}..j_q)`` of the result is the sum over
    ``(k_1..k_s)`` of ``a[i.., k..] * b[k.., j..]``: the last ``s`` indices
    of ``a`` are paired with the first ``s`` indices of ``b``.  ``s = 0`` is
    the outer product, ``s = 1`` the dot product, ``s = 2`` the double
    contraction.  A full contraction (result of order 0) returns a float.
    """
    p, q = a.order, b.order
    if not isinstance(s, (int, np.integer)) or s < 0 or s > min(p, q):
        raise ValueError(f"contraction count s={s} outside 0..min({p},{q})")
    out = np.tensordot(a.components, b.components, axes=s)
    if out.ndim == 0:
        return float(out)
    return Tensor(out)


def frobenius_norm(a: Tensor) -> float:
    """sqrt of the sum of squared components; equals sqrt(contract(a, a, order)).
    Scaled, so subnormal components do not underflow to 0 nor huge ones overflow."""
    return math.hypot(*a.components.ravel().tolist())
