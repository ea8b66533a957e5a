"""Discretization of the age axis and quadrature of fading-memory integrals.

The age grid is uniform with spacing equal to the flow time step, so the
unit-speed transport in (age, time) is an exact one-index shift.  The grid
is truncated where the kernel's remaining mass drops below a tolerance;
quadrature uses composite trapezoid weights (node positions are dictated by
the shift scheme, not by quadrature optimality).  Kernels that are singular
at the origin get their near-origin mass lumped exactly into node 0 instead
of sampling the density there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constitutive import MemoryKernel


class HistoryTooLongError(ValueError):
    """The requested tail tolerance needs more age nodes than the memory cap allows."""

    def __init__(self, required_nodes: int, max_nodes: int):
        self.required_nodes = required_nodes
        self.max_nodes = max_nodes
        super().__init__(
            f"history too long: tail tolerance needs {required_nodes} age nodes, cap is {max_nodes}"
        )


@dataclass(frozen=True)
class AgeGrid:
    """Uniform age nodes s_j = j * ds on [0, s_max] with quadrature data.

    ``node_mass`` is the trapezoid weights times the kernel density (with
    exact lumping at node 0 for singular kernels), so that integrating a
    sampled quantity f against the kernel is just ``sum(node_mass * f)``.  ``tail_mass[j]`` is ``sum(node_mass[j:])``, the
    mass of a sample that stands for every node from j on (its last entry
    is ``node_mass[-1]`` exactly).  ``tail_error`` is the kernel mass beyond
    ``s_max`` and ``quad_tol`` an a priori bound on the trapezoid error of
    the kernel mass itself.
    """

    ds: float
    nodes: np.ndarray
    node_mass: np.ndarray
    tail_mass: np.ndarray
    tail_error: float
    quad_tol: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def s_max(self) -> float:
        return float(self.nodes[-1])


def build_age_grid(
    kernel: MemoryKernel,
    dt: float,
    eps_tail: float,
    max_nodes: int | None = None,
) -> AgeGrid:
    """Truncate the age axis at the smallest multiple of dt with tail mass <= eps_tail.

    Raises :class:`HistoryTooLongError` when the resulting node count
    exceeds ``max_nodes`` (the error reports the count actually required).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    # eps_tail = 0 would demand an infinite history; values near 1 are only
    # useful in tests (production configs are validated to (0, 0.1))
    if not (0.0 < eps_tail < 1.0):
        raise ValueError("eps_tail must lie strictly between 0 and 1")

    # tail(s) <= exp(-s / lambda_max), so this many nodes always suffice
    n_hi = max(1, math.ceil(kernel.max_relaxation_time * math.log(1.0 / eps_tail) / dt) + 1)
    slack = 1.0 + 1e-12  # absorb roundoff in n * dt at exact-tail boundaries

    def tail_ok(n: int) -> bool:
        return kernel.interval_mass(n * dt, math.inf) <= eps_tail * slack

    lo, hi = 1, n_hi
    while not tail_ok(hi):  # defensive; the analytic bound can be off by roundoff
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_ok(mid):
            hi = mid
        else:
            lo = mid + 1
    n_intervals = lo
    n_nodes = n_intervals + 1
    if max_nodes is not None and n_nodes > max_nodes:
        raise HistoryTooLongError(n_nodes, max_nodes)

    nodes = dt * np.arange(n_nodes)
    weights = np.full(n_nodes, dt)
    weights[0] = weights[-1] = dt / 2.0

    node_mass = np.empty(n_nodes)
    if kernel.singular:
        node_mass[0] = kernel.interval_mass(0.0, dt / 2.0)
        node_mass[1:] = weights[1:] * kernel.density(nodes[1:])
    else:
        node_mass[:] = weights * kernel.density(nodes)

    tail = kernel.interval_mass(nodes[-1], math.inf)
    quad_tol = _mass_quadrature_bound(kernel, dt)
    tail_mass = np.cumsum(node_mass[::-1])[::-1]  # summed from the smallest masses up
    return AgeGrid(dt, nodes, node_mass, tail_mass, tail, quad_tol)


def _mass_quadrature_bound(kernel: MemoryKernel, ds: float) -> float:
    # Euler-Maclaurin per mode, capped by the mode mass once ds outruns the
    # mode's relaxation time; factor 2 of slack.
    lam = kernel.relaxation_times
    per_mode = np.minimum(ds**2 / (12.0 * lam**2), 1.0) * kernel.weights
    return 2.0 * float(per_mode.sum()) + 1e-14


def quadrate(grid: AgeGrid, samples):
    """Integrate per-node samples against the kernel over the age axis.

    ``samples`` has the age axis first (length ``n_nodes``); any trailing
    shape is carried through.  Summation is compensated (Kahan) along the
    age axis, so the result is deterministic and independent of how outer
    loops are parallelized.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} age samples, got {samples.shape[0]}")
    total = KahanSum(samples.shape[1:]).add(grid.node_mass, samples).total
    return float(total) if total.ndim == 0 else total


class KahanSum:
    """Compensated running sum of ``coeff * sample`` terms, added in call
    order (so chunked calls give the same bits), updated in place.  Every
    term, the first too, takes the textbook update y = c f - comp,
    t = total + y, comp = (t - total) - y, total = t: the same five
    operations in three buffers.  t goes into the compensation's buffer,
    which y has absorbed, and the new compensation into the old total's;
    then the two swap names.  The first term, into total = comp = 0.0, takes
    them on its own shape (one point for a constant field), then broadcast."""

    def __init__(self, shape=()):
        self.total, self._comp, self._y = np.zeros(shape), np.zeros(shape), np.empty(shape)
        self._empty = True

    def add(self, coeffs, samples) -> "KahanSum":
        y = self._y
        for c, f in zip(coeffs, samples):
            if self._empty:
                first = np.multiply(f, c) - 0.0
                self.total[...], self._comp[...], self._empty = 0.0 + first, (0.0 + first - 0.0) - first, False
                continue
            np.multiply(f, c, out=y)
            y -= self._comp
            t = np.add(self.total, y, out=self._comp)  # the compensation is dead once y holds it
            comp = np.subtract(t, self.total, out=self.total)
            comp -= y
            self.total, self._comp = t, comp
        return self
