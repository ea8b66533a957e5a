"""Assembly of the extra-stress from the deformation history.

The stress is the age integral of the strain measure against the memory
kernel, evaluated per grid node with compensated summation over the age
axis.  The gradient-control quantities live here too: the kernel-weighted
age integral of the normalized deformation-gradient norm (the integrand of
the cumulative functional bounding the stress gradient), and the discrete
L^q norm of the spectral stress gradient.  The gradient of the assembled
stress is computed directly (one spectral gradient) rather than as an age
integral of chain-rule terms; the two agree to quadrature tolerance.

One pass over the stack accumulates both age integrals and the det G and
|G| minima (:class:`StackReduction`).  It takes each chunk as physical
fields (for the strain measure and the minima) and as its rows' potentials
(for grad G: 6 inverse transforms per slice, no forward one), and works in
the buffers of the chunk's workspace, which come with the chunk
(:meth:`~memflow.transport.DeformationHistory.chunks`).  The history step
feeds it each chunk it has just updated, and the newborn row, which it
sets to the identity, as that: the stress S(I), formed once per pass at one
point, a y integrand of exactly 0 (grad I = 0), det G = 1 and
|G| = sqrt(2), with no transform (:meth:`StackReduction.add_identity`).
These are the terms the identity's fields would add, first in the
compensated sums, which run in age order.  :meth:`StackReduction.over_stack`
feeds it the stored band stack at the initial state and on restart, and
so do :func:`assemble_stress` and :func:`history_scan`: 4 inverse
transforms per slice (:func:`~memflow.transport.row_fields`), 10 with the
scan, but an age-0 row that is bit for bit the identity
(:func:`~memflow.transport.is_identity`) goes as the newborn, with none.
So a run from rest starts with no history transform, and a restart's
first pass takes 10 (live - 1).

Only the live rows of the history are fed (:mod:`memflow.transport`): a
flow started from rest k steps ago holds min(k + 1, N_s) of them, visited
in age order (:meth:`~memflow.transport.DeformationHistory.chunks`).  Each
row is weighted by :meth:`~memflow.transport.DeformationHistory.mass`, and
the tail row by the kernel mass of every age it stands for
(:attr:`~memflow.agegrid.AgeGrid.tail_mass`), so the sums cover the same
integral as over every age; the minima over the live rows are the minima
over every age.
"""

from __future__ import annotations

import math

import numpy as np

from .agegrid import KahanSum
from .constitutive import StrainMeasure
from .spectral import SpectralGrid
from .transport import ChunkWorkspace, DeformationHistory, identity_stack, is_identity, row_fields


class DegenerateDeformationError(FloatingPointError):
    """A deformation norm fell below half its proven lower bound.

    The transported determinant keeps |G| bounded away from zero in the
    continuum, so reaching this signals discretization blow-up.
    """


class StackReduction:
    """Age integrals of one pass over the history stack, fed chunk by chunk.

    ``add_chunk(age, g, psi, work)`` takes the physical fields ``g`` and
    potentials ``psi`` of live ages ``age, age + 1, ...`` with the
    chunk's workspace ``work``, which it may overwrite, and
    ``add_identity()`` the newborn, age 0, as the identity (both in age
    order), weighted by the kernel mass the history's live count gives
    them (:meth:`DeformationHistory.mass`).  A ``measure`` adds the stress,
    its three distinct components (:meth:`stress`); ``scan = (q, r, mu)``
    adds the y integrand and the det G and |G| minima, with grad G from
    ``psi`` on the history's grid.  Sums are compensated (Kahan) in age
    order, so the result is deterministic regardless of chunking, the
    history's row layout or FFT worker counts.
    """

    def __init__(self, history: DeformationHistory, measure=None, scan: tuple[float, float, float] | None = None):
        if measure is not None and not isinstance(measure, StrainMeasure):
            raise TypeError(f"unsupported strain measure type {type(measure).__name__}")
        self.history, self.measure, self.scan = history, measure, scan
        self.grid = grid = history.grid
        k1, k2 = grid.k1_band, grid.k2_band
        self.hessian = (k1 * k1, math.sqrt(2.0) * k1 * k2, k2 * k2)  # d1 d1, sqrt 2 d1 d2, d2 d2 but the sign
        self.tau = KahanSum((3, grid.n, grid.n))
        self.y = KahanSum()
        self.min_det = self.min_abs = math.inf

    def add_chunk(self, age: int, g: np.ndarray, psi: np.ndarray, work: ChunkWorkspace):
        mass = self.history.mass(age, len(g))
        blocks = work.prod.reshape(len(g), 4, *g.shape[-2:], copy=False)  # a row's 4 fields: 3 scratch, I1
        i1 = np.einsum("...ijyx,...ijyx->...yx", g, g, out=blocks[:, 3])  # stress_stack's I1, bit for bit
        if self.measure is not None:  # the chunk's stress in blocks 0-2
            self.tau.add(mass, self.measure.stress_stack(g, out=blocks[:, :3], i1=i1))
        if self.scan is not None:
            self.y.add(mass, self._scan_chunk(g, psi, work, blocks))

    def add_identity(self):
        """Add the newborn, age 0, as the identity a history step sets: its
        stress S(I), a y integrand of exactly 0 (grad I = 0), det G = 1 and
        |G| = sqrt(2), with no transform.  The terms are those
        :meth:`add_chunk` adds for the identity's fields: S(I) is a constant
        field, so it is formed at one point, shape ``(1, 3, 1, 1)``, which
        the compensated sum broadcasts."""
        mass = self.history.mass(0, 1)
        if self.measure is not None:
            self.tau.add(mass, self.measure.stress_stack(identity_stack(1, 1)))
        if self.scan is not None:
            self.y.add(mass, [0.0])
            self.min_det = min(self.min_det, 1.0)
            self.min_abs = min(self.min_abs, math.sqrt(2.0))

    def stress(self) -> np.ndarray:
        """The stress summed so far, ``(3, n, n)``: the sum's own buffer."""
        return self.tau.total

    def _scan_chunk(self, g: np.ndarray, psi: np.ndarray, work: ChunkWorkspace, blocks: np.ndarray) -> list[float]:
        """Per slice || |grad G| / |G| ||_{L^q}^r; updates the minima.  Of a row mean_j + (-d2 psi_j,
        d1 psi_j), |grad G_j|^2 = (d1 d1 psi_j)^2 + 2 (d1 d2 psi_j)^2 + (d2 d2 psi_j)^2.  Every field
        is formed in ``blocks``, ``work.prod`` as 4 fields a row (the sum has already taken its stress):
        0 and 1 take the second derivatives, then serve as scratch, 2 takes |grad G|^2 and then the
        ratio, and 3, which holds I1 = |G|^2, |G|."""
        q, r, mu = self.scan
        grid, spec, rows = self.grid, work.spec[:, 0], work.rows[:, 0]
        dg, s0, s1, grad_sq = blocks[:, :2], blocks[:, 0], blocks[:, 1], blocks[:, 2]
        g_mag = np.sqrt(blocks[:, 3], out=blocks[:, 3])
        grad_sq[...] = 0.0
        for d in self.hessian:
            grid.inv(np.multiply(psi, d, out=spec), out=dg, rows=rows)
            dg *= dg
            grad_sq += np.add(s0, s1, out=s0)
        chunk_min = float(g_mag.min())
        self.min_abs = min(self.min_abs, chunk_min)
        g11, g12, g21, g22 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
        det = np.subtract(np.multiply(g11, g22, out=s0), np.multiply(g12, g21, out=s1), out=s0)
        self.min_det = min(self.min_det, float(det.min()))
        floor = math.sqrt(2.0 * min(mu, 1.0)) / 2.0
        if chunk_min < floor:
            raise DegenerateDeformationError(f"deformation norm {chunk_min:.4g} fell below {floor:.4g}")
        ratio = np.sqrt(grad_sq, out=grad_sq)
        ratio /= g_mag
        return [norm**r for norm in grid.lq_norm(ratio, q, out=(s0, s1))]

    def over_stack(self) -> "StackReduction":
        """Feed the stored live rows, unchanged, their fields transformed chunk
        by chunk; an age-0 row that is bit for bit the identity
        (:func:`~memflow.transport.is_identity`) goes as the newborn a step
        sets, :meth:`add_identity`, with no transform."""
        for age, psi, work in self.history.chunks():
            if age == 0 and is_identity(psi[0], self.grid.n):
                self.add_identity()
            else:
                self.add_chunk(age, row_fields(self.grid, psi, work), psi, work)
        return self

    def scan_result(self) -> tuple[float, float, float]:
        """(y integrand, min det G, min |G|)."""
        return float(self.y.total), self.min_det, self.min_abs


def assemble_stress(history: DeformationHistory, measure) -> np.ndarray:
    """Age-integrate the strain measure over the history stack.

    Returns the stress field, shape ``(3, n, n)``.  Summation is
    compensated (Kahan) over the age axis in a fixed order, so the result is
    deterministic regardless of chunking or FFT worker counts.
    """
    return StackReduction(history, measure).over_stack().stress()


def history_scan(history: DeformationHistory, q: float, r: float, mu: float = 1.0) -> tuple[float, float, float]:
    """One sweep over the stack: (y integrand, min det G, min |G|).

    The integrand is the kernel-weighted age integral of
    || |grad G| / |G| ||_{L^q}^r at the current time, summed with
    compensation in age order.  Raises
    :class:`DegenerateDeformationError` if any node's deformation norm
    falls below ``sqrt(2 min(mu, 1)) / 2``.
    """
    return StackReduction(history, None, (q, r, mu)).over_stack().scan_result()


def stress_gradient_norm(tau: np.ndarray, grid: SpectralGrid, q: float, work: ChunkWorkspace | None = None) -> float:
    """Discrete L^q norm of the pointwise Frobenius norm of grad tau.

    One derivative direction at a time, the three components take
    :meth:`~memflow.spectral.SpectralGrid.gradient` along it (an ``rfft``
    and an ``irfft`` each: 12 real line passes in all), and their squares
    are added into one field, in the order of ``einsum("djkyx,djkyx->yx")``
    over the gradient of the 2 x 2 tensor (direction, then j, then k), whose
    bits it gives, with tau_12's derivative standing in for tau_21's.
    The work goes in the buffers of a one-row chunk workspace ``work`` (a
    new one if not given): ``g`` takes the derivatives, ``rows`` the half
    spectrum and ``prod`` the magnitude and its power, so no field is
    allocated."""
    n = grid.n
    work = ChunkWorkspace(1, n) if work is None else work
    dtau, prod = work.g.reshape(-1, n, n, copy=False)[:3], work.prod.reshape(-1, n, n, copy=False)
    mag_sq, power = prod[0], prod[1:3]
    mag_sq[...] = 0.0
    for axis in (-2, -1):
        grid.gradient(tau, axis, out=dtau, rows=work.rows)
        dtau *= dtau
        for c in (0, 1, 1, 2):
            mag_sq += dtau[c]
    return grid.lq_norm(np.sqrt(mag_sq, out=mag_sq), q, out=power)
