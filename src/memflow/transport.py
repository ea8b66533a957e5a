"""Evolution of the age-structured deformation history.

The history holds one 2-tensor field per age node.  One full time step
advances every slice by the react-advect stage of

    dG/dt = -u . grad G + G . grad u

and shifts the stack by one age index, injecting the identity at age zero.
Because the react-advect operator acts identically on every slice it
commutes exactly with the shift, and the shift itself is an O(1) rotation
of a circular buffer (slice-major layout, age outermost).

A step is the only pass over the stack: each chunk of ``chunk_slices(n)``
rows, once updated and still in cache, goes with its new spectrum to an
optional reduction (stress and bound scan, :mod:`memflow.stress`).  Chunk
buffers live in one :class:`ChunkWorkspace` per history.

Determinants are transported exactly by the continuum equations for
divergence-free velocities, so their discrete drift is left uncorrected as a
visible diagnostic of discretization quality.
"""

from __future__ import annotations

import warnings

import numpy as np

from .agegrid import AgeGrid
from .spectral import SpectralGrid

CHUNK_SLICES = 48  # most slices in one chunk of a stack pass
CHUNK_BYTES = 2**20  # physical-field bytes of a chunk: small chunks keep a chunk's work in cache


def chunk_slices(n: int) -> int:
    """Slices per chunk of a stack pass on an n x n grid: ``CHUNK_BYTES`` of
    fields, at least one and at most ``CHUNK_SLICES``."""
    return max(1, min(CHUNK_SLICES, CHUNK_BYTES // (4 * n * n * 8)))


class DegenerateHistoryError(ValueError):
    """Initial deformation data violates the determinant floor."""


class HistoryNaNError(FloatingPointError):
    """Non-finite entries appeared in the deformation stack."""


class DeformationHistory:
    """Circular-buffer stack of 2-tensor fields, one per age node.

    ``payload`` has shape ``(n_nodes, 2, 2, n, n)``; logical age index j
    lives at physical row ``(head + j) % n_nodes``.  ``generation`` counts
    completed steps; ``workspace`` holds the chunk buffers of stack passes.
    Single-writer: one stepper mutates the stack, readers see a consistent
    snapshot between steps.
    """

    def __init__(self, payload: np.ndarray, age_grid: AgeGrid, head: int = 0, generation: int = 0):
        if payload.shape[0] != age_grid.n_nodes or payload.shape[1:3] != (2, 2):
            raise ValueError("payload shape does not match the age grid")
        self.payload = payload
        self.age_grid = age_grid
        self.head = head % age_grid.n_nodes
        self.generation = generation
        self.workspace = ChunkWorkspace(self.n_slices, self.grid_n)

    @property
    def n_slices(self) -> int:
        return self.payload.shape[0]

    @property
    def grid_n(self) -> int:
        return self.payload.shape[-1]

    def slice(self, j: int) -> np.ndarray:
        """View of the age-j tensor field."""
        return self.payload[(self.head + j) % self.n_slices]

    def ages(self, lo: int, count: int) -> np.ndarray:
        """Logical age indices of the physical rows ``lo .. lo + count - 1``."""
        return (np.arange(lo, lo + count) - self.head) % self.n_slices


class ChunkWorkspace:
    """Buffers every chunk of a stack pass reuses: ``real`` for the physical
    products that enter forward transforms, ``spec`` for a half spectrum an
    inverse transform may destroy.  Shorter chunks use leading views."""

    def __init__(self, n_slices: int, n: int):
        c = min(chunk_slices(n), n_slices)
        self.real = np.empty((c, 2, 2, n, n))
        self.spec = np.empty((c, 2, 2, n, n // 2 + 1), dtype=complex)

    @staticmethod
    def nbytes_for(n: int) -> int:
        """Bytes of the largest workspace on an n x n grid."""
        return chunk_slices(n) * 4 * n * (n * 8 + (n // 2 + 1) * 16)


def identity_stack(n_slices: int, n: int) -> np.ndarray:
    out = np.zeros((n_slices, 2, 2, n, n))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return out


def init_history(spec, grid: SpectralGrid, age_grid: AgeGrid, mu: float = 1.0) -> DeformationHistory:
    """Build the initial history.

    ``spec`` is either the string ``"identity"`` (quiescent past: every
    slice is the identity) or an explicit array of per-age tensor fields in
    increasing-age order.  Explicit data must keep ``det G >= mu > 0`` at
    every node; data whose age-zero slice differs from the identity is
    accepted with a warning (the boundary condition overwrites it after the
    first step).
    """
    if isinstance(spec, str):
        if spec != "identity":
            raise ValueError(f"unknown history spec {spec!r}")
        return DeformationHistory(identity_stack(age_grid.n_nodes, grid.n), age_grid)
    data = np.array(spec, dtype=float)
    expected = (age_grid.n_nodes, 2, 2, grid.n, grid.n)
    if data.shape != expected:
        raise ValueError(f"explicit history must have shape {expected}, got {data.shape}")
    if mu <= 0:
        raise ValueError("determinant floor mu must be positive")
    det = det_field(data)
    min_det = float(det.min())
    if min_det < mu:
        raise DegenerateHistoryError(
            f"initial history has min det G = {min_det:.6g}, below the floor mu = {mu:.6g}"
        )
    eye = identity_stack(1, grid.n)[0]
    if not np.allclose(data[0], eye, atol=1e-12):
        warnings.warn("age-zero slice of the supplied history differs from the identity", stacklevel=2)
    return DeformationHistory(data, age_grid)


def det_field(g: np.ndarray) -> np.ndarray:
    """Pointwise determinant for arrays shaped (..., 2, 2, n, n)."""
    return g[..., 0, 0, :, :] * g[..., 1, 1, :, :] - g[..., 0, 1, :, :] * g[..., 1, 0, :, :]


def norm_field(g: np.ndarray) -> np.ndarray:
    """Pointwise Frobenius norm for arrays shaped (..., 2, 2, n, n)."""
    return np.sqrt(
        g[..., 0, 0, :, :] ** 2
        + g[..., 0, 1, :, :] ** 2
        + g[..., 1, 0, :, :] ** 2
        + g[..., 1, 1, :, :] ** 2
    )


def age_shift(history: DeformationHistory) -> DeformationHistory:
    """Advance every slice one age index and inject the identity at age zero.

    The oldest slice is overwritten; its kernel mass is below the grid's
    tail tolerance by construction.
    """
    history.head = (history.head - 1) % history.n_slices
    _set_identity(history.payload[history.head])
    return history


def _set_identity(g: np.ndarray, g_hat: np.ndarray | None = None):
    """Write the identity field into ``g`` and, if given, its half spectrum into ``g_hat``."""
    g[:] = 0.0
    g[0, 0] = g[1, 1] = 1.0
    if g_hat is not None:
        g_hat[:] = 0.0
        g_hat[0, 0, 0, 0] = g_hat[1, 1, 0, 0] = g.shape[-1] * g.shape[-2]


def _react_rhs_hat(
    grid: SpectralGrid, g_phys: np.ndarray, u: np.ndarray, grad_u: np.ndarray, work: ChunkWorkspace
) -> np.ndarray:
    """Dealiased spectral right-hand side of the react-advect stage.

    Advection uses the conservative form u . grad G = div(u G), exact for
    divergence-free u; it needs only forward transforms of physical
    products, which is the cheaper direction for this stack size.  The
    products are formed in ``work.real``; ``grad_u[l, k] = d_l u_k``.
    """
    prod = work.real[: len(g_phys)]
    np.einsum("cjlyx,lkyx->cjkyx", g_phys, grad_u, out=prod)  # (G . grad u)_{jk}
    rhs_hat = grid.fwd(prod)
    rhs_hat *= grid.dealias_mask
    for u_l, d_l in ((u[0], grid.d1_dealiased), (u[1], grid.d2_dealiased)):
        np.multiply(g_phys, u_l, out=prod)
        flux_hat = grid.fwd(prod)
        flux_hat *= d_l
        rhs_hat -= flux_hat
    return rhs_hat


def stretch_advect_step(
    history: DeformationHistory, grid: SpectralGrid, u_old: np.ndarray, u_new: np.ndarray, dt: float, reduction=None
) -> DeformationHistory:
    """One full history step: Heun react-advect of every slice, then age shift.

    The two Heun stages sample the velocity at the old and new time levels,
    which keeps the stage second-order accurate; the exact shift and the
    identity injection make the age-zero boundary condition exact.  Slices
    are updated independently (data-parallel over age), and a non-finite
    result aborts with the offending slice located.

    A ``reduction`` (such as :class:`memflow.stress.StackReduction`) gets
    ``add_chunk(lo, g, g_hat)`` for each chunk of updated rows from physical
    row ``lo``, after the shift (newborn identity included), with its spectrum.
    """
    a_old = grid.gradient(u_old)  # a[l, k] = d_l u_k
    a_new = a_old if u_new is u_old else grid.gradient(u_new)
    old_head = history.head
    age_shift(history)  # the oldest row becomes the newborn; it is reset after its update
    newborn = history.head
    stack, work, size = history.payload, history.workspace, chunk_slices(grid.n)
    for lo in range(0, stack.shape[0], size):
        g = stack[lo : lo + size]
        g_hat = grid.fwd(g)
        r1 = _react_rhs_hat(grid, g, u_old, a_old, work)
        stage = work.spec[: len(g)]
        np.multiply(r1, dt, out=stage)
        stage += g_hat
        r2 = _react_rhs_hat(grid, grid.inv(stage, overwrite=True), u_new, a_new, work)
        r1 += r2
        r1 *= 0.5 * dt
        r1 += g_hat  # r1 is now the spectrum of the new state
        np.copyto(stage, r1)
        g_new = grid.inv(stage, overwrite=True)
        if not np.isfinite(g_new).all():
            bad = np.argwhere(~np.isfinite(g_new))
            phys = lo + int(bad[0, 0])
            age_j = (phys - old_head) % history.n_slices
            raise HistoryNaNError(
                f"non-finite deformation at step {history.generation + 1}, age slice {age_j}"
            )
        g[:] = g_new
        if lo <= newborn < lo + len(g):
            _set_identity(g[newborn - lo], r1[newborn - lo])
        if reduction is not None:  # it may overwrite work.spec, which this chunk no longer needs
            reduction.add_chunk(lo, g, r1)
    history.generation += 1
    return history
