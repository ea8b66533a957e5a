"""Evolution of the age-structured deformation history.

The history holds one 2-tensor field per age node.  One full time step
advances every slice by the react-advect stage of

    dG/dt = -u . grad G + G . grad u

and shifts the stack by one age index, injecting the identity at age zero.
Because the react-advect operator acts identically on every slice it
commutes exactly with the shift, and the shift itself is an O(1) rotation
of a circular buffer (slice-major layout, age outermost).

Each slice is stored as its 2/3-band spectrum (:func:`memflow.spectral.band_shape`),
about 2.2x smaller than the physical field.  That loses nothing: the
identity has only the mean mode and every right-hand side is dealiased, so
an identity start never leaves the band (explicit initial histories are
projected onto it).  Stage arithmetic runs on band spectra; the physical
fields, needed for the products, exist one chunk at a time.

A step is the only pass over the stack: each chunk of ``chunk_slices(n)``
rows takes one Heun step (:func:`memflow.stepper.heun`) and, once updated
and still in cache, goes with its new fields and spectra to an optional
reduction (stress and bound scan, :mod:`memflow.stress`).  The stage
arithmetic and every transform of a chunk write into the buffers of one
:class:`ChunkWorkspace` per history.

Determinants are transported exactly by the continuum equations for
divergence-free velocities, so their discrete drift is left uncorrected as a
visible diagnostic of discretization quality.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .agegrid import AgeGrid
from .spectral import SpectralGrid, band_shape
from .stepper import heun

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
    """Circular-buffer stack of 2-tensor fields, one per age node, each
    stored as its band spectrum.

    ``payload`` has shape ``(n_nodes, 2, 2, *band_shape(grid.n))``, complex;
    logical age index j lives at physical row ``(head + j) % n_nodes``.
    ``generation`` counts completed steps; ``workspace`` holds the chunk
    buffers of stack passes.  Single-writer: one stepper mutates the stack,
    readers see a consistent snapshot between steps.
    """

    def __init__(self, payload: np.ndarray, age_grid: AgeGrid, grid: SpectralGrid, head: int = 0,
                 generation: int = 0):
        expected = (age_grid.n_nodes, 2, 2, *grid.band_shape)
        if payload.shape != expected or payload.dtype != complex:
            raise ValueError(
                f"history payload must be the band-spectrum stack {expected} (complex128) of the "
                f"age and spatial grids, got {payload.shape} ({payload.dtype})"
            )
        self.payload = payload
        self.age_grid = age_grid
        self.grid = grid
        self.head = head % age_grid.n_nodes
        self.generation = generation
        self.workspace = ChunkWorkspace(self.n_slices, grid.n)

    @property
    def n_slices(self) -> int:
        return self.payload.shape[0]

    def slice(self, j: int) -> np.ndarray:
        """View of the age-j band spectrum."""
        return self.payload[(self.head + j) % self.n_slices]

    def ages(self, lo: int, count: int) -> np.ndarray:
        """Logical age indices of the physical rows ``lo .. lo + count - 1``."""
        return (np.arange(lo, lo + count) - self.head) % self.n_slices


class ChunkWorkspace:
    """Buffers every chunk of a stack pass reuses; shorter chunks use leading views.

    ``g`` holds the chunk's physical fields and ``prod`` physical products
    and scratch; ``rows`` is the row-transform scratch of band transforms;
    ``rhs``, ``spec`` and ``flux`` hold band spectra.
    """

    def __init__(self, n_slices: int, n: int):
        c = min(chunk_slices(n), n_slices)
        self.g, self.prod = (np.empty((c, 2, 2, n, n)) for _ in range(2))
        self.rows = np.empty((c, 2, 2, n, n // 2 + 1), dtype=complex)
        self.rhs, self.spec, self.flux = (np.empty((c, 2, 2, *band_shape(n)), dtype=complex) for _ in range(3))

    @staticmethod
    def nbytes_for(n: int) -> int:
        """Bytes of the largest workspace on an n x n grid."""
        rows, cols = band_shape(n)
        return chunk_slices(n) * 4 * (2 * n * n * 8 + n * (n // 2 + 1) * 16 + 3 * rows * cols * 16)


def identity_stack(n_slices: int, n: int) -> np.ndarray:
    """Physical identity fields, shape ``(n_slices, 2, 2, n, n)``."""
    out = np.zeros((n_slices, 2, 2, n, n))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return out


def init_history(spec, grid: SpectralGrid, age_grid: AgeGrid, mu: float = 1.0) -> DeformationHistory:
    """Build the initial history.

    ``spec`` is either the string ``"identity"`` (quiescent past: every
    slice is the identity) or an explicit array of per-age physical tensor
    fields in increasing-age order, which is projected onto the band.  The
    projected fields must keep ``det G >= mu > 0`` at every node; data
    whose age-zero slice differs from the identity is accepted with a
    warning (the boundary condition overwrites it after the first step).
    """
    payload = np.zeros((age_grid.n_nodes, 2, 2, *grid.band_shape), dtype=complex)
    if isinstance(spec, str):
        if spec != "identity":
            raise ValueError(f"unknown history spec {spec!r}")
        payload[:, 0, 0, 0, 0] = payload[:, 1, 1, 0, 0] = grid.n**2  # the mean mode
        return DeformationHistory(payload, age_grid, grid)
    data = np.asarray(spec, dtype=float)
    expected = (age_grid.n_nodes, 2, 2, grid.n, grid.n)
    if data.shape != expected:
        raise ValueError(f"explicit history must have shape {expected}, got {data.shape}")
    if mu <= 0:
        raise ValueError("determinant floor mu must be positive")
    history = DeformationHistory(payload, age_grid, grid)
    work, size, min_det = history.workspace, chunk_slices(grid.n), math.inf
    for lo in range(0, age_grid.n_nodes, size):
        band = payload[lo : lo + size]
        rows = work.rows[: len(band)]
        grid.fwd(data[lo : lo + size], out=band, rows=rows)
        min_det = np.minimum(min_det, det_field(grid.inv(band, out=work.g[: len(band)], rows=rows)).min())
    if not min_det >= mu:  # NaN fails too
        raise DegenerateHistoryError(
            f"initial history has min det G = {min_det:.6g}, below the floor mu = {mu:.6g}"
        )
    if not np.allclose(data[0], identity_stack(1, grid.n)[0], atol=1e-12):
        warnings.warn("age-zero slice of the supplied history differs from the identity", stacklevel=2)
    return history


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
    _set_identity(None, history.payload[history.head], history.grid.n)
    return history


def _set_identity(g: np.ndarray | None, g_hat: np.ndarray, n: int):
    """Write the identity into one slice's band spectrum ``g_hat`` and, if
    given, its physical field ``g``."""
    if g is not None:
        g[:] = 0.0
        g[0, 0] = g[1, 1] = 1.0
    g_hat[:] = 0.0
    g_hat[0, 0, 0, 0] = g_hat[1, 1, 0, 0] = n * n


def _react_rhs_hat(grid: SpectralGrid, g: np.ndarray, u: np.ndarray, grad_u: np.ndarray, work: ChunkWorkspace,
                   out: np.ndarray) -> np.ndarray:
    """Band spectrum of the react-advect right-hand side, written into ``out``.

    Advection uses the conservative form u . grad G = div(u G), exact for
    divergence-free u; it needs only forward transforms of physical
    products, which is the cheaper direction for this stack size.  The
    products are formed in ``work.prod``; ``grad_u[l, k] = d_l u_k``.
    """
    c = len(g)
    prod, rows, flux = work.prod[:c], work.rows[:c], work.flux[:c]
    np.einsum("cjlyx,lkyx->cjkyx", g, grad_u, out=prod)  # (G . grad u)_{jk}
    grid.fwd(prod, out=out, rows=rows)
    for u_l, d_l in ((u[0], grid.d1_band), (u[1], grid.d2_band)):
        np.multiply(g, u_l, out=prod)
        grid.fwd(prod, out=flux, rows=rows)
        flux *= d_l
        out -= flux
    return out


def stretch_advect_step(
    history: DeformationHistory, u_old: np.ndarray, u_new: np.ndarray, dt: float, reduction=None
) -> DeformationHistory:
    """One full history step: Heun react-advect of every slice, then age shift.

    The two Heun stages sample the velocity at the old and new time levels,
    which keeps the stage second-order accurate; the exact shift and the
    identity injection make the age-zero boundary condition exact.  Slices
    are updated independently (data-parallel over age), and a non-finite
    result aborts with the offending slice located, before its chunk is
    stored.

    A ``reduction`` (such as :class:`memflow.stress.StackReduction`) gets
    ``add_chunk(lo, g, g_hat)`` for each chunk of updated rows from physical
    row ``lo``, after the shift (newborn identity included): the physical
    fields and their band spectra.  Transforms run on the history's grid.
    """
    grid = history.grid
    a_old = grid.gradient(u_old)  # a[l, k] = d_l u_k
    a_new = a_old if u_new is u_old else grid.gradient(u_new)
    old_head = history.head
    age_shift(history)  # the oldest row becomes the newborn; it is reset after its update
    newborn = history.head
    stack, work, size = history.payload, history.workspace, chunk_slices(grid.n)
    for lo in range(0, stack.shape[0], size):
        g_hat = stack[lo : lo + size]
        c = len(g_hat)
        g, rows, out = work.g[:c], work.rows[:c], (work.rhs[:c], work.spec[:c])
        inv = lambda f: grid.inv(f, out=g, rows=rows)
        rhs = lambda y, k: _react_rhs_hat(grid, y, (u_old, u_new)[k], (a_old, a_new)[k], work, out[k])
        r1, g = heun(inv(g_hat), g_hat, rhs, inv, dt, stage=out[1])  # r1: the band spectrum of the new state
        if not np.isfinite(g).all():
            bad = np.argwhere(~np.isfinite(g))
            phys = lo + int(bad[0, 0])
            age_j = (phys - old_head) % history.n_slices
            raise HistoryNaNError(
                f"non-finite deformation at step {history.generation + 1}, age slice {age_j}"
            )
        if lo <= newborn < lo + c:
            _set_identity(g[newborn - lo], r1[newborn - lo], grid.n)
        g_hat[:] = r1
        if reduction is not None:  # it may overwrite the scratch buffers, which this chunk no longer needs
            reduction.add_chunk(lo, g, g_hat)
    history.generation += 1
    return history
