"""Periodic 2D fields on [0, 2pi)^2 and their Fourier-space operators.

Fields are plain float64 arrays with the two spatial axes last: scalars are
``(n, n)``, vectors ``(2, n, n)``, 2-tensors ``(2, 2, n, n)``, and stacks of
tensor fields prepend further axes.  Axis -2 carries the first coordinate,
axis -1 the second.

Every band-limited field (the velocity, the differential oracle's stress,
each history slice) is held as its band spectrum: the modes the 2/3 rule
keeps, ``|k1|, |k2| <= kc`` with ``kc = n // 3`` (:func:`band_shape`), rows
``k1 = 0..kc, -kc..-1``, columns ``k2 = 0..kc``.  The forward transform of a
product into the band is its dealiased spectrum, and no Nyquist mode lies
in the band.  Band transforms skip the discarded columns and run through
``numpy.fft`` into caller-supplied buffers; the operators on band spectra are
mode-wise multipliers, spectrally accurate.

The stress is not band-limited.  Its gradient (:meth:`SpectralGrid.gradient`)
is the one transform of the whole Hermitian half spectrum (last axis
``n//2 + 1``), by ``scipy.fft`` with a process-wide worker count;
per-transform results do not depend on the worker count, which keeps every
downstream reduction bit-deterministic.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.fft as _fft

TWO_PI = 2.0 * math.pi

_workers = max(1, min(4, os.cpu_count() or 1))


def set_workers(n: int):
    """Set the FFT worker count (also via the MEMFLOW_THREADS env var)."""
    global _workers
    _workers = max(1, int(n))


def get_workers() -> int:
    return _workers


if os.environ.get("MEMFLOW_THREADS"):
    set_workers(int(os.environ["MEMFLOW_THREADS"]))


def band_shape(n: int) -> tuple[int, int]:
    """Trailing shape ``(2 kc + 1, kc + 1)`` of a band spectrum on an n x n grid."""
    kc = n // 3
    return 2 * kc + 1, kc + 1


class SpectralGrid:
    """Uniform n x n grid on the 2-torus with precomputed mode data.

    ``n`` must be a power of two, at least 16 (smaller grids are allowed in
    tests via ``allow_small``).  Integer wavenumbers of the whole spectrum
    run over ``-n/2+1 .. n/2``; its first-derivative multipliers zero the
    Nyquist mode.
    """

    def __init__(self, n: int, allow_small: bool = False):
        if n & (n - 1) or n <= 0:
            raise ValueError("grid size must be a power of two")
        if n < 16 and not allow_small:
            raise ValueError("grid size must be at least 16")
        self.n = n
        self.dx = TWO_PI / n
        x = self.dx * np.arange(n)
        self.x1 = x[:, None]  # broadcastable over axis -2
        self.x2 = x[None, :]
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, full axis
        k2 = np.arange(n // 2 + 1, dtype=float)  # half axis
        # first derivatives on the whole half spectrum, for gradient(): i k
        # with the (ambiguous-sign) Nyquist mode zeroed
        d1 = 1j * k1
        d1[n // 2] = 0.0
        d2 = 1j * k2
        d2[-1] = 0.0
        self.d1 = d1[:, None]
        self.d2 = d2[None, :]
        # the band and its mode data; kc < n/2, so no Nyquist mode lies in it
        self.kc = kc = n // 3
        self.band_shape = band_shape(n)
        self.k1_band = k1[np.r_[0 : kc + 1, n - kc : n], None]
        self.k2_band = k2[None, : kc + 1]
        self.d1_band = 1j * self.k1_band
        self.d2_band = 1j * self.k2_band
        self.k_sq_band = self.k1_band**2 + self.k2_band**2
        self.inv_k_sq_band = np.divide(1.0, self.k_sq_band, out=np.zeros_like(self.k_sq_band),
                                       where=self.k_sq_band > 0)

    # -- transforms ---------------------------------------------------------

    def fwd(self, f: np.ndarray, out: np.ndarray | None = None, rows: np.ndarray | None = None) -> np.ndarray:
        """Forward transform over the two spatial axes.

        Without ``out``: the half spectrum, shape ``(..., n, n//2 + 1)``.  An
        ``out`` of shape ``(..., *band_shape)`` selects the band transform: a
        row ``rfft`` into ``rows`` (complex scratch of the half-spectrum shape,
        allocated if not given), then the column FFT of the kc + 1 kept
        columns only, whose band rows are copied into ``out``.
        """
        if out is None:
            return _fft.rfft2(f, axes=(-2, -1), workers=_workers)
        n, kc = self.n, self.kc
        rows = np.fft.rfft(f, axis=-1, out=rows)
        cols = rows[..., : kc + 1]
        np.fft.fft(cols, axis=-2, out=cols)
        out[..., : kc + 1, :] = cols[..., : kc + 1, :]
        out[..., kc + 1 :, :] = cols[..., n - kc :, :]
        return out

    def inv(self, f_hat: np.ndarray, out: np.ndarray | None = None, rows: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`fwd`, one axis at a time as in ``irfft2``.

        Without ``out``: ``f_hat`` is a half spectrum, left intact.  With
        ``out`` (the physical field, ``(..., n, n)``): ``f_hat`` is a band
        spectrum, left intact; it is zero-padded into ``rows`` (as for
        :meth:`fwd`), the kept columns take the column iFFT and every row the
        ``irfft``.
        """
        if out is None:
            f_hat = _fft.ifft(f_hat, axis=-2, workers=_workers)
            return _fft.irfft(f_hat, n=self.n, axis=-1, workers=_workers, overwrite_x=True)
        n, kc = self.n, self.kc
        if rows is None:
            rows = np.empty(f_hat.shape[:-2] + (n, n // 2 + 1), dtype=complex)
        cols = rows[..., : kc + 1]
        cols[..., : kc + 1, :] = f_hat[..., : kc + 1, :]
        cols[..., kc + 1 : n - kc, :] = 0.0
        cols[..., n - kc :, :] = f_hat[..., kc + 1 :, :]
        rows[..., kc + 1 :] = 0.0
        np.fft.ifft(cols, axis=-2, out=cols)
        return np.fft.irfft(rows, n=n, axis=-1, out=out)

    def band(self, f: np.ndarray) -> np.ndarray:
        """The band spectrum of ``f``, allocated: its 2/3-rule projection."""
        return self.fwd(f, out=np.empty(f.shape[:-2] + self.band_shape, dtype=complex))

    def check_band(self, f_hat: np.ndarray, lead: tuple[int, ...], what: str):
        """Refuse anything but a complex band spectrum with leading axes ``lead``."""
        shape = lead + self.band_shape
        if f_hat.shape != shape or f_hat.dtype != complex:
            raise ValueError(
                f"{what} must be the band spectrum {shape} (complex128) of the grid, "
                f"got {f_hat.shape} ({f_hat.dtype})"
            )

    def jet(self, f_hat: np.ndarray) -> np.ndarray:
        """The physical fields ``(f, d1 f, d2 f)`` of a band spectrum, stacked
        on a new leading axis: one band inverse of the spectrum and its two
        derivative spectra, so a field and its gradient need no forward
        transform."""
        jet_hat = np.empty((3,) + f_hat.shape, dtype=complex)
        jet_hat[0] = f_hat
        np.multiply(self.d1_band, f_hat, out=jet_hat[1])
        np.multiply(self.d2_band, f_hat, out=jet_hat[2])
        return self.inv(jet_hat, out=np.empty(jet_hat.shape[:-2] + (self.n, self.n)))

    # -- mode-wise operators on band spectra ----------------------------------

    def leray_hat(self, v_hat: np.ndarray) -> np.ndarray:
        """Remove the gradient part: v - k (k.v) / |k|^2, mean mode unchanged."""
        k1, k2 = self.k1_band, self.k2_band
        corr = (k1 * v_hat[0] + k2 * v_hat[1]) * self.inv_k_sq_band
        return np.stack((v_hat[0] - k1 * corr, v_hat[1] - k2 * corr))

    def viscous_factor(self, eta: float, dt: float) -> np.ndarray:
        return np.exp(-eta * dt * self.k_sq_band)

    def divergence_hat(self, v_hat: np.ndarray) -> np.ndarray:
        return self.d1_band * v_hat[0] + self.d2_band * v_hat[1]

    # -- whole half spectrum ----------------------------------------------------

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Stack (d1 f, d2 f) along a new leading axis.  The one whole-spectrum
        path, for fields that are not band-limited (the stress)."""
        f_hat = self.fwd(f)
        return self.inv(np.stack((self.d1 * f_hat, self.d2 * f_hat)))

    # -- norms ----------------------------------------------------------------

    def lq_norm(self, pointwise: np.ndarray, q: float):
        """Discrete L^q norm: grid average scaled by (2 pi)^(2/q).

        ``pointwise`` is the scalar magnitude field (already reduced over
        any component axes), or a stack of them: then a list, one norm per
        field, with the same bits as one call per field.
        """
        means = np.mean(_abs_pow(pointwise, q), axis=(-2, -1))
        if means.ndim == 0:
            return (TWO_PI**2 * float(means)) ** (1.0 / q)
        return [(TWO_PI**2 * m) ** (1.0 / q) for m in means.tolist()]

    def l2_norm_sq(self, f: np.ndarray) -> float:
        """Squared L^2 norm, summed over any leading component axes."""
        return TWO_PI**2 * float(np.mean(f**2)) * float(np.prod(f.shape[:-2], dtype=float))


def _abs_pow(x: np.ndarray, q) -> np.ndarray:
    """|x|^q, via square-and-multiply for small integer q (hot path)."""
    qi = int(q)
    if qi != q or qi < 1 or qi > 64:
        return np.abs(x) ** q
    if qi % 2:
        base, k = np.abs(x), qi
    else:
        base, k = x * x, qi // 2
    acc = None
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    return acc


# -- canonical fields ----------------------------------------------------------


def taylor_green(grid: SpectralGrid, amplitude: float = 1.0) -> np.ndarray:
    """The single-mode vortex solving the 2D flow equations exactly."""
    u1 = amplitude * np.sin(grid.x1) * np.cos(grid.x2)
    u2 = -amplitude * np.cos(grid.x1) * np.sin(grid.x2)
    return np.stack((u1, u2))


def random_band_limited_velocity(
    grid: SpectralGrid, seed: int, band: int, amplitude: float = 1.0
) -> np.ndarray:
    """Seeded divergence-free field supported on modes 0 < max|k| <= min(band, kc),
    scaled to sup |u| = amplitude: a band field, which the flow keeps as it is."""
    rng = np.random.default_rng(seed)
    v_hat = grid.band(rng.standard_normal((2, grid.n, grid.n)))
    v_hat *= (np.abs(grid.k1_band) <= band) & (np.abs(grid.k2_band) <= band) & (grid.k_sq_band > 0)
    u = grid.inv(grid.leray_hat(v_hat), out=np.empty((2, grid.n, grid.n)))
    sup = np.max(np.sqrt(u[0] ** 2 + u[1] ** 2))
    if sup > 0:
        u *= amplitude / sup
    return u
