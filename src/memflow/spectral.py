"""Periodic 2D fields on [0, 2pi)^2 and their Fourier-space operators.

Fields are plain float64 arrays with the two spatial axes last: scalars are
``(n, n)``, vectors ``(2, n, n)``, 2-tensors ``(2, 2, n, n)``, and stacks of
tensor fields prepend further axes.  Real-to-complex transforms keep the
Hermitian half spectrum (last axis length ``n//2 + 1``).  Axis -2 carries
the first coordinate, axis -1 the second.

All operators are mode-wise multipliers, so they are spectrally accurate on
band-limited data.  Whole half spectra are transformed by ``scipy.fft`` with
a process-wide worker count; per-transform results do not depend on the
worker count, which keeps every downstream reduction bit-deterministic.
Band spectra hold only the modes the 2/3 rule keeps, ``|k1|, |k2| <= kc``
with ``kc = n // 3`` (:func:`band_shape`): rows ``k1 = 0..kc, -kc..-1``,
columns ``k2 = 0..kc``.  Their transforms skip the discarded columns and run
through ``numpy.fft`` into caller-supplied buffers.
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
    tests via ``allow_small``).  Integer wavenumbers run over
    ``-n/2+1 .. n/2``; first-derivative multipliers zero the Nyquist mode.
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
        self.k1 = k1[:, None]
        self.k2 = k2[None, :]
        # first derivatives: i k with the (ambiguous-sign) Nyquist mode zeroed
        d1 = 1j * k1
        d1[n // 2] = 0.0
        d2 = 1j * k2.copy()
        d2[-1] = 0.0
        self.d1 = d1[:, None]
        self.d2 = d2[None, :]
        self.k_sq = self.k1**2 + self.k2**2
        inv = np.zeros_like(self.k_sq)
        nz = self.k_sq > 0
        inv[nz] = 1.0 / self.k_sq[nz]
        self.inv_k_sq = inv
        cutoff = n / 3.0
        self.dealias_mask = (np.abs(self.k1) <= cutoff) & (np.abs(self.k2) <= cutoff)
        # the band the mask keeps, and the first-derivative multipliers on it
        self.kc = kc = n // 3
        self.band_shape = band_shape(n)
        self.d1_band = self.d1[np.r_[0 : kc + 1, n - kc : n]]
        self.d2_band = self.d2[:, : kc + 1]
        # Nyquist modes carry no usable direction for odd derivatives; the
        # projector removes them so its output is solenoidal under d1/d2
        nyq = np.ones((n, n // 2 + 1), dtype=bool)
        nyq[n // 2, :] = False
        nyq[:, -1] = False
        self._no_nyquist = nyq
        # Parseval weights for the half spectrum: interior columns count twice
        w = np.full(n // 2 + 1, 2.0)
        w[0] = 1.0
        if n % 2 == 0:
            w[-1] = 1.0
        self._parseval_w = w[None, :]

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

    # -- mode-wise operators ------------------------------------------------

    def deriv_pair_hat(self, f_hat: np.ndarray) -> np.ndarray:
        """(d1 f, d2 f) stacked on a new leading axis, allocated once."""
        out = np.empty((2,) + f_hat.shape, dtype=f_hat.dtype)
        np.multiply(self.d1, f_hat, out=out[0])
        np.multiply(self.d2, f_hat, out=out[1])
        return out

    def dealias_hat(self, f_hat: np.ndarray) -> np.ndarray:
        return f_hat * self.dealias_mask

    def leray_hat(self, v_hat: np.ndarray) -> np.ndarray:
        """Remove the gradient part: v - k (k.v) / |k|^2, mean mode unchanged.

        Nyquist modes are zeroed (their wavevector sign is ambiguous in the
        real transform, so they cannot be made solenoidal consistently).
        """
        k_dot_v = self.k1 * v_hat[0] + self.k2 * v_hat[1]
        corr = k_dot_v * self.inv_k_sq
        out = np.stack((v_hat[0] - self.k1 * corr, v_hat[1] - self.k2 * corr))
        out *= self._no_nyquist
        return out

    def viscous_factor(self, eta: float, dt: float) -> np.ndarray:
        return np.exp(-eta * dt * self.k_sq)

    def divergence_hat(self, v_hat: np.ndarray) -> np.ndarray:
        return self.d1 * v_hat[0] + self.d2 * v_hat[1]

    # -- physical-space conveniences -----------------------------------------

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Stack (d1 f, d2 f) along a new leading axis."""
        return self.inv(self.deriv_pair_hat(self.fwd(f)))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        return self.inv(self.dealias_hat(self.fwd(f)))

    def leray_project(self, v: np.ndarray) -> np.ndarray:
        return self.inv(self.leray_hat(self.fwd(v)))

    def viscous_propagate(self, v: np.ndarray, eta: float, dt: float) -> np.ndarray:
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        return self.inv(self.fwd(v) * self.viscous_factor(eta, dt))

    def pressure_recover(self, tau: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Zero-mean pressure from -(-lap)^{-1} div div (tau - u (x) u)."""
        uu = self.dealias_hat(self.fwd(u[:, None] * u[None, :]))
        m_hat = self.fwd(tau) - uu
        kk = (
            self.k1 * self.k1 * m_hat[0, 0]
            + self.k1 * self.k2 * (m_hat[0, 1] + m_hat[1, 0])
            + self.k2 * self.k2 * m_hat[1, 1]
        )
        return self.inv(kk * self.inv_k_sq)

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

    def l2_norm_sq_hat(self, f_hat: np.ndarray) -> float:
        """Same as :meth:`l2_norm_sq` but from the half spectrum (Parseval)."""
        s = float(np.sum(self._parseval_w * (f_hat.real**2 + f_hat.imag**2)))
        return TWO_PI**2 * s / self.n**4


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


def taylor_green_pressure(grid: SpectralGrid, amplitude: float = 1.0) -> np.ndarray:
    # for this vortex orientation u.grad u = (sin 2x1, sin 2x2)/2 = -grad p
    p = (amplitude**2) * (np.cos(2 * grid.x1) + np.cos(2 * grid.x2)) / 4.0
    return np.broadcast_to(p, (grid.n, grid.n)).copy()


def random_band_limited_velocity(
    grid: SpectralGrid, seed: int, band: int, amplitude: float = 1.0
) -> np.ndarray:
    """Seeded divergence-free field supported on modes 0 < max|k| <= band."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((2, grid.n, grid.n))
    v_hat = grid.fwd(v)
    keep = (np.abs(grid.k1) <= band) & (np.abs(grid.k2) <= band) & (grid.k_sq > 0)
    v_hat *= keep
    u = grid.inv(grid.leray_hat(v_hat))
    sup = np.max(np.sqrt(u[0] ** 2 + u[1] ** 2))
    if sup > 0:
        u *= amplitude / sup
    return u
