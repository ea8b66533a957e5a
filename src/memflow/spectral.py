"""Periodic 2D fields on [0, 2pi)^2 and their Fourier-space operators.

Fields are plain float64 arrays with the two spatial axes last: scalars are
``(n, n)``, vectors ``(2, n, n)``, 2-tensors ``(2, 2, n, n)`` (a stress:
``(3, n, n)``), and stacks of tensor fields prepend further axes.  Axis -2 carries the first coordinate,
axis -1 the second.

Every band-limited field (the velocity, the differential oracle's stress,
each history slice) is held as its band spectrum: the modes the 2/3 rule
keeps, ``|k1|, |k2| <= kc`` with ``kc = n // 3`` (:func:`band_shape`), rows
``k1 = 0..kc, -kc..-1``, columns ``k2 = 0..kc``.  The forward transform of a
product into the band is its dealiased spectrum, and no Nyquist mode lies
in the band.  Band transforms skip the discarded columns and run through
``numpy.fft`` into caller-supplied buffers; the operators on band spectra are
mode-wise multipliers, spectrally accurate.  A divergence-free field (the
velocity, a history row) is held as its potential (:meth:`SpectralGrid.curl_hat`).

The stress is not band-limited.  Its gradient (:meth:`SpectralGrid.gradient`)
is the one transform of the whole spectrum, one axis at a time: an ``rfft``
along the axis, the derivative on its n//2 + 1 modes and an ``irfft`` back,
through ``numpy.fft`` into caller-supplied buffers.  So every transform
the solver runs goes through ``numpy.fft`` on one thread.  The worker count
(:func:`set_workers`, ``--threads``, ``MEMFLOW_THREADS``) is validated and
kept, but reaches no transform.
"""

from __future__ import annotations

import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi

_workers = None  # set on first use when set_workers has not set it


def set_workers(n: int, name: str = "the FFT worker count"):
    """Set the FFT worker count; ``ValueError``, naming its source ``name``,
    if ``n`` is below 1."""
    global _workers
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    _workers = int(n)


def get_workers() -> int:
    """The FFT worker count: the one :func:`set_workers` set, else the
    MEMFLOW_THREADS env var's, else the CPU count up to 4.  Raises
    ``ValueError`` if MEMFLOW_THREADS is set but not a positive integer."""
    if _workers is None:
        value = os.environ.get("MEMFLOW_THREADS")
        if not value:
            set_workers(min(4, os.cpu_count() or 1))
        else:
            try:
                n = int(value)
            except ValueError:
                raise ValueError(f"MEMFLOW_THREADS must be an integer, got {value!r}") from None
            set_workers(n, "MEMFLOW_THREADS")
    return _workers


def band_shape(n: int) -> tuple[int, int]:
    """Trailing shape ``(2 kc + 1, kc + 1)`` of a band spectrum on an n x n grid."""
    kc = n // 3
    return 2 * kc + 1, kc + 1


class SpectralGrid:
    """Uniform n x n grid on the 2-torus with precomputed mode data.

    ``n`` must be a power of two, at least 16.  Integer wavenumbers of the
    whole spectrum run over ``-n/2+1 .. n/2``; its first-derivative
    multiplier zeroes the Nyquist mode.
    """

    def __init__(self, n: int):
        if n & (n - 1) or n <= 0:
            raise ValueError("grid size must be a power of two")
        if n < 16:
            raise ValueError("grid size must be at least 16")
        self.n = n
        self.dx = TWO_PI / n
        x = self.dx * np.arange(n)
        self.x1 = x[:, None]  # broadcastable over axis -2
        self.x2 = x[None, :]
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, full axis
        k2 = np.arange(n // 2 + 1, dtype=float)  # half axis
        # the first derivative along the half axis of the whole spectrum: i k
        # with the (ambiguous-sign) Nyquist mode zeroed.  It is spread over
        # the half spectrum's shape, so gradient()'s product, which takes it
        # along either axis, broadcasts over leading axes only: numpy runs
        # that with no buffer
        d2 = 1j * k2
        d2[-1] = 0.0
        self.d2 = np.ascontiguousarray(np.broadcast_to(d2, (n, n // 2 + 1)))
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

    def fwd(self, f: np.ndarray, out: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Band transform over the two spatial axes into ``out``, of shape
        ``(..., *band_shape)``: a row ``rfft`` into ``rows`` (complex scratch
        of the half-spectrum shape ``(..., n, n//2 + 1)``, allocated if not
        given), then the column FFT of the kc + 1 kept columns only, whose
        band rows are copied into ``out``.
        """
        n, kc = self.n, self.kc
        rows = np.fft.rfft(f, axis=-1, out=rows)
        cols = rows[..., : kc + 1]
        np.fft.fft(cols, axis=-2, out=cols)
        out[..., : kc + 1, :] = cols[..., : kc + 1, :]
        out[..., kc + 1 :, :] = cols[..., n - kc :, :]
        return out

    def inv(self, f_hat: np.ndarray, out: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`fwd` into ``out``, the physical field
        ``(..., n, n)``, one axis at a time as in ``irfft2``: the band
        spectrum ``f_hat``, left intact, is zero-padded into ``rows`` (as for
        :meth:`fwd`), the kept columns take the column iFFT and every row the
        ``irfft``.
        """
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

    def field(self, f_hat: np.ndarray) -> np.ndarray:
        """The physical field of a band spectrum, allocated: the inverse of :meth:`band`."""
        return self.inv(f_hat, out=np.empty(f_hat.shape[:-2] + (self.n, self.n)))

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
        return self.field(jet_hat)

    # -- mode-wise operators on band spectra ----------------------------------

    def curl_hat(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The band spectra ``(..., 2, *band_shape)`` of the divergence-free fields mean + (-d2 psi, d1 psi)
        of the potentials ``psi``, ``(..., *band_shape)``, which hold n^2 (mean_1 + i mean_2) in their mean
        mode, a slot no derivative reads.  -d2 psi is 0 - d2 psi, so a zero psi gives +0.0."""
        out = np.empty(psi.shape[:-2] + (2,) + psi.shape[-2:], dtype=complex) if out is None else out
        np.subtract(0.0, np.multiply(self.d2_band, psi, out=out[..., 0, :, :]), out=out[..., 0, :, :])
        np.multiply(self.d1_band, psi, out=out[..., 1, :, :])
        out[..., 0, 0, 0], out[..., 1, 0, 0] = psi[..., 0, 0].real, psi[..., 0, 0].imag
        return out

    def potential_hat(self, v_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The potentials of the divergence-free parts of the band spectra ``v_hat``, ``(..., 2, *band_shape)``,
        inverting :meth:`curl_hat`: psi = -curl v / |k|^2 with n^2 (mean_1 + i mean_2) in its mean mode, and
        +0.0 for -0.0, so the identity's rows give :func:`~memflow.transport.set_identity`'s bits."""
        out = np.multiply(self.d2_band * v_hat[..., 0, :, :] - self.d1_band * v_hat[..., 1, :, :],
                          self.inv_k_sq_band, out=out)
        out[..., 0, 0] = v_hat[..., 0, 0, 0].real + 1j * v_hat[..., 1, 0, 0].real
        out += 0.0
        return out

    def viscous_factor(self, eta: float, dt: float) -> np.ndarray:
        return np.exp(-eta * dt * self.k_sq_band)

    def divergence_hat(self, v_hat: np.ndarray) -> np.ndarray:
        return self.d1_band * v_hat[0] + self.d2_band * v_hat[1]

    # -- whole half spectrum ----------------------------------------------------

    def gradient(self, f: np.ndarray, axis: int, out: np.ndarray | None = None,
                 rows: np.ndarray | None = None) -> np.ndarray:
        """The derivative of ``f`` along ``axis``: d1 f for -2, d2 f for -1.
        The whole-spectrum path, for fields that are not band-limited (the
        stress).

        One ``rfft`` along the axis, i k on its n//2 + 1 modes with the
        Nyquist mode zeroed, and one ``irfft`` back: 2 real line passes per
        field.  Along axis -2 the field and ``out`` are taken transposed, so
        the half spectrum is laid out alike for both axes and :attr:`d2`
        serves both.  The result goes into ``out``; ``rows`` is contiguous
        complex scratch of at least the half spectrum's size, ``f``'s
        leading shape times n (n//2 + 1).  Both are allocated if not given.
        """
        n = self.n
        out = np.empty(f.shape) if out is None else out
        half = f.shape[:-2] + (n, n // 2 + 1)
        if rows is not None:
            rows = rows.reshape(-1, copy=False)[: math.prod(half)].reshape(half)
        lines, derivative = (f, out) if axis == -1 else (f.swapaxes(-2, -1), out.swapaxes(-2, -1))
        spec = np.fft.rfft(lines, axis=-1, out=rows)
        spec *= self.d2
        np.fft.irfft(spec, n=n, axis=-1, out=derivative)
        return out

    # -- norms ----------------------------------------------------------------

    def lq_norm(self, pointwise: np.ndarray, q: float, out=None):
        """Discrete L^q norm: grid average scaled by (2 pi)^(2/q).

        ``pointwise`` is the scalar magnitude field (already reduced over
        any component axes), or a stack of them: then a list, one norm per
        field, with the same bits as one call per field.  ``out``, two
        buffers of ``pointwise``'s shape, takes |pointwise|^q, which is then
        allocated nowhere; the bits are the same.
        """
        means = np.mean(_abs_pow(pointwise, q, out), axis=(-2, -1))
        if means.ndim == 0:
            return (TWO_PI**2 * float(means)) ** (1.0 / q)
        return [(TWO_PI**2 * m) ** (1.0 / q) for m in means.tolist()]

    def l2_norm_sq(self, f: np.ndarray) -> float:
        """Squared L^2 norm, summed over any leading component axes."""
        return TWO_PI**2 * float(np.mean(f**2)) * float(np.prod(f.shape[:-2], dtype=float))


def _abs_pow(x: np.ndarray, q, out=None) -> np.ndarray:
    """|x|^q, via square-and-multiply for small integer q (hot path); with
    ``out``, two buffers of x's shape, the powers of x go in the first and
    their product in the second (or the first), with the same bits."""
    base_out, acc_out = (None, None) if out is None else out
    qi = int(q)
    if qi != q or qi < 1 or qi > 64:
        return np.power(np.abs(x, out=base_out), q, out=base_out)
    if qi % 2:
        base, k = np.abs(x, out=base_out), qi
    else:
        base, k = np.multiply(x, x, out=base_out), qi // 2
    acc = None
    while k:
        if k & 1:
            if acc is not None:
                acc = np.multiply(acc, base, out=acc_out)
            elif acc_out is None or k == 1:
                acc = base
            else:  # a copy: base is squared in place below
                acc = acc_out
                acc[...] = base
        k >>= 1
        if k:
            base = np.multiply(base, base, out=base_out)
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
    u = grid.field(grid.curl_hat(grid.potential_hat(v_hat)))
    sup = np.sqrt(np.max(u[0] ** 2 + u[1] ** 2))  # the max before the sqrt, same bits
    if sup > 0:
        u *= amplitude / sup
    return u
