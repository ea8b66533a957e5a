import math

import numpy as np
import pytest
import scipy.fft
from conftest import gradient_stack

from memflow import spectral
from memflow.spectral import SpectralGrid, random_band_limited_velocity, taylor_green
from memflow.stepper import FlowState


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(64)


def field(grid, expr):
    return expr(grid.x1, grid.x2) * np.ones((grid.n, grid.n))


def rfft2(f):
    """The whole half spectrum ``(..., n, n//2 + 1)``: the reference for the band transforms."""
    return scipy.fft.rfft2(f, axes=(-2, -1))


def irfft2(f_hat):
    """The inverse of :func:`rfft2`, one axis at a time."""
    return scipy.fft.irfft(scipy.fft.ifft(f_hat, axis=-2), n=f_hat.shape[-2], axis=-1)


def whole_derivative(n, axis):
    """i k along ``axis`` (-2 or -1) of the whole half spectrum, its Nyquist entry zeroed."""
    if axis == -2:
        d = 1j * np.fft.fftfreq(n, 1 / n)
        d[n // 2] = 0.0
        return d[:, None]
    d = 1j * np.fft.rfftfreq(n, 1 / n)
    d[-1] = 0.0
    return d


def band_round_trip(grid, f):
    """The band-limited part of a physical field: its 2/3-rule dealiasing."""
    return grid.inv(grid.band(f), out=np.empty_like(f))


def leray_project(grid, v):
    """The divergence-free part of a field with its mean: the curl of the potential of its band spectrum."""
    return grid.inv(grid.curl_hat(grid.potential_hat(grid.band(v))), out=np.empty_like(v))


class TestDerivatives:
    def test_single_mode(self, grid):
        f = field(grid, lambda x1, x2: np.sin(x1))
        np.testing.assert_allclose(grid.gradient(f, -2), field(grid, lambda x1, x2: np.cos(x1)), atol=1e-12)

    def test_constant(self, grid):
        assert np.abs(grid.gradient(np.ones((64, 64)), -2)).max() == 0.0

    def test_mixed_mode(self, grid):
        f = field(grid, lambda x1, x2: np.sin(3 * x1) * np.cos(2 * x2))
        expected = field(grid, lambda x1, x2: -2.0 * np.sin(3 * x1) * np.sin(2 * x2))
        np.testing.assert_allclose(grid.gradient(f, -1), expected, atol=1e-12)

    def test_band_limited_exactness(self, grid):
        rng = np.random.default_rng(0)
        f_hat = np.zeros((64, 33), complex)
        f_hat[1:6, 1:6] = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        f = irfft2(f_hat)
        d_num = grid.gradient(f, -2)
        d_exact = irfft2(whole_derivative(64, -2) * rfft2(f))
        np.testing.assert_allclose(d_num, d_exact, atol=1e-13)


class TestGradient:
    # the per-axis gradient against the 2-D whole-spectrum derivatives
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_matches_the_whole_spectrum_derivatives(self, n, lead):
        g = SpectralGrid(n)
        f = np.random.default_rng(n + len(lead)).standard_normal(lead + (n, n))  # not band-limited
        grad = gradient_stack(g, f)
        for got, axis in zip(grad, (-2, -1)):
            expected = irfft2(whole_derivative(n, axis) * rfft2(f))
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [16, 64])
    def test_nyquist_modes_read_zero(self, n):
        g = SpectralGrid(n)
        f = field(g, lambda x1, x2: np.cos(n * x1 / 2) + np.cos(n * x2 / 2))
        assert not gradient_stack(g, f).any()

    def test_writes_into_the_given_buffers(self, grid):
        f = np.random.default_rng(4).standard_normal((3, 64, 64))
        out, rows = np.empty((3, 64, 64)), np.empty(4 * 64 * 33, dtype=complex)
        for i, axis in enumerate((-2, -1)):
            assert grid.gradient(f, axis, out=out, rows=rows) is out
            assert out.tobytes() == gradient_stack(grid, f)[i].tobytes()


class TestBandTransforms:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_band_is_the_dealiased_set(self, n):
        g = SpectralGrid(n)
        rows, cols = g.band_shape
        kept = np.zeros((n, n // 2 + 1), dtype=bool)
        kept[np.r_[0 : g.kc + 1, n - g.kc : n], :cols] = True
        assert rows == 2 * g.kc + 1
        k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        k2 = np.arange(n // 2 + 1)[None, :]
        np.testing.assert_array_equal(kept, (np.abs(k1) <= n / 3) & (np.abs(k2) <= n / 3))
        np.testing.assert_array_equal(g.k1_band, k1[kept[:, 0]])
        np.testing.assert_array_equal(g.k2_band, k2[:, kept[0]])

    def test_forward_is_the_band_of_the_half_spectrum(self, grid):
        f = np.random.default_rng(7).standard_normal((3, 2, 64, 64))
        band = grid.fwd(f, out=np.empty((3, 2, *grid.band_shape), dtype=complex))
        full = rfft2(f)[..., np.r_[0:22, 43:64], :22]
        np.testing.assert_array_equal(band, full)
        np.testing.assert_array_equal(grid.band(f), full)
        d1_full = whole_derivative(64, -2) * rfft2(f)
        np.testing.assert_array_equal(grid.d1_band * band, d1_full[..., np.r_[0:22, 43:64], :22])

    def test_inverse_round_trips_band_limited_fields(self, grid):
        f = band_round_trip(grid, np.random.default_rng(8).standard_normal((3, 64, 64)))
        rows = np.full((3, 64, 33), np.nan, dtype=complex)  # scratch contents must not leak in
        band = grid.fwd(f, out=np.empty((3, *grid.band_shape), dtype=complex), rows=rows)
        kept = band.copy()
        back = grid.inv(band, out=np.empty_like(f), rows=rows)
        np.testing.assert_array_equal(band, kept)  # the band input is left intact
        np.testing.assert_allclose(back, f, rtol=0, atol=1e-14)
        full = rfft2(f)
        full[:, grid.kc + 1 : 64 - grid.kc] = full[:, :, grid.kc + 1 :] = 0.0
        np.testing.assert_array_equal(back, irfft2(full))  # the band path is the dealiased whole path


class TestLeray:
    def test_gradient_annihilated(self, grid):
        phi = field(grid, lambda x1, x2: np.sin(2 * x1) * np.cos(3 * x2))
        grad = gradient_stack(grid, phi)
        assert np.abs(leray_project(grid, grad)).max() < 1e-13

    def test_solenoidal_fixed(self, grid):
        v = np.stack([field(grid, lambda x1, x2: np.sin(x2)), field(grid, lambda x1, x2: np.sin(x1))])
        np.testing.assert_allclose(leray_project(grid, v), v, atol=1e-12)

    def test_idempotent_and_divergence_free(self, grid):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((2, 64, 64))
        pv = leray_project(grid, v)
        np.testing.assert_allclose(leray_project(grid, pv), pv, atol=1e-12)
        div = grid.inv(grid.divergence_hat(grid.band(pv)), out=np.empty((64, 64)))
        rel = np.abs(div).max() / max(1.0, np.abs(gradient_stack(grid, pv)).max())
        assert rel < 1e-10

    def test_self_adjoint(self, grid):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((2, 64, 64))
        w = rng.standard_normal((2, 64, 64))
        pv, pw = leray_project(grid, v), leray_project(grid, w)
        lhs = float(np.sum(pv * w))
        rhs = float(np.sum(v * pw))
        assert math.isclose(lhs, rhs, rel_tol=1e-11)

    def test_mean_mode_unchanged(self, grid):
        v = np.ones((2, 64, 64)) * np.array([1.5, -0.5])[:, None, None]
        np.testing.assert_allclose(leray_project(grid, v), v, atol=1e-13)


class TestViscousPropagate:
    """Viscous propagation of a band field: its spectrum times the viscous factor."""

    @staticmethod
    def propagate(grid, v, eta, dt):
        return grid.inv(grid.band(v) * grid.viscous_factor(eta, dt), out=np.empty_like(v))

    def test_identity_at_zero_dt(self, grid):
        u = taylor_green(grid)
        assert np.all(grid.viscous_factor(1.0, 0.0) == 1.0)
        np.testing.assert_allclose(self.propagate(grid, u, 1.0, 0.0), u, atol=1e-14)

    def test_single_mode_decay(self, grid):
        u = np.stack([field(grid, lambda x1, x2: np.sin(x2)), np.zeros((64, 64))])
        out = self.propagate(grid, u, 1.0, 0.37)
        np.testing.assert_allclose(out[0], math.exp(-0.37) * u[0], atol=1e-13)

    def test_norm_nonincreasing(self, grid):
        rng = np.random.default_rng(2)
        u = band_round_trip(grid, rng.standard_normal((2, 64, 64)))
        out = self.propagate(grid, u, 0.3, 0.1)
        assert grid.l2_norm_sq(out) <= grid.l2_norm_sq(u)


class TestDealias:
    """The band transform is the 2/3-rule dealiasing."""

    def test_low_modes_unchanged(self, grid):
        f = field(grid, lambda x1, x2: np.sin(5 * x1) * np.cos(7 * x2))
        np.testing.assert_allclose(band_round_trip(grid, f), f, atol=1e-12)

    def test_high_mode_removed(self, grid):
        f_hat = np.zeros((64, 33), complex)
        f_hat[31, 0] = 1.0  # k = (N/2 - 1, 0), above the N/3 cutoff
        assert np.abs(grid.band(irfft2(f_hat))).max() < 1e-15

    def test_idempotent(self, grid):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((64, 64))
        once = band_round_trip(grid, f)
        np.testing.assert_allclose(band_round_trip(grid, once), once, atol=1e-13)


class TestNormsAndFields:
    def test_taylor_green_norm(self, grid):
        # integral of sin^2 cos^2 over the torus is pi^2 per component
        assert math.isclose(grid.l2_norm_sq(taylor_green(grid)), 2.0 * math.pi**2, rel_tol=1e-13)

    def test_lq_norm_convention(self, grid):
        f = field(grid, lambda x1, x2: np.cos(x1))
        assert math.isclose(grid.lq_norm(f, 2), math.sqrt(2.0 * math.pi**2), rel_tol=1e-13)

    def test_lq_norm_of_a_stack_is_per_field(self, grid):
        fs = np.abs(np.random.default_rng(5).standard_normal((3, grid.n, grid.n)))
        for q in (2, 3, 2.5):
            assert grid.lq_norm(fs, q) == [grid.lq_norm(f, q) for f in fs]

    def test_lq_norm_in_given_buffers_has_the_same_bits(self, grid):
        f = np.abs(np.random.default_rng(6).standard_normal((grid.n, grid.n)))
        out = np.empty((2, grid.n, grid.n))
        for q in (1, 2, 3, 6, 7, 8, 2.5):
            assert grid.lq_norm(f, q, out=out) == grid.lq_norm(f, q)

    def test_random_band_limited_properties(self, grid):
        u = random_band_limited_velocity(grid, seed=11, band=4, amplitude=2.0)
        u_hat = grid.band(u)
        div = grid.inv(grid.divergence_hat(u_hat), out=np.empty((64, 64)))
        assert np.abs(div).max() < 1e-11
        assert math.isclose(np.sqrt(u[0] ** 2 + u[1] ** 2).max(), 2.0, rel_tol=1e-12)
        np.testing.assert_allclose(band_round_trip(grid, u), u, rtol=0, atol=1e-14)  # nothing outside the band
        high = (np.abs(grid.k1_band) > 4) | (np.abs(grid.k2_band) > 4)
        assert np.abs(u_hat[:, high]).max() < 1e-10
        np.testing.assert_array_equal(u, random_band_limited_velocity(grid, seed=11, band=4, amplitude=2.0))

    def test_random_band_above_the_cutoff_keeps_its_amplitude(self):
        # band 16 > kc = 10: the field is built on the band, so the flow keeps all of it
        g32 = SpectralGrid(32)
        u = random_band_limited_velocity(g32, seed=0, band=16, amplitude=1.0)
        state = FlowState(g32, u, 0.1)
        assert math.isclose(np.sqrt(state.u[0] ** 2 + state.u[1] ** 2).max(), 1.0, rel_tol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(48)
        with pytest.raises(ValueError):
            SpectralGrid(8)


class TestWorkers:
    @pytest.mark.parametrize("n", [0, -2])
    def test_count_below_one_refused(self, n):
        saved = spectral.get_workers()
        with pytest.raises(ValueError, match=f"the FFT worker count must be a positive integer, got {n}"):
            spectral.set_workers(n)
        assert spectral.get_workers() == saved
