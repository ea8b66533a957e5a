import math

import numpy as np
import pytest
from conftest import gradient_stack

from memflow.constitutive import symmetric_tensor
from memflow.diagnostics import OracleState, oldroyd_differential_step
from memflow.spectral import SpectralGrid, random_band_limited_velocity, taylor_green
from memflow.stepper import (
    FlowNaNError,
    FlowState,
    advance_flow,
    cfl_dt,
    heun,
    kinetic_energy,
    step_velocity,
)


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(64)


class TestTaylorGreen:
    def test_decay_rate(self, grid):
        eta = 1.0
        state = FlowState(grid, taylor_green(grid), eta)
        for _ in range(1000):
            step_velocity(state, None, 1e-3)
        expected = math.exp(-2.0 * eta * 1.0) * taylor_green(grid)
        rel = np.abs(state.u - expected).max() / np.abs(expected).max()
        assert rel < 1e-4  # the integrating factor actually lands at roundoff

    def test_divergence_free_every_step(self, grid):
        state = FlowState(grid, taylor_green(grid), 0.05)
        for _ in range(20):
            step_velocity(state, None, 5e-3)
            div = grid.inv(grid.divergence_hat(grid.curl_hat(state.psi_hat)), out=np.empty((grid.n, grid.n)))
            rel = np.abs(div).max() / max(1.0, np.abs(gradient_stack(grid, state.u)).max())
            assert rel <= 1e-10


class TestForcingAndStress:
    def test_constant_isotropic_stress_keeps_rest(self, grid):
        tau = np.zeros((3, grid.n, grid.n))
        tau[0] = tau[2] = 2.5
        state = FlowState(grid, np.zeros((2, grid.n, grid.n)), 1.0)
        for _ in range(5):
            step_velocity(state, tau, 1e-2)
        assert np.abs(state.u).max() < 1e-14

    def test_manufactured_solution_second_order(self, grid):
        # u*(t) = exp(-alpha t) u_TG with residual forcing (2 eta - alpha) u*
        eta, alpha, t_final = 0.5, 1.5, 0.5
        u0 = taylor_green(grid)
        errs = []
        for dt in (2e-2, 1e-2, 5e-3):
            state = FlowState(grid, u0.copy(), eta)
            forcing = lambda t, g: (2.0 * eta - alpha) * math.exp(-alpha * t) * u0
            for _ in range(round(t_final / dt)):
                step_velocity(state, None, dt, forcing=forcing)
            target = math.exp(-alpha * t_final) * u0
            errs.append(np.abs(state.u - target).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_energy_nonincreasing_unforced(self, grid):
        state = FlowState(grid, random_band_limited_velocity(grid, 3, 8), 0.05)
        prev = kinetic_energy(grid, state.u)
        for _ in range(30):
            step_velocity(state, None, 5e-3)
            cur = kinetic_energy(grid, state.u)
            assert cur <= prev * (1.0 + 1e-14)
            prev = cur


class TestCfl:
    def test_zero_velocity_gives_base(self, grid):
        assert cfl_dt(np.zeros((2, 64, 64)), grid, 0.5, 0.25) == 0.25

    def test_arithmetic(self):
        g128 = SpectralGrid(128)
        u = np.zeros((2, 128, 128))
        u[0] = 2.0
        got = cfl_dt(u, g128, 0.5, 1.0)
        assert math.isclose(got, 0.5 * (2 * math.pi / 128) / 2.0, rel_tol=1e-14)

    def test_doubling_speed_halves_bound(self, grid):
        u = np.zeros((2, 64, 64))
        u[0] = 1.0
        assert math.isclose(cfl_dt(2 * u, grid, 0.5, 10.0), cfl_dt(u, grid, 0.5, 10.0) / 2.0, rel_tol=1e-14)

    def test_bad_safety_rejected(self, grid):
        with pytest.raises(ValueError):
            cfl_dt(np.zeros((2, 64, 64)), grid, 0.0, 1.0)


class TestEnergyAndSubstepping:
    def test_kinetic_energy_taylor_green(self, grid):
        assert math.isclose(kinetic_energy(grid, taylor_green(grid)), math.pi**2, rel_tol=1e-13)

    def test_advance_flow_substeps(self, grid):
        state = FlowState(grid, taylor_green(grid), 0.05)
        n_sub = advance_flow(state, None, 0.2, 0.5)
        assert n_sub >= 2  # CFL at unit speed forces substepping
        assert math.isclose(state.t, 0.2, rel_tol=1e-12)

    def test_nan_abort(self, grid):
        state = FlowState(grid, taylor_green(grid), 0.05)
        bad = np.full((3, grid.n, grid.n), np.nan)
        with pytest.raises((FlowNaNError, FloatingPointError)):
            step_velocity(state, bad, 1e-2)

    def test_viscosity_positive_required(self, grid):
        with pytest.raises(ValueError):
            FlowState(grid, taylor_green(grid), 0.0)


def leray_hat(grid, v_hat):
    """Remove the gradient part: v - k (k.v) / |k|^2, mean mode unchanged."""
    k1, k2 = grid.k1_band, grid.k2_band
    corr = (k1 * v_hat[0] + k2 * v_hat[1]) * grid.inv_k_sq_band
    return np.stack((v_hat[0] - k1 * corr, v_hat[1] - k2 * corr))


def convective_rhs_hat(grid, jet, div_tau_hat, forcing, t):
    """The advection u . grad u from the velocity jet: the convective reference form."""
    u, du = jet[0], jet[1:]  # du[i, c] = d_i u_c
    rhs = -grid.band(np.stack((u[0] * du[0, 0] + u[1] * du[1, 0], u[0] * du[0, 1] + u[1] * du[1, 1])))
    if div_tau_hat is not None:
        rhs += div_tau_hat
    if forcing is not None:
        rhs += grid.band(forcing(t, grid))
    return leray_hat(grid, rhs)


class TestConservativeAdvection:
    """The flow advances the stream function alone, with the curl of the
    conservative advection d_l (u_l u_k); it must give what the Leray-projected
    convective u . grad u from the velocity jet gives, stepped on the velocity's
    two components."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("forced", [False, True])
    def test_matches_convective_reference(self, n, forced):
        grid = SpectralGrid(n)
        u0 = random_band_limited_velocity(grid, 7, 5)
        tau = np.stack((np.sin(grid.x1 + grid.x2), np.cos(grid.x2) * np.ones((n, n)), np.sin(2 * grid.x1) * np.cos(grid.x2)))
        manufactured = lambda t, g: math.cos(3 * t) * np.stack((np.sin(g.x2) * np.cos(g.x1), np.sin(g.x1 - g.x2)))
        forcing = manufactured if forced else None
        state = FlowState(grid, u0, 0.05)
        ref_hat = leray_hat(grid, grid.band(u0))  # the reference holds the velocity's two components
        ref_jet, ref_t = grid.jet(ref_hat), 0.0
        div_tau_hat = grid.divergence_hat(grid.band(symmetric_tensor(tau)))
        for step in range(6):
            step_velocity(state, tau, 0.02, forcing=forcing)
            rhs = lambda jet, k: convective_rhs_hat(grid, jet, div_tau_hat, forcing, ref_t + 0.02 * k)
            ref_hat, ref_jet = heun(ref_jet, ref_hat, rhs, grid.jet, 0.02, e=grid.viscous_factor(0.05, 0.02))
            ref_t += 0.02
            scale = np.abs(ref_jet).max()
            assert np.abs(state.jet - ref_jet).max() <= 1e-13 * scale, step

    def test_jet_formed_from_final_spectrum(self, grid):
        state = FlowState(grid, random_band_limited_velocity(grid, 2, 6), 0.05)
        assert advance_flow(state, None, 0.2, 0.5) >= 2
        np.testing.assert_array_equal(state.jet, FlowState(grid, None, 0.05, psi_hat=state.psi_hat).jet)
        step_velocity(state, None, 1e-2)
        np.testing.assert_array_equal(state.jet, FlowState(grid, None, 0.05, psi_hat=state.psi_hat).jet)

    def test_jet_is_trace_free(self, grid):
        # d2 u2 is -d1 u1 bit for bit: div u = 0 holds exactly in the gradient the history and the oracle read
        state = FlowState(grid, random_band_limited_velocity(grid, 4, 8), 0.05)
        tau = np.stack((np.sin(grid.x1 + grid.x2), np.cos(grid.x2) * np.ones((64, 64)), np.sin(2 * grid.x1) * np.cos(grid.x2)))
        for jet in (state.jet, step_velocity(state, tau, 1e-2).jet):
            assert jet[1, 0].tobytes() == np.negative(jet[2, 1]).tobytes()
        np.testing.assert_allclose(state.jet, grid.jet(grid.curl_hat(state.psi_hat)), rtol=0, atol=1e-13)

    def test_mean_velocity_kept_bit_for_bit(self, grid):
        # a snapshot velocity with a nonzero mean: no right-hand side reaches the mean mode
        u0 = random_band_limited_velocity(grid, 9, 6, amplitude=0.5) + np.array([0.3, -0.7])[:, None, None]
        state = FlowState(grid, u0, 0.05)
        mean = state.psi_hat[0, 0]
        assert mean == pytest.approx(64**2 * complex(0.3, -0.7), rel=1e-14)
        tau = np.zeros((3, 64, 64))
        tau[1] = np.sin(grid.x1 - 2 * grid.x2)
        for _ in range(20):
            step_velocity(state, tau, 1e-2)
        assert state.psi_hat[0, 0].tobytes() == mean.tobytes()
        np.testing.assert_allclose(state.u.mean(axis=(1, 2)), [0.3, -0.7], rtol=0, atol=1e-14)


class TestHeunKernel:
    def test_zero_nonlinearity_is_the_integrating_factor(self, grid):
        y = taylor_green(grid)
        y_hat = grid.band(y)
        e = grid.viscous_factor(0.3, 0.1)
        inv = lambda f: grid.inv(f, out=np.empty_like(y))
        new_hat, new = heun(y, y_hat, lambda u, k: np.zeros_like(y_hat), inv, 0.1, e=e)
        np.testing.assert_array_equal(new_hat, e * y_hat)
        np.testing.assert_array_equal(new, inv(e * y_hat))

    @pytest.mark.parametrize("lawson", [True, False])
    def test_scalar_mode_second_order(self, lawson):
        # y' = lam y + a y^2, exact: 1/y = (1/y0 + a/lam) exp(-lam t) - a/lam
        lam, a, y0, t_final = -2.0, 1.0, 0.5, 1.0
        exact = 1.0 / ((1.0 / y0 + a / lam) * math.exp(-lam * t_final) - a / lam)
        errs = []
        for steps in (10, 20, 40, 80):
            dt = t_final / steps
            if lawson:
                rhs, e = (lambda y, k: a * y * y), np.array([math.exp(lam * dt)])
            else:
                rhs, e = (lambda y, k: lam * y + a * y * y), None
            y = np.array([y0])
            for _ in range(steps):
                _, y = heun(y, y.copy(), rhs, lambda f: f.copy(), dt, e=e)
            errs.append(abs(float(y[0]) - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("viscous", [True, False])
    def test_stage_buffer_aliasing(self, viscous):
        # an rhs writing stage 1 into the predictor buffer, as the history's
        # chunk loop does, must give the bits of one that allocates
        g16 = SpectralGrid(16)
        y = random_band_limited_velocity(g16, 5, 4)
        y_hat = g16.band(y)
        e = g16.viscous_factor(0.2, 0.05) if viscous else None
        r1_buf, stage_buf = np.empty_like(y_hat), np.empty_like(y_hat)
        inv = lambda f: g16.inv(f, out=np.empty_like(y))

        def allocating(u, k):
            return g16.band(u * u[::-1]) * (1.0 + k)

        def into_buffers(u, k):
            return np.multiply(allocating(u, k), 1.0, out=(r1_buf, stage_buf)[k])

        want_hat, want = heun(y, y_hat, allocating, inv, 0.05, e=e)
        got_hat, got = heun(y, y_hat, into_buffers, inv, 0.05, e=e, stage=stage_buf)
        assert got_hat is r1_buf
        np.testing.assert_array_equal(got_hat, want_hat)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(y_hat, g16.band(y))  # the input spectrum is left intact


class TestTransformCounts:
    """2-D transforms of one flow substep and one oracle step: a stage takes
    its physical state and gradient from the spectrum it holds (one inverse
    of its jet), and transforms forward only what it forms in physical space."""

    def test_flow_substep(self, counted):
        grid = SpectralGrid(32)
        state = FlowState(grid, taylor_green(grid), 0.1)
        tau = np.ones((3, 32, 32))
        counted.reset()
        step_velocity(state, tau, 1e-2)
        # forward: the stress 2 (once per base step) and the 2 velocity products per stage; inverse: the
        # velocity per stage, then the 3 Hessian fields of the step's jet
        assert (counted.fwd, counted.inv) == (2 + 2 * 2, 2 * 2 + 3)

    def test_advance_flow(self, counted):
        grid = SpectralGrid(32)
        state = FlowState(grid, taylor_green(grid), 0.1)
        tau = np.ones((3, 32, 32))
        counted.reset()
        s = advance_flow(state, tau, 0.5, 0.5)
        assert s >= 3  # CFL at unit speed forces substepping
        # per substep 4 forward and 4 inverse; once per base step the stress 2 forward and the jet 3 inverse
        assert (counted.fwd, counted.inv) == (2 + 4 * s, 4 * s + 3)

    def test_oracle_step(self, counted):
        grid = SpectralGrid(32)
        u = FlowState(grid, taylor_green(grid), 0.1).jet
        oracle = OracleState(grid, np.zeros((3, 32, 32)))
        counted.reset()
        oldroyd_differential_step(oracle, u, 0.9 * u, 1e-2)
        # forward: the right-hand side's 3 distinct components per stage; inverse: their 9-field jet per stage
        assert (counted.fwd, counted.inv) == (2 * 3, 2 * 9)
