import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from memflow.agegrid import build_age_grid
from memflow.config import SimulationConfig
from memflow.constitutive import model_catalog, symmetric_tensor
from memflow.diagnostics import (
    DiagnosticsRecord,
    OracleState,
    QuadratureError,
    monitor,
    oldroyd_differential_step,
    shear_startup_stress,
    steady_shear_stress,
    theorem_bound_report,
)
from memflow.spectral import SpectralGrid, taylor_green
from memflow.stepper import FlowState
from memflow.stress import assemble_stress, history_scan, stress_gradient_norm
from memflow.transport import identity_stack, init_history

N = 32


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(N)


class TestSteadyShearOracle:
    def test_zero_rate(self):
        kernel, m = model_catalog("oldroyd-b")
        np.testing.assert_allclose(steady_shear_stress(m, kernel, 0.0), np.zeros((2, 2)), atol=1e-12)

    def test_oldroyd_viscometric_functions(self):
        kernel, m = model_catalog("oldroyd-b")
        tau = steady_shear_stress(m, kernel, 1.0)
        np.testing.assert_allclose(tau, np.array([[2.0, 1.0], [1.0, 0.0]]), atol=1e-10)

    def test_psm_matches_direct_quadrature(self):
        kernel, m = model_catalog("psm-raw")
        tau = steady_shear_stress(m, kernel, 1.0)
        ref, _ = integrate.quad(lambda s: math.exp(-s) * s / (3.0 + s * s), 0, np.inf, epsabs=1e-13)
        assert abs(tau[0, 1] - ref) < 1e-9

    def test_nonintegrable_law_raises(self):
        kernel, m = model_catalog("oldroyd-b")
        from memflow.constitutive import StrainMeasure

        bad = StrainMeasure(name="bad", h=lambda x: x, hp=lambda x: np.ones_like(np.asarray(x, float)))
        with pytest.raises(QuadratureError):
            steady_shear_stress(bad, kernel, 1.0)

    def test_startup_approaches_steady(self):
        kernel, m = model_catalog("oldroyd-b")
        tau_t = shear_startup_stress(m, kernel, 1.0, 30.0)
        np.testing.assert_allclose(tau_t, steady_shear_stress(m, kernel, 1.0), atol=1e-9)

    def test_startup_from_quiescent_is_zero(self):
        kernel, m = model_catalog("oldroyd-b")
        np.testing.assert_allclose(shear_startup_stress(m, kernel, 1.0, 0.0), np.zeros((2, 2)), atol=1e-12)


class TestDifferentialOracle:
    def test_pure_relaxation(self, grid):
        rng = np.random.default_rng(0)
        tau0 = rng.standard_normal((3, N, N))
        tau0 = grid.inv(grid.band(tau0), out=tau0)  # band-limited
        orc = OracleState(grid, tau0.copy(), lam=2.0, mu_p=1.0)
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        dt, steps = 0.01, 100
        for _ in range(steps):
            oldroyd_differential_step(orc, u0, u0, dt)
        decay = math.exp(-steps * dt / 2.0)
        np.testing.assert_allclose(orc.tau, decay * tau0, rtol=5e-5)

    def test_matches_integral_law_under_flow(self, grid):
        # shared-velocity comparison isolates the constitutive formulation
        from memflow.stepper import advance_flow
        from memflow.transport import stretch_advect_step

        kernel, measure = model_catalog("oldroyd-b")
        ag = build_age_grid(kernel, 0.05, 1e-6)
        h = init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), 0.1)
        orc = OracleState(grid, np.zeros((3, N, N)))
        tau = assemble_stress(h, measure)
        for _ in range(10):
            u_old = st.jet
            advance_flow(st, tau, ag.ds, 0.5)
            stretch_advect_step(h, u_old, st.jet)
            oldroyd_differential_step(orc, u_old, st.jet, ag.ds)
            tau = assemble_stress(h, measure)
        gap = math.sqrt(grid.l2_norm_sq(symmetric_tensor(tau - orc.tau)) / grid.l2_norm_sq(symmetric_tensor(orc.tau)))
        assert gap < 2e-3


def monitor_cfg(**over) -> SimulationConfig:
    """A run config with default tolerances unless given: the monitor reads its q, r, mu_min, det_tol and stress_tol."""
    return SimulationConfig(**{"n": N, **over}, viscosity=1.0, dt=0.05, t_final=0.05, model_name="psm-raw")


class TestMonitor:
    def test_quiescent_state_clean(self, grid):
        kernel, measure = model_catalog("oldroyd-b")
        ag = build_age_grid(kernel, 0.05, 1e-4)
        h = init_history("identity", grid, ag)
        st = FlowState(grid, np.zeros((2, N, N)), 1.0)
        tau, cfg = assemble_stress(h, measure), monitor_cfg()
        rec = monitor(st, h, tau, measure, cfg, 0.0, history_scan(h, cfg.q, cfg.r, cfg.mu_min))
        assert rec.stress_sup == 0.0
        assert rec.min_detG == 1.0
        assert rec.y_integrand == 0.0
        assert rec.energy == 0.0
        assert rec.flags == ()

    def test_corrupted_determinant_flagged(self, grid):
        kernel, measure = model_catalog("psm-raw")
        ag = build_age_grid(kernel, 0.05, 1e-4)
        stack = identity_stack(ag.n_nodes, N)
        f = lambda x: 1.0 - 0.05 * (1.0 + np.cos(x))
        stack[2, 0, 0], stack[2, 1, 1] = f(grid.x2), f(grid.x1)  # divergence-free rows: det 0.81 at x = 0
        h = init_history(stack, grid, ag, mu=0.5)
        st = FlowState(grid, np.zeros((2, N, N)), 1.0)
        tau, cfg = assemble_stress(h, measure), monitor_cfg(mu_min=1.0)
        rec = monitor(st, h, tau, measure, cfg, 0.0, history_scan(h, cfg.q, cfg.r, cfg.mu_min))
        assert "det" in rec.flags

    def test_stress_bound_flag(self, grid):
        kernel, measure = model_catalog("psm-raw")
        ag = build_age_grid(kernel, 0.05, 1e-4)
        h = init_history("identity", grid, ag)
        st = FlowState(grid, np.zeros((2, N, N)), 1.0)
        tau, cfg = assemble_stress(h, measure), monitor_cfg(stress_tol=-1.0)
        rec = monitor(st, h, tau, measure, cfg, 0.0, history_scan(h, cfg.q, cfg.r, cfg.mu_min))
        assert "stress" in rec.flags

    def test_stress_gradient_goes_through_gradient_in_the_idle_workspace(self, monkeypatch):
        # monitor() takes the stress gradient by SpectralGrid.gradient in the history's chunk workspace, free
        # between steps; so taken, the gradient norm allocates less than one n x n field
        n = 128
        grid = SpectralGrid(n)
        kernel, measure = model_catalog("psm-raw")
        h = init_history("identity", grid, build_age_grid(kernel, 0.5, 1e-2))
        st = FlowState(grid, taylor_green(grid), 1.0)
        tau, cfg = assemble_stress(h, measure), monitor_cfg(n=n)
        tau += np.random.default_rng(3).standard_normal(tau.shape)
        stress_gradient_norm(tau, grid, cfg.q, h.workspace.cut(1))  # numpy's first-call setup
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sgn = stress_gradient_norm(tau, grid, cfg.q, h.workspace.cut(1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        calls, gradient = [], SpectralGrid.gradient
        monkeypatch.setattr(SpectralGrid, "gradient", lambda self, f, axis, **kw: calls.append(
            np.shares_memory(kw["rows"], h.workspace.rows)) or gradient(self, f, axis, **kw))
        rec = monitor(st, h, tau, measure, cfg, 0.0, history_scan(h, cfg.q, cfg.r, cfg.mu_min))
        assert calls == [True, True] and rec.stress_grad_norm == sgn

    def test_csv_row_layout(self):
        rec = DiagnosticsRecord(0.5, 1, 1, math.sqrt(2), 0, 0, 0, 0, 0, 0, ("det", "stress"))
        row = rec.csv_row()
        assert row.startswith("0.5,")
        assert row.endswith(",det;stress")
        assert len(row.split(",")) == 11


class TestBoundReport:
    def _records(self, ys, dets=None, flags=None):
        n = len(ys)
        dets = dets or [1.0] * n
        flags = flags or [()] * n
        return [
            DiagnosticsRecord(0.1 * i, 0.5, dets[i], 1.5, 1.0, 1.0, 0.0, ys[i], 0.0, 0.0, flags[i])
            for i in range(n)
        ]

    def test_clean_series_passes(self):
        rep = theorem_bound_report(self._records([0.01 * i for i in range(20)]), 1.0, 1.0)
        assert rep.passed
        assert rep.loglog_slope is not None

    def test_monotonicity_violation_detected(self):
        ys = [0.0, 0.1, 0.2, 0.15] + [0.3] * 8
        rep = theorem_bound_report(self._records(ys), 1.0, 1.0)
        assert not rep.y_monotone
        assert not rep.passed

    def test_stress_violations_counted(self):
        flags = [()] * 10 + [("stress",)] * 2
        rep = theorem_bound_report(self._records([0.0] * 12, flags=flags), 1.0, 1.0)
        assert rep.stress_violations == 2
        assert not rep.passed

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError):
            theorem_bound_report(self._records([0.0] * 5), 1.0, 1.0)
