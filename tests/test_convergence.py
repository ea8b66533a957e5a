import numpy as np
import pytest

from memflow.agegrid import HistoryTooLongError
from memflow.config import SimulationConfig
from memflow.convergence import (
    coupled_self_convergence,
    shear_history_stack,
    shear_startup_study,
    taylor_green_decay_study,
)
from memflow.snapshots import write_field
from memflow.spectral import SpectralGrid, taylor_green


@pytest.fixture(scope="module")
def tg_report():
    return taylor_green_decay_study(dts=(4e-3, 2e-3, 1e-3), n=32, eta=1.0, t_final=0.5)


@pytest.fixture(scope="module")
def coupled_report():
    cfg = SimulationConfig(
        n=32, viscosity=0.1, dt=0.1, t_final=0.8, model_name="psm-raw",
        eps_tail=1e-5, velocity_kind="taylor-green",
    )
    return coupled_self_convergence(cfg, n_levels=3)


class TestTaylorGreenStudy:
    def test_vortex_error_at_floor(self, tg_report):
        report = tg_report
        # the vortex nonlinearity projects away, so the integrating factor
        # integrates it exactly at every step size
        assert max(report.errors["taylor_green"]) < 1e-3
        assert max(report.errors["taylor_green"]) < 1e-11

    def test_forced_stage_second_order(self, tg_report):
        report = tg_report
        errs = report.errors["manufactured"]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)
        order, _ = report.orders["manufactured"]
        assert 1.8 <= order <= 2.2

    def test_spatial_refinement_at_floor(self, tg_report):
        report = tg_report
        assert max(report.extras["spatial_floor"]) <= 1e-11


class TestShearStartupStudy:
    def test_age_quadrature_second_order(self):
        rep = shear_startup_study("oldroyd-b", 1.0, ds_levels=(0.2, 0.1, 0.05), t_final=3.0)
        errs = rep.errors["shear_stress"]
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0
        order, _ = rep.orders["shear_stress"]
        assert order >= 1.8

    def test_long_time_reaches_viscometric_values(self):
        rep = shear_startup_study("oldroyd-b", 1.0, ds_levels=(0.02,), t_final=40.0)
        oracle = rep.extras["oracle"]
        assert oracle[0, 1] == pytest.approx(1.0, abs=1e-8)
        assert oracle[0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_damping_caps_stress_at_high_rate(self):
        # the rational damping keeps |S| <= 1 while the linear law grows as rate^2
        from memflow.agegrid import build_age_grid, quadrate
        from memflow.constitutive import model_catalog

        gamma_dot, t = 10.0, 20.0
        for name, bounded in (("psm-raw", True), ("oldroyd-b", False)):
            kernel, m = model_catalog(name)
            age = build_age_grid(kernel, 0.01, 1e-10)
            stack = shear_history_stack(age.nodes, gamma_dot, t)
            tau = quadrate(age, np.stack([m.stress(g) for g in stack]))
            mag = float(np.hypot(np.hypot(tau[0, 0], tau[0, 1]), np.hypot(tau[1, 0], tau[1, 1])))
            if bounded:
                assert mag <= 1.0
            else:
                assert mag > 50.0


class TestCoupledSelfConvergence:
    def test_fitted_order_in_band(self, coupled_report):
        report = coupled_report
        order, _ = report.orders["tau_gap"]
        assert 0.9 <= order <= 2.6

    def test_det_drift_monotone(self, coupled_report):
        report = coupled_report
        drift = report.extras["det_drift"]
        assert drift[0] > drift[1] > drift[2]

    def test_y_final_cauchy(self, coupled_report):
        report = coupled_report
        y = report.extras["y_final"]
        assert abs(y[1] - y[2]) < abs(y[0] - y[1])

    def test_reproducible(self, coupled_report):
        report = coupled_report
        cfg = SimulationConfig(
            n=32, viscosity=0.1, dt=0.1, t_final=0.8, model_name="psm-raw",
            eps_tail=1e-5, velocity_kind="taylor-green",
        )
        again = coupled_self_convergence(cfg, n_levels=3)
        assert again.errors["tau_gap"] == report.errors["tau_gap"]


class TestCoupledLevels:
    """Each level is the given config with its own dt: no other field is dropped."""

    @staticmethod
    def cfg(**kw):
        return SimulationConfig(n=16, viscosity=0.1, dt=0.1, t_final=0.2, model_name="psm-raw", eps_tail=1e-2, **kw)

    def test_snapshot_velocity_kept(self, tmp_path):
        path = tmp_path / "u.fld"
        write_field(path, taylor_green(SpectralGrid(16)))
        report = coupled_self_convergence(self.cfg(velocity_kind="snapshot", velocity_path=str(path)), n_levels=2)
        assert report.errors == coupled_self_convergence(self.cfg(), n_levels=2).errors

    def test_memory_cap_kept(self):
        with pytest.raises(HistoryTooLongError):
            coupled_self_convergence(self.cfg(memory_cap_mb=0.01), n_levels=2)
