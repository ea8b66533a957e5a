"""Convergence studies and manufactured/exact solutions.

Three studies back the discretization orders claimed elsewhere:

* the single-vortex decay, which the exponential integrating factor
  reproduces exactly (fidelity regression), paired with a forced
  manufactured solution whose time dependence exposes the genuine
  second-order stage error;
* shear startup against adaptive quadrature of the exact homogeneous-shear
  history (pure age-quadrature error, second order in the age spacing);
* Richardson self-convergence of the fully coupled system under joint
  (dt, ds) refinement, since no closed-form coupled solution exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .agegrid import build_age_grid, quadrate
from .config import ConfigError, SimulationConfig
from .constitutive import model_catalog, symmetric_tensor
from .diagnostics import shear_startup_stress
from .simulation import run
from .spectral import SpectralGrid, taylor_green
from .stepper import FlowState, step_velocity


class LevelFailedError(RuntimeError):
    """A level run of a convergence study exited non-zero; ``exit_code`` is its code."""

    def __init__(self, level: int, exit_code: int, message: str):
        super().__init__(f"level {level} failed: {message}")
        self.level, self.exit_code = level, exit_code


@dataclass
class ConvergenceReport:
    levels: list[dict]
    errors: dict[str, list[float]] = field(default_factory=dict)
    orders: dict[str, tuple[float, float]] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def fit(self, key: str, hs):
        """Least-squares order for one error series; stores (order, residual)."""
        errs = np.asarray(self.errors[key], dtype=float)
        hs = np.asarray(hs, dtype=float)
        keep = errs > 0
        if keep.sum() < 2:
            self.orders[key] = (math.nan, math.nan)
            return
        coeff = np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)
        resid = float(np.max(np.abs(np.polyval(coeff, np.log(hs[keep])) - np.log(errs[keep]))))
        self.orders[key] = (float(coeff[0]), resid)

    def table(self) -> str:
        lines = ["level  " + "  ".join(f"{k}" for k in self.errors)]
        for i, lev in enumerate(self.levels):
            vals = "  ".join(
                f"{self.errors[k][i]:.3e}" if i < len(self.errors[k]) else "-"
                for k in self.errors
            )
            lines.append(f"{i}: {lev}  {vals}")
        for k, (order, resid) in self.orders.items():
            lines.append(f"order[{k}] = {order:.2f} (fit residual {resid:.2f})")
        return "\n".join(lines)


def taylor_green_decay_study(
    dts=(4e-3, 2e-3, 1e-3),
    n: int = 64,
    eta: float = 1.0,
    t_final: float = 1.0,
) -> ConvergenceReport:
    """Vortex decay error plus the temporal order of the forced stage.

    The unforced vortex is handled exactly by the integrating factor (its
    advection term is a pure gradient), so its error sits at the roundoff
    floor at every dt; the second-order stage error is measured on the
    manufactured field u*(t) = e^{-3 eta t} u_TG with its analytic residual
    supplied as forcing.
    """
    grid = SpectralGrid(n)
    u0 = taylor_green(grid)
    alpha = 3.0 * eta
    report = ConvergenceReport(levels=[{"dt": dt, "n": n} for dt in dts])
    tg_err, mms_err = [], []
    for dt in dts:
        n_steps = round(t_final / dt)
        state = FlowState(grid, u0.copy(), eta)
        for _ in range(n_steps):
            step_velocity(state, None, dt)
        decay = math.exp(-2.0 * eta * n_steps * dt)
        tg_err.append(float(np.max(np.abs(state.u - decay * u0))) / decay)

        forcing = lambda t, g: (2.0 * eta - alpha) * math.exp(-alpha * t) * u0
        state = FlowState(grid, u0.copy(), eta)
        for _ in range(n_steps):
            step_velocity(state, None, dt, forcing=forcing)
        target = math.exp(-alpha * n_steps * dt)
        mms_err.append(float(np.max(np.abs(state.u - target * u0))) / target)
    report.errors["taylor_green"] = tg_err
    report.errors["manufactured"] = mms_err
    report.fit("manufactured", dts)

    # spatial refinement on band-limited data stays at the floor
    spatial = []
    for n_sp in (n // 2, n):
        g2 = SpectralGrid(n_sp)
        st = FlowState(g2, taylor_green(g2), eta)
        for _ in range(100):
            step_velocity(st, None, 1e-3)
        decay = math.exp(-2.0 * eta * 0.1)
        spatial.append(float(np.max(np.abs(st.u - decay * taylor_green(g2)))) / decay)
    report.extras["spatial_floor"] = spatial
    return report


def shear_history_stack(age_nodes: np.ndarray, gamma_dot: float, t: float) -> np.ndarray:
    """Exact startup history delta + min(s, t) gamma_dot E21 per age node."""
    stack = np.zeros((age_nodes.size, 2, 2))
    stack[:, 0, 0] = 1.0
    stack[:, 1, 1] = 1.0
    stack[:, 1, 0] = gamma_dot * np.minimum(age_nodes, t)
    return stack


def shear_startup_study(
    model: str = "oldroyd-b",
    gamma_dot: float = 1.0,
    ds_levels=(0.04, 0.02, 0.01),
    t_final: float = 2.0,
    eps_tail: float = 1e-10,
    **model_params,
) -> ConvergenceReport:
    """Grid-quadrature shear stress against the adaptive-quadrature oracle.

    Homogeneous shear makes advection trivial and the per-slice stretch
    exact (the velocity gradient is nilpotent), so the measured error is
    pure age quadrature: expect second order in the spacing.
    """
    kernel, measure = model_catalog(model, **model_params)
    oracle = shear_startup_stress(measure, kernel, gamma_dot, t_final)
    report = ConvergenceReport(levels=[])
    errs = []
    for ds in ds_levels:
        age = build_age_grid(kernel, ds, eps_tail)
        stack = shear_history_stack(age.nodes, gamma_dot, t_final)
        samples = np.stack([measure.stress(g) for g in stack])
        tau = quadrate(age, samples)
        errs.append(float(np.max(np.abs(tau - oracle))))
        report.levels.append({"ds": ds, "n_s": age.n_nodes})
    report.errors["shear_stress"] = errs
    report.fit("shear_stress", ds_levels)
    report.extras["oracle"] = oracle
    return report


def coupled_self_convergence(cfg: SimulationConfig, n_levels: int = 3) -> ConvergenceReport:
    """Richardson self-convergence under joint (dt, ds) halving at fixed n.

    Each level runs ``cfg`` with its own ``dt`` and no output directory; a
    level that exits non-zero raises :class:`LevelFailedError`.

    Reports the consecutive-level gaps of the final velocity and stress,
    the fitted order (splitting-limited, expected at least first order),
    the determinant drift per level, and the final values of the cumulative
    gradient functional.
    """
    if n_levels < 2:
        raise ConfigError(f"need at least two refinement levels, got {n_levels}")
    results = []
    report = ConvergenceReport(levels=[])
    for i in range(n_levels):
        dt = cfg.dt / 2**i
        level_cfg = replace(cfg, dt=dt, output_dir="")
        res = run(level_cfg)
        if not res.ok:
            raise LevelFailedError(i, res.exit_code, res.message)
        results.append(res)
        report.levels.append({"dt": dt, "n_s": res.history.n_slices})

    grid = results[0].state.grid
    du, dtau = [], []
    for a, b in zip(results, results[1:]):
        du.append(math.sqrt(grid.l2_norm_sq(a.state.u - b.state.u)))
        dtau.append(math.sqrt(grid.l2_norm_sq(symmetric_tensor(a.tau - b.tau))))
    report.errors["u_gap"] = du
    report.errors["tau_gap"] = dtau
    hs = [cfg.dt / 2**i for i in range(n_levels - 1)]
    report.fit("u_gap", hs)
    report.fit("tau_gap", hs)
    report.extras["det_drift"] = [
        max(abs(rec.min_detG - 1.0) for rec in res.records) for res in results
    ]
    report.extras["y_final"] = [res.records[-1].y_value for res in results]
    return report
