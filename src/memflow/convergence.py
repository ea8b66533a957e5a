"""Richardson self-convergence of the fully coupled system.

No closed-form coupled solution exists, so :func:`coupled_self_convergence`
runs one config under joint (dt, ds) refinement and reads the gaps between
consecutive levels (``memflow converge``).  :func:`shear_history_stack` is
the exact startup-shear history that the age-quadrature tests sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, SimulationConfig
from .constitutive import symmetric_tensor
from .simulation import run


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


def shear_history_stack(age_nodes: np.ndarray, gamma_dot: float, t: float) -> np.ndarray:
    """Exact startup history delta + min(s, t) gamma_dot E21 per age node."""
    stack = np.zeros((age_nodes.size, 2, 2))
    stack[:, 0, 0] = 1.0
    stack[:, 1, 1] = 1.0
    stack[:, 1, 0] = gamma_dot * np.minimum(age_nodes, t)
    return stack


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
