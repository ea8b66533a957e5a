"""End-to-end simulation driver.

Per base step: advance the velocity with the stress of the previous step
(substepping under the advective CFL bound with the stress frozen), advance
the history and, when enabled, the differential oracle with the same pair of
velocity samples, then monitor.  A sample is the velocity's jet (the field
and its gradient, :class:`memflow.stepper.FlowState`), formed once per time
level and shared by the flow, the history, the oracle and the monitor.  The
history step is the step's only pass over the stack: it also assembles the
new stress and, on monitored steps, runs the bound scan that the monitor
reports.  The loop is single-writer; all reductions run in fixed order,
so identical configurations produce byte-identical diagnostics regardless
of the FFT worker count.

Exit codes: 0 clean, 2 non-finite or degenerate state (the last periodic
checkpoint is left on disk), 3 monitored-bound violation when configured
fatal.  A restart continues the ``diagnostics.csv`` it finds in the output
directory: rows past the checkpoint time are dropped, the rest are kept.
A checkpoint holds the band spectra of the velocity, the history and the
oracle stress, which a restart takes as they are, so its rows are the
straight run's bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agegrid import build_age_grid
from .config import ConfigError, SimulationConfig
from .constitutive import model_catalog
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    MonitorConfig,
    OracleState,
    monitor,
    oldroyd_differential_step,
)
from .snapshots import read_checkpoint, read_field, write_checkpoint, write_field
from .spectral import SpectralGrid, random_band_limited_velocity, taylor_green
from .stepper import FlowState, advance_flow
from .stress import StackReduction, assemble_stress  # noqa: F401 (assemble_stress: traced by perfbench)
from .transport import ChunkWorkspace, DeformationHistory, init_history, stretch_advect_step

EXIT_OK = 0
EXIT_NAN = 2
EXIT_VIOLATION = 3


@dataclass
class RunResult:
    exit_code: int
    records: list[DiagnosticsRecord]
    message: str = ""
    state: FlowState | None = None
    history: DeformationHistory | None = None
    oracle: OracleState | None = None
    tau: np.ndarray | None = None
    measure: object = None
    kernel: object = None
    oracle_gap: float | None = field(default=None)

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


def initial_velocity(cfg: SimulationConfig, grid: SpectralGrid) -> np.ndarray:
    kind = cfg.velocity_kind
    if kind == "taylor-green":
        return taylor_green(grid, cfg.velocity_amplitude)
    if kind == "random-band":
        return random_band_limited_velocity(grid, cfg.velocity_seed, cfg.velocity_band, cfg.velocity_amplitude)
    if kind == "snapshot":
        u = read_field(cfg.velocity_path)
        if u.shape != (2, grid.n, grid.n):
            raise ConfigError(f"velocity snapshot shape {u.shape} does not match grid {grid.n}")
        return u
    if kind == "zero":
        return np.zeros((2, grid.n, grid.n))
    raise ConfigError(f"unknown velocity kind {kind!r}")


def _relative_l2_gap(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> float:
    num = np.sqrt(grid.l2_norm_sq(a - b))
    den = np.sqrt(grid.l2_norm_sq(b))
    return float(num / max(den, 1e-300))


def run(cfg: SimulationConfig, restart_from=None, progress=None) -> RunResult:
    """Execute the configured simulation; never raises for solver failures."""
    if cfg.oracle and cfg.model_name != "oldroyd-b":
        raise ConfigError("the differential oracle requires model.name = oldroyd-b")

    grid = SpectralGrid(cfg.n)
    params = {k: v for k, v in cfg.model_params.items() if v is not None}
    kernel, measure = model_catalog(cfg.model_name, **params)
    # the cap covers the band-spectrum stack and the largest chunk workspace of its passes
    free_bytes = cfg.memory_cap_mb * 2**20 - ChunkWorkspace.nbytes_for(cfg.n)
    max_nodes = max(0, int(free_bytes // (4 * 16 * math.prod(grid.band_shape))))
    age_grid = build_age_grid(kernel, cfg.dt, cfg.eps_tail, max_nodes=max_nodes)

    lam, mu_p = float(params.get("lam", 1.0)), float(params.get("mu_p", 1.0))
    mcfg = MonitorConfig(q=cfg.q, r=cfg.r, mu=cfg.mu_min, det_tol=cfg.det_tol, stress_tol=cfg.stress_tol)

    if restart_from is None:
        step0, y_value, yi_prev = 0, 0.0, None
        state = FlowState(grid, initial_velocity(cfg, grid), cfg.viscosity)
        oracle = OracleState(grid, np.zeros((2, 2, grid.n, grid.n)), lam, mu_p) if cfg.oracle else None
        spec = cfg.initial_history
        if spec.startswith("snapshot:"):
            spec = read_field(spec.split(":", 1)[1])
        history = init_history(spec, grid, age_grid, mu=cfg.mu_min)
    else:  # the checkpoint's fields are the state: no initial velocity or history is built
        chk = read_checkpoint(restart_from)
        if cfg.oracle and chk["oracle_tau"] is None:
            raise ConfigError(f"checkpoint {restart_from} holds no oracle stress to resume the oracle from")
        step0, y_value, yi_prev = chk["step"], chk["y_value"], chk["y_integrand"]
        state = FlowState(grid, None, cfg.viscosity, t=chk["t"], u_hat=chk["u"])
        oracle = OracleState(grid, None, lam, mu_p, tau_hat=chk["oracle_tau"]) if cfg.oracle else None
        history = DeformationHistory(chk["history"], age_grid, grid, head=chk["head"], generation=step0)

    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    csv_fh = None
    csv_first_row = True
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        t_restart = None if restart_from is None else state.t
        csv_fh, csv_first_row = _open_diagnostics(out_dir / "diagnostics.csv", t_restart)

    records: list[DiagnosticsRecord] = []

    def log(rec: DiagnosticsRecord, to_csv: bool = True):
        records.append(rec)
        if csv_fh is not None and to_csv:
            csv_fh.write(rec.csv_row() + "\n")

    def finish(code: int, message: str, tau) -> RunResult:
        gap = None
        if oracle is not None and tau is not None:
            gap = _relative_l2_gap(grid, tau, oracle.tau)
        return RunResult(exit_code=code, records=records, message=message, state=state, history=history,
                         oracle=oracle, tau=tau, measure=measure, kernel=kernel, oracle_gap=gap)

    def checkpoint(step: int):
        if csv_fh is not None:
            csv_fh.flush()  # a restart from this checkpoint finds every row up to it
        write_checkpoint(out_dir / "checkpoint", step=step, t=state.t, y_value=y_value, y_integrand=yi_prev,
                         u=state.u_hat, history=history.payload, head=history.head,
                         oracle_tau=None if oracle is None else oracle.tau_hat)

    scan_args = (mcfg.q, mcfg.r, mcfg.mu)
    try:
        try:  # the stored stack's stress and bound scan, in one pass
            stack_pass = StackReduction(history, measure, scan_args).over_stack()
            tau = stack_pass.tau.total
            rec = monitor(state, history, tau, measure, mcfg, y_value, stack_pass.scan_result())
        except FloatingPointError as exc:  # a degenerate initial or restart history
            return finish(EXIT_NAN, str(exc), None)
        if yi_prev is None:
            yi_prev = rec.y_integrand
        log(rec, to_csv=csv_first_row)
        if cfg.fatal_on_violation and rec.flags:
            return finish(EXIT_VIOLATION, f"initial state violates bounds: {rec.flags}", tau)

        n_steps = cfg.n_steps
        log_dt = cfg.cadence * cfg.dt
        for step in range(step0 + 1, n_steps + 1):
            u_old = state.jet
            monitored = step % cfg.cadence == 0 or step == n_steps
            stack_pass = StackReduction(history, measure, scan_args if monitored else None)
            try:
                advance_flow(state, tau, cfg.dt, cfg.cfl_safety)
                state.t = step * cfg.dt  # re-pin against substep roundoff drift
                stretch_advect_step(history, u_old, state.jet, cfg.dt, stack_pass)
                if oracle is not None:
                    oldroyd_differential_step(oracle, u_old, state.jet, cfg.dt)
            except FloatingPointError as exc:  # non-finite flow, history or oracle; degenerate history
                return finish(EXIT_NAN, str(exc), None)
            tau = stack_pass.tau.total

            if monitored:
                rec = monitor(state, history, tau, measure, mcfg, y_value, stack_pass.scan_result())
                y_value += 0.5 * log_dt * (yi_prev + rec.y_integrand)
                yi_prev = rec.y_integrand
                rec.y_value = y_value
                log(rec)
                if progress is not None:
                    progress(step, n_steps, rec)
                if cfg.fatal_on_violation and rec.flags:
                    return finish(EXIT_VIOLATION, f"bounds violated at t = {state.t:.6g}: {rec.flags}", tau)

            if out_dir is not None and cfg.snapshot_every and step % cfg.snapshot_every == 0:
                _write_snapshots(out_dir, step, state, tau, history, cfg)
                if cfg.checkpoint:
                    checkpoint(step)

        if out_dir is not None and cfg.checkpoint:
            checkpoint(n_steps)
        return finish(EXIT_OK, "completed", tau)
    finally:  # also when a checkpoint write raises
        if csv_fh is not None:
            csv_fh.close()


def _open_diagnostics(path: Path, t_restart: float | None):
    """Open ``diagnostics.csv``, keeping a restarted run's rows up to ``t_restart``;
    also returns whether the first record still needs a row."""
    kept = []
    if t_restart is not None and path.is_file():
        rows = path.read_text().splitlines(keepends=True)[1:]
        kept = [row for row in rows if row.endswith("\n") and float(row.split(",", 1)[0]) <= t_restart]
    fh = open(path, "w")
    fh.write(",".join(CSV_COLUMNS) + "\n")
    fh.writelines(kept)
    return fh, not (kept and float(kept[-1].split(",", 1)[0]) == t_restart)


def _write_snapshots(out_dir: Path, step: int, state: FlowState, tau, history, cfg: SimulationConfig):
    d = out_dir / f"snap_{step:06d}"
    d.mkdir(parents=True, exist_ok=True)
    write_field(d / "u.fld", state.u)
    write_field(d / "tau.fld", tau)
    g = np.empty((2, 2, cfg.n, cfg.n))
    for j in cfg.history_slices:
        if 0 <= j < history.n_slices:  # physical fields, like every other snapshot
            write_field(d / f"g_{j:05d}.fld", history.grid.inv(history.slice(j), out=g))
