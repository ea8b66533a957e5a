"""End-to-end simulation driver.

Per base step: advance the velocity with the stress of the previous step
(substepping under the advective CFL bound with the stress frozen), advance
the history and, when enabled, the differential oracle with the same pair of
velocity samples, then monitor.  A sample is the velocity's jet (the field
and its gradient, :class:`memflow.stepper.FlowState`), formed once per time
level and shared by the flow, the history, the oracle and the monitor.  The
history step is the step's only pass over the stack: it also assembles the
new stress and, on monitored steps, runs the bound scan that the monitor
reports.  A step holds one step's working set at a time: the pass's sums
are allocated after the flow step, once the old stress has gone; the old
jet goes once the history and the oracle have used it, and the pass's
scratch sums before the monitor runs.  The loop is single-writer; all
reductions run in fixed order, so identical configurations produce
byte-identical diagnostics regardless of the FFT worker count.

Exit codes: 0 clean, 2 non-finite or degenerate state (the last periodic
checkpoint is left on disk), 3 monitored-bound violation when configured
fatal.  A restart continues the ``diagnostics.csv`` it finds in the output
directory as the straight run writes it: the rows at this config's record
steps up to the checkpoint's step are kept, their ``y_value`` summed again
from their ``y_integrand``, and the rest dropped; a file that lacks one of
those rows, or whose header or a complete row is malformed, is refused.
Without the file a restart takes the checkpoint's y integral and logs its
first record.  A checkpoint past ``t_final`` is refused, before any file is
touched, and so is one written under other physics: its ``meta.json``
records the model and its parameters, ``viscosity``, ``cfl_safety``,
``eps_tail``, ``mu_min``, ``q`` and ``r``, by INI key, and the first key
whose value differs from this config's is named.
A checkpoint holds the band spectra of the velocity's stream function, the
history (its live rows' potentials, in age order) and the oracle stress,
which a restart takes as they are: the history stores age j at row j, so
its live rows on disk are the leading rows of its stack, byte for byte.
The stress files (``tau.fld``, ``oracle_tau.fld``) hold the 2 x 2 tensor,
of which a restart takes the oracle stress's three distinct components.
The history's carry, each row's next first stage, is not saved: a
restart's first step forms those stages from the rows, with the same bits.
Each checkpoint step is a record step, so its y integral belongs to its
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agegrid import build_age_grid
from .config import ConfigError, SimulationConfig
from .constitutive import model_catalog, model_parameters, symmetric_tensor
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    OracleState,
    monitor,
    oldroyd_differential_step,
)
from .snapshots import read_checkpoint, read_field, write_checkpoint, write_field
from .spectral import SpectralGrid, random_band_limited_velocity, taylor_green
from .stepper import FlowState, advance_flow
from .stress import StackReduction, assemble_stress  # noqa: F401 (assemble_stress: traced by perfbench)
from .transport import DeformationHistory, init_history, row_fields, stack_rows_within, stretch_advect_step

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
    tau: np.ndarray | None = None  # (tau_11, tau_12, tau_22)
    measure: object = None
    oracle_gap: float | None = field(default=None)
    substeps: int = 0  # flow substeps this run took, summed over its base steps

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


def run(cfg: SimulationConfig, restart_from=None, progress=None) -> RunResult:
    """Execute the configured simulation; never raises for solver failures.

    Raises :class:`ConfigError` for a config it cannot run: a model
    parameter the catalog refuses, an initial history or velocity snapshot
    that is missing, unreadable, of the wrong shape or below the ``mu_min``
    det floor, an unknown history spec, a restart checkpoint that is
    unreadable, does not fit the config (another dt, an asymmetric oracle
    stress, another value in its physics record) or lies past ``t_final``,
    or a ``diagnostics.csv`` to continue that is malformed or lacks a row of
    this config up to the checkpoint's step; and
    :class:`~memflow.agegrid.HistoryTooLongError` when the age grid exceeds the memory cap.
    """
    if cfg.oracle and cfg.model_name != "oldroyd-b":
        raise ConfigError("the differential oracle requires model.name = oldroyd-b")

    grid = SpectralGrid(cfg.n)
    given = {k: v for k, v in cfg.model_params.items() if v is not None}
    try:
        params = model_parameters(cfg.model_name, **given)
        kernel, measure = model_catalog(cfg.model_name, **params)
    except ValueError as exc:  # a parameter the model refuses; the defaults are valid
        keys = ", ".join(f"model.{k} = {v!r}" for k, v in given.items())
        raise ConfigError(f"model {cfg.model_name!r} refuses {keys}: {exc}") from exc
    physics = {"model.name": cfg.model_name, **{f"model.{k}": v for k, v in params.items()},
               "flow.viscosity": cfg.viscosity, "flow.cfl_safety": cfg.cfl_safety, "history.eps_tail": cfg.eps_tail,
               "history.mu_min": cfg.mu_min, "diagnostics.q": cfg.q, "diagnostics.r": cfg.r}
    age_grid = build_age_grid(kernel, cfg.dt, cfg.eps_tail, max_nodes=stack_rows_within(cfg.memory_cap_mb, cfg.n))
    past = [j for j in cfg.history_slices if j >= age_grid.n_nodes]
    if past:
        raise ConfigError(f"output.history_slices {past} outside 0 .. {age_grid.n_nodes - 1}: "
                          f"the age grid has N_s = {age_grid.n_nodes} slices")

    try:
        if restart_from is None:
            step0, y_value, yi_prev = 0, 0.0, None
            state = FlowState(grid, initial_velocity(cfg, grid), cfg.viscosity)
            oracle = None
            if cfg.oracle:
                oracle = OracleState(grid, np.zeros((3, grid.n, grid.n)), params["lam"], params["mu_p"])
            spec = cfg.initial_history
            if spec.startswith("snapshot:"):
                spec = read_field(spec.split(":", 1)[1])
            history = init_history(spec, grid, age_grid, mu=cfg.mu_min)
        else:  # the checkpoint's fields are the state: no initial velocity or history is built
            chk = read_checkpoint(restart_from)
            step0, y_value, yi_prev = chk["step"], chk["y_value"], chk["y_integrand"]
            if chk["t"] != step0 * cfg.dt:  # a run pins t to step * dt before it writes a checkpoint
                raise ValueError(f"its time {chk['t']!r} is not its step {step0} times dt = {cfg.dt!r}")
            if step0 > cfg.n_steps:
                raise ValueError(f"its step {step0} is past the last step, {cfg.n_steps}, of t_final = {cfg.t_final:g}")
            state = FlowState(grid, None, cfg.viscosity, t=chk["t"], psi_hat=chk["u"])
            history = DeformationHistory(chk["history"], age_grid, grid, generation=step0, live=chk["live"])
            oracle = None
            if cfg.oracle:
                tau_hat = chk["oracle_tau"]
                if tau_hat is None:
                    raise ValueError("it holds no oracle stress to resume the oracle from")
                grid.check_band(tau_hat, (2, 2), "its oracle stress")
                if tau_hat[0, 1].tobytes() != tau_hat[1, 0].tobytes():
                    raise ValueError("its oracle stress is not symmetric: tau_21 is not tau_12 bit for bit")
                oracle = OracleState(grid, None, params["lam"], params["mu_p"], tau_hat=tau_hat[[0, 0, 1], [0, 1, 1]])
            theirs = chk["physics"]
            key = next((k for k in {**physics, **theirs} if physics.get(k) != theirs.get(k)), None)
            if key is not None:
                raise ValueError(f"it was written under {key} = {theirs.get(key)!r}, not {physics.get(key)!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:  # unreadable, or not of this config
        start = "build the initial state" if restart_from is None else f"restart from {restart_from}"
        raise ConfigError(f"cannot {start}: {exc}") from exc

    out_dir = Path(cfg.output_dir) if cfg.output_dir else None

    def snapshot_step(step: int) -> bool:
        return out_dir is not None and bool(cfg.snapshot_every) and step % cfg.snapshot_every == 0

    def record_step(step: int) -> bool:  # the monitored steps, step 0 among them
        return step % cfg.cadence == 0 or step == cfg.n_steps or (snapshot_step(step) and cfg.checkpoint)

    csv_fh = None
    log_first = csv_first_row = True
    logged = step0  # the step of the last record
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path, kept = out_dir / "diagnostics.csv", []
        if restart_from is not None and path.is_file():  # continue it as the straight run wrote it
            kept, y_value, yi_prev, logged = _resume_diagnostics(path, cfg.dt, step0, record_step)
            log_first, csv_first_row = record_step(step0), False
        csv_fh = open(path, "w")
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")
        csv_fh.writelines(kept)

    records: list[DiagnosticsRecord] = []
    substeps = 0

    def log(rec: DiagnosticsRecord, to_csv: bool = True):
        records.append(rec)
        if csv_fh is not None and to_csv:
            csv_fh.write(rec.csv_row() + "\n")

    def finish(code: int, message: str, tau) -> RunResult:
        gap = None
        if oracle is not None and tau is not None:  # the relative L2 gap of the 2 x 2 tensors
            num, den = (np.sqrt(grid.l2_norm_sq(symmetric_tensor(f))) for f in (tau - oracle.tau, oracle.tau))
            gap = float(num / max(den, 1e-300))
        return RunResult(exit_code=code, records=records, message=message, state=state, history=history,
                         oracle=oracle, tau=tau, measure=measure, oracle_gap=gap, substeps=substeps)

    def checkpoint(step: int):
        if csv_fh is not None:
            csv_fh.flush()  # a restart from this checkpoint finds every row up to it
        write_checkpoint(out_dir / "checkpoint", step=step, t=state.t, y_value=y_value, y_integrand=yi_prev,
                         u=state.psi_hat, history=history.payload[:history.live], n_slices=history.n_slices,
                         physics=physics,
                         oracle_tau=None if oracle is None else symmetric_tensor(oracle.tau_hat))

    scan_args = (cfg.q, cfg.r, cfg.mu_min)
    try:
        try:  # the stored stack's stress and bound scan, in one pass
            stack_pass = StackReduction(history, measure, scan_args).over_stack()
            tau, scan = stack_pass.stress(), stack_pass.scan_result()
            del stack_pass
            rec = monitor(state, history, tau, measure, cfg, y_value, scan)
        except FloatingPointError as exc:  # a degenerate initial or restart history
            return finish(EXIT_NAN, str(exc), None)
        if yi_prev is None:
            yi_prev = rec.y_integrand
        if log_first:
            log(rec, to_csv=csv_first_row)
            if cfg.fatal_on_violation and rec.flags:
                return finish(EXIT_VIOLATION, f"initial state violates bounds: {rec.flags}", tau)

        n_steps = cfg.n_steps
        for step in range(step0 + 1, n_steps + 1):
            u_old, u_old_psi = state.jet, state.psi_hat  # advance_flow rebinds both
            snapshot, monitored = snapshot_step(step), record_step(step)
            try:
                substeps += advance_flow(state, tau, cfg.dt, cfg.cfl_safety)
                state.t = step * cfg.dt  # re-pin against substep roundoff drift
                tau = None  # the flow has used it: it goes before the pass's sums are allocated
                stack_pass = StackReduction(history, measure, scan_args if monitored else None)
                stretch_advect_step(history, u_old, state.jet, stack_pass, u_old_psi)
                if oracle is not None:
                    oldroyd_differential_step(oracle, u_old, state.jet, cfg.dt)
            except FloatingPointError as exc:  # non-finite flow, history or oracle; degenerate history
                return finish(EXIT_NAN, str(exc), None)
            tau, scan = stack_pass.stress(), stack_pass.scan_result() if monitored else None
            del u_old, u_old_psi, stack_pass  # the old jet and the pass's scratch sums go before the monitor

            if monitored:
                rec = monitor(state, history, tau, measure, cfg, y_value, scan)
                y_value = _trapezoid(y_value, (step - logged) * cfg.dt, yi_prev, rec.y_integrand)
                yi_prev, logged = rec.y_integrand, step
                rec.y_value = y_value
                log(rec)
                if progress is not None:
                    progress(step, n_steps, rec)
                if cfg.fatal_on_violation and rec.flags:
                    return finish(EXIT_VIOLATION, f"bounds violated at t = {state.t:.6g}: {rec.flags}", tau)

            if snapshot:
                _write_snapshots(out_dir, step, state, tau, history, cfg)
                if cfg.checkpoint:
                    checkpoint(step)

        if out_dir is not None and cfg.checkpoint and (step0 == n_steps or not snapshot_step(n_steps)):
            checkpoint(n_steps)  # unless the last step wrote it
        return finish(EXIT_OK, "completed", tau)
    finally:  # also when a checkpoint write raises
        if csv_fh is not None:
            csv_fh.close()


def _trapezoid(y_value: float, dt: float, yi_prev: float, yi: float) -> float:
    """The y integral after one more record ``dt`` after the last."""
    return y_value + 0.5 * dt * (yi_prev + yi)


_Y_VALUE, _Y_INTEGRAND = CSV_COLUMNS.index("y_value"), CSV_COLUMNS.index("y_integrand")


def _resume_diagnostics(path: Path, dt: float, step0: int, record_step) -> tuple[list[str], float, float, int]:
    """The rows of ``diagnostics.csv`` at the record steps 0 .. ``step0``
    (``record_step(k)``), with ``y_value`` summed again from their
    ``y_integrand`` by the run's own trapezoid, and the trapezoid state after
    them: ``(rows, y_value, y_integrand, step)``.  Every number is written at
    17 digits, so it reads back to the bits the straight run summed.  Raises
    :class:`ConfigError`, naming the step, if a record step has no row, and,
    naming the line, if the first line is not the header or a complete row
    has another column count, a ``t`` that is not finite or a ``y_integrand``
    that does not parse."""
    lines = path.read_text().splitlines(keepends=True)
    header = ",".join(CSV_COLUMNS) + "\n"
    if lines[:1] != [header]:
        raise ConfigError(f"cannot continue {path}: line 1 is not the header {header.strip()!r}")
    rows = {}
    for number, row in enumerate(lines[1:], start=2):
        if not row.endswith("\n"):  # a row cut short by a killed run is not kept
            continue
        cols = row.split(",")
        if len(cols) != len(CSV_COLUMNS):
            raise ConfigError(f"cannot continue {path}: line {number} has {len(cols)} columns, "
                              f"not {len(CSV_COLUMNS)}")
        try:
            t, yi = float(cols[0]), float(cols[_Y_INTEGRAND])
            step = round(t / dt)
        except (ValueError, OverflowError):  # round() of a NaN or an infinity
            raise ConfigError(f"cannot continue {path}: line {number} has a t or y_integrand that does not "
                              "parse") from None
        if step * dt == t:
            rows[step] = cols, yi
    kept, y_value, yi_prev, logged = [], 0.0, None, None
    for step in filter(record_step, range(step0 + 1)):
        if step not in rows:
            raise ConfigError(f"cannot continue {path} from step {step0}: it has no row at step {step} "
                              f"(t = {step * dt:.17g}), which this config records")
        cols, yi = rows[step]
        if logged is not None:
            y_value = _trapezoid(y_value, (step - logged) * dt, yi_prev, yi)
        cols[_Y_VALUE] = f"{y_value:.17g}"
        kept.append(",".join(cols))
        yi_prev, logged = yi, step
    return kept, y_value, yi_prev, logged


def _write_snapshots(out_dir: Path, step: int, state: FlowState, tau, history, cfg: SimulationConfig):
    d = out_dir / f"snap_{step:06d}"
    d.mkdir(parents=True, exist_ok=True)
    write_field(d / "u.fld", state.u)
    write_field(d / "tau.fld", symmetric_tensor(tau))
    work = history.workspace.cut(1)  # free between steps
    for j in cfg.history_slices:  # physical fields, like every other snapshot
        write_field(d / f"g_{j:05d}.fld", row_fields(history.grid, history.slice(j)[None], work)[0])
