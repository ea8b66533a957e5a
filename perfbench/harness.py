"""Workloads, timing, correctness checks and metrics of the memflow benchmark.

Load comes from one process in a closed loop: each base step inside
``memflow.simulation.run()`` starts when the one before it has ended, and
each workload call starts when the previous call has returned.  Calls repeat
until the run has lasted ``seconds`` and at least ``min_calls`` times.  A
call is one ``run()`` for ``psm-n128`` and ``shortmem-n256``; for
``oracle-restart-n32`` it is a straight run, a half run that writes
checkpoints and snapshots, and a run resumed from the half run's checkpoint.

Base steps are timed by a clock that replaces
``memflow.simulation.advance_flow``: ``run()`` calls it once at the start of
every base step, so a step lasts from that call to the next one (or to the
return of ``run()``), monitor and I/O included.  The clock also replaces
``memflow.simulation.monitor``, only to mark time there (see below).  These
are the only wrappers in untraced calls.  Traced calls add the spans of
``tracing.py``; end-to-end metrics come only from untraced calls.

On a shared 2-vCPU KVM guest the host's speed swings by up to 1.5x, from
one second to the next and in phases of a minute, for plain Python and
numpy alike: more than the bounds of BENCHMARK.json allow between runs.  So the clock times a fixed calibration kernel
(``calibrate``: a Python integer loop, 2-D FFTs and passes over a 64 MiB
array) just before and after every ``run()`` call and, once ``CAL_PERIOD_S``
has passed since the last one, at its marks.  Kernel time is cut out of
every step and call.  Each stretch of program time between two marks counts
in reference seconds: its wall seconds times ``CAL_REF_S`` over the mean of
the kernel times sampled last before it and first after it.  On a host
where the kernel takes ``CAL_REF_S`` they equal wall seconds.  End-to-end
times are in reference seconds; the raw wall times are kept in the
result's ``extra.wall``, and span times are wall times.
"""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import resource
import shutil
import statistics
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import memflow.diagnostics
import memflow.simulation as sim
import memflow.snapshots
from memflow import spectral
from memflow.config import SimulationConfig
from memflow.constitutive import StrainMeasure
from memflow.spectral import SpectralGrid

from tracing import Span, Tracer

perf_counter = time.perf_counter

ORACLE_GAP_MAX = 1e-3  # default --tol of `memflow oracle`
RESTART_REL = 1e-14  # tolerance of the restart test in tests/test_simulation.py
RESTART_FIELDS = (
    "stress_sup", "min_detG", "min_absG", "energy", "gradu_sup",
    "y_value", "y_integrand", "stress_grad_norm",
)
FFT_WORKERS = 1  # pinned with spectral.set_workers in every workload
MIB = 2.0**20
CAL_PERIOD_S = 0.75  # least program time between two calibrations at marks
CAL_REF_S = 0.080  # about the kernel's time on a 2-vCPU Xeon (family 6, model 207) KVM guest in a quiet phase


# -- host-speed calibration ------------------------------------------------------------

_CAL_FIELD = np.random.default_rng(20131129).random((4, 128, 128))
_CAL_STREAM = np.ones(2**23)  # 64 MiB each: far past L2, like the history stack
_CAL_OUT = np.ones(2**23)


def calibrate() -> float:
    """Seconds taken by a fixed kernel.  Its time splits about 1:3:6 between a
    Python loop, FFTs and memory passes; timed between the steps of all three
    workloads, it followed their step times across the host's speed swings."""
    t0 = perf_counter()
    h = 0xCBF29CE484222325
    for i in range(60_000):
        h = ((h ^ i) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    for _ in range(20):
        np.fft.irfft2(np.fft.rfft2(_CAL_FIELD), s=_CAL_FIELD.shape[-2:])
    for _ in range(3):
        np.multiply(_CAL_STREAM, 1.0, out=_CAL_OUT)
    return perf_counter() - t0


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, bool], SimulationConfig]  # (seed, tiny) -> straight-run config
    restart: bool = False  # add the half run and the resumed run to each call
    min_calls: int = 2  # untraced calls per run at least, so that calls can be compared


def _psm_n128(seed: int, tiny: bool) -> SimulationConfig:
    # configs/taylor-green-psm.ini physics at the acceptance size, no output
    n, steps, eps_tail = (16, 2, 1e-2) if tiny else (128, 3, 1e-6)
    return SimulationConfig(
        n=n, viscosity=0.05, dt=0.04, t_final=0.04 * steps, cfl_safety=0.5,
        model_name="psm-raw", model_params={"alpha": 1.0, "lam": 1.0},
        eps_tail=eps_tail, velocity_kind="taylor-green", velocity_amplitude=1.0,
    )


def _shortmem_n256(seed: int, tiny: bool) -> SimulationConfig:
    n, steps, band = (32, 20, 4) if tiny else (256, 30, 8)
    return SimulationConfig(
        n=n, viscosity=0.01, dt=0.02, t_final=0.02 * steps, cfl_safety=0.2,
        model_name="psm-raw", model_params={"alpha": 1.0, "lam": 0.01}, eps_tail=1e-2,
        velocity_kind="random-band", velocity_seed=seed, velocity_band=band,
        velocity_amplitude=1.0, cadence=10,
    )


def _oracle_restart_n32(seed: int, tiny: bool) -> SimulationConfig:
    # configs/oldroyd-oracle.ini physics at n = 32
    n, steps, eps_tail = (32, 12, 1e-4) if tiny else (32, 20, 1e-8)
    return SimulationConfig(
        n=n, viscosity=0.05, dt=0.05, t_final=0.05 * steps,
        model_name="oldroyd-b", model_params={"lam": 1.0, "mu_p": 1.0},
        eps_tail=eps_tail, velocity_kind="taylor-green", oracle=True,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("psm-n128", _psm_n128),
        Workload("shortmem-n256", _shortmem_n256),
        Workload("oracle-restart-n32", _oracle_restart_n32, restart=True, min_calls=1),
    )
}


def _io_config(cfg: SimulationConfig, out_dir: Path, steps: int) -> SimulationConfig:
    return replace(
        cfg, t_final=cfg.dt * steps, output_dir=str(out_dir),
        snapshot_every=2, history_slices=(0, 5), checkpoint=True,
    )


def _window(cfg: SimulationConfig) -> int:
    """Steps per timing window: one monitor and one I/O period each."""
    return math.lcm(cfg.cadence, cfg.snapshot_every) if cfg.snapshot_every else cfg.cadence


# -- step clock and timed runs -----------------------------------------------------


class StepClock:
    """Stands in for ``memflow.simulation.advance_flow`` and, as ``monitor``,
    for ``memflow.simulation.monitor``; ``inner`` and ``inner_monitor`` are
    the real ones.

    Each call is a mark (start, end, kernel seconds or None), where the
    calibration kernel runs when due; program time lies between marks."""

    def __init__(self):
        self.inner = sim.advance_flow
        self.inner_monitor = sim.monitor
        self.reset()

    def reset(self):
        self.marks: list[tuple[float, float, float | None]] = []
        self.steps: list[int] = []  # the mark at the start of each base step
        self.substeps: list[int] = []
        self.last_cal = -math.inf

    def mark(self, calibrated: bool = False) -> float:
        t0 = perf_counter()
        sec = calibrate() if calibrated or t0 - self.last_cal >= CAL_PERIOD_S else None
        t1 = perf_counter()
        if sec is not None:
            self.last_cal = t1
        self.marks.append((t0, t1, sec))
        return t1

    def __call__(self, *args, **kwargs):
        self.steps.append(len(self.marks))
        self.mark()
        n_sub = self.inner(*args, **kwargs)
        self.substeps.append(n_sub)
        return n_sub

    def monitor(self, *args, **kwargs):
        self.mark()
        return self.inner_monitor(*args, **kwargs)

    def timelines(self) -> tuple[list[float], list[float]]:
        """Program time up to each mark, in wall and in reference seconds.
        The first and the last mark are calibrated."""
        sampled = [k for k, m in enumerate(self.marks) if m[2] is not None]
        wall, ref = [0.0], [0.0]
        for k in range(1, len(self.marks)):
            seconds = self.marks[k][0] - self.marks[k - 1][1]
            j = bisect_right(sampled, k - 1)  # sampled[j - 1] <= k - 1 < k <= sampled[j]
            kernel = (self.marks[sampled[j - 1]][2] + self.marks[sampled[j]][2]) / 2
            wall.append(wall[-1] + seconds)
            ref.append(ref[-1] + seconds * CAL_REF_S / kernel)
        return wall, ref


@dataclass
class RunTiming:
    """One run() call, reduced to what the checks and metrics need."""

    role: str  # main | straight | half | resume
    window: int
    final_write: bool  # run() ends with an extra checkpoint write
    t_call: float
    t_return: float
    stamps: list[float]  # perf_counter at the start of each base step
    wall_at: list[float]  # program time at each step start and at the return, wall seconds
    ref_at: list[float]  # the same in reference seconds
    kernel_s: list[float]  # calibration samples
    substeps: list[int]
    exit_code: int
    message: str
    rows: list[str]
    records: list
    oracle_gap: float | None
    n_slices: int
    n_nodes: int
    stack_bytes: int
    spans: tuple[int, int] = (0, 0)  # span index range when traced

    def elapsed(self, lo: int, hi: int, reference: bool = True) -> float:
        """Program seconds from the start of step ``lo`` to that of step ``hi``
        (``len(stamps)``: the return of run())."""
        at = self.ref_at if reference else self.wall_at
        return at[hi] - at[lo]

    def until(self, step: int, reference: bool = True) -> float:
        """Program seconds from the call to the start of ``step``."""
        return (self.ref_at if reference else self.wall_at)[step]

    def run_s(self, reference: bool = True) -> float:
        return (self.ref_at if reference else self.wall_at)[-1]

    @property
    def measured(self) -> tuple[int, int]:
        """Step indices [lo, hi) that step_s and the layer metrics time: all but
        the first window (warm-up) and, after a final checkpoint write, the last."""
        w = self.window
        return w, len(self.stamps) - (w if self.final_write else 0)

    def window_steps_s(self, reference: bool = True) -> list[float]:
        """Mean step time of each measured window, in reference seconds or wall seconds."""
        (lo, hi), w = self.measured, self.window
        return [self.elapsed(i, i + w, reference) / w for i in range(lo, hi - w + 1, w)]


def _timed_run(clock, tracer, role, cfg, restart_from=None) -> RunTiming:
    clock.reset()
    first = len(tracer.spans) if tracer else 0
    t0 = clock.mark(calibrated=True)
    root = tracer.open("simulation.run") if tracer else None
    try:
        res = sim.run(cfg, restart_from=restart_from)
    finally:
        t1 = perf_counter()
        if root is not None:
            tracer.close(root)
        clock.mark(calibrated=True)
    wall, ref = clock.timelines()
    ends = clock.steps + [len(clock.marks) - 1]
    return RunTiming(
        role=role, window=_window(cfg), final_write=bool(cfg.output_dir and cfg.checkpoint),
        t_call=t0, t_return=t1, stamps=[clock.marks[k][1] for k in clock.steps],
        wall_at=[wall[k] for k in ends], ref_at=[ref[k] for k in ends],
        kernel_s=[m[2] for m in clock.marks if m[2] is not None], substeps=clock.substeps,
        exit_code=res.exit_code, message=res.message,
        rows=[rec.csv_row() for rec in res.records], records=res.records,
        oracle_gap=res.oracle_gap, n_slices=res.history.n_slices,
        n_nodes=res.history.age_grid.n_nodes, stack_bytes=res.history.payload.nbytes,
        spans=(first, len(tracer.spans) if tracer else 0),
    )


def _call(wl: Workload, cfg, clock, tracer, work: Path) -> list[RunTiming]:
    if not wl.restart:
        return [_timed_run(clock, tracer, "main", cfg)]
    shutil.rmtree(work, ignore_errors=True)
    straight = _timed_run(clock, tracer, "straight", cfg)
    half = _timed_run(clock, tracer, "half", _io_config(cfg, work / "half", cfg.n_steps // 2))
    resume = _timed_run(
        clock, tracer, "resume", _io_config(cfg, work / "resume", cfg.n_steps),
        restart_from=work / "half" / "checkpoint",
    )
    return [straight, half, resume]


# -- correctness checks ------------------------------------------------------------


def _restart_matches(resume: RunTiming, straight: RunTiming) -> bool:
    ref = {rec.t: rec for rec in straight.records}
    if len(resume.records) < 2 or any(rec.t not in ref for rec in resume.records):
        return False
    return all(
        math.isclose(getattr(rec, f), getattr(ref[rec.t], f), rel_tol=RESTART_REL, abs_tol=RESTART_REL)
        for rec in resume.records
        for f in RESTART_FIELDS
    )


def check_call(runs: list[RunTiming], first: list[RunTiming] | None,
               counters: dict, expected: dict) -> dict[str, bool]:
    """The correctness checks of one call that compare something, by name; True
    means passed.  The first call has no earlier call to repeat, so it runs
    ``exact_counters`` and the call-to-call part of ``deterministic`` only
    when ``first`` is given."""
    by_role = {r.role: r for r in runs}
    checks = {
        "completed": all(r.exit_code == sim.EXIT_OK and r.message == "completed" for r in runs),
        "no_flags": all(not rec.flags for r in runs for rec in r.records),
    }
    if first is not None:
        checks["deterministic"] = [r.rows for r in runs] == [r.rows for r in first]
        checks["exact_counters"] = counters == expected
    if "half" in by_role:
        straight, half, resume = by_role["straight"], by_role["half"], by_role["resume"]
        # the half run repeats the straight run's first steps byte for byte
        checks["deterministic"] = checks.get("deterministic", True) and half.rows == straight.rows[: len(half.rows)]
        gaps = (straight.oracle_gap, resume.oracle_gap)
        checks["oracle_gap"] = all(g is not None and g <= ORACLE_GAP_MAX for g in gaps)
        checks["restart_matches_straight"] = _restart_matches(resume, straight)
    return checks


def _clock_counters(runs: list[RunTiming]) -> dict:
    return {
        "stepper.substeps": [r.substeps for r in runs],
        "transport.slices": [r.n_slices for r in runs],
    }


# -- per-layer metrics from spans ----------------------------------------------------

TIMED_ROLES = ("main", "half", "resume")  # the runs whose steps step_s and the layer metrics time
_SLICE_WORK = ("transport.stretch_advect_step", "stress.history_scan")
_TRANSFORMS = ("spectral.fwd", "spectral.inv")


@dataclass
class LayerTotals:
    """Span totals over the measured steps (after the warm-up window)."""

    steps: int = 0
    monitored_steps: int = 0
    step_s: float = 0.0
    busy_s: dict = field(default_factory=dict)  # span name -> seconds
    self_s: dict = field(default_factory=dict)  # span name -> seconds not covered by child spans
    calls: dict = field(default_factory=dict)  # span name -> calls
    transforms: int = 0
    slice_transforms: int = 0  # on monitored steps, in stretch_advect_step / history_scan, outside gradient()

    def add(self, name, seconds, parent_name):
        self.busy_s[name] = self.busy_s.get(name, 0.0) + seconds
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        self.self_s[parent_name] = self.self_s.get(parent_name, 0.0) - seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def self_ms_per_step(self) -> dict[str, float]:
        steps = max(self.steps, 1)
        return {name: 1e3 * sec / steps for name, sec in sorted(self.self_s.items())}


def _span_context(spans: list[Span], lo: int, hi: int) -> list[str]:
    """Per span: 'slice' inside the per-slice history work, 'grad' inside a gradient()."""
    ctx = [""] * (hi - lo)
    for i in range(lo, hi):
        s = spans[i]
        if s.name == "spectral.gradient":
            ctx[i - lo] = "grad"
        elif s.name in _SLICE_WORK:
            ctx[i - lo] = "slice"
        elif s.parent >= lo:
            ctx[i - lo] = ctx[s.parent - lo]
    return ctx


def _accumulate(tot: LayerTotals, run: RunTiming, spans: list[Span]):
    lo, hi = run.spans
    first, last = run.measured
    tot.steps += last - first
    tot.step_s += run.elapsed(first, last, reference=False)
    ctx = _span_context(spans, lo, hi)
    monitored = set()
    slice_transforms: dict[int, int] = {}  # step -> transforms
    for i in range(lo + 1, hi):
        s = spans[i]
        step = bisect_right(run.stamps, s.start) - 1
        if not first <= step < last:
            continue
        tot.add(s.name, s.end - s.start, spans[s.parent].name)
        if s.name == "diagnostics.monitor":
            monitored.add(step)
        if s.name in _TRANSFORMS:
            tot.transforms += s.count
            if ctx[i - lo] == "slice":
                slice_transforms[step] = slice_transforms.get(step, 0) + s.count
    tot.self_s["simulation.run"] = tot.self_s.get("simulation.run", 0.0) + run.elapsed(first, last, reference=False)
    tot.monitored_steps += len(monitored)
    tot.slice_transforms += sum(slice_transforms.get(step, 0) for step in monitored)


def _spans_named(spans, runs, name) -> list[Span]:
    return [spans[i] for r in runs for i in range(*r.spans) if spans[i].name == name]


def _ms(spans: list[Span]) -> float:
    return 1e3 * statistics.median(s.end - s.start for s in spans) if spans else 0.0


def _io_rate(spans, runs, outer: str, inner: str) -> float:
    """MiB/s of the field files handled directly inside ``outer`` spans."""
    indices = [i for r in runs for i in range(*r.spans)]
    outer_ids = {i for i in indices if spans[i].name == outer}
    nbytes = sum(spans[i].count for i in indices if spans[i].name == inner and spans[i].parent in outer_ids)
    seconds = sum(spans[i].end - spans[i].start for i in outer_ids)
    return nbytes / MIB / seconds if seconds > 0 else 0.0


def layer_totals(calls: list[list[RunTiming]], spans: list[Span]) -> LayerTotals:
    tot = LayerTotals()
    for runs in calls:
        for r in runs:
            if r.role in TIMED_ROLES:
                _accumulate(tot, r, spans)
    return tot


def traced_counters(runs: list[RunTiming], spans: list[Span]) -> dict:
    """Counts of one traced call that must repeat exactly from call to call."""
    tot = layer_totals([runs], spans)
    return {
        "spectral.fft2d_per_slice_step": tot.slice_transforms,
        "simulation.stack_passes": sum(tot.calls.get(n, 0) for n in (*_SLICE_WORK, "stress.assemble_stress")),
        "snapshots.bytes_written": sum(s.count for s in _spans_named(spans, runs, "snapshots.write_field")),
    }


def layer_metrics(calls: list[list[RunTiming]], spans: list[Span]) -> dict[str, float]:
    timed = [r for runs in calls for r in runs if r.role in TIMED_ROLES]
    every = [r for runs in calls for r in runs]
    tot = layer_totals(calls, spans)
    steps = max(tot.steps, 1)
    monitored = max(tot.monitored_steps, 1)
    n_slices = timed[0].n_slices

    def per_step_ms(*names):
        return 1e3 * sum(tot.busy_s.get(n, 0.0) for n in names) / steps

    def per_step(*names):
        return sum(tot.calls.get(n, 0) for n in names) / steps

    fft_ms = per_step_ms(*_TRANSFORMS)
    stretch_ms = per_step_ms("transport.stretch_advect_step")
    bytes_written = [
        sum(s.count for s in _spans_named(spans, runs, "snapshots.write_field")) for runs in calls
    ]
    return {
        "transport.stretch_advect_ms": stretch_ms,
        "transport.slice_step_ms": stretch_ms / n_slices,
        "transport.slices": n_slices,
        "transport.stack_mib": timed[0].stack_bytes / MIB,
        "transport.init_history_ms": _ms(_spans_named(spans, every, "transport.init_history")),
        "stress.assemble_ms": per_step_ms("stress.assemble_stress"),
        "stress.history_scan_ms": per_step_ms("stress.history_scan"),
        "constitutive.stress_stack_ms": per_step_ms("constitutive.stress_stack"),
        "simulation.stack_passes_per_step": per_step(*_SLICE_WORK, "stress.assemble_stress"),
        "simulation.self_ms": 1e3 * tot.self_s["simulation.run"] / steps,
        "stepper.advance_flow_ms": per_step_ms("stepper.advance_flow"),
        "stepper.substeps": sum(n for r in timed for n in r.substeps[slice(*r.measured)]) / steps,
        "diagnostics.monitor_self_ms": per_step_ms("diagnostics.monitor") - per_step_ms("stress.history_scan"),
        "diagnostics.monitor_calls": per_step("diagnostics.monitor"),
        "diagnostics.oracle_step_ms": per_step_ms("diagnostics.oldroyd_differential_step"),
        "spectral.fft2d_per_step": tot.transforms / steps,
        "spectral.fft2d_per_slice_step": tot.slice_transforms / monitored / n_slices,
        "spectral.fft_ms": fft_ms,
        "spectral.fft_share": fft_ms / (1e3 * tot.step_s / steps) if tot.step_s > 0 else 0.0,
        "snapshots.write_checkpoint_ms": _ms(_spans_named(spans, every, "snapshots.write_checkpoint")),
        "snapshots.write_mib_per_s": _io_rate(spans, every, "snapshots.write_checkpoint", "snapshots.write_field"),
        "snapshots.read_checkpoint_ms": _ms(_spans_named(spans, every, "snapshots.read_checkpoint")),
        "snapshots.read_mib_per_s": _io_rate(spans, every, "snapshots.read_checkpoint", "snapshots.read_field"),
        "snapshots.bytes_written": bytes_written[0],  # equal in every call: an exact counter
        "agegrid.build_ms": _ms(_spans_named(spans, every, "agegrid.build_age_grid")),
        "agegrid.n_nodes": timed[0].n_nodes,
    }


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install_tracer(tracer: Tracer, clock: StepClock):
    def transforms(args, result):  # one 2-D transform per leading index
        return math.prod(args[1].shape[:-2])

    def file_bytes(args, result):
        return os.path.getsize(args[0])

    for attr in (
        "model_catalog", "build_age_grid", "initial_velocity", "init_history",
        "stretch_advect_step", "oldroyd_differential_step", "assemble_stress",
        "read_checkpoint", "write_checkpoint", "_write_snapshots",
    ):
        tracer.patch(sim, attr, _span_name(getattr(sim, attr)))
    tracer.patch(clock, "inner", "stepper.advance_flow")
    tracer.patch(clock, "inner_monitor", "diagnostics.monitor")
    tracer.patch(memflow.diagnostics, "history_scan", "stress.history_scan")
    tracer.patch(sim, "write_field", "snapshots.write_field", file_bytes)
    tracer.patch(memflow.snapshots, "write_field", "snapshots.write_field", file_bytes)
    tracer.patch(memflow.snapshots, "read_field", "snapshots.read_field", file_bytes)
    tracer.patch(SpectralGrid, "fwd", "spectral.fwd", transforms)
    tracer.patch(SpectralGrid, "inv", "spectral.inv", transforms)
    tracer.patch(SpectralGrid, "gradient", "spectral.gradient")
    tracer.patch(StrainMeasure, "stress_stack", "constitutive.stress_stack")


# -- environment ---------------------------------------------------------------------


def _l3_cache() -> str | None:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def environment(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "fft_workers": FFT_WORKERS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "l3_cache": _l3_cache(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


# -- one benchmark run -----------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool = False) -> dict:
    """Run one workload; returns checks, end-to-end and per-layer metrics and spans.

    With ``trace`` the first call runs untraced and the later calls (at
    least two, so that traced counters can be compared) run traced.
    """
    wl = WORKLOADS[workload]
    cfg = wl.config(seed, tiny)
    saved_workers = spectral.get_workers()
    spectral.set_workers(FFT_WORKERS)
    clock, tracer = StepClock(), Tracer()
    calibrate()  # first touch of the kernel's arrays
    sim.advance_flow, sim.monitor = clock, clock.monitor
    setups: list[float] = []
    calls: list[list[RunTiming]] = []
    traced_flags: list[bool] = []
    checks: dict[str, list[int]] = {}  # name -> [runs, failures]
    failed = 0
    error = None
    t_start = perf_counter()
    try:
        first = None
        reference: dict = {}  # first value seen of every exact counter
        min_calls = 3 if trace else wl.min_calls
        t_loop = perf_counter()
        while len(calls) < min_calls or perf_counter() - t_loop < seconds:
            traced = trace and len(calls) > 0
            if traced:
                install_tracer(tracer, clock)
            try:
                runs = _call(wl, cfg, clock, tracer if traced else None, work)
            finally:
                tracer.restore()
            counters = _clock_counters(runs)
            if traced:
                counters.update(traced_counters(runs, tracer.spans))
            result = check_call(runs, first, counters, {k: reference.get(k, v) for k, v in counters.items()})
            for name, ok in result.items():
                tally = checks.setdefault(name, [0, 0])
                tally[0] += 1
                tally[1] += not ok
            failed += not all(result.values())
            first = first or runs
            for k, v in counters.items():
                reference.setdefault(k, v)
            calls.append(runs)
            traced_flags.append(traced)
            if not traced:
                setups += [r.until(0) for r in runs if r.role != "resume"]
    except Exception as exc:  # a solver failure that run() did not contain
        error = f"{type(exc).__name__}: {exc}"
        failed += 1
    finally:
        sim.advance_flow, sim.monitor = clock.inner, clock.inner_monitor
        tracer.restore()
        spectral.set_workers(saved_workers)
        shutil.rmtree(work, ignore_errors=True)

    plain = [runs for runs, t in zip(calls, traced_flags) if not t]
    traced_calls = [runs for runs, t in zip(calls, traced_flags) if t]

    def step_samples(group, reference=True):
        return [s for runs in group for r in runs if r.role in TIMED_ROLES for s in r.window_steps_s(reference)]

    def step_s(group):
        return _median(step_samples(group))

    def run_s(group):
        return _median([sum(r.run_s() for r in runs if r.role != "straight") for runs in group])

    resume = [r.until(1) for runs in plain for r in runs if r.role == "resume" and len(r.stamps) > 1]
    wall = {
        "step_s": _median(step_samples(plain, reference=False)),
        "run_s": _median([sum(r.run_s(reference=False) for r in runs if r.role != "straight") for runs in plain]),
        "setup_s": _median([r.until(0, reference=False) for runs in plain for r in runs if r.role != "resume"]),
    }
    cal_samples = [sec for runs in plain for r in runs for sec in r.kernel_s]
    gaps = [r.oracle_gap for runs in calls for r in runs if r.role == "straight"]
    end_to_end = {
        "step_s": step_s(plain),
        "run_s": run_s(plain),
        "setup_s": _median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer, self_ms = {}, {}
    if traced_calls and error is None:
        per_layer = layer_metrics(traced_calls, tracer.spans)
        self_ms = layer_totals(traced_calls, tracer.spans).self_ms_per_step()
        per_layer["trace.overhead"] = step_s(traced_calls) / end_to_end["step_s"]
        per_layer["snapshots.resume_s"] = _median(resume) or 0.0
        per_layer["diagnostics.oracle_gap"] = gaps[0] if gaps and gaps[0] is not None else 0.0
    attempted = len(calls) + (error is not None)
    return {
        "workload": workload,
        "env": environment(seed),
        "correct": error is None and failed == 0 and bool(calls),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "error": error,
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "extra": {
            "resume_s": _median(resume),
            "oracle_gap": gaps[0] if gaps else None,
            "calls": len(calls),
            "traced_calls": len(traced_calls),
            "step_samples": step_samples(plain),
            "wall_step_samples": step_samples(plain, reference=False),
            "setup_samples": setups,
            "wall": wall,
            "calibration_s": {"median": _median(cal_samples), "samples": len(cal_samples)},
            "self_ms_per_step": self_ms,
            "elapsed_s": perf_counter() - t_start,
        },
        "spans": tracer.dump(t_start) if trace else [],
    }
