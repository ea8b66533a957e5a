import gc
import json
import math
import re
import struct
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflow import simulation, snapshots, spectral
from memflow.agegrid import HistoryTooLongError, build_age_grid
from memflow.config import ConfigError, SimulationConfig
from memflow.constitutive import INI_MODELS, model_catalog
from memflow.simulation import EXIT_NAN, EXIT_OK, EXIT_VIOLATION, run
from memflow.snapshots import read_checkpoint, read_field, write_checkpoint, write_field
from memflow.transport import ChunkWorkspace, identity_stack


def checkpoint_fields(chk, **fields):
    """What ``read_checkpoint`` gives, with ``fields`` changed, as ``write_checkpoint`` takes it."""
    state = {**chk, **fields}
    live, history = state.pop("live"), state["history"]
    return {**state, "history": history[:live], "n_slices": len(history)}


def small_cfg(**over):
    base = dict(
        n=32,
        viscosity=0.1,
        dt=0.05,
        t_final=0.5,
        model_name="psm-raw",
        eps_tail=1e-4,
        velocity_kind="taylor-green",
    )
    base.update(over)
    return SimulationConfig(**base)


class TestRun:
    def test_quiescent_all_zero(self):
        res = run(small_cfg(model_name="oldroyd-b", velocity_kind="zero"))
        assert res.exit_code == EXIT_OK
        last = res.records[-1]
        assert last.energy == 0.0
        assert last.stress_sup == 0.0
        assert last.y_value == 0.0
        assert not any(rec.flags for rec in res.records)

    def test_taylor_green_psm_clean(self):
        res = run(small_cfg())
        assert res.exit_code == EXIT_OK
        assert not any(rec.flags for rec in res.records)
        ys = [rec.y_value for rec in res.records]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert res.records[0].y_value == 0.0

    def test_divergence_bound_every_step(self):
        res = run(small_cfg())
        assert max(rec.divu_sup for rec in res.records) <= 1e-10

    def test_nan_exit_code(self, tmp_path):
        # non-finite state aborts with the dedicated exit code instead of raising
        from memflow.snapshots import write_field

        u = np.zeros((2, 32, 32))
        u[0, 3, 3] = np.nan
        path = tmp_path / "bad_u.fld"
        write_field(path, u)
        res = run(small_cfg(velocity_kind="snapshot", velocity_path=str(path)))
        assert res.exit_code == EXIT_NAN
        assert "non-finite" in res.message

    def test_blow_up_exit_code(self, monkeypatch):
        # this flow stays finite as it blows up, so its CFL substeps shrink without end (2e-15 at t = 0.3)
        # unless the advective bound stops it; the counter turns that hang into a failure
        from memflow import stepper

        calls, substep = [0], stepper._substep

        def counted(*args):
            calls[0] += 1
            assert calls[0] <= 2000, "advance_flow does not leave the base step"
            return substep(*args)

        monkeypatch.setattr(stepper, "_substep", counted)
        res = run(small_cfg(n=16, model_name="oldroyd-b", viscosity=0.01, dt=0.1, t_final=0.4, eps_tail=1e-2,
                            velocity_amplitude=50.0))
        assert res.exit_code == EXIT_NAN
        assert re.fullmatch(r"flow blew up at t = \S+: \|u\|_inf = \S+, advective number \S+ > 100 "
                            r"after \d+ substeps of this step", res.message)

    def test_violation_exit_code(self):
        res = run(small_cfg(stress_tol=-1.0, fatal_on_violation=True))
        assert res.exit_code == EXIT_VIOLATION

    def test_cadence_thins_records(self):
        res = run(small_cfg(cadence=5))
        assert len(res.records) == 3  # t = 0, 0.25, 0.5

    def test_y_value_is_the_trapezoid_over_records(self):
        # 20 steps at cadence 3: records at steps 0, 3, ..., 18 and the final step 20, two steps after 18
        res = run(small_cfg(n=16, dt=0.1, t_final=2.0, cadence=3))
        t = [rec.t for rec in res.records]
        assert t[-2:] == [pytest.approx(1.8), 2.0] and len(t) == 8
        y = [rec.y_integrand for rec in res.records]
        for k in range(1, len(t)):
            assert res.records[k].y_value == pytest.approx(np.trapezoid(y[: k + 1], t[: k + 1]), rel=1e-13)

    def test_checkpoint_steps_are_records(self, tmp_path):
        # cadence 3 and a checkpoint every 10 steps: step 10 is logged, and a restart from it continues the file
        cfg = lambda t_final, out: small_cfg(n=16, dt=0.1, t_final=t_final, cadence=3, snapshot_every=10,
                                             output_dir=str(out))
        straight = run(cfg(2.0, tmp_path / "A"))
        assert [round(rec.t, 9) for rec in straight.records] == [0.0, 0.3, 0.6, 0.9, 1.0, 1.2, 1.5, 1.8, 2.0]
        run(cfg(1.0, tmp_path / "B"))
        res = run(cfg(2.0, tmp_path / "B"), restart_from=tmp_path / "B" / "checkpoint")
        assert res.exit_code == EXIT_OK and res.records[-1] == straight.records[-1]
        assert (tmp_path / "B" / "diagnostics.csv").read_bytes() == (tmp_path / "A" / "diagnostics.csv").read_bytes()

    def test_oracle_gap_converges_with_every_row_live(self):
        # Oldroyd-B run past s_max: every row is live and the oldest one is dropped each step
        gaps = []
        for dt in (0.1, 0.05, 0.025):
            res = run(small_cfg(n=16, viscosity=0.05, dt=dt, t_final=4.0, model_name="oldroyd-b", eps_tail=1e-6,
                                model_params={"lam": 0.2}, oracle=True))
            assert res.exit_code == EXIT_OK and res.history.live == res.history.n_slices
            gaps.append(res.oracle_gap)
        assert all(coarse >= 4 * fine for coarse, fine in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 5e-4, gaps

    def test_random_band_velocity_runs(self):
        res = run(small_cfg(velocity_kind="random-band", velocity_seed=9, velocity_band=3))
        assert res.exit_code == EXIT_OK

    def test_degenerate_history_exit_code(self, tmp_path):
        # the under-resolved history collapses in the first step; an earlier checkpoint stays
        out = tmp_path / "out"
        run(small_cfg(output_dir=str(out)))
        cfg = small_cfg(
            dt=0.2, t_final=4.0, viscosity=0.01, eps_tail=1e-3, model_params={"alpha": 1.0, "lam": 1.0},
            velocity_kind="random-band", velocity_seed=1, velocity_band=8, velocity_amplitude=5.0,
            output_dir=str(out), snapshot_every=1,
        )
        res = run(cfg)
        assert res.exit_code == EXIT_NAN
        assert res.message == "deformation norm 0.5874 fell below 0.7071"
        assert read_checkpoint(out / "checkpoint")["step"] == 10

    def test_degenerate_restart_history_exit_code(self, tmp_path):
        run(small_cfg(output_dir=str(tmp_path / "A")))
        chk = read_checkpoint(tmp_path / "A" / "checkpoint")
        assert chk["live"] > 3
        chk["history"][3] *= 1e-3  # age 3, a live row
        write_checkpoint(tmp_path / "B", **checkpoint_fields(chk))
        res = run(small_cfg(t_final=1.0), restart_from=tmp_path / "B")
        assert res.exit_code == EXIT_NAN
        assert "deformation norm" in res.message

    def test_snapshot_history_projected_onto_band(self, tmp_path):
        n_s = run(small_cfg(t_final=0.05)).history.n_slices
        x = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
        f = lambda x: 1.0 - 0.05 * (1.0 + np.cos(x)) + 0.3 * np.cos(16 * x)
        stack = identity_stack(n_s, 32)
        # divergence-free rows, G = diag(f(x2), f(x1)): min det 0.81 in the band; the Nyquist mode outside
        # it would take det down to about 0.36
        stack[2, 0, 0], stack[2, 1, 1] = f(x[None, :]), f(x[:, None])
        write_field(tmp_path / "h.fld", stack, n_s=n_s)
        res = run(small_cfg(t_final=0.05, initial_history=f"snapshot:{tmp_path / 'h.fld'}", mu_min=0.5))
        assert res.exit_code == EXIT_OK
        assert res.records[0].min_detG == pytest.approx(0.81, rel=1e-12)

    @pytest.mark.parametrize("case", ["missing", "short", "degenerate", "unknown-spec", "missing-velocity"])
    def test_unusable_initial_state_is_config_error(self, tmp_path, case):
        # a fresh start used to let each of these errors out of run() as it was raised, a traceback in the CLI
        n_s, path = 11, tmp_path / "history.fld"  # dt 0.3 and eps_tail 0.05: N_s = 11
        over = {"initial_history": f"snapshot:{path}"}
        if case == "short":
            write_field(path, identity_stack(n_s - 1, 16), n_s=n_s - 1)
        elif case == "degenerate":
            write_field(path, 0.5 * identity_stack(n_s, 16), n_s=n_s)  # det G = 0.25, below mu_min = 1
        elif case == "unknown-spec":
            over = {"initial_history": "foo"}
        elif case == "missing-velocity":
            over = {"velocity_kind": "snapshot", "velocity_path": str(tmp_path / "u.fld")}
        with pytest.raises(ConfigError, match="^cannot build the initial state: "):
            run(small_cfg(n=16, dt=0.3, t_final=0.6, eps_tail=0.05, **over))

    def test_memory_cap_counts_chunk_workspace(self):
        # a row is its potentials and their carry, 4 band spectra: a cap one row short of the stack, the
        # carry and the workspace is refused
        history = run(small_cfg(t_final=0.05)).history
        stack_bytes = history.payload.nbytes + history.carry.nbytes
        with pytest.raises(HistoryTooLongError):
            run(small_cfg(t_final=0.05, memory_cap_mb=stack_bytes / 2**20))
        cap = (stack_bytes + ChunkWorkspace.nbytes_for(32)) / 2**20
        row_mib = stack_bytes / history.n_slices / 2**20
        with pytest.raises(HistoryTooLongError):
            run(small_cfg(t_final=0.05, memory_cap_mb=cap - row_mib))
        assert run(small_cfg(t_final=0.05, memory_cap_mb=cap)).exit_code == EXIT_OK

    def test_run_holds_one_steps_working_set(self):
        # a from-rest run at n = 256 with N_s = 4 holds, beside the stack, its carry and the chunk workspace, the two
        # velocity jets while the history steps (2 x 6 n^2 doubles: 3 tensor fields of 4 n^2) and one stack
        # pass's three compensated sums (3 fields); the monitor takes the stress gradient in the chunk workspace
        # and holds no field for it: 10 fields bound tracemalloc's peak
        n = 256
        cfg = SimulationConfig(n=n, viscosity=0.01, dt=0.02, t_final=0.02 * 6, cfl_safety=0.2, model_name="psm-raw",
                               model_params={"lam": 0.01}, eps_tail=1e-2, velocity_kind="random-band",
                               velocity_band=8, cadence=1)
        run(cfg)  # a warm-up run, so one-time allocations do not count
        tracemalloc.start()
        try:
            res = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == EXIT_OK and res.history.n_slices == 4
        stack = res.history.payload.nbytes + res.history.carry.nbytes
        fields = (peak - stack - ChunkWorkspace.nbytes_for(n)) / (4 * n * n * 8)
        assert fields <= 10, f"{fields:.2f} tensor fields beside the stack, its carry and the workspace"


def test_substeps_summed_over_the_run(tmp_path, monkeypatch):
    # the run's flow substeps are the sum of what advance_flow returns, on a straight run and on a resume
    inner, returns = simulation.advance_flow, []

    def counting(*args, **kwargs):
        returns.append(inner(*args, **kwargs))
        return returns[-1]

    monkeypatch.setattr(simulation, "advance_flow", counting)
    cfg = small_cfg(velocity_amplitude=4.0, output_dir=str(tmp_path / "out"))
    res = run(cfg)
    assert res.ok and len(returns) == cfg.n_steps and res.substeps == sum(returns) > cfg.n_steps
    run(small_cfg(velocity_amplitude=4.0, t_final=0.3, output_dir=str(tmp_path / "half")))
    returns.clear()
    resumed = run(cfg, restart_from=tmp_path / "half" / "checkpoint")  # steps 7 .. 10
    assert resumed.ok and len(returns) == 4 and resumed.substeps == sum(returns)


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self):
        cfg = small_cfg()
        saved = spectral.get_workers()
        try:
            spectral.set_workers(1)
            rows1 = [rec.csv_row() for rec in run(cfg).records]
            spectral.set_workers(2)
            rows2 = [rec.csv_row() for rec in run(cfg).records]
        finally:
            spectral.set_workers(saved)
        assert rows1 == rows2

    def test_byte_identical_repeat_runs(self):
        cfg = small_cfg(velocity_kind="random-band", velocity_seed=4)
        rows1 = [rec.csv_row() for rec in run(cfg).records]
        rows2 = [rec.csv_row() for rec in run(cfg).records]
        assert rows1 == rows2


class TestArtifacts:
    def test_csv_written_with_header(self, tmp_path):
        res = run(small_cfg(output_dir=str(tmp_path / "out")))
        csv = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert csv[0].startswith("t,stress_sup,min_detG")
        assert len(csv) == len(res.records) + 1

    def test_snapshots_and_checkpoint(self, tmp_path):
        run(small_cfg(output_dir=str(tmp_path / "out"), snapshot_every=5, history_slices=(0, 2)))
        snap = tmp_path / "out" / "snap_000005"
        assert (snap / "u.fld").exists()
        assert (snap / "tau.fld").exists()
        assert (snap / "g_00000.fld").exists()
        assert (snap / "g_00002.fld").exists()
        assert np.array_equal(read_field(snap / "g_00000.fld"), identity_stack(1, 32)[0])  # physical, not band
        assert read_field(snap / "g_00002.fld").shape == (2, 2, 32, 32)
        assert (tmp_path / "out" / "checkpoint" / "meta.json").exists()
        # the checkpoint swap leaves no temporary directory behind
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "checkpoint", "diagnostics.csv", "snap_000005", "snap_000010"]

    def test_final_checkpoint_written_once(self, tmp_path, monkeypatch):
        # a 10-step run at snapshot_every = 2 used to write step 10 twice: from the loop and after it
        steps, write = [], simulation.write_checkpoint

        def counting(directory, **kwargs):
            steps.append(kwargs["step"])
            write(directory, **kwargs)

        monkeypatch.setattr(simulation, "write_checkpoint", counting)
        run(small_cfg(output_dir=str(tmp_path / "A"), snapshot_every=2))
        assert steps == [2, 4, 6, 8, 10]
        steps.clear()  # a last step that is no snapshot step is written after the loop
        run(small_cfg(output_dir=str(tmp_path / "B"), snapshot_every=4))
        assert steps == [4, 8, 10]
        steps.clear()  # a restart at the last step into a fresh directory takes no step and writes its checkpoint
        run(small_cfg(output_dir=str(tmp_path / "C"), snapshot_every=2), restart_from=tmp_path / "A" / "checkpoint")
        assert steps == [10] and read_checkpoint(tmp_path / "C" / "checkpoint")["step"] == 10

    def test_failed_checkpoint_keeps_previous(self, tmp_path, monkeypatch):
        written = {}
        write_field = snapshots.write_field

        def failing_write(path, array, n_s=0):  # the second checkpoint fails on its history
            if path.name == "history.fld" and "history.fld" in written:
                raise OSError("disk full")
            write_field(path, array, n_s)
            written.setdefault(path.name, path.read_bytes())

        monkeypatch.setattr(snapshots, "write_field", failing_write)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            run(small_cfg(output_dir=str(out), snapshot_every=5))
        assert read_checkpoint(out / "checkpoint")["step"] == 5
        for name in ("u.fld", "history.fld"):
            assert (out / "checkpoint" / name).read_bytes() == written[name]
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint", "diagnostics.csv", "snap_000005", "snap_000010"]

    def test_failed_checkpoint_closes_diagnostics(self, tmp_path, monkeypatch):
        def failing_checkpoint(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(simulation, "write_checkpoint", failing_checkpoint)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError, match="disk full"):
                run(small_cfg(output_dir=str(tmp_path / "out"), snapshot_every=5))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_history_slice_past_age_grid_refused(self, tmp_path):
        # refused once the age grid is built, before the output directory is made
        n_s = build_age_grid(model_catalog("psm-raw")[0], 0.05, 1e-4).n_nodes
        out = tmp_path / "out"
        message = rf"output.history_slices \[{n_s}, {n_s + 4}\] outside 0 .. {n_s - 1}: .* N_s = {n_s} "
        with pytest.raises(ConfigError, match=message):
            run(small_cfg(output_dir=str(out), snapshot_every=1, history_slices=(0, n_s, n_s - 1, n_s + 4)))
        assert not out.exists()
        run(small_cfg(t_final=0.05, output_dir=str(out), snapshot_every=1, history_slices=(n_s - 1,)))
        assert read_field(out / "snap_000001" / f"g_{n_s - 1:05d}.fld").shape == (2, 2, 32, 32)

    def test_restart_from_physical_stack_rejected(self, tmp_path):
        run(small_cfg(t_final=0.25, output_dir=str(tmp_path / "A")))
        chk = read_checkpoint(tmp_path / "A" / "checkpoint")
        stack = identity_stack(len(chk["history"]), 32)
        # a physical stack or velocity in the current format is refused by shape and type ...
        for name, physical in (("history", stack), ("u", np.zeros((2, 32, 32)))):
            write_checkpoint(tmp_path / "B", **checkpoint_fields(chk, **{name: physical}))
            with pytest.raises(ValueError, match=f"{'history payload' if name == 'history' else 'velocity'} "
                                                 "must be the band spectrum"):
                run(small_cfg(t_final=0.5), restart_from=tmp_path / "B")
        # ... and a checkpoint of the previous format, whose stacks were physical, by its version
        path = tmp_path / "B" / "history.fld"
        path.write_bytes(b"MEMFLW01" + struct.pack("<4I", 2, 32, 4, len(stack)) + stack.tobytes()
                         + struct.pack("<Q", zlib.crc32(stack)))
        with pytest.raises(ConfigError, match="unsupported version 2"):
            run(small_cfg(t_final=0.5), restart_from=tmp_path / "B")

    def test_restart_matches_straight_run(self, tmp_path, monkeypatch):
        cfg_full = small_cfg(t_final=1.0, output_dir=str(tmp_path / "A"))
        rows_full = {rec.t: rec for rec in run(cfg_full).records}

        cfg_half = small_cfg(t_final=0.5, output_dir=str(tmp_path / "B"))
        run(cfg_half)

        def unused(*args, **kwargs):
            raise AssertionError("a resumed run builds no initial state")

        monkeypatch.setattr(simulation, "init_history", unused)
        monkeypatch.setattr(simulation, "initial_velocity", unused)
        cfg_resume = small_cfg(t_final=1.0)
        res = run(cfg_resume, restart_from=tmp_path / "B" / "checkpoint")

        assert res.exit_code == EXIT_OK
        assert len(res.records) == 11
        for rec in res.records:
            assert rec == rows_full[rec.t]

    def test_restart_continues_csv(self, tmp_path):
        for model, oracle in (("psm-raw", False), ("oldroyd-b", True)):
            a, b = tmp_path / model / "A", tmp_path / model / "B"
            cfg = lambda t_final, out: small_cfg(model_name=model, oracle=oracle, t_final=t_final, output_dir=str(out))
            straight = run(cfg(1.0, a))
            run(cfg(0.5, b))
            res = run(cfg(1.0, b), restart_from=b / "checkpoint")
            assert res.exit_code == EXIT_OK
            assert res.records[0].t == 0.5  # the restart row stays in the records, not in the file
            assert (b / "diagnostics.csv").read_bytes() == (a / "diagnostics.csv").read_bytes()
            assert len((a / "diagnostics.csv").read_text().splitlines()) == 22
            assert res.oracle_gap == straight.oracle_gap and (res.oracle_gap is not None) == oracle

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(model=st.sampled_from(INI_MODELS), dt=st.sampled_from([0.05, 0.1, 0.2]),
           eps_tail=st.sampled_from([5e-2, 1e-2, 1e-3]), cadence=st.integers(1, 3),
           snapshot_every=st.integers(1, 4), steps=st.integers(4, 30),
           kind=st.sampled_from(["taylor-green", "random-band"]), amplitude=st.sampled_from([0.5, 1.0, 3.0]),
           n=st.sampled_from([16, 32]), fatal=st.booleans(), data=st.data())
    def test_restart_at_any_step_reproduces_straight_csv(self, model, dt, eps_tail, cadence, snapshot_every,
                                                         steps, kind, amplitude, n, fatal, data):
        # a shorter run's final checkpoint, at any step, resumed into its directory writes the straight
        # run's diagnostics.csv, also when the cut is not a step the straight run records
        cut = data.draw(st.integers(1, steps - 1), label="cut")
        with tempfile.TemporaryDirectory() as tmp:
            straight, resumed = Path(tmp, "A"), Path(tmp, "B")
            cfg = lambda out, k: small_cfg(
                n=n, model_name=model, dt=dt, t_final=dt * k, eps_tail=eps_tail, cadence=cadence,
                snapshot_every=snapshot_every, velocity_kind=kind, velocity_amplitude=amplitude,
                fatal_on_violation=fatal, output_dir=str(out))
            codes = [run(cfg(straight, steps)).exit_code, run(cfg(resumed, cut)).exit_code]
            if codes[1] == EXIT_OK:
                codes.append(run(cfg(resumed, steps), restart_from=resumed / "checkpoint").exit_code)
            assert set(codes) <= {EXIT_OK, EXIT_NAN, EXIT_VIOLATION}
            if len(codes) == 3:  # resumed: it ends as the straight run ends, a fatal violation or a blow-up too
                assert codes[2] == codes[0]
                assert (resumed / "diagnostics.csv").read_bytes() == (straight / "diagnostics.csv").read_bytes()

    @staticmethod
    def oldroyd_cfg(out, steps, **over):
        return small_cfg(n=16, model_name="oldroyd-b", t_final=0.05 * steps, output_dir=str(out or ""), **over)

    @pytest.mark.parametrize("writer, reader", [
        # the cut, step 1, is not a record step of the longer run
        (dict(steps=1, cadence=2, snapshot_every=2), dict(steps=4, cadence=2, snapshot_every=2)),
        # the writer records every step, the reader every second one
        (dict(steps=4, cadence=1), dict(steps=8, cadence=2)),
    ])
    def test_restart_from_shorter_run_reproduces_straight_csv(self, tmp_path, writer, reader):
        straight, resumed = tmp_path / "A", tmp_path / "B"
        assert run(self.oldroyd_cfg(straight, **reader)).exit_code == EXIT_OK
        assert run(self.oldroyd_cfg(resumed, **writer)).exit_code == EXIT_OK
        res = run(self.oldroyd_cfg(resumed, **reader), restart_from=resumed / "checkpoint")
        assert res.exit_code == EXIT_OK
        assert (resumed / "diagnostics.csv").read_bytes() == (straight / "diagnostics.csv").read_bytes()
        # the records are the straight run's from the restart on, the restart itself only if it is a record step
        rows = {rec.t: rec for rec in run(self.oldroyd_cfg(None, **reader)).records}
        assert [rec.t for rec in res.records] == [t for t in rows if t >= 0.05 * writer["steps"]]
        assert all(rec == rows[rec.t] for rec in res.records)

    def test_restart_refuses_csv_without_a_needed_row(self, tmp_path):
        # the writer recorded every second step; a reader recording every step needs step 1
        out = tmp_path / "A"
        run(self.oldroyd_cfg(out, steps=4, cadence=2))
        files = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        with pytest.raises(ConfigError, match=r"no row at step 1 \(t = 0.050000000000000003\)"):
            run(self.oldroyd_cfg(out, steps=8, cadence=1), restart_from=out / "checkpoint")
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == files
        # without the file the checkpoint's own y integral is taken, as for a fresh directory
        (out / "diagnostics.csv").unlink()
        assert run(self.oldroyd_cfg(out, steps=8, cadence=1), restart_from=out / "checkpoint").exit_code == EXIT_OK

    def test_restart_past_t_final_refused(self, tmp_path):
        out = tmp_path / "A"
        run(small_cfg(t_final=1.0, output_dir=str(out)))  # its checkpoint is at step 20
        files = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        with pytest.raises(ConfigError, match="step 20 is past the last step, 10, of t_final = 0.5"):
            run(small_cfg(t_final=0.5, output_dir=str(out)), restart_from=out / "checkpoint")
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == files
        # a checkpoint at t_final itself resumes to the same state
        assert run(small_cfg(t_final=1.0, output_dir=str(out)), restart_from=out / "checkpoint").exit_code == EXIT_OK
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == files

    def test_oracle_restart_needs_oracle_stress(self, tmp_path):
        run(small_cfg(model_name="oldroyd-b", t_final=0.25, output_dir=str(tmp_path / "A")))
        with pytest.raises(ConfigError, match="no oracle stress"):
            run(small_cfg(model_name="oldroyd-b", oracle=True), restart_from=tmp_path / "A" / "checkpoint")

    def test_restart_under_another_dt_refused(self, tmp_path):
        # both age grids have N_s = 94 rows, so the history fits; its rows are of another age spacing and
        # its step of another time.  The resumed runs write elsewhere, with no diagnostics.csv to continue
        chk = tmp_path / "A" / "checkpoint"
        cfg = lambda dt, eps_tail, t_final, out: small_cfg(n=16, dt=dt, eps_tail=eps_tail, t_final=t_final,
                                                           output_dir=str(tmp_path / out))
        assert run(cfg(0.05, 1e-2, 0.5, "A")).exit_code == EXIT_OK  # its checkpoint is at step 10, t = 0.5
        assert read_checkpoint(chk)["step"] == 10
        with pytest.raises(ConfigError, match=r"cannot restart from .*: its time 0.5 is not its step 10 times dt = 0.1$"):
            run(cfg(0.1, 1e-4, 2.0, "B"), restart_from=chk)
        assert not (tmp_path / "B").exists()
        res = run(cfg(0.05, 1e-2, 1.0, "C"), restart_from=chk)
        assert res.exit_code == EXIT_OK and [rec.t for rec in res.records][:2] == [0.5, 0.55]

    def test_oracle_restart_refuses_asymmetric_oracle_stress(self, tmp_path):
        # oracle_tau.fld holds the 2 x 2 tensor; a restart takes its three distinct components, so a file
        # whose tau_21 is not tau_12 bit for bit, here by the last bit of one word, is refused
        out = tmp_path / "A"
        cfg = lambda t_final: small_cfg(n=16, model_name="oldroyd-b", oracle=True, t_final=t_final,
                                        output_dir=str(out))
        assert run(cfg(0.25)).exit_code == EXIT_OK
        path = out / "checkpoint" / "oracle_tau.fld"
        tau_hat = read_field(path)
        assert tau_hat.shape == (2, 2, 11, 6) and tau_hat[0, 1].tobytes() == tau_hat[1, 0].tobytes()
        tau_hat[1, 0].view(np.uint64)[1, 2] ^= 1
        write_field(path, tau_hat)
        with pytest.raises(ConfigError, match="cannot restart from .*: its oracle stress is not symmetric"):
            run(cfg(0.5), restart_from=out / "checkpoint")
        tau_hat[1, 0] = tau_hat[0, 1]
        write_field(path, tau_hat)
        assert run(cfg(0.5), restart_from=out / "checkpoint").exit_code == EXIT_OK


class TestTailRow:
    """A run from rest keeps its pre-start past as one tail row; the same run
    from an explicit identity stack stores every age (``live = N_s`` throughout)."""

    N_S = 11  # dt 0.3 and eps_tail 0.05: the run lasts 30 steps, more than 2 N_s

    @staticmethod
    def cfg(out="", **over):
        return small_cfg(**{"n": 16, "dt": 0.3, "t_final": 9.0, "eps_tail": 0.05, "output_dir": str(out), **over})

    def explicit(self, tmp_path, **over):
        path = tmp_path / "identity.fld"
        write_field(path, identity_stack(self.N_S, 16), n_s=self.N_S)
        return self.cfg(initial_history=f"snapshot:{path}", **over)

    def test_diagnostics_match_full_history(self, tmp_path):
        tail = run(self.cfg(tmp_path / "tail"))
        full = run(self.explicit(tmp_path, output_dir=str(tmp_path / "full")))
        assert tail.history.n_slices == self.N_S and len(tail.records) > 2 * self.N_S
        assert tail.exit_code == full.exit_code == EXIT_OK and tail.history.live == full.history.live == self.N_S
        rows = [(tmp_path / side / "diagnostics.csv").read_text().splitlines() for side in ("tail", "full")]
        assert rows[0][0] == rows[1][0] and len(rows[0]) == len(rows[1]) == 32
        header = rows[0][0].split(",")
        for a, b in zip(rows[0][1:], rows[1][1:]):
            for name, x, y in zip(header, a.split(","), b.split(",")):
                if name == "flags":
                    assert x == y
                else:  # divu_sup is a ratio to |grad u| at roundoff level (1e-17): compare it on that scale
                    assert math.isclose(float(x), float(y), rel_tol=1e-13, abs_tol=1e-13 * (name == "divu_sup")), name

    def test_restart_continues_csv(self, tmp_path):
        straight = tmp_path / "A"
        run(self.cfg(straight))
        # after k steps from rest min(k + 1, N_s) rows are live: k = 3 (live < N_s), k = 20 and 22
        # (live = N_s, the oldest row dropped each step).  An explicit history has every row live from the start.
        for start, steps, live in (("rest", 3, 4), ("rest", 20, 11), ("rest", 22, 11), ("explicit", 3, 11)):
            out = tmp_path / f"{start}{steps}"
            cfg = self.cfg if start == "rest" else (
                lambda out, **over: self.explicit(tmp_path, output_dir=str(out), **over))
            if start == "explicit":
                run(cfg(tmp_path / "explicit"))
            run(cfg(out, t_final=0.3 * steps))
            meta = json.loads((out / "checkpoint" / "meta.json").read_text())
            assert (meta["live"], meta["n_slices"]) == (live, self.N_S) and "head" not in meta
            # the live rows only: header, live rows of 2 band spectra (the potentials) at n = 16, trailer
            size = (out / "checkpoint" / "history.fld").stat().st_size
            assert size == 32 + live * 2 * 11 * 6 * 16 + 8
            res = run(cfg(out), restart_from=out / "checkpoint")
            assert res.exit_code == EXIT_OK and res.history.live == self.N_S
            reference = straight if start == "rest" else tmp_path / "explicit"
            assert (out / "diagnostics.csv").read_bytes() == (reference / "diagnostics.csv").read_bytes(), steps

    @pytest.mark.parametrize("k", [3, 20])
    def test_memory_layout_is_disk_layout(self, tmp_path, k):
        # age j at row j: the live rows in memory are the bytes of the checkpoint's history.fld
        h = run(self.cfg(tmp_path, t_final=0.3 * k)).history
        assert h.generation == k and h.live == min(k + 1, self.N_S)
        assert h.payload[: h.live].tobytes() == read_field(tmp_path / "checkpoint" / "history.fld").tobytes()

    def test_older_layout_refused(self, tmp_path):
        # every row stored from a rotating start row, with "head" and without "n_slices" in meta.json
        run(self.cfg(tmp_path / "B", t_final=0.9))
        checkpoint = tmp_path / "B" / "checkpoint"
        chk = read_checkpoint(checkpoint)
        meta = json.loads((checkpoint / "meta.json").read_text())
        del meta["n_slices"]
        (checkpoint / "meta.json").write_text(json.dumps({**meta, "head": 8}))
        write_field(checkpoint / "history.fld", np.roll(chk["history"], 8, axis=0), n_s=self.N_S)
        with pytest.raises(ConfigError, match="older layout"):
            run(self.cfg(), restart_from=checkpoint)

    def test_live_rows_of_another_age_grid_rejected(self, tmp_path):
        run(self.cfg(tmp_path / "B", t_final=0.9))
        with pytest.raises(ConfigError, match="history payload"):  # N_s 11 saved, 17 in this config
            run(self.cfg(eps_tail=0.01), restart_from=tmp_path / "B" / "checkpoint")

    def test_snapshot_slices_past_tail(self, tmp_path):
        slices = (1, 2, 5, self.N_S - 1)
        for side, cfg in (("tail", self.cfg), ("full", lambda **kw: self.explicit(tmp_path, **kw))):
            run(cfg(output_dir=str(tmp_path / side), t_final=0.6, snapshot_every=2, history_slices=slices))
        tail, full = ({j: read_field(tmp_path / side / "snap_000002" / f"g_{j:05d}.fld") for j in slices}
                      for side in ("tail", "full"))
        # after 2 steps live = 3: the tail row, age 2, is the field of every older age
        assert not np.array_equal(tail[1], tail[2])
        for j in slices:
            assert np.array_equal(tail[j], tail[max(1, min(j, 2))])
            np.testing.assert_allclose(tail[j], full[j], rtol=0, atol=1e-13)
