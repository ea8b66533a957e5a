import gc
import struct
import warnings
import zlib

import numpy as np
import pytest

from memflow import simulation, snapshots, spectral
from memflow.agegrid import HistoryTooLongError
from memflow.config import ConfigError, SimulationConfig
from memflow.simulation import EXIT_NAN, EXIT_OK, EXIT_VIOLATION, run
from memflow.snapshots import SnapshotFormatError, read_checkpoint, read_field, write_checkpoint, write_field
from memflow.transport import ChunkWorkspace, identity_stack


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

    def test_violation_exit_code(self):
        res = run(small_cfg(stress_tol=-1.0, fatal_on_violation=True))
        assert res.exit_code == EXIT_VIOLATION

    def test_cadence_thins_records(self):
        res = run(small_cfg(cadence=5))
        assert len(res.records) == 3  # t = 0, 0.25, 0.5

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
        chk["history"][3] *= 1e-3
        write_checkpoint(tmp_path / "B", **chk)
        res = run(small_cfg(t_final=1.0), restart_from=tmp_path / "B")
        assert res.exit_code == EXIT_NAN
        assert "deformation norm" in res.message

    def test_snapshot_history_projected_onto_band(self, tmp_path):
        n_s = run(small_cfg(t_final=0.05)).history.n_slices
        x1 = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)[:, None] * np.ones((32, 32))
        stack = identity_stack(n_s, 32)
        # min det 0.81 in the band; the Nyquist mode outside it would take det down to about 0.36
        stack[2, 0, 0] = stack[2, 1, 1] = 1.0 - 0.05 * (1.0 + np.cos(x1)) + 0.3 * np.cos(16 * x1)
        write_field(tmp_path / "h.fld", stack, n_s=n_s)
        res = run(small_cfg(t_final=0.05, initial_history=f"snapshot:{tmp_path / 'h.fld'}", mu_min=0.5))
        assert res.exit_code == EXIT_OK
        assert res.records[0].min_detG == pytest.approx(0.81, rel=1e-12)

    def test_memory_cap_counts_chunk_workspace(self):
        stack_bytes = run(small_cfg(t_final=0.05)).history.payload.nbytes
        with pytest.raises(HistoryTooLongError):
            run(small_cfg(t_final=0.05, memory_cap_mb=stack_bytes / 2**20))
        cap = (stack_bytes + ChunkWorkspace.nbytes_for(32)) / 2**20
        assert run(small_cfg(t_final=0.05, memory_cap_mb=cap)).exit_code == EXIT_OK


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

    def test_failed_checkpoint_keeps_previous(self, tmp_path, monkeypatch):
        written = {}
        write_field = snapshots.write_field

        def failing_write(path, array, n_s=0):  # the second checkpoint fails on its history
            if path.name == "history.fld" and "history.fld" in written:
                raise OSError("disk full")
            written.setdefault(path.name, np.array(array))
            write_field(path, array, n_s)

        monkeypatch.setattr(snapshots, "write_field", failing_write)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            run(small_cfg(output_dir=str(out), snapshot_every=5))
        chk = read_checkpoint(out / "checkpoint")
        assert chk["step"] == 5
        assert np.array_equal(chk["u"], written["u.fld"])
        assert np.array_equal(chk["history"], written["history.fld"])
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

    def test_restart_from_physical_stack_rejected(self, tmp_path):
        run(small_cfg(t_final=0.25, output_dir=str(tmp_path / "A")))
        chk = read_checkpoint(tmp_path / "A" / "checkpoint")
        stack = identity_stack(len(chk["history"]), 32)
        # a physical stack or velocity in the current format is refused by shape and type ...
        for name, physical in (("history", stack), ("u", np.zeros((2, 32, 32)))):
            write_checkpoint(tmp_path / "B", **{**chk, name: physical})
            with pytest.raises(ValueError, match=f"{'history payload' if name == 'history' else 'velocity'} "
                                                 "must be the band spectrum"):
                run(small_cfg(t_final=0.5), restart_from=tmp_path / "B")
        # ... and a checkpoint of the previous format, whose stacks were physical, by its version
        path = tmp_path / "B" / "history.fld"
        path.write_bytes(b"MEMFLW01" + struct.pack("<4I", 2, 32, 4, len(stack)) + stack.tobytes()
                         + struct.pack("<Q", zlib.crc32(stack)))
        with pytest.raises(SnapshotFormatError, match="unsupported version 2"):
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

    def test_oracle_restart_needs_oracle_stress(self, tmp_path):
        run(small_cfg(model_name="oldroyd-b", t_final=0.25, output_dir=str(tmp_path / "A")))
        with pytest.raises(ConfigError, match="no oracle stress"):
            run(small_cfg(model_name="oldroyd-b", oracle=True), restart_from=tmp_path / "A" / "checkpoint")
