import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from memflow import snapshots
from memflow.snapshots import (
    SnapshotFormatError,
    read_checkpoint,
    read_field,
    write_checkpoint,
    write_field,
)


class TestChecksum:
    # published CRC-32 (ISO-HDLC, as in zlib) test vectors
    def test_known_vectors(self):
        assert zlib.crc32(b"") == 0
        assert zlib.crc32(b"123456789") == 0xCBF43926

    def test_trailer_is_zero_extended_crc32(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((2, 16, 16))
        path = tmp_path / "f.fld"
        write_field(path, arr)
        raw = path.read_bytes()
        assert struct.unpack("<6I", raw[8:32]) == (3, 16, 16, 2, 0, 0)  # version, trailing shape, 2 components
        assert raw[32:-8] == arr.astype("<f8").tobytes()
        assert struct.unpack("<Q", raw[-8:])[0] == zlib.crc32(raw[32:-8])


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(16, 16), (2, 16, 16), (2, 2, 16, 16)])
    def test_bit_exact(self, tmp_path, shape):
        arr = np.random.default_rng(1).standard_normal(shape)
        path = tmp_path / "f.fld"
        write_field(path, arr)
        back = read_field(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_history_stack(self, tmp_path):
        stack = np.random.default_rng(2).standard_normal((7, 2, 2, 16, 16))
        path = tmp_path / "h.fld"
        write_field(path, stack, n_s=7)
        assert np.array_equal(read_field(path), stack)

    def test_band_spectrum_stack(self, tmp_path):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((7, 2, 2, 11, 6)) + 1j * rng.standard_normal((7, 2, 2, 11, 6))  # n = 16
        path = tmp_path / "h.fld"
        write_field(path, stack, n_s=7)
        assert struct.unpack("<6I", path.read_bytes()[8:32]) == (3, 11, 6, 4, 7, 1)
        back = read_field(path)
        assert back.dtype == np.complex128 and np.array_equal(back, stack)
        with pytest.raises(SnapshotFormatError, match="band-spectrum axes"):
            write_field(path, stack[..., :5], n_s=7)

    def test_potentials_stack(self, tmp_path):
        # a history's stack: 2 band spectra a row, the potentials
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((5, 2, 11, 6)) + 1j * rng.standard_normal((5, 2, 11, 6))  # n = 16
        path = tmp_path / "h.fld"
        write_field(path, stack, n_s=5)
        assert struct.unpack("<6I", path.read_bytes()[8:32]) == (3, 11, 6, 2, 5, 1)
        assert np.array_equal(read_field(path), stack)
        with pytest.raises(SnapshotFormatError, match="inconsistent with N_s=5"):
            write_field(path, stack[:, :1], n_s=5)

    @pytest.mark.parametrize("view", ["transposed", "strided stack", "history slice"])
    def test_non_contiguous_input(self, tmp_path, view):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((8, 2, 2, 16, 16))
        arr, n_s = {
            "transposed": (rng.standard_normal((16, 16)).T, 0),
            "strided stack": (stack[::2], 4),
            "history slice": (stack[3, :, :, ::-1, :], 0),
        }[view]
        assert not arr.flags.c_contiguous
        path = tmp_path / "v.fld"
        write_field(path, arr, n_s=n_s)
        assert np.array_equal(read_field(path), arr)

    def test_shape_policing(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            write_field(tmp_path / "x.fld", np.ones((3, 16, 16)))  # 3 components unsupported
        with pytest.raises(SnapshotFormatError):
            write_field(tmp_path / "y.fld", np.ones((4, 2, 2, 16, 16)), n_s=5)


class TestCorruption:
    def _write(self, tmp_path):
        path = tmp_path / "f.fld"
        write_field(path, np.random.default_rng(3).standard_normal((2, 16, 16)))
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_field(path)

    def test_version_1_rejected(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="unsupported version 1"):
            read_field(path)

    def test_version_2_rejected(self, tmp_path):
        # version 2 held N in place of the trailing shape: never read as band data
        path = tmp_path / "v2.fld"
        stack = np.ones((3, 2, 2, 16, 16))
        path.write_bytes(b"MEMFLW01" + struct.pack("<4I", 2, 16, 4, 3) + stack.tobytes()
                         + struct.pack("<Q", zlib.crc32(stack)))
        with pytest.raises(SnapshotFormatError, match="unsupported version 2"):
            read_field(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(path.read_bytes()[:-60])
        with pytest.raises(SnapshotFormatError, match="byte offset"):
            read_field(path)

    def test_payload_corruption_caught(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[500] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            read_field(path)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2, 16, 16))
        hist = rng.standard_normal((5, 2, 2, 16, 16))
        write_checkpoint(
            tmp_path / "chk",
            step=17,
            t=17 * 0.05,
            y_value=0.123456789123456789,
            y_integrand=3.3e-7,
            u=u,
            history=hist,
            n_slices=5,
            physics={"model.name": "psm-raw", "flow.viscosity": 0.1, "diagnostics.q": 8},
        )
        chk = read_checkpoint(tmp_path / "chk")
        assert chk["step"] == 17
        assert chk["physics"] == {"model.name": "psm-raw", "flow.viscosity": 0.1, "diagnostics.q": 8}
        assert chk["t"] == 17 * 0.05  # exact float round trip via hex
        assert chk["y_value"] == 0.123456789123456789
        assert chk["live"] == 5
        assert np.array_equal(chk["u"], u)
        assert np.array_equal(chk["history"], hist)
        assert chk["oracle_tau"] is None
        meta = json.loads((tmp_path / "chk" / "meta.json").read_text())
        assert (meta["live"], meta["n_slices"]) == (5, 5) and "head" not in meta  # a full history has the keys too

    @pytest.mark.parametrize("dead", [0, 3, 6])
    def test_live_rows_only(self, tmp_path, dead):
        # 7 live rows of 7 + dead, in age order: the leading rows of the history's stack, the dead rows stale
        rng = np.random.default_rng(dead)
        stack = rng.standard_normal((7 + dead, 2, 2, 11, 6)) * (1 + 1j)
        rows = stack[:7]
        write_checkpoint(tmp_path / "chk", step=3, t=0.3, y_value=0.0, y_integrand=0.0, u=rows[0, 0],
                         history=stack[:7], n_slices=7 + dead, physics={})
        raw = (tmp_path / "chk" / "history.fld").read_bytes()
        assert struct.unpack("<6I", raw[8:32]) == (3, 11, 6, 4, 7, 1)  # N_s in the header is the live count
        assert raw[32:-8] == rows.tobytes()
        meta = json.loads((tmp_path / "chk" / "meta.json").read_text())
        assert (meta["live"], meta["n_slices"]) == (7, 7 + dead) and "head" not in meta
        chk = read_checkpoint(tmp_path / "chk")
        assert chk["live"] == 7 and chk["history"].shape == (7 + dead, 2, 2, 11, 6)
        assert np.array_equal(chk["history"][:7], rows) and not chk["history"][7:].any()  # from row 0, the others zero

    def test_row_count_checked(self, tmp_path):
        stack = np.zeros((4, 2, 2, 11, 6), dtype=complex)
        meta_path = tmp_path / "chk" / "meta.json"
        for n_slices, live in ((3, 4), (5, 5)):  # more live rows than the history has; other rows than live
            write_checkpoint(tmp_path / "chk", step=1, t=0.1, y_value=0.0, y_integrand=0.0, u=stack[0, 0],
                             history=stack, n_slices=n_slices, physics={})
            meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "live": live}))
            with pytest.raises(SnapshotFormatError, match=f"4 history rows for {live} live of {n_slices}"):
                read_checkpoint(tmp_path / "chk")

    def _write(self, directory, step):
        rng = np.random.default_rng(step)
        fields = dict(u=rng.standard_normal((2, 16, 16)), history=rng.standard_normal((5, 2, 2, 16, 16)))
        write_checkpoint(directory, step=step, t=0.1 * step, y_value=0.0, y_integrand=0.0, n_slices=5, physics={}, **fields)
        return fields

    def test_rewrite_swaps_in_place(self, tmp_path):
        self._write(tmp_path / "chk", 1)
        second = self._write(tmp_path / "chk", 2)
        chk = read_checkpoint(tmp_path / "chk")
        assert chk["step"] == 2
        assert np.array_equal(chk["history"], second["history"])
        assert [p.name for p in tmp_path.iterdir()] == ["chk"]

    def test_failed_history_write_keeps_previous(self, tmp_path, monkeypatch):
        # an OSError while history.fld is written leaves the previous checkpoint readable, with its step and
        # bytes, and no .chk.new behind
        self._write(tmp_path / "chk", 1)
        before = {path.name: path.read_bytes() for path in (tmp_path / "chk").iterdir()}
        write_field = snapshots.write_field

        def failing(path, array, n_s=0):
            if path.name == "history.fld":
                path.write_bytes(b"half a stack")
                raise OSError("disk full")
            write_field(path, array, n_s)

        monkeypatch.setattr(snapshots, "write_field", failing)
        with pytest.raises(OSError, match="disk full"):
            self._write(tmp_path / "chk", 2)
        assert read_checkpoint(tmp_path / "chk")["step"] == 1
        assert {path.name: path.read_bytes() for path in (tmp_path / "chk").iterdir()} == before
        assert [path.name for path in tmp_path.iterdir()] == ["chk"]

    def test_kill_between_renames_keeps_previous(self, tmp_path, monkeypatch):
        first = self._write(tmp_path / "chk", 1)
        rename = Path.rename

        def killed(self, target):  # the process dies after moving the old checkpoint aside
            if self.name.endswith(".new"):
                raise KeyboardInterrupt
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", killed)
        with pytest.raises(KeyboardInterrupt):
            self._write(tmp_path / "chk", 2)
        chk = read_checkpoint(tmp_path / "chk")
        assert chk["step"] == 1
        assert np.array_equal(chk["u"], first["u"])
        monkeypatch.undo()
        self._write(tmp_path / "chk", 3)
        assert read_checkpoint(tmp_path / "chk")["step"] == 3
        assert [p.name for p in tmp_path.iterdir()] == ["chk"]


class TestMemory:
    # a (40, 2, 2, 32, 32) stack: 1.25 MiB of payload
    STACK = (40, 2, 2, 32, 32)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_holds_one_copy(self, tmp_path):
        stack = np.random.default_rng(6).standard_normal(self.STACK)
        write_field(tmp_path / "h.fld", stack, n_s=40)
        assert self._peak(read_field, tmp_path / "h.fld") <= 1.25 * stack.nbytes

    def test_checkpoint_read_holds_one_stack(self, tmp_path):
        # the live rows (39 of 40) are read straight into the whole stack
        stack = np.random.default_rng(6).standard_normal(self.STACK)
        write_checkpoint(tmp_path / "chk", step=1, t=0.0, y_value=0.0, y_integrand=0.0, u=stack[0, 0],
                         history=stack[:39], n_slices=40, physics={})
        assert self._peak(read_checkpoint, tmp_path / "chk") <= 1.25 * stack.nbytes

    def test_write_copies_nothing(self, tmp_path):
        stack = np.random.default_rng(6).standard_normal(self.STACK)
        assert self._peak(write_field, tmp_path / "h.fld", stack, 40) <= 0.25 * stack.nbytes
