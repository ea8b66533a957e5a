"""Binary field snapshots and checkpoints.

Format (all integers little-endian):

    bytes 0..7    magic "MEMFLW01"
    4 x uint32    version (2), grid size N, component count, N_s
                  (N_s is 0 for plain fields, the slice count for
                  age-history stacks)
    payload       float64, row-major
    uint64        CRC-32 (zlib) of the payload bytes, zero-extended

Version-1 files (FNV-1a trailer) are rejected.  Writes stream the array's
own buffer and reads fill one preallocated array: no second payload copy.
Reads validate magic, sizes, and checksum; a write/read round trip is
bit-exact.  Checkpoints are directories holding one snapshot per state
field plus a JSON metadata file with exact (hex) float values, so a
restarted run reproduces the original bit for bit.  They are swapped into
place whole (:func:`write_checkpoint`): a killed process leaves a complete
checkpoint; nothing is fsynced, so a power loss is not covered.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"MEMFLW01"
VERSION = 2


class SnapshotFormatError(ValueError):
    pass


def write_field(path, array: np.ndarray, n_s: int = 0) -> None:
    """Write a field or history stack; shape is recovered from the header."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    n = arr.shape[-1]
    if arr.shape[-2] != n:
        raise SnapshotFormatError(f"field must end in square spatial axes, got {arr.shape}")
    if n_s:
        if arr.shape != (n_s, 2, 2, n, n):
            raise SnapshotFormatError(f"history stack shape {arr.shape} inconsistent with N_s={n_s}")
        ncomp = 4
    else:
        lead = arr.shape[:-2]
        ncomp = int(np.prod(lead, dtype=int)) if lead else 1
        if ncomp not in (1, 2, 4):
            raise SnapshotFormatError(f"unsupported component count {ncomp}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<4I", VERSION, n, ncomp, n_s))
        fh.write(arr)
        fh.write(struct.pack("<Q", zlib.crc32(arr)))


def read_field(path) -> np.ndarray:
    """Read a snapshot, validating magic, sizes, and the payload checksum."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 24 + 8:
            raise SnapshotFormatError(f"{path}: truncated header ({size} bytes)")
        header = fh.read(24)
        if header[:8] != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {header[:8]!r} at byte offset 0")
        version, n, ncomp, n_s = struct.unpack_from("<4I", header, 8)
        if version != VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        if n_s:
            shape = (n_s, 2, 2, n, n)
        elif ncomp == 1:
            shape = (n, n)
        elif ncomp == 2:
            shape = (2, n, n)
        elif ncomp == 4:
            shape = (2, 2, n, n)
        else:
            raise SnapshotFormatError(f"{path}: bad component count {ncomp}")
        n_payload = int(np.prod(shape, dtype=np.int64)) * 8
        expected = 24 + n_payload + 8
        if size != expected:  # checked before allocating what a corrupt header may claim
            raise SnapshotFormatError(
                f"{path}: size mismatch at byte offset {min(size, expected)}: "
                f"have {size} bytes, header implies {expected}"
            )
        out = np.empty(shape, dtype="<f8")
        got = fh.readinto(memoryview(out).cast("B"))
        trailer = fh.read(8)
    if got != n_payload or len(trailer) != 8:  # the file shrank while it was read
        raise SnapshotFormatError(f"{path}: truncated payload at byte offset {24 + got}")
    (stored,) = struct.unpack("<Q", trailer)
    actual = zlib.crc32(out)
    if stored != actual:
        raise SnapshotFormatError(
            f"{path}: checksum mismatch at byte offset {24 + n_payload}: "
            f"stored {stored:#010x}, computed {actual:#010x}"
        )
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(directory, *, step, t, y_value, y_integrand, u, history, head, oracle_tau=None):
    """Write a checkpoint into the sibling ``.<name>.new``, then swap it into
    place: ``<name>`` moves to ``.<name>.old``, the new one to ``<name>``, and
    the old one is deleted.  A process killed at any point leaves a complete
    checkpoint that :func:`read_checkpoint` finds.  Nothing is fsynced: this
    guards against a killed process, not against power loss."""
    meta = {
        "step": int(step),
        "t": float(t).hex(),
        "y_value": float(y_value).hex(),
        "y_integrand": float(y_integrand).hex(),
        "head": int(head),
        "has_oracle": oracle_tau is not None,
    }
    d = Path(directory)
    new, old = (d.with_name(f".{d.name}.{tag}") for tag in ("new", "old"))
    shutil.rmtree(new, ignore_errors=True)  # left by a killed write
    new.mkdir(parents=True)
    try:
        write_field(new / "u.fld", u)
        write_field(new / "history.fld", history, n_s=history.shape[0])
        if oracle_tau is not None:
            write_field(new / "oracle_tau.fld", oracle_tau)
        (new / "meta.json").write_text(json.dumps(meta, indent=1))
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    if d.exists():
        shutil.rmtree(old, ignore_errors=True)
        d.rename(old)
    new.rename(d)
    shutil.rmtree(old, ignore_errors=True)


def read_checkpoint(directory) -> dict:
    d = Path(directory)
    old = d.with_name(f".{d.name}.old")
    if not d.exists() and old.is_dir():  # a write was killed between its two renames
        d = old
    meta = json.loads((d / "meta.json").read_text())
    return {
        "step": int(meta["step"]),
        "t": float.fromhex(meta["t"]),
        "y_value": float.fromhex(meta["y_value"]),
        "y_integrand": float.fromhex(meta["y_integrand"]),
        "head": int(meta["head"]),
        "u": read_field(d / "u.fld"),
        "history": read_field(d / "history.fld"),
        "oracle_tau": read_field(d / "oracle_tau.fld") if meta.get("has_oracle") else None,
    }
