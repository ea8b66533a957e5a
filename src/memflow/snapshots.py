"""Binary field snapshots and checkpoints.

Format (all integers little-endian):

    bytes 0..7    magic "MEMFLW01"
    6 x uint32    version (3), rows, columns, component count, N_s, kind
                  (rows x columns are the trailing axes; N_s is 0 for plain
                  fields, the slice count for age-history stacks; kind 0 is
                  a float64 physical field, kind 1 a complex128 band
                  spectrum of 2 kc + 1 rows and kc + 1 columns)
    payload       row-major
    uint64        CRC-32 (zlib) of the payload bytes, zero-extended

Older versions are rejected: version 1 had an FNV-1a trailer, version 2 a
grid size in place of the trailing shape and physical history stacks only.
Writes stream the array's own buffer and reads fill one preallocated array:
no second payload copy.  Reads validate magic, sizes, and checksum; a
write/read round trip is bit-exact.  Checkpoints are directories holding one snapshot per state
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
VERSION = 3
KINDS = (np.dtype("<f8"), np.dtype("<c16"))  # physical field, band spectrum
HEADER = struct.Struct("<6I")


class SnapshotFormatError(ValueError):
    pass


def write_field(path, array: np.ndarray, n_s: int = 0) -> None:
    """Write a field, a band spectrum or a stack of either; the shape is
    recovered from the header."""
    kind = int(np.iscomplexobj(array))
    arr = np.ascontiguousarray(array, dtype=KINDS[kind])
    rows, cols = arr.shape[-2:]
    if rows != (2 * cols - 1 if kind else cols):
        what = "band-spectrum axes (2 kc + 1, kc + 1)" if kind else "square spatial axes"
        raise SnapshotFormatError(f"field must end in {what}, got {arr.shape}")
    lead = arr.shape[:-2]
    if n_s:
        if lead != (n_s, 2, 2):
            raise SnapshotFormatError(f"history stack shape {arr.shape} inconsistent with N_s={n_s}")
        ncomp = 4
    else:
        ncomp = int(np.prod(lead, dtype=int)) if lead else 1
        if ncomp not in (1, 2, 4):
            raise SnapshotFormatError(f"unsupported component count {ncomp}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(HEADER.pack(VERSION, rows, cols, ncomp, n_s, kind))
        fh.write(arr)
        fh.write(struct.pack("<Q", zlib.crc32(arr)))


def read_field(path) -> np.ndarray:
    """Read a snapshot, validating magic, sizes, and the payload checksum."""
    start = len(MAGIC) + HEADER.size
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < start + 8:
            raise SnapshotFormatError(f"{path}: truncated header ({size} bytes)")
        header = fh.read(start)
        if header[:8] != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {header[:8]!r} at byte offset 0")
        version, rows, cols, ncomp, n_s, kind = HEADER.unpack_from(header, 8)
        if version != VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version} (this reader takes {VERSION})")
        if kind >= len(KINDS):
            raise SnapshotFormatError(f"{path}: bad kind {kind}")
        lead = (n_s, 2, 2) if n_s else {1: (), 2: (2,), 4: (2, 2)}.get(ncomp)
        if lead is None:
            raise SnapshotFormatError(f"{path}: bad component count {ncomp}")
        shape, dtype = lead + (rows, cols), KINDS[kind]
        n_payload = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        expected = start + n_payload + 8
        if size != expected:  # checked before allocating what a corrupt header may claim
            raise SnapshotFormatError(
                f"{path}: size mismatch at byte offset {min(size, expected)}: "
                f"have {size} bytes, header implies {expected}"
            )
        out = np.empty(shape, dtype=dtype)
        got = fh.readinto(out.view(np.uint8).reshape(-1))
        trailer = fh.read(8)
    if got != n_payload or len(trailer) != 8:  # the file shrank while it was read
        raise SnapshotFormatError(f"{path}: truncated payload at byte offset {start + got}")
    (stored,) = struct.unpack("<Q", trailer)
    actual = zlib.crc32(out)
    if stored != actual:
        raise SnapshotFormatError(
            f"{path}: checksum mismatch at byte offset {start + n_payload}: "
            f"stored {stored:#010x}, computed {actual:#010x}"
        )
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(directory, *, step, t, y_value, y_integrand, u, history, head, live=None, oracle_tau=None):
    """Write a checkpoint into the sibling ``.<name>.new``, then swap it into
    place: ``<name>`` moves to ``.<name>.old``, the new one to ``<name>``, and
    the old one is deleted.  A process killed at any point leaves a complete
    checkpoint that :func:`read_checkpoint` finds.  Nothing is fsynced: this
    guards against a killed process, not against power loss.

    ``live``, the history's count of distinct ages, goes into ``meta.json``
    only while it is below the slice count: a full history's checkpoint
    has no ``"live"`` key, like every checkpoint written before the key
    existed, and :func:`read_checkpoint` reads a missing key as full."""
    meta = {
        "step": int(step),
        "t": float(t).hex(),
        "y_value": float(y_value).hex(),
        "y_integrand": float(y_integrand).hex(),
        "head": int(head),
        "has_oracle": oracle_tau is not None,
    }
    if live is not None and live < history.shape[0]:
        meta["live"] = int(live)
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
        "live": int(meta["live"]) if "live" in meta else None,  # None: a full history
        "u": read_field(d / "u.fld"),
        "history": read_field(d / "history.fld"),
        "oracle_tau": read_field(d / "oracle_tau.fld") if meta.get("has_oracle") else None,
    }
