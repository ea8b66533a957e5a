"""Binary field snapshots and checkpoints.

Format (all integers little-endian):

    bytes 0..7    magic "MEMFLW01"
    6 x uint32    version (3), rows, columns, component count, N_s, kind
                  (rows x columns are the trailing axes; N_s is 0 for plain
                  fields, the row count for age-history stacks of 2 or 4
                  components a row; kind 0 is a float64 physical field,
                  kind 1 a complex128 band spectrum of 2 kc + 1 rows and
                  kc + 1 columns)
    payload       row-major
    uint64        CRC-32 (zlib) of the payload bytes, zero-extended

Older versions are rejected: version 1 had an FNV-1a trailer, version 2 a
grid size in place of the trailing shape and physical history stacks only.
Writes stream the array's own buffer and reads fill one preallocated
array: no second payload copy.  Reads validate magic, sizes, and
checksum; a write/read round trip is bit-exact.  Checkpoints are
directories holding one snapshot per state field plus a JSON metadata file
with exact (hex) float values, so a restarted run reproduces the original
bit for bit.  ``u.fld`` holds the band spectrum of the velocity's stream
function.  A history is stored as its live rows, in age order: the
leading rows of its stack, each the band spectra of 2 potentials.
Checkpoints are swapped into place whole (:func:`write_checkpoint`): a
killed process leaves a complete checkpoint; nothing is fsynced, so a
power loss is not covered.
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


def write_field(path, array, n_s: int = 0) -> None:
    """Write a field, a band spectrum or a stack of either; the shape is
    recovered from the header."""
    kind = int(np.iscomplexobj(array))
    array = np.ascontiguousarray(array, dtype=KINDS[kind])
    rows, cols = array.shape[-2:]
    if rows != (2 * cols - 1 if kind else cols):
        what = "band-spectrum axes (2 kc + 1, kc + 1)" if kind else "square spatial axes"
        raise SnapshotFormatError(f"field must end in {what}, got {array.shape}")
    lead = array.shape[:-2]
    if n_s and lead not in ((n_s, 2), (n_s, 2, 2)):
        raise SnapshotFormatError(f"history stack shape {array.shape} inconsistent with N_s={n_s}")
    ncomp = int(np.prod(lead[1:] if n_s else lead, dtype=int))
    if ncomp not in (1, 2, 4):
        raise SnapshotFormatError(f"unsupported component count {ncomp}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(HEADER.pack(VERSION, rows, cols, ncomp, n_s, kind))
        fh.write(array)
        fh.write(struct.pack("<Q", zlib.crc32(array)))


def read_field(path, into=None) -> np.ndarray:
    """Read a snapshot, validating magic, sizes, and the payload checksum.

    ``into(shape, dtype)``, called once the header is checked, may give the
    memory to fill instead of a new array: a C-contiguous array of that
    shape and dtype, which is then returned."""
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
        lead = {1: (), 2: (2,), 4: (2, 2)}.get(ncomp)
        if lead is None or (n_s and ncomp == 1):
            raise SnapshotFormatError(f"{path}: bad component count {ncomp}")
        shape, dtype = ((n_s,) if n_s else ()) + lead + (rows, cols), KINDS[kind]
        n_payload = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        expected = start + n_payload + 8
        if size != expected:  # checked before allocating what a corrupt header may claim
            raise SnapshotFormatError(
                f"{path}: size mismatch at byte offset {min(size, expected)}: "
                f"have {size} bytes, header implies {expected}"
            )
        out = np.empty(shape, dtype=dtype) if into is None else into(shape, dtype)
        if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
            raise ValueError(f"{path}: the memory to read into does not hold {shape} {dtype}")
        got = fh.readinto(out.view(np.uint8).reshape(-1))
        actual = zlib.crc32(out)
        trailer = fh.read(8)
    if got != n_payload or len(trailer) != 8:  # the file shrank while it was read
        raise SnapshotFormatError(f"{path}: truncated payload at byte offset {start + got}")
    (stored,) = struct.unpack("<Q", trailer)
    if stored != actual:
        raise SnapshotFormatError(
            f"{path}: checksum mismatch at byte offset {start + n_payload}: "
            f"stored {stored:#010x}, computed {actual:#010x}"
        )
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(directory, *, step, t, y_value, y_integrand, u, history, n_slices, physics, oracle_tau=None):
    """Write a checkpoint into the sibling ``.<name>.new``, then swap it into
    place: ``<name>`` moves to ``.<name>.old``, the new one to ``<name>``, and
    the old one is deleted.  A process killed at any point leaves a complete
    checkpoint that :func:`read_checkpoint` finds.  Nothing is fsynced: this
    guards against a killed process, not against power loss.

    ``history`` holds the history's live rows in age order, the leading
    rows of :attr:`memflow.transport.DeformationHistory.payload`;
    ``history.fld`` holds them with their count in the header's N_s field,
    and ``meta.json`` has that count as ``"live"`` and the history's row
    count ``n_slices`` as ``"n_slices"``.  ``physics``, a JSON-ready dict,
    is stored as ``"physics"``: the settings a restart must share."""
    live = len(history)
    meta = {
        "step": int(step),
        "t": float(t).hex(),
        "y_value": float(y_value).hex(),
        "y_integrand": float(y_integrand).hex(),
        "live": live,
        "n_slices": int(n_slices),
        "has_oracle": oracle_tau is not None,
        "physics": physics,
    }
    d = Path(directory)
    new, old = (d.with_name(f".{d.name}.{tag}") for tag in ("new", "old"))
    shutil.rmtree(new, ignore_errors=True)  # left by a killed write
    new.mkdir(parents=True)
    try:
        write_field(new / "u.fld", u)
        write_field(new / "history.fld", history, n_s=live)
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
    """The state a checkpoint holds.  ``"history"`` is a zero stack of
    ``n_slices`` rows whose first ``"live"`` rows, read straight from
    ``history.fld``, are the live ages in age order; the other rows stay
    unmapped.  A checkpoint without ``"n_slices"`` in its ``meta.json``, of an
    older layout that stored every row from a rotating start row, is
    refused, and so is one without ``"physics"``."""
    d = Path(directory)
    old = d.with_name(f".{d.name}.old")
    if not d.exists() and old.is_dir():  # a write was killed between its two renames
        d = old
    meta = json.loads((d / "meta.json").read_text())
    if "n_slices" not in meta:
        raise SnapshotFormatError(f"{d}: history of an older layout (no \"n_slices\" in meta.json)")
    if "physics" not in meta:
        raise SnapshotFormatError(f"{d}: no physics record (no \"physics\" in meta.json)")
    n_s, live = int(meta["n_slices"]), int(meta["live"])
    stack = None

    def into(shape, dtype):
        nonlocal stack
        if not shape[0] == live <= n_s:
            raise SnapshotFormatError(f"{d}: {shape[0]} history rows for {live} live of {n_s}")
        stack = np.zeros((n_s,) + shape[1:], dtype=dtype)
        return stack[:live]

    read_field(d / "history.fld", into)
    return {
        "step": int(meta["step"]),
        "t": float.fromhex(meta["t"]),
        "y_value": float.fromhex(meta["y_value"]),
        "y_integrand": float.fromhex(meta["y_integrand"]),
        "live": live,
        "physics": meta["physics"],
        "u": read_field(d / "u.fld"),
        "history": stack,
        "oracle_tau": read_field(d / "oracle_tau.fld") if meta.get("has_oracle") else None,
    }
