"""Persistence: the SPLG binary grid format, CSV grids, and JSON patch docs.

SPLG layout (little-endian): magic ``SPLG`` (4 bytes), u32 version (= 1),
u32 rank d, d x u64 dims, then exactly prod(dims) IEEE-754 f64 payload values
in row-major order.  Round-trips are bitwise lossless.
"""

from __future__ import annotations

import json
import math
import operator
import struct

import numpy as np

from .detect import Detection
from .lattice import Grid, LatticeError, Rect

MAGIC = b"SPLG"
VERSION = 1


class GridFileError(LatticeError):
    """Malformed SPLG file."""


class BadMagicError(GridFileError):
    pass


class VersionMismatchError(GridFileError):
    pass


class TruncatedFileError(GridFileError):
    pass


def write_grid(path, grid: Grid) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, grid.ndim))
        f.write(struct.pack(f"<{grid.ndim}Q", *grid.dims))
        f.write(np.ascontiguousarray(grid.data, dtype="<f8").tobytes())


def read_grid(path) -> Grid:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: not an SPLG file")
    if len(raw) < 12:
        raise TruncatedFileError(f"{path}: header cut short")
    version, d = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
    head = 12 + 8 * d
    if len(raw) < head:
        raise TruncatedFileError(f"{path}: dims cut short")
    dims = struct.unpack_from(f"<{d}Q", raw, 12)
    count = math.prod(dims) if d else 0  # Python ints: dims near 2^64 must not wrap
    expected = head + 8 * count
    if len(raw) < expected:
        raise TruncatedFileError(
            f"{path}: payload has {(len(raw) - head) // 8} of {count} values"
        )
    if len(raw) > expected:
        raise GridFileError(f"{path}: {len(raw) - expected} trailing bytes")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=head)
    return Grid(dims=tuple(int(x) for x in dims), data=data.reshape(dims).copy())


def write_grid_csv(path, grid: Grid) -> None:
    """2-D grids only: one line per row, repr-formatted fields (lossless)."""
    if grid.ndim != 2:
        raise GridFileError(f"CSV export is 2-D only, grid is {grid.ndim}-d")
    with open(path, "w") as f:
        for row in grid.data:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def read_grid_csv(path) -> Grid:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise GridFileError(f"{path}: ragged or empty CSV grid")
    return Grid.from_array(np.array(rows, dtype=np.float64))


def detection_to_doc(det: Detection, dims) -> dict:
    """JSON-serializable document for a Detection (lossless round trip)."""
    return {
        "dims": [int(x) for x in dims],
        "k_hat": det.k_hat,
        "patches": [
            {"lo": list(r.lo), "hi": list(r.hi), "jump_estimate": j}
            for r, j in zip(det.patches, det.jumps)
        ],
        "diagnostics": dict(det.diagnostics),
    }


def doc_to_detection(doc: dict) -> tuple[Detection, tuple[int, ...]]:
    try:  # operator.index: a fractional or string size is an error, not truncated
        dims = tuple(operator.index(x) for x in doc["dims"])
        patches = tuple(Rect(tuple(p["lo"]), tuple(p["hi"])) for p in doc["patches"])
        jumps = tuple(float(p["jump_estimate"]) for p in doc["patches"])
        det = Detection(
            k_hat=operator.index(doc["k_hat"]),
            patches=patches,
            jumps=jumps,
            diagnostics=dict(doc.get("diagnostics", {})),
        )
    except (TypeError, ValueError) as e:
        raise LatticeError(f"malformed patch doc: {e}") from None
    return det, dims


def write_patch_doc(path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_patch_doc(path) -> dict:
    with open(path) as f:
        return json.load(f)
