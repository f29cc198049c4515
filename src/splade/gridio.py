"""Persistence: the SPLG binary grid format and JSON patch docs.

SPLG layout (little-endian): magic ``SPLG`` (4 bytes), u32 version (= 1),
u32 rank d (1..4), d x u64 dims, then exactly prod(dims) IEEE-754 f64 payload
values in row-major order.  Round-trips are bitwise lossless.
"""

from __future__ import annotations

import json
import math
import operator
import struct

import numpy as np

from .detect import Detection
from .lattice import MAX_DIM, Grid, LatticeError, Rect, check_disjoint

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
    if not 1 <= d <= MAX_DIM:
        raise GridFileError(f"{path}: rank {d} outside 1..{MAX_DIM}")
    head = 12 + 8 * d
    if len(raw) < head:
        raise TruncatedFileError(f"{path}: dims cut short")
    dims = struct.unpack_from(f"<{d}Q", raw, 12)
    count = math.prod(dims)  # Python ints: dims near 2^64 must not wrap
    expected = head + 8 * count
    if len(raw) < expected:
        raise TruncatedFileError(
            f"{path}: payload has {(len(raw) - head) // 8} of {count} values"
        )
    if len(raw) > expected:
        raise GridFileError(f"{path}: {len(raw) - expected} trailing bytes")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=head)
    return Grid(data.reshape(dims).copy())


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
        if not dims or min(dims) < 1 or not all(r.within(dims) for r in patches):
            raise ValueError(f"dims {list(dims)} must be sizes >= 1 that hold every patch")
        check_disjoint(patches)  # labels and the Hausdorff background assume disjoint patches
        if (k_hat := operator.index(doc["k_hat"])) != len(patches):
            raise ValueError(f"k_hat {k_hat} differs from the patch count {len(patches)}")
        jumps = tuple(float(p["jump_estimate"]) for p in doc["patches"])
        det = Detection(patches=patches, jumps=jumps, diagnostics=dict(doc.get("diagnostics", {})))
    except KeyError as e:
        raise LatticeError(f"malformed patch doc: missing key {e}") from None
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
