import json
import struct

import numpy as np
import pytest

from splade.detect import Detection
from splade.gridio import (
    BadMagicError,
    GridFileError,
    TruncatedFileError,
    VersionMismatchError,
    detection_to_doc,
    doc_to_detection,
    read_grid,
    read_patch_doc,
    write_grid,
    write_patch_doc,
)
from splade.lattice import Grid, Rect


def test_grid_roundtrip_3d(tmp_path):
    rng = np.random.default_rng(1)
    g = Grid.from_array(rng.standard_normal((3, 5, 7)))
    p = tmp_path / "g.splg"
    write_grid(p, g)
    back = read_grid(p)
    assert back.dims == g.dims
    assert np.array_equal(back.data, g.data)  # bitwise


def test_grid_roundtrip_1d(tmp_path):
    g = Grid.from_array(np.array([1.5, -2.25, 0.1]))
    p = tmp_path / "g.splg"
    write_grid(p, g)
    assert np.array_equal(read_grid(p).data, g.data)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.splg"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        read_grid(p)


def test_version_mismatch(tmp_path):
    g = Grid.from_array(np.zeros((2, 2)))
    p = tmp_path / "g.splg"
    write_grid(p, g)
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        read_grid(p)


def test_truncated_payload(tmp_path):
    g = Grid.from_array(np.arange(6.0).reshape(2, 3))
    p = tmp_path / "g.splg"
    write_grid(p, g)
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(TruncatedFileError):
        read_grid(p)


@pytest.mark.parametrize("rank", [0, 5])
def test_rank_outside_1_to_4_rejected_at_the_header(tmp_path, rank):
    """Rank 0 once crashed in the payload's reshape; rank 5 was read in full
    before ``Grid`` rejected it."""
    p = tmp_path / "g.splg"
    p.write_bytes(b"SPLG" + struct.pack(f"<II{rank}Q", 1, rank, *[2] * rank) + bytes(8 * 2**rank))
    with pytest.raises(GridFileError, match=f"rank {rank} outside 1..4"):
        read_grid(p)


def test_trailing_bytes_rejected(tmp_path):
    g = Grid.from_array(np.zeros((2, 2)))
    p = tmp_path / "g.splg"
    write_grid(p, g)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(GridFileError):
        read_grid(p)


def test_patch_doc_roundtrip(tmp_path):
    det = Detection(
        patches=(Rect((0, 1), (4, 5)), Rect((8, 8), (12, 14))),
        jumps=(1.25, -0.5),
        diagnostics={"mu0": 0.017, "sigma": 1.083, "q": 0.31, "flagged_blocks": 9,
                     "component_cells": [256, 310]},
    )
    doc = detection_to_doc(det, (16, 16))
    path = tmp_path / "p.json"
    write_patch_doc(path, doc)
    loaded = read_patch_doc(path)
    back, dims = doc_to_detection(loaded)
    assert dims == (16, 16)
    assert back.patches == det.patches
    assert back.jumps == det.jumps
    assert back.k_hat == det.k_hat
    assert back.diagnostics["sigma"] == det.diagnostics["sigma"]
    # floats survive the JSON trip exactly
    assert json.loads(json.dumps(doc)) == doc
