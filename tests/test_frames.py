import re
from pathlib import Path

import numpy as np
import pytest

from splade import frames
from splade.detect import SpladeConfig, splade_detect
from splade.frames import FrameError, frames_to_grids, parse_range, read_pnm
from splade.single import Stage1Params


def write_ppm(path, arr_uint8):
    """arr (h, w, 3) uint8 -> binary P6 file."""
    h, w = arr_uint8.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(arr_uint8.tobytes())


def write_pgm(path, arr_uint8):
    h, w = arr_uint8.shape
    with open(path, "wb") as f:
        f.write(f"P5\n# comment line\n{w} {h}\n255\n".encode())
        f.write(arr_uint8.tobytes())


def _base_frame(h=64, w=64, level=80):
    return np.full((h, w, 3), level, dtype=np.uint8)


def test_read_ppm_and_pgm(tmp_path):
    rgb = np.zeros((4, 6, 3), dtype=np.uint8)
    rgb[..., 0] = 255
    p = tmp_path / "a.ppm"
    write_ppm(p, rgb)
    img = read_pnm(p)
    assert img.shape == (4, 6, 3)
    assert np.all(img[..., 0] == 1.0) and np.all(img[..., 1:] == 0.0)

    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    g = tmp_path / "b.pgm"
    write_pgm(g, gray)
    img2 = read_pnm(g)
    assert img2.shape == (3, 4)
    assert img2[2, 3] == pytest.approx(11 / 255)


def test_read_rejects_ascii_pnm(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FrameError):
        read_pnm(p)


@pytest.mark.parametrize("raw, message", [
    # a comment may follow a word on its line; tab and CR separate words
    (b"P5 #c\n2\t#x y\n1\r\n255\n\x07\xc8", None),
    (b"P5#c\n2 1\n255\n\x07\xc8", "unsupported format b'P5#c'"),  # a # inside a word is part of it
    (b"P5\n2 1#c\n255\n\x07\xc8", "bad header [b'2', b'1#c', b'255']"),
    (b"P5\n2 1", "bad header [b'2', b'1', b'']"),  # a short header reads as empty words
    (b"# only a comment", "unsupported format b''"),
])
def test_pnm_header_words(raw, message, tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(raw)
    if message is None:
        assert read_pnm(p).tolist() == [[7 / 255, 200 / 255]]
    else:
        with pytest.raises(FrameError, match=re.escape(message)):
            read_pnm(p)


def test_frame_identical_to_baseline_gives_zero(tmp_path):
    for i in range(3):
        write_ppm(tmp_path / f"f{i:03d}.ppm", _base_frame())
    out = list(frames_to_grids(tmp_path, range(0, 2), "mean"))
    assert len(out) == 3
    for _, grid in out:
        assert np.all(grid.data == 0.0)


def test_single_frame_baseline_offset(tmp_path):
    base = _base_frame(8, 8, 100)
    bright = base.copy()
    bright[..., 1] = 228  # +0.5 in [0,1] units on the green channel
    write_ppm(tmp_path / "a0.ppm", base)
    write_ppm(tmp_path / "a1.ppm", bright)
    out = dict(frames_to_grids(tmp_path, range(0, 1), "g"))
    assert np.all(out["a0.ppm"].data == 0.0)
    assert np.allclose(out["a1.ppm"].data, 128 / 255)


@pytest.mark.parametrize("channel", ["mean", "g"])
def test_each_frame_decoded_once(channel, tmp_path, monkeypatch):
    for i in range(4):
        write_ppm(tmp_path / f"f{i}.ppm", _base_frame(8, 8, 60 + 10 * i))
    reads = []

    def counting_read_pnm(path):
        reads.append(Path(path).name)
        return read_pnm(path)

    monkeypatch.setattr(frames, "read_pnm", counting_read_pnm)
    out = dict(frames_to_grids(tmp_path, range(0, 3), channel))
    assert sorted(reads) == ["f0.ppm", "f1.ppm", "f2.ppm", "f3.ppm"]
    assert np.allclose(out["f3.ppm"].data, 20 / 255)  # 90 minus the baseline mean 70


def test_mixed_sizes_rejected(tmp_path):
    write_ppm(tmp_path / "a.ppm", _base_frame(8, 8))
    write_ppm(tmp_path / "b.ppm", _base_frame(8, 9))
    with pytest.raises(FrameError):
        list(frames_to_grids(tmp_path, range(0, 1), "mean"))


def test_empty_baseline_rejected(tmp_path):
    write_ppm(tmp_path / "a.ppm", _base_frame(8, 8))
    with pytest.raises(FrameError):
        list(frames_to_grids(tmp_path, range(5, 5), "mean"))


def test_parse_range():
    assert parse_range("0:150") == range(0, 150)
    assert parse_range("7") == range(7, 8)


def test_moving_square_tracked_within_two_blocks(tmp_path):
    # 10 baseline frames of static background, then a bright 14x14 square
    # marching across; detection must find one patch whose center tracks it.
    rng = np.random.default_rng(0)
    h = w = 64
    background = (80 + rng.integers(0, 3, size=(h, w, 3))).astype(np.uint8)
    n_base = 10
    for i in range(n_base):
        write_ppm(tmp_path / f"f{i:03d}.ppm", background)
    centers = [(18, 16), (26, 26), (34, 36), (42, 46)]
    for j, (cy, cx) in enumerate(centers):
        frame = background.copy()
        frame[cy - 7 : cy + 7, cx - 7 : cx + 7, :] = 220
        write_ppm(tmp_path / f"f{n_base + j:03d}.ppm", frame)

    cfg = SpladeConfig(stage2=Stage1Params(alpha=0.5, kappa=0.01))
    grids = dict(frames_to_grids(tmp_path, range(0, n_base), "mean"))
    block = int((h * w) ** 0.25)  # stride per axis at alpha = 0.5
    for j, (cy, cx) in enumerate(centers):
        det = splade_detect(grids[f"f{n_base + j:03d}.ppm"], cfg)
        assert det.k_hat == 1
        r = det.patches[0]
        est_c = ((r.lo[0] + r.hi[0]) / 2, (r.lo[1] + r.hi[1]) / 2)
        assert abs(est_c[0] - cy) <= 2 * block
        assert abs(est_c[1] - cx) <= 2 * block
    for i in range(n_base):
        det = splade_detect(grids[f"f{i:03d}.ppm"], cfg)
        assert det.k_hat == 0
