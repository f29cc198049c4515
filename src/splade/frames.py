"""Frame ingestion for video-style workflows.

Reads directories of binary portable pixmaps (P5 grayscale, P6 color),
subtracts a baseline mean image computed over a designated frame range, and
yields one centered Grid per frame.  Lexicographic filename order defines
frame order; users transcode video to frames externally.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path

import numpy as np

from .lattice import Grid, LatticeError

CHANNELS = ("r", "g", "b", "mean")
_EXTENSIONS = (".ppm", ".pgm", ".pnm")
_PNM_WORD = re.compile(rb"#[^\n]*|\S+")  # a comment runs to the end of its line


class FrameError(LatticeError):
    """Unsupported format, mixed sizes, or empty baseline."""


def read_pnm(path) -> np.ndarray:
    """Binary PPM/PGM as float array in [0, 1]; shape (h, w) or (h, w, 3)."""
    with open(path, "rb") as f:
        raw = f.read()
    # the header's first four words (magic, width, height, maxval), skipping # comments
    words = list(islice((m for m in _PNM_WORD.finditer(raw) if not m[0].startswith(b"#")), 4))
    magic, *header = [m[0] for m in words] + [b""] * (4 - len(words))
    if magic not in (b"P5", b"P6"):
        raise FrameError(f"{path}: unsupported format {magic!r} (binary P5/P6 only)")
    if not all(t.isdigit() for t in header):
        raise FrameError(f"{path}: bad header {header!r}, expected three numbers")
    width, height, maxval = (int(t) for t in header)
    if not 0 < maxval < 65536:
        raise FrameError(f"{path}: bad maxval {maxval}")
    pos = words[-1].end() + 1  # single whitespace byte before payload
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    if len(raw) - pos < count * dtype.itemsize:
        raise FrameError(f"{path}: truncated pixel payload")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    img = data.astype(np.float64).reshape(
        (height, width, 3) if channels == 3 else (height, width)
    )
    return img / maxval


def _select_channel(img: np.ndarray, channel: str) -> np.ndarray:
    if channel not in CHANNELS:
        raise FrameError(f"unknown channel {channel!r}")
    if img.ndim == 2:
        return img
    if channel == "mean":
        return img.mean(axis=2)
    return img[:, :, "rgb".index(channel)].copy()  # not a view pinning all three channels


def list_frames(directory) -> list[Path]:
    d = Path(directory)
    files = sorted(p for p in d.iterdir() if p.suffix.lower() in _EXTENSIONS)
    if not files:
        raise FrameError(f"no frame files in {directory}")
    return files


def frames_to_grids(directory, baseline_range, channel: str = "mean"):
    """Yield (name, Grid) per frame: selected channel minus the baseline mean.

    ``baseline_range`` indexes the sorted frame list (e.g. ``range(0, 150)``);
    outputs are centered differences in [-1, 1].  Every frame is decoded once.
    """
    files = list_frames(directory)
    baseline_idx = [i for i in baseline_range if 0 <= i < len(files)]
    if not baseline_idx:
        raise FrameError("baseline range selects no frames")

    imgs = [_select_channel(read_pnm(path), channel) for path in files]
    for path, img in zip(files, imgs):
        if img.shape != imgs[0].shape:
            raise FrameError(f"{path}: frame size {img.shape} != {imgs[0].shape}")
    baseline = sum(imgs[i] for i in baseline_idx) / len(baseline_idx)  # summed in index order

    for path, img in zip(files, imgs):
        img -= baseline  # in place: each frame's buffer becomes its Grid's
        yield path.name, Grid.from_array(img)


def parse_range(text: str) -> range:
    """Parse 'a:b' (half-open) or a single index into a range."""
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            return range(int(a), int(b))
        i = int(text)
        return range(i, i + 1)
    except ValueError:
        raise FrameError(f"bad frame range {text!r}: expected an index or a:b") from None
