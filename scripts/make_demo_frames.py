#!/usr/bin/env python3
"""Synthesize a surveillance-style frame sequence and run per-frame detection.

Two bright subjects enter a static scene, walk toward each other, merge into
one blob, then separate and leave.  The script writes binary PPM frames, runs
the frames pipeline (baseline subtraction over the empty opening frames, then
detection per frame), and prints the number of boxes found per frame.  With the
defaults they go 0 (12 frames) -> 2 (5) -> 1 (7) -> 2 (3) -> 0 (2).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splade.cli import main as splade_main  # noqa: E402


def write_ppm(path, arr):
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(arr.astype(np.uint8).tobytes())


def scene(h, w, rng):
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[...] = rng.integers(60, 90, size=(h, w, 1))
    img[: h // 3, :, 2] += 30  # bluish upper band, just texture
    return img


def stamp(img, cy, cx, half, level):
    out = img.copy()
    y0, y1 = max(0, cy - half), min(img.shape[0], cy + half)
    x0, x1 = max(0, cx - half), min(img.shape[1], cx + half)
    out[y0:y1, x0:x1, :] = level
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default="demo_frames")
    ap.add_argument("--size", type=int, default=96)
    ap.add_argument("--baseline-frames", type=int, default=12)
    ap.add_argument("--out", default="demo_boxes.jsonl")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(0)
    n = args.size
    base = scene(n, n, rng)
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)

    idx = 0
    for _ in range(args.baseline_frames):
        write_ppm(outdir / f"frame{idx:04d}.ppm", base)
        idx += 1

    half = n // 12
    left = np.linspace(0.15 * n, 0.46 * n, 8).astype(int)
    right = np.linspace(0.85 * n, 0.54 * n, 8).astype(int)
    mid = n // 2
    for step in range(8):  # approach as two subjects
        frame = stamp(base, mid, int(left[step]), half, 235)
        frame = stamp(frame, mid, int(right[step]), half, 225)
        write_ppm(outdir / f"frame{idx:04d}.ppm", frame)
        idx += 1
    for _ in range(3):  # walk together: one merged blob
        frame = stamp(base, mid, mid, int(half * 1.6), 230)
        write_ppm(outdir / f"frame{idx:04d}.ppm", frame)
        idx += 1
    for step in range(4):  # separate again, retracing the approach
        frame = stamp(base, mid, int(left[6 - 2 * step]), half, 235)
        frame = stamp(frame, mid, int(right[6 - 2 * step]), half, 225)
        write_ppm(outdir / f"frame{idx:04d}.ppm", frame)
        idx += 1
    for _ in range(2):  # empty closing frames
        write_ppm(outdir / f"frame{idx:04d}.ppm", base)
        idx += 1

    rc = splade_main(
        [
            "frames",
            "--dir",
            str(outdir),
            "--baseline",
            f"0:{args.baseline_frames}",
            "--channel",
            "mean",
            "--out",
            args.out,
        ]
    )
    if rc != 0:
        return rc

    import json

    print("frame  boxes")
    for line in Path(args.out).read_text().splitlines():
        doc = json.loads(line)
        boxes = " ".join(
            f"[{p['lo'][0]}:{p['hi'][0]},{p['lo'][1]}:{p['hi'][1]}]"
            for p in doc["patches"]
        )
        print(f"{doc['frame']}  k={doc['k_hat']}  {boxes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
