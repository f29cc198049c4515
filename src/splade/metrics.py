"""Evaluation metrics: ARI over cell labelings, Jaccard distance between cell
sets, and the normalized two-sided Hausdorff distance between patch
collections (background sets included).

When both collections consist of disjoint rectangles plus the background, all
pairwise Jaccard distances reduce to rectangle-intersection arithmetic, so the
Hausdorff distance is computed exactly without materializing cell masks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeError, Rect


class MetricError(LatticeError):
    """Mismatched shapes or malformed labelings."""


def labels_from_patches(dims, rects) -> np.ndarray:
    """Cell labeling: 0 = background, j >= 1 = membership in the j-th rectangle."""
    out = np.zeros(dims, dtype=np.int32)
    for j, r in enumerate(rects, start=1):
        if not r.within(dims):
            raise MetricError(f"rectangle {r} out of bounds for {dims}")
        out[r.slices()] = j
    return out


def ari(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand Index between two cell labelings of the same grid."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise MetricError(f"label shapes differ: {a.shape} vs {b.shape}")
    af = a.ravel()
    bf = b.ravel()
    n = af.size
    _, ai = np.unique(af, return_inverse=True)
    _, bi = np.unique(bf, return_inverse=True)
    na = int(ai.max()) + 1
    nb = int(bi.max()) + 1
    cont = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    def comb2(x):
        x = x.astype(np.int64)
        return x * (x - 1) // 2

    sum_cells = int(comb2(cont).sum())
    sum_rows = int(comb2(cont.sum(axis=1)).sum())
    sum_cols = int(comb2(cont.sum(axis=0)).sum())
    total = n * (n - 1) // 2
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    denom = max_index - expected
    if denom == 0.0:
        return 1.0  # both labelings a single cluster
    return (sum_cells - expected) / denom


def jaccard_distance(a, b) -> float:
    """|A symdiff B| / |A union B| with the empty-empty convention of 0."""
    if isinstance(a, Rect) and isinstance(b, Rect):
        va, vb = a.volume(), b.volume()
        vi = a.intersect(b).volume()
    else:
        am = np.asarray(a, dtype=bool)
        bm = np.asarray(b, dtype=bool)
        if am.shape != bm.shape:
            raise MetricError("mask shapes differ")
        va, vb = int(am.sum()), int(bm.sum())
        vi = int((am & bm).sum())
    union = va + vb - vi
    if union == 0:
        return 0.0
    return (va + vb - 2 * vi) / union


def _as_rects(obj) -> tuple[Rect, ...]:
    if hasattr(obj, "rects"):  # PatchSet
        return tuple(obj.rects)
    if hasattr(obj, "patches"):  # Detection (possibly empty)
        rects = tuple(obj.patches)
        if all(isinstance(r, Rect) for r in rects):
            return rects
    return tuple(obj)


def hausdorff(truth, est, dims) -> float:
    """Normalized two-sided Hausdorff distance between patch collections.

    Each collection is its non-empty rectangles plus the background set; the
    distance is the larger of the two one-sided max-min Jaccard distances.
    ``truth`` and ``est`` may be PatchSet/Detection objects or plain rectangle
    sequences; rectangles within a collection must be pairwise disjoint.
    """
    whole = Rect((0,) * len(dims), tuple(dims))
    tr = [r for r in _as_rects(truth) if not r.is_empty] + [whole]
    er = [r for r in _as_rects(est) if not r.is_empty] + [whole]
    # Intersections of members: each side's rectangles, then its background.
    # The last row and column start as the whole grid; subtracting the
    # rectangles leaves the background.
    cap = np.array([[r.intersect(s).volume() for s in er] for r in tr], dtype=np.int64)
    cap[-1] -= cap[:-1].sum(axis=0)
    cap[:, -1] -= cap[:, :-1].sum(axis=1)
    cap = cap[cap.sum(axis=1) != 0][:, cap.sum(axis=0) != 0]  # drop an empty background
    if 0 in cap.shape:  # a side without members: equal only when both are
        return 0.0 if cap.shape == (0, 0) else 1.0
    union = cap.sum(axis=1, keepdims=True) + cap.sum(axis=0) - cap
    dist = np.divide(union - cap, union, out=np.zeros(union.shape), where=union != 0)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


BENCH_CSV_HEADER = ("scenario", "seed", "k_hat", "k_true", "ari", "hausdorff", "time_s")


@dataclass(frozen=True)
class BenchRecord:
    """One replicate's outcome; wall time measured around the detector only."""

    scenario: str
    seed: int
    k_hat: int
    k_true: int
    ari: float
    hausdorff: float
    time_s: float

    def row(self) -> tuple:
        return (
            self.scenario,
            self.seed,
            self.k_hat,
            self.k_true,
            repr(self.ari),
            repr(self.hausdorff),
            repr(self.time_s),
        )


def write_bench_csv(path, records) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(BENCH_CSV_HEADER)
        for r in records:
            w.writerow(r.row())


def read_bench_csv(path) -> list[BenchRecord]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != BENCH_CSV_HEADER:
        raise MetricError(f"bad bench CSV header in {path}")
    return [
        BenchRecord(
            scenario=r[0],
            seed=int(r[1]),
            k_hat=int(r[2]),
            k_true=int(r[3]),
            ari=float(r[4]),
            hausdorff=float(r[5]),
            time_s=float(r[6]),
        )
        for r in rows[1:]
    ]
