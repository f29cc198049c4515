"""Evaluation metrics: ARI over cell labelings, Jaccard distance between two
rectangles' cell sets, and the normalized two-sided Hausdorff distance between
patch collections (background sets included).

When both collections consist of disjoint rectangles plus the background, all
pairwise Jaccard distances reduce to rectangle-intersection arithmetic, so the
Hausdorff distance is computed exactly without materializing cell masks.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import astuple, dataclass
from typing import get_type_hints

import numpy as np

from .lattice import LatticeError, Rect


class MetricError(LatticeError):
    """Mismatched shapes or malformed labelings."""


def _check_in_grid(dims, rects) -> None:
    """Raise MetricError naming the first of ``rects`` that is not a box of the grid ``dims``."""
    for r in rects:
        if r.ndim != len(dims):
            raise MetricError(f"rectangle {r} has rank {r.ndim}, the grid {tuple(dims)} rank {len(dims)}")
        if not r.within(dims):
            raise MetricError(f"rectangle {r} out of bounds for {dims}")


def labels_from_patches(dims, rects) -> np.ndarray:
    """Cell labeling: 0 = background, j >= 1 = membership in the j-th rectangle."""
    _check_in_grid(dims, rects)
    out = np.zeros(dims, dtype=np.int32)
    for j, r in enumerate(rects, start=1):
        out[r.slices()] = j
    return out


def ari(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand Index between two cell labelings of the same grid."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise MetricError(f"label shapes differ: {a.shape} vs {b.shape}")
    _, ai = np.unique(a.ravel(), return_inverse=True)
    _, bi = np.unique(b.ravel(), return_inverse=True)
    na = int(ai.max()) + 1
    nb = int(bi.max()) + 1
    return _table_ari(np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb))


def _table_ari(cont: np.ndarray) -> float:
    """ARI off a contingency table: the cell count of every pair of clusters.

    Pairs are counted in Python ints, so a grid of any cell count scores exactly.
    """
    cont = cont.tolist()

    def pairs(counts):
        return sum(math.comb(c, 2) for c in counts)

    n = sum(map(sum, cont))
    sum_cells = pairs(c for row in cont for c in row)
    sum_rows = pairs(map(sum, cont))
    sum_cols = pairs(map(sum, zip(*cont)))
    total = math.comb(n, 2)
    expected = sum_rows * sum_cols / max(total, 1)  # one cell: no pairs, denom 0 below
    max_index = 0.5 * (sum_rows + sum_cols)
    denom = max_index - expected
    if denom == 0.0:
        return 1.0  # both labelings a single cluster
    return (sum_cells - expected) / denom


def jaccard_distance(a: Rect, b: Rect) -> float:
    """|A symdiff B| / |A union B| of two rectangles' cells, with the empty-empty convention of 0."""
    va, vb = a.volume(), b.volume()
    vi = a.intersect(b).volume()
    union = va + vb - vi
    if union == 0:
        return 0.0
    return (va + vb - 2 * vi) / union


def hausdorff(truth, est, dims) -> float:
    """Normalized two-sided Hausdorff distance between patch collections.

    Each collection is its non-empty rectangles plus the background set; the
    distance is the larger of the two one-sided max-min Jaccard distances.
    ``truth`` and ``est`` are rectangle sequences inside the grid ``dims``
    (one outside it, or of another rank, is a ``MetricError``); rectangles
    within a collection must be pairwise disjoint.
    """
    return _table_hausdorff(_intersections(truth, est, dims))


def _intersections(truth, est, dims) -> np.ndarray:
    """Cells of each truth member in each estimate member: the ARI's contingency table."""
    _check_in_grid(dims, truth)
    _check_in_grid(dims, est)
    # Members: each side's rectangles, then its background.
    whole = Rect((0,) * len(dims), tuple(dims))
    tr = [r for r in truth if not r.is_empty] + [whole]
    er = [r for r in est if not r.is_empty] + [whole]
    # The last row and column start as the whole grid; subtracting the
    # rectangles leaves the background.
    # Python ints: a grid of 2^63 cells or more would wrap int64
    cap = np.array([[r.intersect(s).volume() for s in er] for r in tr], dtype=object)
    cap[-1] -= cap[:-1].sum(axis=0)
    cap[:, -1] -= cap[:, :-1].sum(axis=1)
    return cap[cap.sum(axis=1) != 0][:, cap.sum(axis=0) != 0]  # drop an empty background


def _table_hausdorff(cap: np.ndarray) -> float:
    if 0 in cap.shape:  # a side without members: equal only when both are
        return 0.0 if cap.shape == (0, 0) else 1.0
    union = cap.sum(axis=1, keepdims=True) + cap.sum(axis=0) - cap
    dist = (union - cap) / union  # no member is empty, so no union is; int / int is rounded once
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


@dataclass(frozen=True)
class BenchRecord:
    """One replicate's outcome, one bench CSV row; wall time measured around the detector only."""

    scenario: str
    seed: int
    k_hat: int
    k_true: int
    ari: float
    hausdorff: float
    time_s: float


_BENCH_FIELDS = get_type_hints(BenchRecord)  # each CSV column's name and the type that reads it, in order
BENCH_CSV_HEADER = tuple(_BENCH_FIELDS)


def score(scenario, seed, dims, truth_rects, est_rects, time_s) -> BenchRecord:
    """One replicate's record: the rectangles ``est_rects`` scored against ``truth_rects``."""
    cap = _intersections(truth_rects, est_rects, dims)
    return BenchRecord(
        scenario=scenario,
        seed=seed,
        k_hat=len(est_rects),
        k_true=len(truth_rects),
        ari=_table_ari(cap),
        hausdorff=_table_hausdorff(cap),
        time_s=time_s,
    )


BenchSummary = namedtuple("BenchSummary", "k_hat_mean k_exact_frac ari_mean hausdorff_mean time_s_median")


def summarize(records) -> BenchSummary:
    """One bench cell's replicates: mean k_hat, P(k_hat = K), mean ARI and Hausdorff, median time."""
    return BenchSummary(
        np.mean([r.k_hat for r in records]),
        np.mean([r.k_hat == r.k_true for r in records]),
        np.mean([r.ari for r in records]),
        np.mean([r.hausdorff for r in records]),
        np.median([r.time_s for r in records]),
    )


def write_bench_csv(path, records) -> None:
    """One row per record: the header, then each field's ``str()`` (a Python float's ``repr``)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(BENCH_CSV_HEADER)
        w.writerows(map(astuple, records))


def read_bench_csv(path) -> list[BenchRecord]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if tuple(next(reader, ())) != BENCH_CSV_HEADER:
            raise MetricError(f"bad bench CSV header in {path}")
        types = _BENCH_FIELDS.values()
        try:
            return [BenchRecord(*(t(x) for t, x in zip(types, row, strict=True))) for row in reader]
        except ValueError as e:  # a value its type cannot read, or a row of the wrong length
            raise MetricError(f"bad bench CSV row at line {reader.line_num} of {path}: {e}") from None
