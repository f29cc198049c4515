"""Single-patch estimators.

``naive_ls`` is the least-squares estimator over every rectangle in the grid
(equivalently the |contrast| argmax).  ``algorithm1`` is the two-stage
accelerated version: a coarse pass on a strided ``subsample`` localizes the
corners, then a search restricted to windows around those corners refines them
on the full grid.  Both searches are exact: the branch-and-bound search in
``_scan`` returns the same rectangle as scoring every candidate would.  Each
search is handed the cells it searches and tabulates its own candidates' hull,
so the detector calls ``algorithm1`` on each envelope's cells, as a view."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scan import best_rectangle
from .lattice import BlockPartition, Grid, LatticeError, Rect
from .lattice import build_prefix_sum  # noqa: F401 -- unused here; perfbench/tracer.py looks the name up


@dataclass(frozen=True)
class SearchBounds:
    """Volume constraints: admissible rectangles satisfy n*lambda1 < |I| < n*lambda2."""

    lambda1: float = 0.0
    lambda2: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lambda1 < 1.0:
            raise LatticeError(f"lambda1 must be in [0, 1), got {self.lambda1}")
        if not self.lambda1 < self.lambda2 <= 1.0:
            raise LatticeError(
                f"lambda2 must be in (lambda1, 1], got {self.lambda2}"
            )


@dataclass(frozen=True)
class Stage1Params:
    """Tuning for the two-stage search.

    ``alpha`` sets the subsampling stride (floor(n_k^alpha) per axis), ``kappa``
    the window growth rate, and ``window_const`` the window-width constant.
    Consistency of the two-stage estimator needs alpha + kappa < 1.
    """

    alpha: float = 0.5
    kappa: float = 0.01
    window_const: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise LatticeError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.kappa >= 0.0:  # NaN too
            raise LatticeError(f"kappa must be >= 0, got {self.kappa}")
        if self.alpha + self.kappa >= 1.0:
            raise LatticeError("alpha + kappa must be < 1")
        if not 0.0 < self.window_const < math.inf:
            raise LatticeError(f"window_const must be finite and > 0, got {self.window_const}")


def naive_ls(grid: Grid, bounds: SearchBounds) -> Rect:
    """Exact |contrast| argmax over all admissible rectangles.

    Branch and bound skips candidates that provably cannot win; the worst
    case, such as constant data, is O(prod(n_k^2)) candidate evaluations,
    each O(2^d) via a prefix table.  Ties break to the smallest
    volume, then lexicographic corners.
    """
    lo_axes = [np.arange(0, n, dtype=np.int64) for n in grid.dims]
    hi_axes = [np.arange(1, n + 1, dtype=np.int64) for n in grid.dims]
    n = grid.size
    rect, _ = best_rectangle(grid.data, lo_axes, hi_axes, n * bounds.lambda1, n * bounds.lambda2)
    return rect


class SubsampleError(LatticeError):
    """Subsampling leaves too few points per axis for a first-stage search."""


def subsample(grid: Grid, alpha: float) -> tuple[Grid, tuple[int, ...]]:
    """Strided point sample of ``grid``.

    Keeps single observations (not block means) at the lower corner of every
    block of ``BlockPartition.build(dims, alpha)``, so ceil(n_k / L_k) points.
    """
    part = BlockPartition.build(grid.dims, alpha)
    if any(m < 4 for m in part.counts):
        raise SubsampleError(
            f"alpha={alpha} leaves counts {part.counts}; need >= 4 points per axis"
        )
    sampled = grid.data[tuple(slice(None, None, l) for l in part.strides)]
    return Grid.from_array(sampled), part.strides


def _stage1_bounds(m: int) -> SearchBounds:
    lam = min(4.0 / m, 0.49)
    return SearchBounds(lam, 1.0 - lam)


def window_half_width(stride: int, axis_len: int, grid_size: int, d: int, kappa: float, const: float) -> int:
    """Half-width of the refinement window around a coarse corner estimate."""
    hw = math.ceil(const * stride * axis_len**kappa * math.log(grid_size) ** (1.0 / d))
    return min(max(int(hw), 1), axis_len)


def algorithm1(grid: Grid, params: Stage1Params, bounds: SearchBounds | None = None) -> Rect:
    """Two-stage single-patch localization.

    Stage 1 runs ``naive_ls`` on the subsampled grid (with conservative default
    volume bounds that exclude only near-degenerate candidates).  Stage 2
    returns the argmax of the full-grid contrast over every (lo, hi) pair whose
    corners fall in windows around the stage-1 corners, clipped to the domain;
    the branch-and-bound search finds it without scoring most of the pairs.
    ``bounds``, when given, constrains stage-2 volumes relative to the full
    grid size; windows wide enough to cover the whole grid therefore make the
    output identical to ``naive_ls(grid, bounds)``.
    """
    sub, strides = subsample(grid, params.alpha)
    coarse = naive_ls(sub, _stage1_bounds(sub.size))

    n = grid.size
    lo_axes = []
    hi_axes = []
    for k, (nk, lk) in enumerate(zip(grid.dims, strides)):
        hw = window_half_width(lk, nk, n, grid.ndim, params.kappa, params.window_const)
        c_lo = lk * coarse.lo[k]
        c_hi = lk * coarse.hi[k]
        lo_axes.append(np.arange(max(0, c_lo - hw), min(nk - 1, c_lo + hw) + 1))
        hi_axes.append(np.arange(max(1, c_hi - hw), min(nk, c_hi + hw) + 1))

    bounds = bounds or SearchBounds()
    rect, _ = best_rectangle(grid.data, lo_axes, hi_axes, n * bounds.lambda1, n * bounds.lambda2)
    return rect
