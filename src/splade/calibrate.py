"""Data-driven baseline and scale calibration for the detector.

The baseline mean and the long-run variance are estimated on a boundary layer
of thickness n_k^beta along every face of the domain, which is assumed free of
anomalies.  The long-run variance is the Bartlett HAC estimator of Newey & West
(1987) over that layer: the product-kernel weighted double sum over cell
pairs, evaluated as a sum of squared moving box sums.  Those sums are formed
strip by strip along the first axis, in up to three buffers of about
``_STRIP_CELLS`` cells, each axis's as a few shifted adds of a strip's flat
buffer whose widths double; no buffer the size of the grid is made and no
running sum is taken.  The strips cover only what the mask reaches: rows whose
windows hold no masked cell are skipped, each strip cuts the empty runs of its
last axis to b - 1 columns, and after the first axis a strip sums its own rows
alone.  The sums skipped or cut are exactly zero and every other sum adds the
same cells at the same offsets, so only the grouping of the squares changes
and sigma may move in its last bits.  The cells are centred on the mean the
caller has already taken of them, so no cell is read twice but in the rows a
strip shares with the one before.  The first-stage flag threshold is the exact
closed-form quantile of the maximum absolute normalized Gaussian block
increment.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .lattice import LatticeError

_NORMAL = NormalDist()

BOUNDARY_BETA = 0.7  # the layer's thickness exponent: n_k^beta cells per face
# Cells of a ``masked_lrv`` strip's own rows at the strip's width; a strip also
# rereads up to b_0 - 1 rows before them.  On a 2-core x86 guest, with layer
# masks, 2^16 was the fastest size or within noise of it on 512^2 to 4096^2,
# 96^3, 16^4 and 1-D 262144.  Smaller strips reread their halo rows more often:
# 2^15 made 96^3 1.2x slower, and 2^14 made 96^3 1.8x and 4096^2 1.4x slower.
# Larger ones fall out of cache: 2^17 made 512^2 2.1x and 2048^2 1.2x slower.
_STRIP_CELLS = 2**16


class CalibrationError(LatticeError):
    """Degenerate layer, bandwidths, or threshold domain."""


def default_bandwidths(dims) -> tuple[int, ...]:
    """HAC-style compromise: B_k = ceil(n_k^(1/2d)) grows but stays o(n_k^(1/d))."""
    d = len(dims)
    return tuple(math.ceil(n ** (1.0 / (2 * d))) for n in dims)


def boundary_layer_mask(dims, beta: float) -> np.ndarray:
    """Cells with some 1-based coordinate i_k <= n_k^beta or >= n_k - n_k^beta + 1.

    On each axis the two tests hold on a prefix and a suffix: an integer i is
    <= t exactly when i <= floor(t), and >= u exactly when i >= ceil(u).  So
    the layer is the OR of two slabs per axis, each set by one slice.
    """
    if not 0.0 < beta < 1.0:
        raise CalibrationError(f"beta must be in (0, 1), got {beta}")
    mask = np.zeros(dims, dtype=bool)
    for k, n in enumerate(dims):
        t = n**beta
        low, high = min(n, math.floor(t)), min(n, max(0, n + 1 - math.ceil(n - t + 1.0)))
        lead = (slice(None),) * k
        mask[lead + (slice(0, low),)] = True
        mask[lead + (slice(n - high, n),)] = True
    if not mask.any():
        raise CalibrationError(f"beta={beta} yields an empty boundary layer")
    return mask


def _reach(hit: np.ndarray, b: int) -> tuple[list[int], list[int]]:
    """Runs [start, end) of the indices whose width-``b`` window back meets ``hit``.

    Index i, of an axis len(hit) + b - 1 long, is in a run when one of
    hit[i - b + 1 .. i] is set: each run of set entries and the b - 1 indices
    after it, merged with the next where they meet.  The starts and ends come
    back as two ascending lists.
    """
    edges = np.flatnonzero(hit[1:] != hit[:-1]) + 1
    bounds = np.concatenate((np.zeros(int(hit[0]), int), edges, np.full(int(hit[-1]), hit.size)))
    starts, ends = bounds[0::2], bounds[1::2] + (b - 1)
    apart = starts[1:] > ends[:-1]
    return starts[np.r_[True, apart]].tolist(), ends[np.r_[apart, True]].tolist()


def _moving_sums(p: np.ndarray, q: np.ndarray, r: np.ndarray, step: int, b: int):
    """Width-``b`` moving sums of the flat buffer ``p`` along a flat stride ``step``.

    Entry i of the result is the sum of p[i - t * step] over 0 <= t < b, with
    entries before the buffer's start read as zero.  The window width is built
    from the highest bit of ``b`` down: each further bit doubles it with one
    contiguous add into the spare buffer, and a set bit then widens it by one
    with one add of ``p`` in place.  ``p`` is read, never written; ``q`` and
    ``r`` are scratch of its size, and ``r`` is written only when ``b`` >= 4
    (two doublings).  The three come back reordered as (sums, scratch,
    scratch), ``r`` last while it is unwritten.
    """
    sums, spare, width = p, q, 1
    for bit in bin(b)[3:]:
        k = width * step
        spare[:k] = sums[:k]
        np.add(sums[k:], sums[:-k], out=spare[k:])
        sums, spare, width = spare, (r if sums is p else sums), 2 * width
        if bit == "1":
            k = width * step
            np.add(sums[k:], p[:-k], out=sums[k:])
            width += 1
    return (sums, *(x for x in (p, q, r) if x is not sums))


def _strips(mask: np.ndarray, bw, padded) -> list:
    """The strips that ``masked_lrv`` sums, from the mask alone, for 2 or more axes.

    Each is (first row, halo rows, end row, column runs, width): padded rows
    [first row + halo rows, end row) are its own, and the runs [c, e) of the
    padded last axis, ``width`` entries in all, are the columns it keeps.
    """
    halo, inner, last = bw[0] - 1, math.prod(padded[1:-1]), mask.shape[-1]
    # which last-axis columns hold a masked cell, per index of axis 0; a mask
    # whose first index on every middle axis is full has them all, in every row
    if mask[(slice(None), *[0] * (mask.ndim - 2), slice(None))].all():
        occ, starts, ends = None, [0], [padded[0]]
    else:
        occ = mask.any(axis=tuple(range(1, mask.ndim - 1))) if mask.ndim > 2 else mask
        starts, ends = _reach(occ.any(axis=1) if last > 1 else occ[:, 0], bw[0])
    plan, k, s = [], 0, starts[0]
    while k < len(starts):
        s = max(s, starts[k])
        h = min(halo, s - starts[k])  # rows before a run's start are empty
        cols, width = [(0, padded[-1])], padded[-1]
        own = max(1, _STRIP_CELLS // (inner * width))
        seen = None if occ is None else occ[s - h : s + own].any(axis=0)
        if seen is not None and not seen.all():
            cols = list(zip(*_reach(seen, bw[-1])))
            width = sum(e - c for c, e in cols)
            more = max(1, _STRIP_CELLS // (inner * width))
            # a later row keeps the width while its masked columns' windows stay in the runs
            spans = np.zeros(last, dtype=bool)
            for c, e in cols:
                spans[c : e - bw[-1] + 1] = True
            wider = occ[s + own : s + more] > spans
            own += int(wider.any(axis=1).argmax()) if wider.any() else more - own
        end = min(s + own, ends[k])
        plan.append((s - h, h, end, cols, width))
        s = end
        if end == ends[k]:
            k += 1
    return plan


def masked_lrv(data: np.ndarray, mask: np.ndarray, bandwidths, mean: float) -> float:
    """Bartlett long-run variance over the masked cells, centred on ``mean``.

    The kernel-weighted double sum sum_{x, y} w(x - y) c(x) c(y) over the
    masked cells c, centred on the caller's ``mean`` (the masked cells' own
    mean, which the caller has already gathered), normalized by their count,
    with the product kernel w(lag) = prod_k max(0, 1 - |lag_k| / b_k) of one
    integer bandwidth b_k >= 1 per axis.  ``mask`` is a bool array of the
    shape of ``data``.

    The weight 1 - |lag| / b is the autocorrelation of a b-wide box, divided by
    b, so the double sum is sum_y W(y)^2 / prod_k b_k, where W holds the b-wide
    moving sums of c (zero off the mask): a sum of squares, never negative.
    W lives on the padded grid, n_k + b_k - 1 long on each axis, which holds
    every window that meets a cell; its cells sit at the low corner and the
    padding is zero.

    W is formed in strips along axis 0, only where a window meets a masked
    cell (``_strips``).  A padded row is summed when one of the b_0 rows up to
    it holds a masked cell; the rest are skipped.  A strip is one C-ordered
    flat buffer of its own rows and the b_0 - 1 rows before them (fewer at the
    start of a run of summed rows), refilled with centred masked cells.  Along
    the last axis it keeps only the columns whose window meets a column that
    holds a masked cell in its rows: each such column and the b - 1 after it,
    so an empty run longer than b - 1 is cut to b - 1.  Its own rows fill
    ``_STRIP_CELLS`` cells at that width, and more while the next rows'
    masked columns keep their windows in its columns.  A 1-D grid is summed
    as a column of one-cell rows.  On every axis the moving sums are adds of
    the buffer to itself shifted by the axis's flat step, in widths that
    double (``_moving_sums``); after axis 0 they run on the strip's own rows
    alone, and the squares of those rows are summed.

    A flat shift is exact.  A window that runs off the start of axis k wraps
    into the previous index of axis k - 1, where it reads the last b_k - 1
    entries of axis k.  Those are padding, or on the last axis the kept empty
    columns after the last masked one, and they are still zero when axis k is
    summed: the axes are summed in order, and a sum along an earlier axis only
    adds entries that share their index on axis k.  A window that runs off
    the buffer's start reads nothing, as the rows it misses hold: at a run's
    start they are empty, and after axis 0 no sum needs another row.  A
    skipped row's sums are zero, since its window holds no masked cell.  A
    dropped column is empty in every row of the strip, and no column within
    b - 1 before a kept one that meets a masked cell is dropped, so every sum
    that meets a masked cell reads the same values at the same offsets and
    keeps its bits; the sums dropped are exactly zero.  Only the grouping of
    the squares changes, as zeros drop out and strips move, so sigma may
    move in its last bits.

    The strips are laid out from the mask's values alone and every cell is
    centred in a C-ordered buffer, so given the same ``mean`` the result does
    not depend on the layout of ``data`` or ``mask``; ``data[mask].mean()``
    gathers the cells in C order whatever their layout.
    """
    if mask.shape != data.shape or mask.dtype != np.bool_:
        raise CalibrationError(f"mask must be a bool array of the data's shape {data.shape}, "
                               f"got {mask.dtype} {mask.shape}")
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise CalibrationError("empty estimation region")
    bw = tuple(bandwidths)
    if len(bw) != data.ndim or not all(isinstance(b, (int, np.integer)) and b >= 1 for b in bw):
        raise CalibrationError(f"need {data.ndim} integer bandwidths >= 1, got {bw}")
    if data.ndim == 1:
        data, mask, bw = data[:, None], mask[:, None], (*bw, 1)
    padded = [n + b - 1 for n, b in zip(data.shape, bw)]
    mid = tuple(slice(n) for n in data.shape[1:-1])
    plan = _strips(mask, bw, padded)
    cells = max((end - lo) * math.prod(padded[1:-1]) * width for lo, _, end, _, width in plan)
    # ``_moving_sums`` writes the third buffer only for a width of 4 or more
    bufs = [np.empty(cells), np.empty(cells), np.empty(cells if max(bw) >= 4 else 0)]
    squares = 0.0
    for lo, h, end, cols, width in plan:
        shape = [end - lo, *padded[1:-1], width]
        steps = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
        p, q, r = (x[: shape[0] * steps[0]] for x in bufs)
        # every entry reads mean - mean = 0 but the masked cells, which read cell - mean
        p.fill(mean)
        strip, rows = p.reshape(shape), slice(lo, min(end, data.shape[0]))
        at = 0
        for c, e in cols:
            src = (rows, *mid, slice(c, min(e, data.shape[-1])))
            dst = (slice(rows.stop - lo), *mid, slice(at, at + src[-1].stop - c))
            np.copyto(strip[dst], data[src], where=mask[src])
            at += e - c
        np.subtract(p, mean, out=p)
        p, q, r = _moving_sums(p, q, r, steps[0], bw[0])
        p, q, r = (x[h * steps[0] :] for x in (p, q, r))
        for b, step in zip(bw[1:], steps[1:]):
            p, q, r = _moving_sums(p, q, r, step, b)
        squares += float(np.vecdot(p, p))
    return squares / (math.prod(bw) * count)


def median(values) -> float:
    """``np.median`` of finite ``values``, bit for bit, from one partition.

    ``np.median`` partitions at n//2 - 1 and n//2 (one of them for odd n) and
    at -1 for its NaN check; here the partition is at n//2 alone, and for even
    n the other middle value is the largest of the part below it.  Both then
    take ``np.mean`` of the middle values.  On 200k values this takes ~0.5 ms
    where ``np.median`` takes ~4.4 ms (2-core x86 machine).
    """
    x = np.ravel(values)
    k = x.size // 2
    part = np.partition(x, k)
    middle = part[k : k + 1] if x.size % 2 else np.array([part[:k].max(), part[k]])
    return float(np.mean(middle))


def threshold_q(sigma: float, block_volume, num_blocks: int, kappa_level: float):
    """(1 - kappa)-quantile of the max absolute normalized block increment.

    Increments of a Brownian sheet over disjoint blocks are independent
    N(0, volume), so the normalized statistic per block is sigma*|Z|/sqrt(v)
    and the max quantile has the exact closed form
    sigma / sqrt(v) * PhiInv((1 + (1 - kappa)^(1/M)) / 2).  It is evaluated
    as -PhiInv(tail) with tail = -expm1(log1p(-kappa) / M) / 2, the same value
    without the cancellation that forming 1 - tail loses for large M.  An
    array of volumes gives each element the scalar call's value.
    """
    if sigma <= 0.0:
        raise CalibrationError(f"sigma must be > 0, got {sigma}")
    if np.min(block_volume) < 1.0:
        raise CalibrationError(f"block volume must be >= 1, got {np.min(block_volume)}")
    if num_blocks < 1:
        raise CalibrationError(f"num_blocks must be >= 1, got {num_blocks}")
    if not 0.0 < kappa_level < 1.0:
        raise CalibrationError(f"kappa_level must be in (0, 1), got {kappa_level}")
    tail = -math.expm1(math.log1p(-kappa_level) / num_blocks) / 2.0
    if tail == 0.0:
        raise CalibrationError(f"kappa_level {kappa_level} is too small for {num_blocks} blocks: "
                               "the per-block tail probability underflows to 0")
    return -sigma / np.sqrt(block_volume) * _NORMAL.inv_cdf(tail)
