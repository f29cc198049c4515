"""Data-driven baseline and scale calibration for the detector.

The baseline mean and the long-run variance are estimated on a boundary layer
of thickness n_k^beta along every face of the domain, which is assumed free of
anomalies.  The long-run variance is the Bartlett HAC estimator of Newey & West
(1987) over that layer: the product-kernel weighted double sum over cell
pairs, evaluated as a sum of squared moving box sums.  Those sums are formed
strip by strip along the first axis, in three buffers of about
``_STRIP_CELLS`` cells, each axis's as a few shifted adds of a strip's flat
buffer whose widths double; no buffer the size of the grid is made and no
running sum is taken.  The cells are centred on the mean the caller has
already taken of them, so a grid is walked once per call.  The first-stage
flag threshold is the exact closed-form quantile of the maximum absolute
normalized Gaussian block increment.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .lattice import LatticeError

_NORMAL = NormalDist()

BOUNDARY_BETA = 0.7  # the layer's thickness exponent: n_k^beta cells per face
# Cells per strip buffer of ``masked_lrv``, whose strips also reread the b_0 - 1
# rows before them.  On a 2-core x86 guest, with layer masks, 2^16 was the fastest
# size or within noise of it on 512^2 to 4096^2, 96^3, 16^4 and 1-D 262144.
# Smaller strips hold few rows past that halo: 2^15 made 4096^2 3.4x slower and
# 2^14 made 2048^2 4.2x slower (one new row per strip).  Larger ones fall out of
# cache: 2^20 made 1024^2 2.2x and 2048^2 2.0x slower.
_STRIP_CELLS = 2**16


class CalibrationError(LatticeError):
    """Degenerate layer, bandwidths, or threshold domain."""


def default_bandwidths(dims) -> tuple[int, ...]:
    """HAC-style compromise: B_k = ceil(n_k^(1/2d)) grows but stays o(n_k^(1/d))."""
    d = len(dims)
    return tuple(math.ceil(n ** (1.0 / (2 * d))) for n in dims)


def boundary_layer_mask(dims, beta: float) -> np.ndarray:
    """Cells with some 1-based coordinate i_k <= n_k^beta or >= n_k - n_k^beta + 1."""
    if not 0.0 < beta < 1.0:
        raise CalibrationError(f"beta must be in (0, 1), got {beta}")
    mask = np.zeros(dims, dtype=bool)
    for k, n in enumerate(dims):
        t = n**beta
        coord = np.arange(1, n + 1, dtype=np.float64)
        line = (coord <= t) | (coord >= n - t + 1.0)
        shape = [1] * len(dims)
        shape[k] = n
        mask |= line.reshape(shape)
    if not mask.any():
        raise CalibrationError(f"beta={beta} yields an empty boundary layer")
    return mask


def _moving_sums(p: np.ndarray, q: np.ndarray, r: np.ndarray, step: int, b: int):
    """Width-``b`` moving sums of the flat buffer ``p`` along a flat stride ``step``.

    Entry i of the result is the sum of p[i - t * step] over 0 <= t < b, with
    entries before the buffer's start read as zero.  The window width is built
    from the highest bit of ``b`` down: each further bit doubles it with one
    contiguous add into the spare buffer, and a set bit then widens it by one
    with one add of ``p`` in place.  ``p`` is read, never written; ``q`` and
    ``r`` are scratch of its size.  The three come back reordered as (sums,
    scratch, scratch).
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


def masked_lrv(data: np.ndarray, mask: np.ndarray, bandwidths, mean: float) -> float:
    """Bartlett long-run variance over the masked cells, centred on ``mean``.

    The kernel-weighted double sum sum_{x, y} w(x - y) c(x) c(y) over the
    masked cells c, centred on the caller's ``mean`` (the masked cells' own
    mean, which the caller has already gathered), normalized by their count,
    with the product kernel w(lag) = prod_k max(0, 1 - |lag_k| / b_k) of one
    integer bandwidth b_k >= 1 per axis.

    The weight 1 - |lag| / b is the autocorrelation of a b-wide box, divided by
    b, so the double sum is sum_y W(y)^2 / prod_k b_k, where W holds the b-wide
    moving sums of c (zero off the mask): a sum of squares, never negative.
    W lives on the padded grid, n_k + b_k - 1 long on each axis, which holds
    every window that meets a cell; its cells sit at the low corner and the
    padding is zero.

    The padded grid is walked once, in strips along axis 0, so no buffer the
    size of the grid is made.  Each strip is one C-ordered flat buffer of about
    ``_STRIP_CELLS`` cells holding the strip's rows and the b_0 - 1 rows before
    them, refilled with centred masked cells.  On every axis the moving sums
    are adds of that buffer to itself shifted by the axis's flat step, in
    widths that double (``_moving_sums``), and the squares of the strip's own
    rows are summed.

    A flat shift is exact.  A window that runs off the start of axis k wraps
    into the previous index of axis k - 1, where it reads the last b_k - 1
    entries of axis k.  Those are padding, and they are still zero when axis k
    is summed: the axes are summed in order, and a sum along an earlier axis
    only adds entries that share their index on axis k.  A window that runs
    off the strip's start reads nothing; only the b_0 - 1 leading rows, whose
    sums are dropped, have such windows on axis 0.  Every cell is centred in
    the C-ordered strip buffer, so given the same ``mean`` the result does not
    depend on the layout of ``data``; ``data[mask].mean()`` gathers the cells
    in C order whatever their layout.
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise CalibrationError("empty estimation region")
    bw = tuple(bandwidths)
    if len(bw) != data.ndim or not all(isinstance(b, (int, np.integer)) and b >= 1 for b in bw):
        raise CalibrationError(f"need {data.ndim} integer bandwidths >= 1, got {bw}")
    padded = [n + b - 1 for n, b in zip(data.shape, bw)]
    steps = [math.prod(padded[k + 1:]) for k in range(data.ndim)]
    halo = bw[0] - 1
    rows = min(max(bw[0], _STRIP_CELLS // steps[0]), halo + padded[0])
    bufs = [np.empty(rows * steps[0]) for _ in range(3)]
    strip = bufs[0].reshape(rows, *padded[1:])
    cells = (slice(None),) + tuple(slice(n) for n in data.shape[1:])
    squares = 0.0
    for lo in range(-halo, padded[0] - halo, rows - halo):
        hi = min(lo + rows, padded[0])
        strip[: hi - lo].fill(0.0)
        a, z = max(lo, 0), min(hi, data.shape[0])
        if a < z:
            np.subtract(data[a:z], mean, out=strip[a - lo : z - lo][cells], where=mask[a:z])
        size = (hi - lo) * steps[0]
        p, q, r = bufs[0][:size], bufs[1][:size], bufs[2][:size]
        for b, step in zip(bw, steps):
            p, q, r = _moving_sums(p, q, r, step, b)
        own = p[halo * steps[0] :]
        squares += float(np.vecdot(own, own))
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
