"""Data-driven baseline and scale calibration for the detector.

The baseline mean and the long-run variance are estimated on a boundary layer
of thickness n_k^beta along every face of the domain, which is assumed free of
anomalies.  The long-run variance is the Bartlett HAC estimator of Newey & West
(1987) over that layer: the product-kernel weighted double sum over cell
pairs, evaluated as a sum of squared moving box sums.  The first-stage
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


def masked_lrv(data: np.ndarray, mask: np.ndarray, bandwidths) -> float:
    """Bartlett long-run variance over the masked cells.

    The kernel-weighted double sum sum_{x, y} w(x - y) c(x) c(y) over the
    masked cells c, centred on their mean, normalized by their count, with the
    product kernel w(lag) = prod_k max(0, 1 - |lag_k| / b_k) of one integer
    bandwidth b_k >= 1 per axis.

    The weight 1 - |lag| / b is the autocorrelation of a b-wide box, divided by
    b, so the double sum is sum_y W(y)^2 / prod_k b_k, where W holds the b-wide
    moving sums of c (zero off the mask): a sum of squares, never negative.
    W is built in a zero buffer holding every window that meets a cell,
    n_k + b_k - 1 long on each axis: per axis, a running sum into a second
    buffer and a lag-b difference back.  The buffers are C-ordered whatever
    the layout of ``data``, so the result does not depend on that layout.
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise CalibrationError("empty estimation region")
    bw = tuple(bandwidths)
    if len(bw) != data.ndim or not all(isinstance(b, (int, np.integer)) and b >= 1 for b in bw):
        raise CalibrationError(f"need {data.ndim} integer bandwidths >= 1, got {bw}")
    sums = np.zeros([n + b - 1 for n, b in zip(data.shape, bw)])
    cells = sums[tuple(slice(n) for n in data.shape)]
    np.copyto(cells, data, where=mask)
    np.subtract(cells, sums.sum() / count, out=cells, where=mask)
    # The running sums go to a second buffer: a lag difference in place would
    # have numpy copy its overlapping input, once per axis.
    prefix = np.empty_like(sums)
    for ax, b in enumerate(bw):
        np.cumsum(sums, axis=ax, out=prefix)
        run, moving = np.moveaxis(prefix, ax, 0), np.moveaxis(sums, ax, 0)
        moving[:b] = run[:b]
        np.subtract(run[b:], run[:-b], out=moving[b:])
    flat = sums.ravel()
    return float(np.vecdot(flat, flat)) / (math.prod(bw) * count)


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
    return -sigma / np.sqrt(block_volume) * _NORMAL.inv_cdf(tail)
