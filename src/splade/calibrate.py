"""Data-driven baseline and scale calibration for the detector.

The baseline mean and the long-run variance are estimated on a boundary layer
of thickness n_k^beta along every face of the domain, which is assumed free of
anomalies.  The long-run variance uses a product-kernel HAC estimator over
that layer: the kernel-weighted double sum over cell pairs, evaluated
spectrally from one real FFT of the zero-padded layer cells.  The first-stage
flag threshold is the exact closed-form quantile of the maximum absolute
normalized Gaussian block increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .lattice import Grid, LatticeError, shifted

_NORMAL = NormalDist()


class CalibrationError(LatticeError):
    """Degenerate layer, kernel, or threshold domain."""


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric compactly supported product kernel with K(0) = 1."""

    kind: str = "bartlett"
    bandwidths: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("bartlett", "parzen"):
            raise CalibrationError(f"unknown kernel {self.kind!r}")
        bw = tuple(float(b) for b in self.bandwidths)
        if any(b < 1.0 for b in bw):
            raise CalibrationError(f"bandwidths must be >= 1, got {bw}")
        object.__setattr__(self, "bandwidths", bw)

    def weight1d(self, x: float) -> float:
        ax = abs(x)
        if ax >= 1.0:
            return 0.0
        if self.kind == "bartlett":
            return 1.0 - ax
        if ax <= 0.5:
            return 1.0 - 6.0 * ax**2 + 6.0 * ax**3
        return 2.0 * (1.0 - ax) ** 3


def default_bandwidths(dims) -> tuple[float, ...]:
    """HAC-style compromise: B_k = ceil(n_k^(1/2d)) grows but stays o(n_k^(1/d))."""
    d = len(dims)
    return tuple(float(math.ceil(n ** (1.0 / (2 * d)))) for n in dims)


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


def estimate_mu0(grid: Grid, beta: float = 0.7) -> float:
    """Sample mean over the boundary layer."""
    mask = boundary_layer_mask(grid.dims, beta)
    return float(grid.data[mask].mean())


def fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n (n >= 1): a length numpy's FFT is fast on."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _kernel_spectrum(kernel: KernelSpec, axis: int, reach: int, size: int, half: bool):
    """DFT of the axis's kernel taps w(-reach..reach), laid out circularly on ``size`` cells.

    The taps are symmetric, so the spectrum is real; ``half`` keeps the rfft bins.
    """
    taps = np.zeros(size)
    taps[0] = 1.0
    for lag in range(1, reach + 1):
        taps[lag] = taps[size - lag] = kernel.weight1d(lag / kernel.bandwidths[axis])
    return (np.fft.rfft(taps) if half else np.fft.fft(taps)).real


def masked_lrv(data: np.ndarray, mask: np.ndarray, kernel: KernelSpec) -> tuple[float, bool]:
    """Kernel long-run variance over the masked cells.

    Returns (estimate, clamped): the double sum over cell pairs within the
    kernel support, normalized by the masked cell count; a negative raw value
    is clamped to the plain masked variance and flagged.

    The double sum sum_lag w(lag) sum_x c(x) c(x + lag) of the centred cells c
    is evaluated spectrally (Parseval): the cells are zero-padded by the
    kernel's reach on every axis, so no lag wraps, and the power spectrum of
    one real FFT is weighted by the kernel's spectrum.  The product kernel's
    spectrum is the outer product of one real 1-D spectrum per axis, so the
    weighting is d vector contractions, last axis first.
    """
    count = int(mask.sum())
    if count == 0:
        raise CalibrationError("empty estimation region")
    d = data.ndim
    bw = kernel.bandwidths
    if len(bw) != d:
        raise CalibrationError(f"need {d} bandwidths, got {len(bw)}")
    # Lags at or beyond an axis length pair no cells, so the reach is clipped.
    reach = [min(math.ceil(b) - 1, n - 1) for b, n in zip(bw, data.shape)]
    shape = [fft_length(n + r) for n, r in zip(data.shape, reach)]
    padded = np.zeros(shape)
    cells = padded[tuple(slice(n) for n in data.shape)]
    np.subtract(data, data[mask].mean(), out=cells, where=mask)

    spectrum = np.empty(shape[:-1] + [shape[-1] // 2 + 1], dtype=np.complex128)
    np.fft.rfftn(padded, axes=range(d), out=spectrum)
    power = spectrum.view(np.float64)  # real and imaginary parts side by side
    np.square(power, out=power)
    last = _kernel_spectrum(kernel, d - 1, reach[-1], shape[-1], half=True)
    last[1 : (shape[-1] + 1) // 2] *= 2.0  # these rfft bins also stand for their conjugates
    # vecdot, not @: a threaded BLAS gemv over a 1024^2 spectrum took ~8 ms
    # on two cores, vecdot 0.4 ms
    total = np.vecdot(power, np.repeat(last, 2))
    for k in reversed(range(d - 1)):
        total = np.vecdot(total, _kernel_spectrum(kernel, k, reach[k], shape[k], half=False))

    sigma2 = float(total) / (math.prod(shape) * count)
    if sigma2 < 0.0:
        return float(np.sum(cells[mask] ** 2) / count), True
    return sigma2, False


def estimate_lrv(grid: Grid, beta: float = 0.7, kernel: KernelSpec | None = None) -> float:
    """Long-run variance estimated on the boundary layer."""
    if kernel is None:
        kernel = KernelSpec("bartlett", default_bandwidths(grid.dims))
    mask = boundary_layer_mask(grid.dims, beta)
    sigma2, _ = masked_lrv(grid.data, mask, kernel)
    return sigma2


def threshold_q(sigma: float, block_volume: float, num_blocks: int, kappa_level: float) -> float:
    """(1 - kappa)-quantile of the max absolute normalized block increment.

    Increments of a Brownian sheet over disjoint blocks are independent
    N(0, volume), so the normalized statistic per block is sigma*|Z|/sqrt(v)
    and the max quantile has the exact closed form
    sigma / sqrt(v) * PhiInv((1 + (1 - kappa)^(1/M)) / 2).  It is evaluated
    as -PhiInv(tail) with tail = -expm1(log1p(-kappa) / M) / 2, the same value
    without the cancellation that forming 1 - tail loses for large M.
    """
    if sigma <= 0.0:
        raise CalibrationError(f"sigma must be > 0, got {sigma}")
    if block_volume < 1.0:
        raise CalibrationError(f"block volume must be >= 1, got {block_volume}")
    if num_blocks < 1:
        raise CalibrationError(f"num_blocks must be >= 1, got {num_blocks}")
    if not 0.0 < kappa_level < 1.0:
        raise CalibrationError(f"kappa_level must be in (0, 1), got {kappa_level}")
    tail = -math.expm1(math.log1p(-kappa_level) / num_blocks) / 2.0
    return -sigma / math.sqrt(block_volume) * _NORMAL.inv_cdf(tail)


def empirical_variogram(grid: Grid, axis: int, max_lag: int) -> tuple[float, np.ndarray]:
    """Semivariogram along one axis: gamma(h) = mean squared lag-h increment / 2.

    Returns (gamma0, gammas) where gamma0 is the sample-variance sill proxy and
    gammas[h-1] covers h = 1..max_lag.
    """
    if not 0 <= axis < grid.ndim:
        raise CalibrationError(f"axis {axis} out of range for {grid.ndim}-d grid")
    if not 0 < max_lag < grid.dims[axis]:
        raise CalibrationError(f"max_lag must be in (0, {grid.dims[axis]})")
    x = grid.data
    gammas = np.empty(max_lag, dtype=np.float64)
    for h in range(1, max_lag + 1):
        dst, src = shifted([h if k == axis else 0 for k in range(grid.ndim)], grid.dims)
        diff = x[dst] - x[src]
        gammas[h - 1] = 0.5 * float(np.mean(diff**2))
    return float(np.var(x)), gammas
