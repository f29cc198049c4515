"""Dense lattice grids, rectangles, prefix sums with windows, block tilings and shifted views.

Indexing convention, used repo-wide: a rectangle is the half-open cell set
``(lo, hi]`` in 1-based lattice coordinates, which coincides with the 0-based
NumPy slice ``lo:hi``.  ``lo`` is the exclusive lower corner, ``hi`` the
inclusive upper corner, and the cell count is ``prod(hi - lo)``.  A rectangle
with ``hi_k <= lo_k`` on any axis is empty.

All objects here are immutable after construction and safe to share across
threads; every operation is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

MAX_DIM = 4

# Above this cell count, prefix sums accumulate in extended precision to keep
# rectangle sums (and hence contrast denominators) accurate.
_EXTENDED_PRECISION_CELLS = 2**24


class LatticeError(ValueError):
    """Invalid grid, rectangle, or query."""


def _as_dims(dims) -> tuple[int, ...]:
    t = tuple(int(x) for x in dims)
    if not 1 <= len(t) <= MAX_DIM:
        raise LatticeError(f"dimension {len(t)} outside supported range 1..{MAX_DIM}")
    if any(x < 1 for x in t):
        raise LatticeError(f"dims entries must be >= 1, got {t}")
    return t


@dataclass(frozen=True)
class Grid:
    """A dense d-dimensional real-valued lattice field."""

    dims: tuple[int, ...]
    data: np.ndarray  # float64, shape == dims, C (row-major) order

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.shape != self.dims:
            raise LatticeError(f"data shape {arr.shape} != dims {self.dims}")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr) -> "Grid":
        a = np.asarray(arr, dtype=np.float64)
        return cls(dims=a.shape, data=a)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True, order=True)
class Rect:
    """Half-open axis-aligned rectangle ``(lo, hi]`` (== NumPy slice ``lo:hi``)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        try:  # operator.index: a fractional or string corner is an error, not truncated
            lo = tuple(operator.index(x) for x in self.lo)
            hi = tuple(operator.index(x) for x in self.hi)
        except TypeError:
            raise LatticeError(f"corners must be integers, got {self.lo!r} and {self.hi!r}") from None
        if len(lo) != len(hi):
            raise LatticeError(f"corner ranks differ: {lo} vs {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return any(h <= l for l, h in zip(self.lo, self.hi))

    def volume(self) -> int:
        if self.is_empty:
            return 0
        return int(np.prod([h - l for l, h in zip(self.lo, self.hi)]))

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def intersect(self, other: "Rect") -> "Rect":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def within(self, dims) -> bool:
        return len(dims) == self.ndim and all(0 <= l and h <= n for l, h, n in zip(self.lo, self.hi, dims))

    def shift(self, offset) -> "Rect":
        return Rect(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )


@dataclass(frozen=True)
class PatchSet:
    """True anomaly description: disjoint patch rectangles with mean jumps."""

    patches: tuple[tuple[Rect, float], ...]
    baseline: float = 0.0

    def __post_init__(self):
        patches = tuple((r, float(j)) for r, j in self.patches)
        for r, j in patches:
            if j == 0.0:
                raise LatticeError("patch jump must be nonzero")
            if r.is_empty:
                raise LatticeError("patch rectangle must be non-empty")
        for i in range(len(patches)):
            for k in range(i + 1, len(patches)):
                if not patches[i][0].intersect(patches[k][0]).is_empty:
                    raise LatticeError(
                        f"patches {patches[i][0]} and {patches[k][0]} overlap"
                    )
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "baseline", float(self.baseline))

    @property
    def rects(self) -> tuple[Rect, ...]:
        return tuple(r for r, _ in self.patches)

    @property
    def jumps(self) -> tuple[float, ...]:
        return tuple(j for _, j in self.patches)


@dataclass(frozen=True)
class PrefixSum:
    """Cumulative-sum table with a zero-padded border, read through a window.

    ``table[i1, ..., id]`` is the sum of grid cells in the slice
    ``[0:i1, ..., 0:id]``, so any rectangle sum is a 2^d-term
    inclusion-exclusion over corner entries.  ``dims``, ``size``, ``total`` and
    the rectangles of ``rect_sum`` and ``contrast`` refer to the window of
    ``dims`` cells at ``origin`` (default zeros: the whole grid); one table per
    grid thus serves every rectangle sum.
    """

    dims: tuple[int, ...]
    table: np.ndarray  # shape == grid dims + 1 per axis
    origin: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.origin:
            object.__setattr__(self, "origin", (0,) * len(self.dims))

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def total(self) -> float:
        return rect_sum(self, Rect((0,) * len(self.dims), self.dims))

    def window(self, r: Rect) -> "PrefixSum":
        """The same table read through the cells of ``r`` (in window coordinates)."""
        if r.ndim != len(self.dims) or r.is_empty or not r.within(self.dims):
            raise LatticeError(f"window {r} is empty or outside dims {self.dims}")
        origin = tuple(o + l for o, l in zip(self.origin, r.lo))
        return PrefixSum(tuple(h - l for l, h in zip(r.lo, r.hi)), self.table, origin)


def build_prefix_sum(grid: Grid) -> PrefixSum:
    """Summed table enabling O(2^d) rectangle sums; one in-place pass per axis."""
    n = grid.size
    if n > np.iinfo(np.int64).max:
        raise LatticeError("grid too large to address")
    acc_dtype = np.longdouble if n > _EXTENDED_PRECISION_CELLS else np.float64
    table = np.zeros(tuple(d + 1 for d in grid.dims), dtype=acc_dtype)
    inner = table[(slice(1, None),) * grid.ndim]
    inner[...] = grid.data
    for ax in range(grid.ndim):
        np.cumsum(inner, axis=ax, out=inner)
    return PrefixSum(dims=grid.dims, table=np.asarray(table, dtype=np.float64))


def rect_sum(ps: PrefixSum, r: Rect) -> float:
    """Sum of grid cells inside ``r`` (0.0 for an empty rectangle)."""
    if r.ndim != len(ps.dims):
        raise LatticeError(f"rectangle rank {r.ndim} != grid rank {len(ps.dims)}")
    if r.is_empty:
        return 0.0
    if not r.within(ps.dims):
        raise LatticeError(f"rectangle {r} out of bounds for dims {ps.dims}")
    d = r.ndim
    total = 0.0
    for corner in range(1 << d):
        idx = []
        neg = 0
        for k in range(d):
            if corner >> k & 1:
                idx.append(ps.origin[k] + r.lo[k])
                neg += 1
            else:
                idx.append(ps.origin[k] + r.hi[k])
        term = float(ps.table[tuple(idx)])
        total += -term if neg & 1 else term
    return total


def contrast(ps: PrefixSum, r: Rect) -> float:
    """Signed scaled mean difference between ``r`` and its complement.

    Computes ``sqrt(v * (n - v)) / n * (mean_inside - mean_outside)`` where
    ``v`` is the rectangle volume and ``n`` the window size.  Estimators maximize
    the absolute value of this statistic.  Empty and full rectangles are domain
    errors (the complement mean would be undefined).
    """
    n = ps.size
    v = r.volume()
    if not 0 < v < n:
        raise LatticeError(f"contrast needs 0 < volume < {n}, got {v}")
    s = rect_sum(ps, r)
    b = math.sqrt(v * (n - v)) / n
    return b * (s / v - (ps.total - s) / (n - v))


def shifted(offset, dims) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slices ``(dst, src)`` pairing each cell ``x`` of ``dst`` with the cell ``x - offset``.

    Both views are empty on any axis where ``|offset_k| >= n_k``.
    """
    dst, src = [], []
    for o, n in zip(offset, dims):
        o = max(-n, min(n, o))  # unclamped, n - o would go negative and select cells
        dst.append(slice(max(o, 0), n + min(o, 0)))
        src.append(slice(max(-o, 0), n - max(o, 0)))
    return tuple(dst), tuple(src)


def sym_diff_volume(a: Rect, b: Rect) -> int:
    """Cell count of the symmetric difference of two rectangles."""
    return a.volume() + b.volume() - 2 * a.intersect(b).volume()


@dataclass(frozen=True)
class BlockPartition:
    """Tiling of the lattice into rectangles of side floor(n_k^alpha).

    Edge blocks are truncated to the domain, so the blocks tile the lattice
    exactly: disjoint, union covering every cell.
    """

    dims: tuple[int, ...]
    strides: tuple[int, ...]
    counts: tuple[int, ...]

    @classmethod
    def build(cls, dims, alpha: float) -> "BlockPartition":
        if not 0.0 < alpha < 1.0:
            raise LatticeError(f"alpha must be in (0, 1), got {alpha}")
        dims = tuple(int(x) for x in dims)
        strides = tuple(max(1, int(math.floor(n**alpha))) for n in dims)
        counts = tuple(-(-n // l) for n, l in zip(dims, strides))
        return cls(dims=dims, strides=strides, counts=counts)

    def edges(self, axis: int) -> np.ndarray:
        l, n, m = self.strides[axis], self.dims[axis], self.counts[axis]
        return np.minimum(np.arange(m + 1, dtype=np.int64) * l, n)

    def block(self, index) -> Rect:
        lo = tuple(int(self.edges(k)[s]) for k, s in enumerate(index))
        hi = tuple(int(self.edges(k)[s + 1]) for k, s in enumerate(index))
        return Rect(lo, hi)

    def volumes(self) -> np.ndarray:
        widths = [np.diff(self.edges(k)) for k in range(len(self.dims))]
        out = widths[0].astype(np.int64)
        for w in widths[1:]:
            out = np.multiply.outer(out, w)
        return out

    @property
    def num_blocks(self) -> int:
        return int(np.prod(self.counts))


class SubsampleError(LatticeError):
    """Subsampling leaves too few points per axis for a first-stage search."""


def subsample(cells, alpha: float) -> tuple[Grid, tuple[int, ...]]:
    """Strided point sample of a ``Grid`` or of an array of cells (such as a view).

    Keeps single observations (not block means) at the lower corner of every
    block of ``BlockPartition.build(dims, alpha)``, so ceil(n_k / L_k) points.
    """
    data = cells.data if isinstance(cells, Grid) else cells
    part = BlockPartition.build(data.shape, alpha)
    if any(m < 4 for m in part.counts):
        raise SubsampleError(
            f"alpha={alpha} leaves counts {part.counts}; need >= 4 points per axis"
        )
    sampled = data[tuple(slice(None, None, l) for l in part.strides)]
    return Grid.from_array(sampled), part.strides
