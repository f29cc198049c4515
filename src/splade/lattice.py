"""Dense lattice grids, rectangles, prefix tables, block sums, block tilings and shifted views.

Indexing convention, used repo-wide: a rectangle is the half-open cell set
``(lo, hi]`` in 1-based lattice coordinates, which coincides with the 0-based
NumPy slice ``lo:hi``.  ``lo`` is the exclusive lower corner, ``hi`` the
inclusive upper corner, and the cell count is ``prod(hi - lo)``.  A rectangle
with ``hi_k <= lo_k`` on any axis is empty.

The layout of a prefix table (a zero border on its last d axes, a leading
channel axis, the order of the 2^d corner terms) is known to this module
alone: ``prefix_table`` builds one and ``box_sums`` reads box sums off one, in
float64 at every size.  Each channel is a contiguous table, and ``box_sums``
reads every channel's corner at one flat index of the last d axes.  Sums
that are read once (block means, a grand mean, a patch's total) skip the
table: ``block_sums`` adds the cells directly.

``BlockPartition`` alone maps blocks to cells: ``edges`` gives each axis's
block boundaries, ``cells`` the box of a run of blocks, grown or not, and
``cell_mask`` expands a block-level mask to its cells.

No object stores a value it can derive.  A ``Grid`` wraps its caller's
float64 array, strided or not, and nothing writes into it; its ``dims``,
``ndim`` and ``size`` are the array's.  A ``BlockPartition`` holds the grid's
``dims`` and the block sides ``strides``; its ``counts`` are read off them.
All objects here are immutable after construction and safe to share across
threads; every operation is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

MAX_DIM = 4


class LatticeError(ValueError):
    """Invalid grid, rectangle, or query."""


@dataclass(frozen=True)
class Grid:
    """A dense d-dimensional real-valued lattice field.

    ``data`` is the only field: the caller's array as float64, any strides,
    never written.  ``dims``, ``ndim`` and ``size`` are read off its shape.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if not 1 <= arr.ndim <= MAX_DIM:
            raise LatticeError(f"dimension {arr.ndim} outside supported range 1..{MAX_DIM}")
        if 0 in arr.shape:
            raise LatticeError(f"dims entries must be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr) -> "Grid":
        return cls(arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size


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
        return math.prod(h - l for l, h in zip(self.lo, self.hi))

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def intersect(self, other: "Rect") -> "Rect":
        if other.ndim != self.ndim:
            raise LatticeError(f"cannot intersect a rank-{self.ndim} rectangle with a rank-{other.ndim} one")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def within(self, dims) -> bool:
        """Both corners lie on the grid ``dims``: an empty box too, whose slices would else wrap."""
        return len(dims) == self.ndim and all(0 <= l <= n and 0 <= h <= n for l, h, n in zip(self.lo, self.hi, dims))

    def shift(self, offset) -> "Rect":
        return Rect(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )


def check_disjoint(rects) -> None:
    """Raise LatticeError naming the first pair of ``rects`` that overlap."""
    for i, r in enumerate(rects):
        for s in rects[i + 1 :]:
            if not r.intersect(s).is_empty:
                raise LatticeError(f"patches {r} and {s} overlap")


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
            if not math.isfinite(j):
                raise LatticeError(f"patch jump must be finite, got {j}")
            if r.is_empty:
                raise LatticeError("patch rectangle must be non-empty")
        check_disjoint([r for r, _ in patches])
        baseline = float(self.baseline)
        if not math.isfinite(baseline):
            raise LatticeError(f"baseline must be finite, got {baseline}")
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "baseline", baseline)

    @property
    def rects(self) -> tuple[Rect, ...]:
        return tuple(r for r, _ in self.patches)

    @property
    def jumps(self) -> tuple[float, ...]:
        return tuple(j for _, j in self.patches)


def prefix_table(channels) -> np.ndarray:
    """Zero-bordered running sums of each of ``channels`` over all of its d axes.

    ``channels`` is a list of equal-shaped d-dimensional arrays, held on the
    table's leading axis: ``table[c, i1, ..., id]`` is the sum of
    ``channels[c][0:i1, ..., 0:id]``.  The first pass runs ``np.cumsum`` from
    each array straight into the table, with no stacked copy, the later passes
    in place, one per axis.
    """
    shape = np.shape(channels[0])
    table = np.zeros((len(channels),) + tuple(n + 1 for n in shape))
    inner = table[(slice(None),) + (slice(1, None),) * len(shape)]
    for src, dst in zip(channels, inner):
        np.cumsum(src, axis=0, out=dst)
    for ax in range(1, len(shape)):
        np.cumsum(inner, axis=ax + 1, out=inner)
    return table


def box_sums(table: np.ndarray, lo, hi) -> np.ndarray:
    """Sums of the cells a prefix table encodes over the boxes ``(lo, hi]``.

    ``lo[k]`` / ``hi[k]`` are indices on axis k of the table's last
    ``len(lo)`` axes, within ``0..shape``: ints or integer arrays that
    broadcast together.  Leading axes of ``table`` (channels) carry through:
    the result's shape is those axes followed by the broadcast shape.  The
    2^d corner terms are added in ``itertools.product((0, 1), repeat=d)``
    order (1: take ``lo`` on that axis), each read by ``np.take`` at a flat
    index of a view of the table's last d axes as one.  On a 2-core x86
    machine, reading 2000 corners of a 3-channel 4-D table takes ~13 us this
    way and ~100 us by tuple fancy indexing.  A term's flat index is the sum
    of its first d - 1 axes' offsets, shared with the other terms, and its
    last axis's.
    """
    d = len(lo)
    shape = np.broadcast(*lo, *hi).shape
    dims = table.shape[-d:]
    flat = table.reshape(table.shape[:-d] + (-1,))
    offsets = []  # per axis, the flat offsets of its hi and lo corners
    for k in range(d):
        step = math.prod(dims[k + 1 :])
        pair = []
        for c in (hi[k], lo[k]):
            c = np.asarray(c, dtype=np.intp)
            c = c.reshape((1,) * (len(shape) - c.ndim) + c.shape)
            pair.append(c * step if step > 1 else c)
        offsets.append(pair)
    heads = [0]
    for pair in offsets[:-1]:
        heads = [h + c for h in heads for c in pair]
    s = np.zeros(table.shape[:-d] + shape)
    for t, (head, last) in enumerate(product(heads, offsets[-1])):
        # np.take is not given ``out``, with which it buffers every read
        term = np.take(flat, head + last, axis=-1)
        if bin(t).count("1") & 1:
            s -= term
        else:
            s += term
    return s


def build_prefix_sum(grid: Grid) -> np.ndarray:
    """The prefix table of the whole grid (``prefix_table`` of its cells)."""
    return prefix_table([grid.data])[0]


def block_sums(data: np.ndarray, starts) -> np.ndarray:
    """Sums of ``data`` over the blocks that start at ``starts[k]`` on axis k.

    Each block runs to the next start, or to the end of its axis; with
    ``starts[k] == (0,)`` on every axis the one block is the whole array.  One
    ``np.add.reduceat`` per axis, the last axis first: in a C-ordered array its
    runs are contiguous, and every later pass reads an array already a block's
    width smaller.  Unlike ``ndarray.sum``, the chain adds in the same order
    whatever the strides of ``data``, so the bits do not depend on them.
    """
    sums = data
    for ax in reversed(range(data.ndim)):
        sums = np.add.reduceat(sums, starts[ax], axis=ax)
    return sums


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


@dataclass(frozen=True)
class BlockPartition:
    """Tiling of the lattice into rectangles of side floor(n_k^alpha).

    Edge blocks are truncated to the domain, so the blocks tile the lattice
    exactly: disjoint, union covering every cell.  ``dims`` and ``strides``
    (the block sides l_k) are the fields; ``counts``, ceil(n_k / l_k) blocks
    per axis, is read off them.
    """

    dims: tuple[int, ...]
    strides: tuple[int, ...]

    @classmethod
    def build(cls, dims, alpha: float) -> "BlockPartition":
        if not 0.0 < alpha < 1.0:
            raise LatticeError(f"alpha must be in (0, 1), got {alpha}")
        dims = tuple(int(x) for x in dims)
        return cls(dims=dims, strides=tuple(max(1, int(math.floor(n**alpha))) for n in dims))

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(-(-n // l) for n, l in zip(self.dims, self.strides))

    def edges(self, axis: int) -> np.ndarray:
        l, n, m = self.strides[axis], self.dims[axis], self.counts[axis]
        return np.minimum(np.arange(m + 1, dtype=np.int64) * l, n)

    def cells(self, first, last) -> Rect:
        """The cells of blocks ``first[k]`` to ``last[k]`` on each axis k, both included;
        indices are clipped to the tiling, so a range past either end stops at the edge."""
        top = [m - 1 for m in self.counts]
        lo = [min(max(i, 0), t) * l for i, t, l in zip(first, top, self.strides)]
        hi = [min((min(max(j, 0), t) + 1) * l, n) for j, t, l, n in zip(last, top, self.strides, self.dims)]
        return Rect(tuple(lo), tuple(hi))

    def cell_mask(self, flags: np.ndarray) -> np.ndarray:
        """Every cell of the blocks set in the block-level bool array ``flags``."""
        for ax in range(flags.ndim):
            flags = np.repeat(flags, np.diff(self.edges(ax)), axis=ax)
        return flags

    def volumes(self) -> np.ndarray:
        widths = (np.diff(self.edges(k)) for k in range(len(self.dims)))
        return math.prod(np.ix_(*widths))  # their outer product, broadcast over open axes

    @property
    def num_blocks(self) -> int:
        return math.prod(self.counts)
