import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from splade.lattice import (
    Grid,
    LatticeError,
    PatchSet,
    Rect,
    box_sums,
    prefix_table,
    shifted,
)

from helpers import all_rects, direct_rect_sum, fancy_box_sums


def test_grid_validation():
    with pytest.raises(LatticeError):
        Grid(np.zeros((2, 0)))
    with pytest.raises(LatticeError):
        Grid.from_array(np.zeros((2, 2, 2, 2, 2)))  # d = 5 unsupported


def test_grid_shape_is_read_off_its_data():
    assert [f.name for f in dataclasses.fields(Grid)] == ["data"]
    g = Grid.from_array(np.arange(15).reshape(3, 5))
    assert g.data.dtype == np.float64
    assert (g.dims, g.ndim, g.size) == ((3, 5), 2, 15)
    back = pickle.loads(pickle.dumps(g))
    assert back.dims == g.dims
    np.testing.assert_array_equal(back.data, g.data)


def _rect_sum(table, r: Rect) -> float:
    return float(box_sums(table, r.lo, r.hi))


def test_prefix_sum_2x2_hand():
    table = prefix_table([np.array([[1.0, 2.0], [3.0, 4.0]])])[0]
    assert _rect_sum(table, Rect((0, 0), (2, 2))) == 10.0


def test_rect_sum_single_cell_and_constant():
    table = prefix_table([np.array([[1.0, 2.0], [3.0, 4.0]])])[0]
    assert _rect_sum(table, Rect((1, 1), (2, 2))) == 4.0
    const = prefix_table([np.full((5, 7), 2.5)])[0]
    assert _rect_sum(const, Rect((1, 2), (4, 6))) == pytest.approx(2.5 * 12)


def test_empty_rect_sums_to_zero():
    table = prefix_table([np.arange(12.0).reshape(3, 4)])[0]
    assert _rect_sum(table, Rect((2, 2), (2, 2))) == 0.0
    assert _rect_sum(table, Rect((2, 3), (1, 3))) == 0.0


def test_exhaustive_prefix_vs_direct_6x6():
    rng = np.random.default_rng(42)
    g = Grid.from_array(rng.standard_normal((6, 6)))
    table = prefix_table([g.data])[0]
    count = 0
    for r in all_rects(g.dims):
        assert _rect_sum(table, r) == pytest.approx(direct_rect_sum(g, r), abs=1e-9)
        count += 1
    assert count == 441


def test_prefix_vs_direct_3d_random_rects():
    rng = np.random.default_rng(7)
    g = Grid.from_array(rng.standard_normal((4, 4, 4)))
    table = prefix_table([g.data])[0]
    rects = []
    for _ in range(20):
        lo = tuple(int(rng.integers(0, 4)) for _ in range(3))
        hi = tuple(int(rng.integers(l + 1, 5)) for l in lo)
        rects.append(Rect(lo, hi))
        assert _rect_sum(table, rects[-1]) == pytest.approx(direct_rect_sum(g, rects[-1]), abs=1e-9)
    # every rectangle at once, as one corner array per axis
    lo, hi = (np.array(corners).T for corners in zip(*((r.lo, r.hi) for r in rects)))
    sums = box_sums(table, list(lo), list(hi))
    assert sums == pytest.approx([direct_rect_sum(g, r) for r in rects], abs=1e-9)


def test_patchset_rejects_overlap_and_zero_jump():
    r1 = Rect((0, 0), (2, 2))
    with pytest.raises(LatticeError):
        PatchSet(patches=((r1, 1.0), (Rect((1, 1), (3, 3)), 1.0)))
    with pytest.raises(LatticeError):
        PatchSet(patches=((r1, 0.0),))
    for jump in (math.inf, -math.inf, math.nan):
        with pytest.raises(LatticeError, match="patch jump must be finite"):
            PatchSet(patches=((r1, jump),))


def test_patchset_rejects_non_finite_baseline():
    for baseline in (math.inf, -math.inf, math.nan):
        with pytest.raises(LatticeError, match="baseline must be finite"):
            PatchSet(patches=((Rect((0, 0), (2, 2)), 1.0),), baseline=baseline)


def test_float64_table_sums_a_constant_grid_of_thirds():
    # rectangle sums of a constant 1/3 grid stay within 1e-9 of |R| / 3
    table = prefix_table([np.full((64, 64), 1.0 / 3.0)])[0]
    assert table.dtype == np.float64
    r = Rect((10, 10), (60, 60))
    assert _rect_sum(table, r) == pytest.approx(r.volume() / 3.0, abs=1e-9)


@pytest.mark.parametrize("dims", [(11,), (7, 9), (5, 6, 4), (4, 5, 4, 6)])
def test_window_sums_match_copied_subgrid(dims):
    """The table of a strided view (a window of a larger array) sums the cells a
    copy of that window holds; box sums of corner arrays broadcast."""
    rng = np.random.default_rng(len(dims))
    g = Grid.from_array(rng.standard_normal(dims) + 1e3)
    x = g.data
    win = Rect(tuple(1 for _ in dims), tuple(m - 1 for m in dims))
    sub = Grid.from_array(x[win.slices()].copy())
    table = prefix_table([x[win.slices()]])[0]
    assert table[sub.dims] == pytest.approx(float(sub.data.sum()), rel=1e-12)  # one entry: the whole window
    for r in all_rects(sub.dims):
        assert _rect_sum(table, r) == pytest.approx(direct_rect_sum(sub, r), rel=1e-12, abs=1e-9)

    # corner arrays that broadcast to a 5 x 4 set of boxes, lo <= hi in every pair
    lo = [rng.integers(0, m // 2 + 1, size=(5, 1)) for m in dims]
    hi = [rng.integers(m // 2, m + 1, size=(1, 4)) for m in dims]
    sums = box_sums(prefix_table([x])[0], lo, hi)
    for i, j in np.ndindex(5, 4):
        box = tuple(slice(int(l[i, 0]), int(h[0, j])) for l, h in zip(lo, hi))
        assert sums[i, j] == pytest.approx(float(x[box].sum()), rel=1e-12, abs=1e-9)
    # a leading axis of 2 carries through (the layout of the scan's channels)
    pair = box_sums(prefix_table([x, -x]), lo, hi)
    assert pair.shape == (2, 5, 4)
    np.testing.assert_array_equal(pair[0], sums)
    np.testing.assert_array_equal(pair[1], -sums)


# corner shapes that broadcast together to (2, 3, 4)
_CORNER_SHAPES = [(), (4,), (3, 1), (1, 4), (3, 4), (2, 3, 4), (2, 1, 1)]


@pytest.mark.parametrize("channels", [0, 1, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_sums_equal_fancy_indexing_bit_for_bit(d, channels):
    """``box_sums`` reads its corner terms at flat indices, and adds them in the
    order tuple fancy indexing does: the same bits, for Python-int, int32
    and int64 corners of any broadcast shape, over 0, 1 or 3 leading channel
    axes, with boxes empty or inverted on some axis among them."""
    rng = np.random.default_rng(10 * d + channels)
    dims = tuple(int(m) for m in rng.integers(2, 7, size=d))
    x = rng.standard_normal((channels,) * bool(channels) + dims) * 1e3
    table = prefix_table(list(x)) if channels else prefix_table([x])[0]
    lead = table.shape[:-d]

    def corner(k, kind, shape):
        values = rng.integers(0, dims[k] + 1, size=shape)
        return int(values.flat[0]) if kind == "int" else values.astype(kind)

    for trial in range(40):
        kinds = rng.choice(["int", "int32", "int64"], size=2 * d)
        shapes = [_CORNER_SHAPES[i] for i in rng.integers(0, len(_CORNER_SHAPES), size=2 * d)]
        lo = [corner(k, kinds[k], shapes[k]) for k in range(d)]
        hi = [corner(k, kinds[d + k], shapes[d + k]) for k in range(d)]
        got = box_sums(table, lo, hi)
        want = fancy_box_sums(table, lo, hi)
        assert got.shape == want.shape == lead + np.broadcast(*lo, *hi).shape
        np.testing.assert_array_equal(got, want)
    # every box with lo == hi on axis 0, and so empty, as one open mesh
    lo = list(np.ix_(*[np.arange(m) for m in dims]))
    hi = lo[:1] + [c + 1 for c in lo[1:]]
    empty = box_sums(table, lo, hi)
    assert empty.shape == lead + dims
    np.testing.assert_array_equal(empty, fancy_box_sums(table, lo, hi))
    full = box_sums(table, (0,) * d, dims)
    np.testing.assert_array_equal(full, fancy_box_sums(table, (0,) * d, dims))
    assert full.shape == lead


@pytest.mark.parametrize("dims", [(5,), (4, 3), (3, 1, 4)])
def test_shifted_pairs_cells_at_offset(dims):
    idx = np.indices(dims)  # idx[k][x] == x_k
    for offset in itertools.product(range(-4, 5), repeat=len(dims)):
        dst, src = shifted(offset, dims)
        pairs = int(np.prod([max(0, n - abs(o)) for o, n in zip(offset, dims)]))
        for k, o in enumerate(offset):
            assert idx[k][dst].size == idx[k][src].size == pairs
            assert (idx[k][dst] - idx[k][src] == o).all()
