import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splade.lattice import LatticeError, Rect
from splade.metrics import (
    BENCH_CSV_HEADER,
    BenchRecord,
    MetricError,
    ari,
    hausdorff,
    jaccard_distance,
    labels_from_patches,
    _intersections,
    read_bench_csv,
    score,
    summarize,
    write_bench_csv,
)

from helpers import mask_hausdorff, mask_jaccard, rect_mask


def test_ari_identical_is_one():
    labels = np.array([[0, 0, 1], [2, 2, 1]])
    assert ari(labels, labels) == 1.0


def test_ari_hand_contingency_example():
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 0, 1, 2])
    assert ari(a, b) == pytest.approx(4.0 / 7.0)


def test_ari_symmetry_and_label_permutation():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=(12, 12))
    b = rng.integers(0, 3, size=(12, 12))
    assert ari(a, b) == pytest.approx(ari(b, a))
    remap = np.array([2, 0, 3, 1])
    assert ari(remap[a], b) == pytest.approx(ari(a, b))


def test_ari_degenerate_single_cluster():
    z = np.zeros((5, 5), dtype=int)
    assert ari(z, z) == 1.0


def test_ari_background_vs_one_patch_no_blowup():
    a = np.zeros((8, 8), dtype=int)
    b = labels_from_patches((8, 8), [Rect((2, 2), (5, 5))])
    v = ari(a, b)
    assert np.isfinite(v) and v <= 0.0 + 1e-12


def _fraction_ari(table) -> Fraction:
    """The ARI of a contingency table in exact rational arithmetic."""
    n = sum(map(sum, table))
    cells = sum(math.comb(c, 2) for row in table for c in row)
    rows = sum(math.comb(sum(row), 2) for row in table)
    cols = sum(math.comb(sum(col), 2) for col in zip(*table))
    expected = Fraction(rows * cols, math.comb(n, 2))
    return (cells - expected) / (Fraction(rows + cols, 2) - expected)


def _two_rects(rng, side):
    """Two rectangles in a side x side grid, apart across a random cut of axis 0."""
    cut = int(rng.integers(1, side))
    rects = []
    for lo, hi in ((0, cut), (cut, side)):
        a0, b0 = sorted(int(v) for v in rng.integers(lo, hi + 1, size=2))
        a1, b1 = sorted(int(v) for v in rng.integers(0, side + 1, size=2))
        rects.append(Rect((a0, a1), (b0, b1)))
    return rects


@pytest.mark.parametrize("bits", [20, 32])
def test_score_is_exact_on_grids_of_any_size(bits):
    """Two patches against two on grids of 2^40 and 2^64 cells: the ARI
    matches exact rational arithmetic and never exceeds 1, and the Hausdorff
    distance stays in [0, 1].  Pair counts squared in int64 overflowed from
    ~3e9 cells in one cluster, and an int64 volume wraps at 2^64 cells."""
    rng = np.random.default_rng(bits)
    side = 2**bits
    for _ in range(50):
        truth, est = _two_rects(rng, side), _two_rects(rng, side)
        table = _intersections(truth, est, (side, side)).tolist()
        assert sum(map(sum, table)) == side**2 and min(c for row in table for c in row) >= 0
        rec = score("x", 0, (side, side), truth, est, 0.0)
        assert rec.ari <= 1.0 and 0.0 <= rec.hausdorff <= 1.0
        assert abs(rec.ari - float(_fraction_ari(table))) <= 1e-12, (truth, est)


def test_ari_shape_mismatch():
    with pytest.raises(MetricError):
        ari(np.zeros((3, 3)), np.zeros((3, 4)))


def test_jaccard_conventions():
    e = Rect((1, 1), (1, 1))
    assert jaccard_distance(e, e) == 0.0  # d_J(empty, empty) = 0
    r = Rect((0, 0), (3, 3))
    assert jaccard_distance(r, r) == 0.0
    assert jaccard_distance(Rect((0, 0), (4, 4)), Rect((2, 0), (6, 4))) == pytest.approx(
        16.0 / 24.0
    )


def test_jaccard_rect_matches_mask():
    rng = np.random.default_rng(4)
    dims = (9, 9)
    for _ in range(50):
        lo1 = tuple(int(x) for x in rng.integers(0, 8, 2))
        hi1 = tuple(int(rng.integers(l, 10)) for l in lo1)
        lo2 = tuple(int(x) for x in rng.integers(0, 8, 2))
        hi2 = tuple(int(rng.integers(l, 10)) for l in lo2)
        hi1 = tuple(min(h, 9) for h in hi1)
        hi2 = tuple(min(h, 9) for h in hi2)
        a, b = Rect(lo1, hi1), Rect(lo2, hi2)
        assert jaccard_distance(a, b) == pytest.approx(
            mask_jaccard(rect_mask(dims, a), rect_mask(dims, b))
        )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_jaccard_triangle_inequality(seed):
    """On random rectangles of a 6 x 6 grid, empty ones among them."""
    rng = np.random.default_rng(seed)
    a, b, c = (Rect(*np.sort(rng.integers(0, 7, size=(2, 2)), axis=0).tolist()) for _ in range(3))
    dab = jaccard_distance(a, b)
    dbc = jaccard_distance(b, c)
    dac = jaccard_distance(a, c)
    assert dac <= dab + dbc + 1e-12


def test_rectangles_of_different_ranks_are_an_error():
    """Once cut to the shorter rank and scored: Hausdorff 0.75 and ARI 0.244."""
    line, square = Rect((0,), (4,)), Rect((0, 0), (4, 4))
    with pytest.raises(LatticeError, match="rank-1 rectangle with a rank-2"):
        jaccard_distance(line, square)
    for truth, est in [([line], [square]), ([square], [line])]:
        with pytest.raises(LatticeError, match="has rank 1, the grid \\(8, 8\\) rank 2"):
            hausdorff(truth, est, (8, 8))
        with pytest.raises(LatticeError, match="has rank 1, the grid \\(8, 8\\) rank 2"):
            score("custom", 0, (8, 8), truth, est, 0.0)


@pytest.mark.parametrize("outside", [Rect((0, 0), (20, 20)), Rect((-3, -3), (2, 2)), Rect((2, 2), (-1, -1))])
def test_rectangles_outside_the_grid_are_an_error(outside):
    """Once scored as if clipped: Hausdorff 0.859 and 0.917 against the inside box.  The
    empty third box, its hi off the grid, once labelled the 25 cells of the slices 2:-1."""
    inside = Rect((1, 1), (4, 4))
    for truth, est in [([outside], [inside]), ([inside], [outside])]:
        with pytest.raises(MetricError, match="out of bounds for \\(8, 8\\)"):
            hausdorff(truth, est, (8, 8))
        with pytest.raises(MetricError, match="out of bounds for \\(8, 8\\)"):
            score("custom", 0, (8, 8), truth, est, 0.0)
    with pytest.raises(MetricError, match="out of bounds for \\(8, 8\\)"):
        labels_from_patches((8, 8), [outside])


def test_hausdorff_exact_match_zero():
    dims = (20, 20)
    rects = [Rect((2, 2), (6, 8)), Rect((10, 10), (16, 18))]
    assert hausdorff(rects, rects, dims) == 0.0


def test_hausdorff_missed_patch_16x16():
    # truth: one 4x4 patch + background; estimate: background only.
    dims = (16, 16)
    truth = [Rect((0, 0), (4, 4))]
    val = hausdorff(truth, [], dims)
    assert val == pytest.approx(mask_hausdorff(truth, [], dims))
    assert val == pytest.approx(1.0 - 16.0 / 256.0)  # patch vs full grid


def test_hausdorff_matches_mask_oracle_random():
    rng = np.random.default_rng(9)
    for _ in range(600):
        dims = [(16,), (16, 16), (6, 7, 5)][int(rng.integers(0, 3))]
        whole = Rect((0,) * len(dims), dims)

        def rnd_disjoint(max_patches):
            if rng.random() < 0.1:  # the whole grid: an empty background
                return [whole]
            rects = []
            for _ in range(int(rng.integers(0, max_patches + 1))):
                lo = tuple(int(rng.integers(0, n - 1)) for n in dims)
                hi = tuple(int(rng.integers(l + 1, n + 1)) for l, n in zip(lo, dims))
                cand = Rect(lo, hi)
                if all(cand.intersect(r).is_empty for r in rects):
                    rects.append(cand)
            return rects

        t = rnd_disjoint(3)
        e = rnd_disjoint(3)
        fast = hausdorff(t, e, dims)
        slow = mask_hausdorff(t, e, dims)
        assert fast == pytest.approx(slow, abs=1e-12)
        assert 0.0 <= fast <= 1.0
        assert fast == pytest.approx(hausdorff(e, t, dims))  # symmetric


def test_hausdorff_zero_iff_equal_collections():
    dims = (12, 12)
    a = [Rect((1, 1), (4, 4))]
    b = [Rect((1, 1), (4, 5))]
    assert hausdorff(a, b, dims) > 0.0


def test_hausdorff_accepts_empty_detection():
    from splade.detect import Detection
    from splade.lattice import PatchSet

    truth = PatchSet(patches=((Rect((2, 2), (6, 6)), 1.0),))
    empty = Detection(patches=(), jumps=())
    val = hausdorff(truth.rects, empty.patches, (16, 16))
    assert val == pytest.approx(mask_hausdorff(truth.rects, [], (16, 16)))
    assert hausdorff(empty.patches, empty.patches, (16, 16)) == 0.0


def test_labels_from_patches():
    lab = labels_from_patches((5, 5), [Rect((0, 0), (2, 2)), Rect((3, 3), (5, 5))])
    assert lab[0, 0] == 1 and lab[4, 4] == 2 and lab[2, 2] == 0


def test_bench_csv_roundtrip(tmp_path):
    recs = [
        BenchRecord("config1", 7, 3, 3, 0.912345678901, 0.125, 1.5),
        BenchRecord("config2", 8, 4, 5, -0.25, 1.0, 0.75),
    ]
    path = tmp_path / "rows.csv"
    write_bench_csv(path, recs)
    back = read_bench_csv(path)
    assert back == recs
    header = path.read_text().splitlines()[0]
    assert header == ",".join(BENCH_CSV_HEADER)


def test_bench_csv_roundtrips_numpy_values(tmp_path):
    """Values are written as their ``str()``: a numpy float reads back (its
    ``repr``, ``np.float64(0.5)``, did not), and a Python float keeps its ``repr``."""
    rec = BenchRecord("config1", np.int64(7), 3, 3, np.float64(0.5), 0.1 + 0.2, np.float32(0.25))
    path = tmp_path / "rows.csv"
    write_bench_csv(path, [rec])
    assert path.read_text().splitlines()[1] == "config1,7,3,3,0.5,0.30000000000000004,0.25"
    assert read_bench_csv(path) == [rec]


@pytest.mark.parametrize("row", ["config1,7,3,3,0.5,0.25", "config1,7,3,3,0.5,0.25,1.5,9", ""])
def test_bench_csv_row_of_the_wrong_length_is_an_error(row, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(",".join(BENCH_CSV_HEADER) + "\nconfig1,8,3,3,0.5,0.25,1.5\n" + row + "\n")
    with pytest.raises(MetricError, match="line 3 of"):
        read_bench_csv(path)


def test_summarize_bench_records():
    recs = [
        BenchRecord("config1", 7, 3, 3, 0.75, 0.125, 1.5),
        BenchRecord("config1", 8, 2, 3, 0.25, 0.5, 0.5),
        BenchRecord("config1", 9, 3, 3, 0.5, 0.375, 2.5),
    ]
    s = summarize(recs)
    assert (s.k_hat_mean, s.k_exact_frac, s.ari_mean) == (8 / 3, 2 / 3, 0.5)
    assert (s.hausdorff_mean, s.time_s_median) == (1 / 3, 1.5)
