import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splade.lattice import Rect
from splade.metrics import (
    BENCH_CSV_HEADER,
    BenchRecord,
    MetricError,
    ari,
    hausdorff,
    jaccard_distance,
    labels_from_patches,
    read_bench_csv,
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
def test_jaccard_triangle_inequality_masks(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.random((6, 6)) < 0.4 for _ in range(3))
    dab = jaccard_distance(a, b)
    dbc = jaccard_distance(b, c)
    dac = jaccard_distance(a, c)
    assert dac <= dab + dbc + 1e-12


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
    empty = Detection(k_hat=0, patches=(), jumps=())
    val = hausdorff(truth, empty, (16, 16))
    assert val == pytest.approx(mask_hausdorff(truth.rects, [], (16, 16)))
    assert hausdorff(empty, empty, (16, 16)) == 0.0


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
