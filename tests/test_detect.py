import dataclasses
import importlib
import importlib.util
import itertools
import math
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from splade import _scan, detect, lattice
from splade.calibrate import BOUNDARY_BETA, boundary_layer_mask, default_bandwidths, masked_lrv, threshold_q
from splade.detect import (
    BlockPartition,
    Detection,
    DetectionError,
    SpladeConfig,
    block_means,
    components,
    envelope,
    flag_blocks,
    min_component_cells,
    resolve_envelope_overlaps,
    splade_detect,
)
from splade.lattice import Grid, PatchSet, Rect
from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches
from splade.single import Stage1Params

from helpers import OnThreshold, brute_force_components, brute_force_detect, rect_mask, strided


def _sorted_rects(ps: PatchSet):
    return sorted(ps.rects, key=lambda r: (r.lo, r.hi))


# ---------------------------------------------------------------- partition


def test_partition_tiles_exactly():
    part = BlockPartition.build((10, 7), 0.5)
    assert part.strides == (3, 2)
    assert part.counts == (4, 4)
    cover = np.zeros((10, 7), dtype=int)
    for i in range(4):
        for j in range(4):
            cover[part.cells((i, j), (i, j)).slices()] += 1
    assert np.all(cover == 1)
    assert int(part.volumes().sum()) == 70


def test_partition_counts_are_read_off_dims_and_strides():
    """A tiling holds only its dims and block sides, so no caller can hand it a
    block count that leaves blocks of volume 0 past the grid's edge."""
    assert [f.name for f in dataclasses.fields(BlockPartition)] == ["dims", "strides"]
    part = BlockPartition((10,), (3,))
    assert part.counts == (4,)
    assert part.volumes().tolist() == [3, 3, 3, 1]
    assert part.cells([6], [6]) == Rect((9,), (10,))  # clipped to the last block
    assert pickle.loads(pickle.dumps(part)) == part


def test_detection_k_hat_is_its_patch_count():
    assert [f.name for f in dataclasses.fields(Detection)] == ["patches", "jumps", "diagnostics"]
    det = Detection((Rect((0, 0), (2, 2)), Rect((4, 4), (6, 6))), (1.0, -1.0), {"mu0": 0.0})
    assert det.k_hat == 2
    assert pickle.loads(pickle.dumps(det)) == det
    with pytest.raises(DetectionError, match="2 patches but 1 jumps"):
        Detection(det.patches, (1.0,))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_partition_cells_match_edges(d):
    """``BlockPartition.cells`` against ``edges`` on random tilings: on every
    axis a single block, the last block (truncated where the stride does not
    divide the axis), runs past the low end, past the high end and past both,
    runs wholly beyond either end, and the whole tiling, in every combination
    across the axes."""
    rng = np.random.default_rng(60 + d)
    truncated = 0
    for _ in range({1: 40, 2: 20, 3: 8, 4: 4}[d]):
        dims = tuple(int(n) for n in rng.integers(4, {1: 500, 2: 80, 3: 30, 4: 14}[d], size=d))
        part = BlockPartition.build(dims, float(rng.uniform(0.2, 0.8)))
        edges = [part.edges(k) for k in range(d)]
        runs = []
        for m in part.counts:
            i = int(rng.integers(0, m))
            runs.append([(i, i), (m - 1, m - 1), (i - 3, i), (i, m + 2), (-1, m), (0, m - 1),
                         (-3, -1), (m, m + 1)])
        for combo in itertools.product(*runs):
            first, last = zip(*combo)
            clip = [(min(max(a, 0), m - 1), min(max(b, 0), m - 1))
                    for a, b, m in zip(first, last, part.counts)]
            want = Rect(tuple(int(e[a]) for e, (a, _) in zip(edges, clip)),
                        tuple(int(e[b + 1]) for e, (_, b) in zip(edges, clip)))
            assert part.cells(first, last) == want, (dims, part.strides, combo)
        top = tuple(m - 1 for m in part.counts)
        last_block = part.cells(top, top)
        assert last_block == Rect(tuple(int(e[-2]) for e in edges), dims)
        truncated += last_block.volume() < math.prod(part.strides)
        assert part.cells((0,) * d, top) == Rect((0,) * d, dims)
    assert truncated > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_partition_cell_mask_is_the_union_of_its_blocks(d):
    """``BlockPartition.cell_mask`` against the union of ``cells(i, i)`` over the
    set blocks, on random tilings whose last block is truncated on some axis."""
    rng = np.random.default_rng(70 + d)
    truncated = 0
    for _ in range({1: 30, 2: 15, 3: 8, 4: 4}[d]):
        dims = tuple(int(n) for n in rng.integers(4, {1: 500, 2: 80, 3: 30, 4: 14}[d], size=d))
        part = BlockPartition.build(dims, float(rng.uniform(0.2, 0.8)))
        truncated += any(n % l for n, l in zip(dims, part.strides))
        flags = rng.random(part.counts) < rng.uniform(0.1, 0.9)
        want = np.zeros(dims, dtype=bool)
        for idx in zip(*np.nonzero(flags)):
            want[part.cells(idx, idx).slices()] = True
        got = part.cell_mask(flags)
        assert got.dtype == np.bool_ and np.array_equal(got, want), (dims, part.strides)
    assert truncated > 0


def test_block_means_hand_example():
    g = Grid.from_array(np.arange(1.0, 17.0).reshape(4, 4))
    part = BlockPartition.build((4, 4), 0.5)  # stride 2
    m = block_means(g.data, part)
    assert np.allclose(m, [[3.5, 5.5], [11.5, 13.5]])


def test_block_means_constant_and_truncated():
    g = Grid.from_array(np.full((10, 10), 3.25))
    part = BlockPartition.build((10, 10), 0.5)  # stride 3, last block width 1
    m = block_means(g.data, part)
    assert np.allclose(m, 3.25)
    assert part.cells((3, 3), (3, 3)).volume() == 1


@pytest.mark.parametrize("dims", [(37,), (40001,), (23, 17), (300, 301), (11, 13, 10), (7, 5, 11, 5)])
def test_block_means_match_exact_sums(dims):
    """Block means against math.fsum of the sliced cells, on partitions whose
    last block on every axis is truncated, plain and offset by 1e3; C-ordered,
    Fortran-ordered and strided inputs give the same bits."""
    part = BlockPartition.build(dims, 0.5)
    assert all(n % l for n, l in zip(dims, part.strides))
    rng = np.random.default_rng(len(dims))
    eps = np.finfo(np.float64).eps
    for x in (rng.standard_normal(dims), rng.standard_normal(dims) + 1e3):
        means = block_means(x, part)
        assert means.shape == part.counts
        for idx in np.ndindex(*part.counts):
            r = part.cells(idx, idx)
            cells = x[r.slices()].ravel().tolist()
            # one pass per axis, each adding at most width - 1 roundings of the
            # sum of |cells|, and one rounding in the division
            tol = (sum(h - l for l, h in zip(r.lo, r.hi)) + 1) * eps * math.fsum(map(abs, cells)) / r.volume()
            assert abs(means[idx] - math.fsum(cells) / r.volume()) <= tol
        assert block_means(np.asfortranarray(x), part).tobytes() == means.tobytes()
        assert block_means(strided(x, np.nan), part).tobytes() == means.tobytes()


# ---------------------------------------------------------------- flagging


def test_flag_blocks_basics():
    means = np.array([[1.0, 1.0], [1.0, 3.0]])
    assert not flag_blocks(means, 0.5, 1.0)[0, 0]
    flags = flag_blocks(means, 0.5, 1.0)
    assert flags.sum() == 1 and flags[1, 1]
    none = flag_blocks(np.full((3, 3), 2.0), 0.5, 2.0)
    assert not none.any()


def test_flag_blocks_strict_inequality_and_vector_q():
    means = np.array([1.0, 2.0, 3.0])
    q = np.array([1.0, 1.0, 1.5])
    assert list(flag_blocks(means, q, 1.0)) == [False, False, True]


def test_flag_monotone_in_q():
    rng = np.random.default_rng(2)
    means = rng.standard_normal((8, 8))
    prev = flag_blocks(means, 0.1, 0.0)
    for q in (0.3, 0.7, 1.5):
        cur = flag_blocks(means, q, 0.0)
        assert not np.any(cur & ~prev)  # raising q never adds flags
        prev = cur


def test_flag_containment_noiseless_config1():
    n = 256
    truth = canonical_scenario("config1", n, 1.0)
    x = inject_patches(Grid.from_array(np.zeros((n, n))), truth)
    part = BlockPartition.build((n, n), 0.5)
    means = block_means(x.data, part)
    flags = flag_blocks(means, 0.5, 0.0)
    for r, _ in truth.patches:
        for i in range(part.counts[0]):
            for j in range(part.counts[1]):
                blk = part.cells((i, j), (i, j))
                inside = all(
                    r.lo[k] <= blk.lo[k] and blk.hi[k] <= r.hi[k] for k in range(2)
                )
                if inside:
                    assert flags[i, j]


# ---------------------------------------------------------------- components


def test_components_l_shape_single():
    part = BlockPartition.build((36, 36), 0.5)  # stride 6 -> 6x6 blocks
    mask = np.zeros(part.counts, dtype=bool)
    mask[1, 1:5] = True  # 4 blocks
    mask[2:6, 1] = True  # 4 more
    mask[2:6, 2] = True  # L thickened: 12 total
    comps = components(mask, part, min_cells=0)
    assert len(comps) == 1
    assert len(comps[0]) == 12


def test_components_corner_touch_connectivity():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    part = BlockPartition.build((8, 8), 0.5)
    assert len(components(mask, part, 0, "faces")) == 2
    assert len(components(mask, part, 0, "faces+corners")) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_components_match_bfs_oracle(d):
    rng = np.random.default_rng(d)
    max_count = {1: 40, 2: 12, 3: 6, 4: 4}[d]
    for _ in range(60):
        counts = rng.integers(1, max_count + 1, size=d)
        strides = rng.integers(1, 4, size=d)
        # edge blocks truncated by up to stride - 1 cells
        dims = tuple(int(c * l - rng.integers(0, l)) for c, l in zip(counts, strides))
        part = BlockPartition(dims, tuple(int(l) for l in strides))
        signs = rng.choice([-1, 1], size=part.counts)
        mask = np.where(rng.random(part.counts) < rng.uniform(0.1, 0.8), signs, 0)
        for m in (mask, mask != 0):
            min_cells = int(rng.integers(0, part.volumes()[m != 0].sum() // 2 + 2))
            for conn in ("faces", "faces+corners"):
                assert components(m, part, min_cells, conn) == brute_force_components(m, part, min_cells, conn)


def test_components_min_cells_filter():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    part = BlockPartition.build((8, 8), 0.5)  # block volume 4
    assert components(mask, part, min_cells=4) == []
    assert len(components(mask, part, min_cells=3)) == 1


# ---------------------------------------------------------------- envelopes


def test_envelope_margin_zero_is_bbox():
    part = BlockPartition.build((20, 20), 0.5)  # stride 4
    comp = ((1, 1), (1, 2), (2, 1))
    env = envelope(comp, part, 0)
    assert env == Rect((4, 4), (12, 12))


def test_envelope_clipped_at_domain():
    part = BlockPartition.build((20, 20), 0.5)
    env = envelope(((0, 0),), part, 3)
    assert env.lo == (0, 0)
    assert env == Rect((0, 0), (16, 16))


def test_envelopes_five_blocks_apart_stay_disjoint():
    part = BlockPartition.build((48, 48), 0.5)  # stride 6, 8 blocks per axis
    c1 = ((0, 0),)
    c2 = ((0, 6),)  # 5 block rows between them on axis 1
    e1 = envelope(c1, part, 2)
    e2 = envelope(c2, part, 2)
    out = resolve_envelope_overlaps([e1, e2], [envelope(c1, part, 0), envelope(c2, part, 0)])
    assert out == [e1, e2]  # no cut needed
    gap = out[1].lo[1] - out[0].hi[1]
    assert gap >= part.strides[1]  # at least one clear block between envelopes


def test_envelope_overlap_shrink_preserves_bboxes():
    part = BlockPartition.build((64, 64), 0.5)  # stride 8
    c1 = ((1, 1), (1, 2))
    c2 = ((1, 4),)
    b1, b2 = envelope(c1, part, 0), envelope(c2, part, 0)
    e1 = envelope(c1, part, 2)
    e2 = envelope(c2, part, 2)
    assert not e1.intersect(e2).is_empty
    r1, r2 = resolve_envelope_overlaps([e1, e2], [b1, b2])
    assert r1.intersect(r2).is_empty
    for env, bbox in ((r1, b1), (r2, b2)):
        assert env.intersect(bbox) == bbox  # bbox still contained


def _apart_on_some_axis(a: Rect, b: Rect) -> bool:
    return any(lb >= ha or la >= hb for la, ha, lb, hb in zip(a.lo, a.hi, b.lo, b.hi))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_envelope_cut_separates_and_keeps_separable_boxes(d):
    """Random block layouts with margins 0-3: the cut envelopes are pairwise
    disjoint and each lies inside its input; when every pair of component boxes
    is apart (or touching) on some axis, each envelope also keeps its box."""
    rng = np.random.default_rng(100 + d)
    max_count = {1: 40, 2: 14, 3: 7, 4: 5}[d]
    cut, kept = 0, 0
    for _ in range(150):
        counts = rng.integers(2, max_count + 1, size=d)
        strides = rng.integers(1, 5, size=d)
        dims = tuple(int(c * l - rng.integers(0, l)) for c, l in zip(counts, strides))
        part = BlockPartition(dims, tuple(int(l) for l in strides))
        mask = np.where(rng.random(part.counts) < 0.12, rng.choice([-1, 1], size=part.counts), 0)
        comps = components(mask, part, 0)
        margin = int(rng.integers(0, 4))
        boxes = [envelope(c, part, 0) for c in comps]
        envs = [envelope(c, part, margin) for c in comps]
        out = resolve_envelope_overlaps(envs, boxes)
        assert len(out) == len(envs)
        for i, (r, env) in enumerate(zip(out, envs)):
            assert r.is_empty or r.intersect(env) == r
            assert all(r.intersect(s).is_empty for s in out[i + 1 :])
        cut += out != envs
        if all(_apart_on_some_axis(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]):
            assert all(r.intersect(box) == box for r, box in zip(out, boxes))
            kept += out != envs
    assert kept >= 20 and cut >= kept  # the layouts do overlap, and mostly separably


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_envelopes_clipped_at_the_edge_keep_their_patches(seed):
    """Two patches on row 0, 24 columns apart: both envelopes are clipped at the
    grid's edge and overlap as much on each axis, and the cut must fall between
    the columns, not across the rows."""
    truth = PatchSet(((Rect((0, 16), (14, 96)), 2.0), (Rect((0, 120), (14, 200)), 2.0)))
    x = inject_patches(gen_field(FieldSpec(kind="iid-gaussian", seed=seed), (256, 256)), truth)
    det = splade_detect(x, SpladeConfig(mu0=0.0, sigma=1.0))
    assert list(det.patches) == _sorted_rects(truth)


CROWDED = """\
........-...
.-.......+..
..+.-.......
......--....
........-...
............
....+.......
...+........
-...+.......
....-.......
............
............"""


def test_crowded_envelopes_are_separated_in_one_pass():
    """Twelve components of +-4 blocks, noiseless, with margins of 3 blocks:
    many pairs of envelopes overlap, and one pass of cuts leaves each patch
    equal to its component's box."""
    part = BlockPartition.build((128, 128), 0.5)  # stride 11, 12 blocks per axis
    data = np.zeros((128, 128))
    for i, row in enumerate(CROWDED.splitlines()):
        for j, ch in enumerate(row):
            if ch != ".":
                data[part.cells((i, j), (i, j)).slices()] = 4.0 if ch == "+" else -4.0
    cfg = SpladeConfig(mu0=0.0, sigma=1.0, min_size_factor=1e-6, envelope_margin_blocks=3)
    comps = components(np.sign(data[::11, ::11]), part, 0)
    det = splade_detect(Grid.from_array(data), cfg)
    assert len(comps) == 12
    assert list(det.patches) == sorted((envelope(c, part, 0) for c in comps), key=lambda r: (r.lo, r.hi))
    assert det.diagnostics["degenerate_envelopes"] == 0
    lattice.check_disjoint(det.patches)


# ---------------------------------------------------------------- pipeline


def test_noiseless_config1_exact():
    truth = canonical_scenario("config1", 128, 0.4)
    x = inject_patches(Grid.from_array(np.zeros((128, 128))), truth)
    det = splade_detect(x)
    assert det.k_hat == 3
    assert list(det.patches) == _sorted_rects(truth)
    assert np.allclose(det.jumps, [j for _, j in sorted(truth.patches, key=lambda p: (p[0].lo, p[0].hi))])


def test_noiseless_exactness_generic_patchset():
    # patches with extent >= 4 blocks per axis and a wide axis gap: exact recovery
    n = 120
    part_stride = int(n**0.5)  # 10
    rects = [
        (Rect((10, 10), (55, 60)), 1.0),
        (Rect((75, 20), (118, 70)), -0.5),
    ]
    truth = PatchSet(patches=tuple(rects))
    x = inject_patches(Grid.from_array(np.zeros((n, n))), truth)
    det = splade_detect(x)
    assert det.k_hat == 2
    assert list(det.patches) == _sorted_rects(truth)
    assert part_stride == 10


def test_detect_determinism():
    truth = canonical_scenario("config2", 128, 1.0)
    noise = gen_field(FieldSpec(kind="sar", seed=5, rho=0.2), (128, 128))
    x = inject_patches(noise, truth)
    d1 = splade_detect(x)
    d2 = splade_detect(x)
    assert d1 == d2


@pytest.mark.parametrize("seed, n", [(7, 192), (8, 160), (9, 224), (10, 208)])
def test_detect_on_views_equals_detect_on_contiguous_copy(seed, n):
    """A Grid wraps a strided or Fortran-ordered float64 array without copying
    it, and the detection on it is the C-contiguous copy's, bit for bit."""
    x = inject_patches(gen_field(FieldSpec(kind="sar", seed=seed, rho=0.04), (n, n)),
                       canonical_scenario("config1", n, 2.0))
    big = np.full((2 * n, 3 * n), np.nan)  # a cell read outside the view is non-finite
    big[::2, ::3] = x.data
    view = big[::2, ::3]
    assert np.shares_memory(Grid.from_array(view).data, view)
    want = splade_detect(Grid.from_array(np.ascontiguousarray(x.data)))
    assert want.k_hat == 3 and want.diagnostics["fallback"]
    for arr in (view, np.asfortranarray(x.data)):
        got = splade_detect(Grid.from_array(arr))
        assert got.patches == want.patches
        assert [j.hex() for j in got.jumps] == [j.hex() for j in want.jumps]
        assert got.diagnostics == want.diagnostics


def test_detect_given_mu0_sigma_skips_estimation():
    truth = canonical_scenario("config1", 128, 1.0)
    noise = gen_field(FieldSpec(kind="iid-gaussian", seed=6), (128, 128))
    x = inject_patches(noise, truth)
    det = splade_detect(x, SpladeConfig(mu0=0.0, sigma=1.0))
    assert det.diagnostics["mu0"] == 0.0
    assert det.diagnostics["sigma"] == 1.0
    assert not det.diagnostics["fallback"]
    assert det.k_hat == 3


def test_detect_pure_noise_mostly_empty():
    ks = []
    for seed in range(5):
        g = gen_field(FieldSpec(kind="iid-gaussian", seed=seed), (128, 128))
        ks.append(splade_detect(g).k_hat)
    assert ks.count(0) >= 4


def test_detect_on_a_null_grid_peaks_below_the_grid_size():
    # the long-run variance walks the grid in strips, so a null call holds no
    # float buffer the size of the grid
    g = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (1024, 1024))
    tracemalloc.start()
    try:
        det = splade_detect(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert det.k_hat == 0
    assert peak < g.data.nbytes


def test_detect_enters_stage_2_holding_no_float_buffer_the_size_of_the_grid(monkeypatch):
    # the fallback's gather of the clean cells is freed before the searches
    # build their tables, which set the call's memory peak
    x = _config1_128()
    splade_detect(x)  # first-call allocations that outlive the call
    held = []
    original = detect.algorithm1

    def recorded(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return original(*args)

    monkeypatch.setattr(detect, "algorithm1", recorded)
    tracemalloc.start()
    try:
        det = splade_detect(x)
    finally:
        tracemalloc.stop()
    assert det.diagnostics["fallback"] and held
    assert max(held) < 0.5 * x.data.nbytes, held


def test_detect_rejects_small_grids():
    with pytest.raises(DetectionError):
        splade_detect(Grid.from_array(np.zeros((8, 8))), SpladeConfig(alpha=0.9))


def test_detect_rejects_non_finite_cells():
    data = gen_field(FieldSpec(kind="iid-gaussian", seed=1), (64, 64)).data.copy()
    data[3, 4] = np.nan
    with pytest.raises(DetectionError, match="1 non-finite"):
        splade_detect(Grid.from_array(data))
    data[10, 11] = np.inf
    data[20, 21] = -np.inf
    with pytest.raises(DetectionError, match="3 non-finite"):
        splade_detect(Grid.from_array(data))


def test_detect_rejects_values_whose_squared_sums_overflow():
    noise = gen_field(FieldSpec(kind="iid-gaussian", seed=1), (64, 64)).data
    for big in (1e200, 1e308):  # at 1e308 the span hi - lo itself overflows
        data = noise.copy()
        data[:8, :8] = big
        data[-8:, -8:] = -big
        with pytest.raises(DetectionError, match="squared sums would overflow"):
            splade_detect(Grid.from_array(data))


def _config1_128():
    """config1 at 128^2, jump 2, SAR(0.04): three patches, and the fallback fires."""
    noise = gen_field(FieldSpec(kind="sar", seed=1, rho=0.04), (128, 128))
    return inject_patches(noise, canonical_scenario("config1", 128, 2.0))


def test_detect_below_the_magnitude_bound_is_scale_exact():
    """A power-of-two scale is exact in floating point: near the 1e100 bound on
    magnitude, and near the 1e-100 bound on spread, the detections and the
    calibration are the same, scaled, with no overflow or underflow (the suite
    fails on RuntimeWarning)."""
    x = _config1_128()
    det = splade_detect(x)
    assert det.k_hat == 3
    big, small = 2.0**329, 2.0**-329
    assert 1e99 < np.abs(x.data).max() * big < 1e100
    assert 1e-100 < np.ptp(x.data) * small < 1e-97
    for scale in (big, small):
        scaled = splade_detect(Grid.from_array(x.data * scale))
        assert scaled.patches == det.patches
        assert scaled.jumps == tuple(j * scale for j in det.jumps)
        for key in ("mu0", "sigma", "q"):
            assert scaled.diagnostics[key] == det.diagnostics[key] * scale, (scale, key)


def test_detect_rejects_a_spread_whose_squares_underflow():
    """An iid grid times 2^-560 (spread 2e-168) read sigma 0 and k_hat 7; a
    constant grid, spread 0, is still taken."""
    noise = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (128, 128)).data
    with pytest.raises(DetectionError, match="spread max - min of 2.04e-168 < 1e-100"):
        splade_detect(Grid.from_array(noise * 2.0**-560))
    assert splade_detect(Grid.from_array(np.full((128, 128), 2.0**-560))).k_hat == 0


def _count_calls(monkeypatch, *names):
    """Count the calls ``splade_detect`` makes to these globals of ``detect``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(detect, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(detect, name, counted)
    return calls


def _record_tables(monkeypatch):
    """The shape of every prefix table built, less any leading channel axis,
    recorded where ``lattice`` and ``_scan`` bind ``prefix_table``."""
    shapes = []
    original = lattice.prefix_table

    def recorded(cells):
        table = original(cells)
        shapes.append(table.shape[1:])
        return table

    monkeypatch.setattr(lattice, "prefix_table", recorded)
    monkeypatch.setattr(_scan, "prefix_table", recorded)
    return shapes


def test_detect_computes_block_means_once_with_fallback(monkeypatch):
    """The fallback re-runs the first stage on the same block means, and no
    prefix table of the whole grid is built: each search tabulates only the
    hull of its own candidates."""
    calls = _count_calls(monkeypatch, "block_means", "threshold_q", "masked_lrv")
    shapes = _record_tables(monkeypatch)
    x = _config1_128()
    assert splade_detect(x).diagnostics["fallback"]
    # one threshold call per first stage (all block volumes at once), whose
    # block 0 is the diagnostics' q; one long-run variance per calibration region
    assert calls == {"block_means": 1, "threshold_q": 2, "masked_lrv": 2}
    assert shapes and all(s[:2] != (129, 129) for s in shapes), shapes


def _centre_patch_128():
    """iid noise at 128^2 with one patch, jump 2, clear of the calibration layer."""
    data = gen_field(FieldSpec(kind="iid-gaussian", seed=5), (128, 128)).data.copy()
    data[48:80, 48:80] += 2.0
    return Grid.from_array(data)


@pytest.mark.parametrize(
    "grid, mu0, sigma, fallback",
    [
        ("config1", None, None, True),
        ("centre", None, None, False),
        ("config1", 0.0, None, True),
        ("config1", None, 1.0, True),
        ("centre", 0.0, 1.0, False),
        ("config1", None, 0.0, True),
        ("config1", 0.0, 0.0, False),
        ("constant", None, None, False),  # estimated sigma 0
    ],
)
def test_diagnostics_q_is_a_full_blocks_threshold(grid, mu0, sigma, fallback):
    """``diagnostics["q"]`` is the unfloored threshold of a full block,
    prod(strides) cells, at the final sigma, bit for bit; 0 when sigma is 0."""
    x = {"config1": _config1_128, "centre": _centre_patch_128,
         "constant": lambda: Grid.from_array(np.full((128, 128), 1.5))}[grid]()
    cfg = SpladeConfig(mu0=mu0, sigma=sigma)
    det = splade_detect(x, cfg)
    assert det.diagnostics["fallback"] == fallback
    part = BlockPartition.build(x.dims, cfg.alpha)
    got = det.diagnostics["sigma"]
    want = threshold_q(got, math.prod(part.strides), part.num_blocks, cfg.kappa_level) if got > 0.0 else 0.0
    assert (got == 0.0) == (sigma == 0.0 or grid == "constant")
    assert np.float64(det.diagnostics["q"]).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("jump, k_hat", [(None, 0), (2.0, 1)])
def test_detect_builds_a_table_only_for_a_surviving_component(monkeypatch, jump, k_hat):
    """A null grid builds no prefix table; one central patch, clear of the
    calibration layer so that no fallback fires, builds tables for its
    searches only, none of them of the whole grid."""
    x = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (128, 128))
    if jump is not None:
        x = inject_patches(x, PatchSet(((Rect((44, 44), (84, 84)), jump),)))
    shapes = _record_tables(monkeypatch)
    det = splade_detect(x)
    assert det.k_hat == k_hat and not det.diagnostics["fallback"]
    assert bool(shapes) == bool(k_hat), shapes
    assert all(s[:2] != (129, 129) for s in shapes), shapes


def test_detect_centres_the_lrv_on_the_layer_mean_when_mu0_is_given():
    """With mu0 given and sigma estimated, the long-run variance is still
    centred on the calibration layer's own mean, not on the given mu0."""
    x = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (128, 128))
    x = inject_patches(x, PatchSet(((Rect((44, 44), (84, 84)), 2.0),)))
    det = splade_detect(x, SpladeConfig(mu0=0.0))
    assert not det.diagnostics["fallback"]
    layer = boundary_layer_mask(x.dims, BOUNDARY_BETA)
    centre = float(x.data[layer].mean())
    assert centre != 0.0
    sigma2 = masked_lrv(x.data, layer, default_bandwidths(x.dims), centre)
    assert det.diagnostics["sigma"] == math.sqrt(sigma2)


def test_min_component_cells_formula():
    n = 256 * 256
    assert min_component_cells(n, 0.5, 1.0) == int(
        np.ceil(256 * math.sqrt(math.log(n)))
    )


def test_config_validation():
    with pytest.raises(DetectionError):
        SpladeConfig(alpha=1.2)
    with pytest.raises(DetectionError):
        SpladeConfig(kappa_level=0.0)
    with pytest.raises(DetectionError):
        SpladeConfig(connectivity="diagonal")
    for bad in ({"mu0": float("nan")}, {"sigma": float("inf")}, {"min_size_factor": float("nan")}):
        with pytest.raises(DetectionError):
            SpladeConfig(**bad)


@pytest.mark.parametrize("margin", [2.0, 1.5, "2", None])
def test_config_margin_must_be_an_integer(margin):
    """A fractional, string or missing margin is refused at construction, not
    later by ``Rect`` on a grid whose components reach the first stage (a
    config1 128^2 grid ended in "corners must be integers") or never, with
    k_hat 0 on a null grid."""
    with pytest.raises(DetectionError, match="envelope_margin_blocks must be an integer"):
        SpladeConfig(envelope_margin_blocks=margin)


def test_config_margin_is_read_as_an_int():
    cfg = SpladeConfig(envelope_margin_blocks=np.int64(3))
    assert type(cfg.envelope_margin_blocks) is int and cfg.envelope_margin_blocks == 3
    assert cfg == SpladeConfig(envelope_margin_blocks=3)
    with pytest.raises(DetectionError, match=">= 0"):
        SpladeConfig(envelope_margin_blocks=-1)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_fuzz_patches_disjoint_and_in_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(48, 100))
    data = rng.standard_normal((n, n))
    # sprinkle a few random bumps so components appear sometimes
    for _ in range(int(rng.integers(0, 4))):
        lo = rng.integers(0, n - 12, 2)
        side = int(rng.integers(6, 24))
        hi = np.minimum(lo + side, n)
        data[lo[0] : hi[0], lo[1] : hi[1]] += float(rng.normal(0.0, 2.0))
    det = splade_detect(Grid.from_array(data))
    for i, r in enumerate(det.patches):
        assert r.within((n, n))
        assert not r.is_empty
        for s in det.patches[i + 1 :]:
            assert r.intersect(s).is_empty
    assert det.k_hat == len(det.patches)


def test_detect_1d_change_region():
    n = 4096
    noise = gen_field(FieldSpec(kind="sar", seed=2, rho=0.3), (n,))
    truth = PatchSet(patches=((Rect((1200,), (2400,)), 1.0),))
    x = inject_patches(noise, truth)
    det = splade_detect(x)
    assert det.k_hat == 1
    r = det.patches[0]
    assert abs(r.lo[0] - 1200) <= 40 and abs(r.hi[0] - 2400) <= 40


def test_detect_3d_block():
    noise = gen_field(FieldSpec(kind="iid-gaussian", seed=4), (36, 36, 36))
    truth = PatchSet(patches=((Rect((6, 8, 10), (20, 22, 24)), 1.5),))
    x = inject_patches(noise, truth)
    cfg = SpladeConfig(
        stage2=Stage1Params(alpha=0.4, kappa=0.01), envelope_margin_blocks=1
    )
    det = splade_detect(x, cfg)
    assert det.k_hat == 1
    est = det.patches[0]
    true_rect = truth.rects[0]
    sym_diff = int((rect_mask(x.dims, est) ^ rect_mask(x.dims, true_rect)).sum())
    assert sym_diff / true_rect.volume() < 0.4


def test_opposite_sign_adjacent_patches_stay_separate():
    # two patches straddling a single block row with opposite jumps: the
    # sign-aware component pass keeps them apart even at a tiny threshold
    n = 144
    rects = ((Rect((30, 20), (70, 68)), 1.0), (Rect((30, 72), (70, 120)), -1.0))
    x = inject_patches(Grid.from_array(np.zeros((n, n))), PatchSet(patches=rects))
    det = splade_detect(x)
    assert det.k_hat == 2
    assert list(det.patches) == sorted([r for r, _ in rects], key=lambda r: (r.lo, r.hi))


def test_perfbench_tracer_targets_resolve(monkeypatch):
    """perfbench/tracer.py wraps these names by lookup; a refactor that drops one breaks its trace."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
    # the searches take ranges; the stage pair counts read them as the arrays they span
    lo, hi = [range(0, 7), range(0, 4)], [range(1, 8), range(10, 18)]
    arrays = [[np.array(r) for r in rs] for rs in (lo, hi)]
    assert tracer.pair_count(lo, hi) == tracer.pair_count(*arrays) == 896

    # ...and every refinement is seen: one algorithm1 span per refined
    # envelope, parenting that envelope's stage-2 search.
    truth = canonical_scenario("config1", 128, 2.0)
    grid = inject_patches(gen_field(FieldSpec(kind="sar", seed=7, rho=0.04), (128, 128)), truth)
    t = tracer.Tracer()
    with t.installed():
        det = detect.splade_detect(grid)
    refined = len(det.diagnostics["component_cells"]) - det.diagnostics["degenerate_envelopes"]
    assert refined == det.k_hat == len(truth.rects)
    names = [span.name for span in t.spans]
    assert names.count("detect.algorithm1") == refined
    stage2 = [span for span in t.spans if span.name == "single.best_rectangle"
              and t.spans[span.parent].name != "single.naive_ls"]
    assert len(stage2) == refined
    assert all(t.spans[span.parent].name == "detect.algorithm1" for span in stage2)
    assert t.layer_metrics(1)["single.refine_s"] > 0


# Side range per rank, the smallest stage-2 alpha and the largest window constant.
# They keep the oracle's exhaustive searches small: a subsample of at most 7
# points per axis in 2-D, 6 in 3-D and 4 in 4-D, with corner windows a few
# cells wide.  In 4-D the window constant is capped at 0.1, so every draw's
# half-width is 1: ceil(0.1 * floor(17^0.6) * 17^0.02 * ln(17^4)^(1/4)) =
# ceil(0.97).  A half-width of 2 makes the oracle score 5^8 pairs one at a
# time, tens of seconds for one draw; test_scan's 4-D oracle tests cover
# wide windows.
# In 1-D a subsample of fewer than 10 points has at most one admissible
# stage-1 volume, so a smaller alpha gives the search a chance.
ORACLE_RANKS = {1: ((16, 40), 0.25, 0.3), 2: ((16, 40), 0.5, 0.3), 3: ((16, 24), 0.45, 0.12),
                4: ((16, 17), 0.58, 0.1)}
ORACLE_EXAMPLES = {1: 40, 2: 30, 3: 12, 4: 6}


@st.composite
def _oracle_cases(draw, d):
    (side_lo, side_hi), stage2_alpha, window_const = ORACLE_RANKS[d]
    dims = tuple(draw(st.integers(side_lo, side_hi)) for _ in range(d))
    kind = draw(st.sampled_from(["integer", "gaussian", "gaussian + 1e3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":  # four values: exact ties between cells and block means
        data, level, spread = rng.integers(0, 4, size=dims).astype(np.float64), 1.5, 1.25**0.5
    else:
        level = 1e3 if kind == "gaussian + 1e3" else 0.0
        data, spread = rng.standard_normal(dims) + level, 1.0
    for _ in range(draw(st.integers(1, 3))):
        lo = [int(rng.integers(0, n - n // 4)) for n in dims]
        hi = [min(n, a + int(rng.integers(n // 4, n // 2 + 1))) for a, n in zip(lo, dims)]
        size = float(rng.choice([3, 4, 5])) if kind == "integer" else float(rng.uniform(3.0, 6.0))
        data[Rect(tuple(lo), tuple(hi)).slices()] += size * rng.choice([-1, 1])
    cfg = SpladeConfig(
        alpha=draw(st.floats(0.35, 0.5)),
        kappa_level=draw(st.floats(0.01, 0.2)),
        stage2=Stage1Params(alpha=draw(st.floats(stage2_alpha, 0.6)), kappa=draw(st.floats(0.0, 0.02)),
                            window_const=draw(st.floats(0.05, window_const))),
        envelope_margin_blocks=draw(st.integers(0, 2)),
        min_size_factor=draw(st.floats(0.2, 1.0)),
        mu0=draw(st.sampled_from([None, None, level])),
        sigma=draw(st.sampled_from([None, None, spread])),
        connectivity=draw(st.sampled_from(["faces", "faces+corners"])),
    )
    return Grid.from_array(data), cfg


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_detect_matches_whole_pipeline_oracle(d):
    """``splade_detect`` equals ``brute_force_detect``: the patches and the exact
    diagnostics exactly, and sigma, q and the jumps to 1e-12.  A jump is a
    difference of means of cells up to max|x|, so its tolerance scales with
    max|x|, not with the jump.  Draws where rounding may decide a threshold
    test or a search tie are rejected (see ``brute_force_detect``)."""

    @given(case=_oracle_cases(d))
    @settings(max_examples=ORACLE_EXAMPLES[d], deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    def check(case):
        grid, cfg = case
        try:
            want = brute_force_detect(grid, cfg)
        except OnThreshold:
            reject()
        got = splade_detect(grid, cfg)
        assert got.patches == want["patches"]
        assert got.k_hat == want["k_hat"]
        scale = float(np.abs(grid.data).max())
        assert got.jumps == pytest.approx(want["jumps"], rel=1e-12, abs=1e-12 * scale)
        for key, value in want["diagnostics"].items():
            if key in ("sigma", "q"):
                assert got.diagnostics[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            else:
                assert got.diagnostics[key] == value, key

    check()
