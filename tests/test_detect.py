import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splade.detect import (
    BlockPartition,
    DetectionError,
    SpladeConfig,
    block_means,
    component_bbox,
    components,
    envelope,
    flag_blocks,
    min_component_cells,
    resolve_envelope_overlaps,
    splade_detect,
)
from splade.lattice import Grid, PatchSet, Rect, build_prefix_sum
from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches
from splade.single import Stage1Params

from helpers import brute_force_components


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
            cover[part.block((i, j)).slices()] += 1
    assert np.all(cover == 1)
    assert int(part.volumes().sum()) == 70


def test_block_means_hand_example():
    g = Grid.from_array(np.arange(1.0, 17.0).reshape(4, 4))
    part = BlockPartition.build((4, 4), 0.5)  # stride 2
    m = block_means(build_prefix_sum(g), part)
    assert np.allclose(m, [[3.5, 5.5], [11.5, 13.5]])


def test_block_means_constant_and_truncated():
    g = Grid.from_array(np.full((10, 10), 3.25))
    part = BlockPartition.build((10, 10), 0.5)  # stride 3, last block width 1
    m = block_means(build_prefix_sum(g), part)
    assert np.allclose(m, 3.25)
    assert part.block((3, 3)).volume() == 1


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
    means = block_means(build_prefix_sum(x), part)
    flags = flag_blocks(means, 0.5, 0.0)
    for r, _ in truth.patches:
        for i in range(part.counts[0]):
            for j in range(part.counts[1]):
                blk = part.block((i, j))
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
        part = BlockPartition(dims, tuple(int(l) for l in strides), tuple(int(c) for c in counts))
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
    env = envelope(comp, part, 0, (20, 20))
    assert env == Rect((4, 4), (12, 12))


def test_envelope_clipped_at_domain():
    part = BlockPartition.build((20, 20), 0.5)
    env = envelope(((0, 0),), part, 3, (20, 20))
    assert env.lo == (0, 0)
    assert env == Rect((0, 0), (16, 16))


def test_envelopes_five_blocks_apart_stay_disjoint():
    part = BlockPartition.build((48, 48), 0.5)  # stride 6, 8 blocks per axis
    c1 = ((0, 0),)
    c2 = ((0, 6),)  # 5 block rows between them on axis 1
    e1 = envelope(c1, part, 2, (48, 48))
    e2 = envelope(c2, part, 2, (48, 48))
    out = resolve_envelope_overlaps([e1, e2], [component_bbox(c1, part), component_bbox(c2, part)])
    assert out == [e1, e2]  # no shrink needed
    gap = out[1].lo[1] - out[0].hi[1]
    assert gap >= part.strides[1]  # at least one clear block between envelopes


def test_envelope_overlap_shrink_preserves_bboxes():
    part = BlockPartition.build((64, 64), 0.5)  # stride 8
    c1 = ((1, 1), (1, 2))
    c2 = ((1, 4),)
    b1, b2 = component_bbox(c1, part), component_bbox(c2, part)
    e1 = envelope(c1, part, 2, (64, 64))
    e2 = envelope(c2, part, 2, (64, 64))
    assert not e1.intersect(e2).is_empty
    r1, r2 = resolve_envelope_overlaps([e1, e2], [b1, b2])
    assert r1.intersect(r2).is_empty
    for env, bbox in ((r1, b1), (r2, b2)):
        assert env.intersect(bbox) == bbox  # bbox still contained


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


def test_min_component_cells_formula():
    import math

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
    from splade.lattice import sym_diff_volume

    true_rect = truth.rects[0]
    assert sym_diff_volume(est, true_rect) / true_rect.volume() < 0.4


def test_opposite_sign_adjacent_patches_stay_separate():
    # two patches straddling a single block row with opposite jumps: the
    # sign-aware component pass keeps them apart even at a tiny threshold
    n = 144
    rects = ((Rect((30, 20), (70, 68)), 1.0), (Rect((30, 72), (70, 120)), -1.0))
    x = inject_patches(Grid.from_array(np.zeros((n, n))), PatchSet(patches=rects))
    det = splade_detect(x)
    assert det.k_hat == 2
    assert list(det.patches) == sorted([r for r, _ in rects], key=lambda r: (r.lo, r.hi))
