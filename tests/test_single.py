import math

import numpy as np
import pytest

from splade._scan import DegenerateScanError
from splade.lattice import Grid, LatticeError, PatchSet, Rect
from splade.simulate import FieldSpec, gen_field, inject_patches
from splade.single import (
    SearchBounds,
    Stage1Params,
    SubsampleError,
    algorithm1,
    naive_ls,
    subsample,
)

from helpers import brute_force_ls, brute_force_search, rect_mask


def _patched(dims, rect, jump=1.0, noise=None, seed=0):
    if noise is None:
        base = Grid.from_array(np.zeros(dims))
    else:
        base = gen_field(FieldSpec(kind=noise, seed=seed, rho=0.4), dims)
    return inject_patches(base, PatchSet(patches=((rect, jump),)))


def test_bounds_validation():
    with pytest.raises(LatticeError):
        SearchBounds(-0.1, 0.5)
    with pytest.raises(LatticeError):
        SearchBounds(0.5, 0.5)
    with pytest.raises(LatticeError):
        SearchBounds(0.2, 1.2)


def test_stage1_params_validation():
    with pytest.raises(LatticeError):
        Stage1Params(alpha=0.7, kappa=0.4)  # alpha + kappa >= 1
    with pytest.raises(LatticeError):
        Stage1Params(alpha=0.0)
    with pytest.raises(LatticeError):
        Stage1Params(alpha=0.5, kappa=-0.1)
    for bad in ({"kappa": float("nan")}, {"window_const": float("nan")}, {"window_const": float("inf")}):
        with pytest.raises(LatticeError):
            Stage1Params(**bad)


def test_subsample_arithmetic():
    g = Grid.from_array(np.arange(100.0 * 100).reshape(100, 100))
    sub, strides = subsample(g, 0.5)
    assert strides == (10, 10)
    assert sub.dims == (10, 10)
    g2 = Grid.from_array(np.arange(100.0).reshape(10, 10))
    sub2, strides2 = subsample(g2, 0.5)
    assert strides2 == (3, 3)
    assert sub2.dims == (4, 4)  # ceil(10 / 3)
    # sampled value s (0-based) is the grid value at s * L
    assert sub2.data[1, 2] == g2.data[3, 6]


def test_subsample_degenerate():
    g = Grid.from_array(np.zeros((6, 6)))
    with pytest.raises(SubsampleError):
        subsample(g, 0.9)  # L = 5 -> only 2 points per axis


def test_naive_ls_noiseless_exact():
    r = Rect((3, 4), (9, 11))
    x = _patched((14, 15), r)
    assert naive_ls(x, SearchBounds(0.0, 1.0)) == r
    x_neg = _patched((14, 15), r, jump=-2.0)
    assert naive_ls(x_neg, SearchBounds(0.0, 1.0)) == r


def test_naive_ls_constant_grid_degenerate():
    with pytest.raises(DegenerateScanError):
        naive_ls(Grid.from_array(np.full((6, 6), 1.5)), SearchBounds(0.0, 1.0))


def test_naive_ls_no_admissible_candidate():
    g = Grid.from_array(np.arange(16.0).reshape(4, 4))
    with pytest.raises(LatticeError):
        naive_ls(g, SearchBounds(0.9, 0.95))  # needs 14.4 < v < 15.2: impossible


def test_algorithm1_no_admissible_candidate_is_lattice_error():
    g = gen_field(FieldSpec(kind="iid-gaussian", seed=0), (64, 64))
    with pytest.raises(LatticeError, match="no candidate"):
        algorithm1(g, Stage1Params(), SearchBounds(0.97, 1.0))


def test_naive_ls_matches_brute_force_oracle():
    for seed in range(10):
        dims = (8, 8) if seed % 2 == 0 else (10, 10)
        rect = Rect((2, 2), (6, 5))
        x = _patched(dims, rect, jump=1.0, noise="sar", seed=seed)
        fast = naive_ls(x, SearchBounds(0.0, 1.0))
        slow = brute_force_ls(x, 0.0, 1.0)
        assert fast == slow


def test_naive_ls_affine_invariance():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((9, 9))
    data[2:6, 3:8] += 2.0
    b = SearchBounds(0.0, 1.0)
    base = naive_ls(Grid.from_array(data), b)
    assert naive_ls(Grid.from_array(data * 3.5), b) == base
    assert naive_ls(Grid.from_array(data + 11.0), b) == base
    assert naive_ls(Grid.from_array(data * 0.25 - 4.0), b) == base


def test_naive_ls_1d():
    data = np.zeros(40)
    data[12:30] = 1.0
    assert naive_ls(Grid.from_array(data), SearchBounds(0.0, 1.0)) == Rect((12,), (30,))


def test_algorithm1_noiseless_exact():
    r = Rect((16, 24), (48, 56))
    x = _patched((80, 80), r)
    out = algorithm1(x, Stage1Params(alpha=0.5, kappa=0.01))
    assert out == r


def test_algorithm1_full_windows_equal_naive():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((12, 12))
    data[3:8, 2:7] += 1.5
    g = Grid.from_array(data)
    bounds = SearchBounds(0.0, 1.0)
    wide = Stage1Params(alpha=0.5, kappa=0.01, window_const=100.0)
    assert algorithm1(g, wide, bounds) == naive_ls(g, bounds)


def test_algorithm1_3d_noiseless():
    r = Rect((4, 6, 8), (14, 16, 18))
    x = _patched((24, 24, 24), r)
    assert algorithm1(x, Stage1Params(alpha=0.45, kappa=0.01)) == r


def test_algorithm1_monte_carlo_accuracy_64():
    # 64^2 SAR(0.2), one 24x24 patch, jump 1: median relative sym-diff <= 0.15
    r = Rect((20, 20), (44, 44))
    errs = []
    for seed in range(20):
        noise = gen_field(FieldSpec(kind="sar", seed=seed, rho=0.2), (64, 64))
        x = inject_patches(noise, PatchSet(patches=((r, 1.0),)))
        est = algorithm1(x, Stage1Params(alpha=0.5, kappa=0.01))
        errs.append(int((rect_mask(x.dims, est) ^ rect_mask(x.dims, r)).sum()) / r.volume())
    assert float(np.median(errs)) <= 0.15


def test_algorithm1_near_linear_runtime_scaling():
    # Near-linear growth: candidate pairs scale like n * log^2 n, so doubling
    # the side from 256 to 512 must cost <= 6x and the 128 -> 512 span <= 36x.
    # (The 128 -> 256 step alone can exceed 6x: floor(n_k^0.5) jumps 11 -> 16
    # and the ceil'd window widths jump 73 -> 115, giving a 6.2x pair ratio
    # before any measurement noise.)
    import time

    params = Stage1Params(alpha=0.5, kappa=0.01)
    med = {}
    for n in (128, 256, 512):
        r = Rect((int(0.3 * n), int(0.3 * n)), (int(0.7 * n), int(0.7 * n)))
        ts = []
        for rep in range(3):
            noise = gen_field(FieldSpec(kind="iid-gaussian", seed=200 + rep), (n, n))
            x = inject_patches(noise, PatchSet(patches=((r, 1.0),)))
            t0 = time.perf_counter()
            algorithm1(x, params)
            ts.append(time.perf_counter() - t0)
        med[n] = sorted(ts)[1]
    assert med[512] / med[256] <= 6.0, med
    assert med[512] / med[128] <= 36.0, med


def test_algorithm1_dominates_window_candidates():
    # output |contrast| >= |contrast| of every rectangle with corners in the
    # windows, each scored exactly by the oracle as sqrt(score_sq) / n
    from splade.single import _stage1_bounds, window_half_width

    rng = np.random.default_rng(3)
    data = rng.standard_normal((30, 30))
    data[6:20, 8:24] += 1.0
    g = Grid.from_array(data)
    params = Stage1Params(alpha=0.5, kappa=0.01)
    out = algorithm1(g, params)
    sub, strides = subsample(g, params.alpha)
    coarse = naive_ls(sub, _stage1_bounds(sub.size))

    def score(r):
        score_sq, _ = brute_force_search(g, 0, 1, [[lo] for lo in r.lo], [[hi] for hi in r.hi])
        return math.sqrt(score_sq) / g.size

    best = score(out)
    for k in range(2):
        assert out.lo[k] >= 0 and out.hi[k] <= 30
    lo_axes, hi_axes = [], []
    for k in range(2):
        hw = window_half_width(strides[k], 30, g.size, 2, params.kappa, 1.0)
        c_lo, c_hi = strides[k] * coarse.lo[k], strides[k] * coarse.hi[k]
        lo_axes.append(range(max(0, c_lo - hw), min(29, c_lo + hw) + 1))
        hi_axes.append(range(max(1, c_hi - hw), min(30, c_hi + hw) + 1))
    rng2 = np.random.default_rng(0)
    for _ in range(300):
        lo = tuple(int(rng2.choice(list(ax))) for ax in lo_axes)
        hi = tuple(int(rng2.choice(list(ax))) for ax in hi_axes)
        r = Rect(lo, hi)
        if r.is_empty or r.volume() >= g.size:
            continue
        assert score(r) <= best + 1e-12
