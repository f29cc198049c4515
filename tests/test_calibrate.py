import math
import tracemalloc

import numpy as np
import pytest

from splade import calibrate
from splade.calibrate import (
    CalibrationError,
    _moving_sums,
    boundary_layer_mask,
    default_bandwidths,
    masked_lrv,
    median,
    threshold_q,
)
from splade.lattice import Grid
from splade.simulate import FieldSpec, gen_field

from helpers import brute_force_lrv, lag_sum_lrv, strided


def test_boundary_layer_matches_direct_enumeration():
    dims = (20, 13)
    beta = 0.5
    mask = boundary_layer_mask(dims, beta)
    for i in range(dims[0]):
        for j in range(dims[1]):
            expect = False
            for k, idx in enumerate((i, j)):
                n = dims[k]
                t = n**beta
                if (idx + 1) <= t or (idx + 1) >= n - t + 1:
                    expect = True
            assert mask[i, j] == expect, (i, j)


def _layer_mu0(g, beta):
    """The baseline as ``splade_detect`` estimates it: the boundary layer's mean."""
    return float(g.data[boundary_layer_mask(g.dims, beta)].mean())


def _layer_lrv(g, beta, bandwidths=None):
    """The long-run variance as ``splade_detect`` estimates it, on the boundary layer."""
    bandwidths = bandwidths or default_bandwidths(g.dims)
    mask = boundary_layer_mask(g.dims, beta)
    return masked_lrv(g.data, mask, bandwidths, float(g.data[mask].mean()))


def test_mu0_constant_and_interior_patch():
    g = Grid.from_array(np.full((32, 32), 4.25))
    assert _layer_mu0(g, 0.5) == 4.25
    data = np.full((64, 64), 1.5)
    data[24:40, 24:40] += 9.0  # interior patch, disjoint from the beta=0.5 layer
    assert _layer_mu0(Grid.from_array(data), 0.5) == 1.5


def test_mu0_iid_clt_band():
    rng = np.random.default_rng(17)
    g = Grid.from_array(5.0 + rng.standard_normal((128, 128)))
    mask = boundary_layer_mask(g.dims, 0.5)
    est = _layer_mu0(g, 0.5)
    assert abs(est - 5.0) < 5.0 / math.sqrt(int(mask.sum()))


def test_mu0_depends_only_on_layer_cells():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 40))
    g1 = Grid.from_array(data.copy())
    mask = boundary_layer_mask(g1.dims, 0.6)
    interior = np.argwhere(~mask)
    data2 = data.copy()
    for idx in interior[:25]:
        data2[tuple(idx)] += 100.0
    g2 = Grid.from_array(data2)
    assert _layer_mu0(g1, 0.6) == _layer_mu0(g2, 0.6)
    assert _layer_lrv(g1, 0.6) == _layer_lrv(g2, 0.6)


def test_kernel_validation():
    data, mask = np.ones((4, 5)), np.ones((4, 5), dtype=bool)
    for bad in [(0.5, 2), (2.5, 2), (2.0, 2), (0, 2), (2,), (2, 2, 2)]:
        with pytest.raises(CalibrationError, match="integer bandwidths >= 1"):
            masked_lrv(data, mask, bad, 1.0)
    assert masked_lrv(data, mask, (1, np.int64(3)), 1.0) == 0.0
    assert default_bandwidths((64, 100)) == (3, 4)
    assert all(type(b) is int for b in default_bandwidths((64, 100)))


def test_lrv_constant_grid_zero():
    g = Grid.from_array(np.full((48, 48), 2.0))
    assert _layer_lrv(g, 0.7) == 0.0


def test_lrv_iid_near_one():
    vals = [
        _layer_lrv(
            Grid.from_array(np.random.default_rng(s).standard_normal((128, 128))),
            0.7,
            (1, 1),  # only the lag-0 term survives
        )
        for s in range(20)
    ]
    assert all(abs(v - 1.0) < 0.15 for v in vals)
    assert abs(float(np.mean(vals)) - 1.0) < 0.05


def test_lrv_sar_exceeds_plain_variance():
    wins = 0
    for s in range(10):
        g = gen_field(FieldSpec(kind="sar", seed=s, rho=0.4), (128, 128))
        mask = boundary_layer_mask(g.dims, 0.7)
        plain = float(g.data[mask].var())
        hac = _layer_lrv(g, 0.7, (8, 8))
        wins += hac > plain
    assert wins == 10


@pytest.mark.parametrize("kind", ["bartlett"])  # the case ids name the kernel
@pytest.mark.parametrize(
    "dims, bandwidths",
    [((7,), (3,)), ((6, 5), (3, 2)), ((3, 8), (5, 2)), ((3, 4, 3), (2, 1, 5))],
)
def test_masked_lrv_matches_double_sum(kind, dims, bandwidths, monkeypatch):
    # (3, 8) with bandwidth 5 on the short axis and (3, 4, 3) with 5 on the
    # last have kernel lags as long as the axis, whose cell pairs are empty;
    # every strip size of ``_strip_sizes`` gives the same value
    rng = np.random.default_rng(len(dims) * 10 + len(kind))
    data = rng.standard_normal(dims) + np.indices(dims).sum(axis=0) * 0.3
    for mask in (np.ones(dims, dtype=bool), rng.random(dims) < 0.6):
        want, _ = brute_force_lrv(data, mask, bandwidths)
        mean = float(data[mask].mean())
        for cells in _strip_sizes(dims, bandwidths):
            monkeypatch.setattr(calibrate, "_STRIP_CELLS", cells)
            assert masked_lrv(data, mask, bandwidths, mean) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["bartlett"])  # the case ids name the kernel
@pytest.mark.parametrize(
    "dims, bandwidths",
    [
        ((8192,), None),
        ((4099,), None),
        ((4099,), (5000,)),
        ((37, 53), None),
        ((37, 53), (40, 3)),
        ((19, 23, 17), None),
        ((19, 23, 17), (20, 2, 3)),
        ((7, 11, 5, 13), None),
        ((7, 11, 5, 13), (8, 2, 1, 4)),
    ],
)
def test_masked_lrv_matches_lag_sum(kind, dims, bandwidths, monkeypatch):
    # medium grids with prime axis lengths, default bandwidths and bandwidths
    # longer than an axis, on data offset by 1e3 and on an alternating +-1
    # field, whose moving sums cancel to near zero, at the default strip size
    # (one strip for every grid here) and at each size of ``_strip_sizes``;
    # a Fortran-ordered copy and a strided view of each input give the
    # C-ordered result bit for bit
    rng = np.random.default_rng(sum(dims) + len(kind))
    offset = rng.standard_normal(dims) + 1e3
    alternating = np.indices(dims).sum(axis=0) % 2 * 2.0 - 1.0
    bandwidths = bandwidths or default_bandwidths(dims)
    masks = (np.ones(dims, dtype=bool), rng.random(dims) < 0.5, boundary_layer_mask(dims, 0.7))
    for data in (offset, alternating):
        for mask in masks:
            want, _ = lag_sum_lrv(data, mask, bandwidths)
            fortran = np.asfortranarray(data), np.asfortranarray(mask)
            views = strided(data, np.nan), strided(mask, True)
            mean = float(data[mask].mean())
            # the caller's gather reads the cells in C order whatever their layout
            assert float(fortran[0][fortran[1]].mean()) == float(views[0][views[1]].mean()) == mean
            for cells in (calibrate._STRIP_CELLS, *_strip_sizes(dims, bandwidths)):
                monkeypatch.setattr(calibrate, "_STRIP_CELLS", cells)
                sigma2 = masked_lrv(data, mask, bandwidths, mean)
                assert sigma2 == pytest.approx(want, rel=1e-12)
                assert masked_lrv(*fortran, bandwidths, mean) == sigma2
                assert masked_lrv(*views, bandwidths, mean) == sigma2


def _strip_sizes(dims, bandwidths, max_strips=256):
    """``_STRIP_CELLS`` values for strips of 1, 2 and ceil((b_0 - 1) / 2) padded-grid rows.

    Each strip also holds the b_0 - 1 halo rows before it, so the last size
    has fewer rows than its halo once b_0 > 3.  Sizes that would walk more
    than ``max_strips`` strips are left out: they are the one- and two-cell
    strips of the long 1-D grids, whose seams the small grids of
    ``test_masked_lrv_matches_double_sum`` cover.
    """
    padded = [n + b - 1 for n, b in zip(dims, bandwidths)]
    row, halo = math.prod(padded[1:]), bandwidths[0] - 1
    rows = sorted({1, 2, math.ceil(halo / 2)} - {0})
    return [row * (halo + k) for k in rows if math.ceil(padded[0] / k) <= max_strips]


@pytest.mark.parametrize("step", [1, 7])
def test_moving_sums_match_a_loop(step):
    # integer-valued cells, so every sum is exact whatever its order; widths
    # 1..17 and widths past the buffer's end, whose windows all run off its start
    x = np.random.default_rng(step).integers(-9, 10, 61).astype(np.float64)
    for b in [*range(1, 18), 60, 61, 62, 500]:
        p, q, r = x.copy(), np.full_like(x, np.nan), np.full_like(x, np.nan)
        sums, *scratch = _moving_sums(p, q, r, step, b)
        want = [sum(x[i - t * step] for t in range(b) if i - t * step >= 0) for i in range(x.size)]
        assert sums.tolist() == want, b
        assert sorted(map(id, (sums, *scratch))) == sorted(map(id, (p, q, r)))


def test_masked_lrv_makes_no_grid_sized_buffer():
    dims = (1024, 1024)
    data = np.random.default_rng(5).standard_normal(dims)
    mask = boundary_layer_mask(dims, 0.7)
    mean = float(data[mask].mean())
    tracemalloc.start()
    try:
        masked_lrv(data, mask, default_bandwidths(dims), mean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * data.nbytes


def test_threshold_over_array_matches_scalar_bitwise():
    vols = np.array([[1, 2, 9], [64, 63, 4096]], dtype=np.int64)
    for sigma, m, kappa in [(1.0, 1, 0.05), (2.5, 484, 0.01), (0.3, 10**6, 0.5)]:
        q = threshold_q(sigma, vols, m, kappa)
        assert q.shape == vols.shape
        for v, got in zip(vols.ravel().tolist(), q.ravel().tolist()):
            assert got == threshold_q(sigma, float(v), m, kappa)  # bit-for-bit
    with pytest.raises(CalibrationError):
        threshold_q(1.0, np.array([4, 0.5]), 4, 0.05)


def test_threshold_single_block_is_normal_quantile():
    assert threshold_q(1.0, 1.0, 1, 0.05) == pytest.approx(1.95996, abs=1e-4)


def test_threshold_linear_in_sigma():
    base = threshold_q(1.0, 64.0, 100, 0.05)
    assert threshold_q(2.0, 64.0, 100, 0.05) == pytest.approx(2 * base, rel=1e-12)


def test_threshold_monotonicity_grid():
    for v in (4.0, 64.0, 256.0):
        for m in (4, 64, 1024):
            q1 = threshold_q(1.0, v, m, 0.05)
            assert threshold_q(1.0, v, m, 0.01) > q1  # stricter level
            assert threshold_q(1.0, v, 4 * m, 0.05) > q1  # more blocks
            assert threshold_q(1.0, 4 * v, m, 0.05) == pytest.approx(q1 / 2)
            assert threshold_q(3.0, v, m, 0.05) == pytest.approx(3 * q1)


def test_threshold_large_block_counts():
    # defined and increasing up to M = 1e15, where (1 + (1 - kappa)^(1/M)) / 2
    # rounds to 1 and inv_cdf of it is undefined
    ms = [10**e for e in range(3, 16)]
    qs = [threshold_q(1.0, 1.0, m, 0.05) for m in ms]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    for m, q in zip(ms, qs):
        # P(max of M iid |Z| <= q) = (1 - erfc(q / sqrt 2))^M must be 1 - kappa
        log_cdf = m * math.log1p(-math.erfc(q / math.sqrt(2.0)))
        assert log_cdf == pytest.approx(math.log1p(-0.05), rel=1e-9)


def test_threshold_agrees_with_closed_form_for_few_blocks():
    from statistics import NormalDist

    for m in (1, 2, 7, 64, 1000, 10**4):
        for kappa in (0.01, 0.05, 0.5):
            p = (1.0 + (1.0 - kappa) ** (1.0 / m)) / 2.0
            old = 2.5 / math.sqrt(9.0) * NormalDist().inv_cdf(p)
            assert threshold_q(2.5, 9.0, m, kappa) == pytest.approx(old, rel=1e-12, abs=0.0)


def test_threshold_domain_errors():
    for bad in [(0.0, 4, 4, 0.05), (1.0, 0.5, 4, 0.05), (1.0, 4, 0, 0.05), (1.0, 4, 4, 1.0)]:
        with pytest.raises(CalibrationError):
            threshold_q(*bad)


def test_threshold_vs_monte_carlo_oracle():
    # empirical quantile of max_s |Z_s| / sqrt(v) over 200k draws, 2% tolerance
    rng = np.random.default_rng(2024)
    draws = 200_000
    m = 256
    v = 256.0
    sigma = 1.0
    kappa = 0.05
    peak = np.zeros(draws)
    for _ in range(8):  # stream in slabs of 32 increments
        z = np.abs(rng.standard_normal((draws, m // 8)))
        np.maximum(peak, z.max(axis=1), out=peak)
    mc = sigma / math.sqrt(v) * float(np.quantile(peak, 1 - kappa))
    closed = threshold_q(sigma, v, m, kappa)
    assert abs(closed - mc) / mc < 0.02


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1000, 1001])
def test_median_equals_numpy_median_bit_for_bit(n):
    """The one-partition median has the bits of ``np.median`` for odd and even
    sizes, with ties, on constant arrays (-0.0 among them) and on a view."""
    rng = np.random.default_rng(n)
    cases = {
        "normal": rng.standard_normal(n),
        "ties": rng.integers(-2, 3, size=n).astype(np.float64),
        "one tie at the middle": np.sort(rng.standard_normal(n)).repeat(2)[: n],
        "constant": np.full(n, 0.1),
        "constant -0.0": np.full(n, -0.0),
        "view": strided(rng.standard_normal(n) * 1e6, np.nan),
    }
    for name, x in cases.items():
        got, want = median(x), np.median(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, got, want)
