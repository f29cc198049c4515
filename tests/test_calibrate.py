import math

import numpy as np
import pytest

from splade.calibrate import (
    CalibrationError,
    KernelSpec,
    boundary_layer_mask,
    default_bandwidths,
    empirical_variogram,
    estimate_lrv,
    estimate_mu0,
    fft_length,
    masked_lrv,
    threshold_q,
)
from splade.lattice import Grid
from splade.simulate import FieldSpec, gen_field

from helpers import brute_force_lrv, lag_sum_lrv


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


def test_mu0_constant_and_interior_patch():
    g = Grid.from_array(np.full((32, 32), 4.25))
    assert estimate_mu0(g, beta=0.5) == 4.25
    data = np.full((64, 64), 1.5)
    data[24:40, 24:40] += 9.0  # interior patch, disjoint from the beta=0.5 layer
    assert estimate_mu0(Grid.from_array(data), beta=0.5) == 1.5


def test_mu0_iid_clt_band():
    rng = np.random.default_rng(17)
    g = Grid.from_array(5.0 + rng.standard_normal((128, 128)))
    mask = boundary_layer_mask(g.dims, 0.5)
    est = estimate_mu0(g, beta=0.5)
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
    assert estimate_mu0(g1, 0.6) == estimate_mu0(g2, 0.6)
    k = KernelSpec("bartlett", default_bandwidths(g1.dims))
    assert estimate_lrv(g1, 0.6, k) == estimate_lrv(g2, 0.6, k)


def test_kernel_validation():
    with pytest.raises(CalibrationError):
        KernelSpec("gauss", (2.0, 2.0))
    with pytest.raises(CalibrationError):
        KernelSpec("bartlett", (0.5, 2.0))
    k = KernelSpec("parzen", (2.0,))
    assert k.weight1d(0.0) == 1.0
    assert k.weight1d(1.0) == 0.0
    assert k.weight1d(0.25) == k.weight1d(-0.25)


def test_lrv_constant_grid_zero():
    g = Grid.from_array(np.full((48, 48), 2.0))
    assert estimate_lrv(g, 0.7) == 0.0


def test_lrv_iid_near_one():
    vals = [
        estimate_lrv(
            Grid.from_array(np.random.default_rng(s).standard_normal((128, 128))),
            0.7,
            KernelSpec("bartlett", (1.0, 1.0)),  # only the lag-0 term survives
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
        hac = estimate_lrv(g, 0.7, KernelSpec("bartlett", (8.0, 8.0)))
        wins += hac > plain
    assert wins == 10


def test_masked_lrv_negative_clamp_flag():
    # strongly alternating field drives the Bartlett sum toward zero but the
    # clamp path must return the plain variance when the raw value dips below
    data = np.indices((30, 30)).sum(axis=0) % 2 * 2.0 - 1.0
    mask = np.ones((30, 30), dtype=bool)
    sigma2, clamped = masked_lrv(data, mask, KernelSpec("bartlett", (2.0, 2.0)))
    assert sigma2 >= 0.0
    if clamped:
        assert sigma2 == pytest.approx(float(data.var()))


@pytest.mark.parametrize("kind", ["bartlett", "parzen"])
@pytest.mark.parametrize(
    "dims, bandwidths",
    [((7,), (3.0,)), ((6, 5), (2.5, 2.0)), ((3, 8), (5.0, 1.5)), ((3, 4, 3), (2.0, 1.0, 4.5))],
)
def test_masked_lrv_matches_double_sum(kind, dims, bandwidths):
    # (3, 8) with bandwidth 5 on the short axis and (3, 4, 3) with 4.5 on the
    # last have kernel lags as long as the axis, whose cell pairs are empty
    rng = np.random.default_rng(len(dims) * 10 + len(kind))
    data = rng.standard_normal(dims) + np.indices(dims).sum(axis=0) * 0.3
    for mask in (np.ones(dims, dtype=bool), rng.random(dims) < 0.6):
        kernel = KernelSpec(kind, bandwidths)
        sigma2, clamped = masked_lrv(data, mask, kernel)
        want, want_clamped = brute_force_lrv(data, mask, kernel)
        assert clamped == want_clamped
        assert sigma2 == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["bartlett", "parzen"])
@pytest.mark.parametrize(
    "dims, bandwidths",
    [
        ((8192,), None),
        ((4099,), None),
        ((4099,), (5000.0,)),
        ((37, 53), None),
        ((37, 53), (40.0, 2.5)),
        ((19, 23, 17), None),
        ((19, 23, 17), (20.0, 1.5, 3.0)),
        ((7, 11, 5, 13), None),
        ((7, 11, 5, 13), (8.0, 2.0, 1.0, 3.5)),
    ],
)
def test_masked_lrv_matches_lag_sum(kind, dims, bandwidths):
    # medium grids with prime axis lengths, default bandwidths and bandwidths
    # longer than an axis, on data offset by 1e3
    rng = np.random.default_rng(sum(dims) + len(kind))
    data = rng.standard_normal(dims) + 1e3
    kernel = KernelSpec(kind, bandwidths or default_bandwidths(dims))
    masks = (np.ones(dims, dtype=bool), rng.random(dims) < 0.5, boundary_layer_mask(dims, 0.7))
    for mask in masks:
        sigma2, clamped = masked_lrv(data, mask, kernel)
        want, want_clamped = lag_sum_lrv(data, mask, kernel)
        assert clamped == want_clamped
        assert sigma2 == pytest.approx(want, rel=1e-12)


def test_fft_length_is_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 5001):
        want = n
        while not smooth(want):
            want += 1
        assert fft_length(n) == want, n


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


def test_variogram_constant_zero():
    g = Grid.from_array(np.full((32, 32), 7.0))
    g0, gam = empirical_variogram(g, 0, 5)
    assert g0 == 0.0
    assert np.all(gam == 0.0)


def test_variogram_iid_flat_at_variance():
    g = Grid.from_array(np.random.default_rng(8).standard_normal((128, 128)))
    g0, gam = empirical_variogram(g, 1, 8)
    assert np.all(np.abs(gam - 1.0) < 0.1)
    assert g0 == pytest.approx(1.0, abs=0.1)


def test_variogram_sar_rises_toward_sill():
    g = gen_field(FieldSpec(kind="sar", seed=5, rho=0.8), (192, 192))
    _, gam = empirical_variogram(g, 0, 8)
    assert gam[0] < gam[7]


def test_variogram_shift_invariant():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((40, 40))
    _, a = empirical_variogram(Grid.from_array(data), 0, 6)
    _, b = empirical_variogram(Grid.from_array(data + 13.0), 0, 6)
    assert np.allclose(a, b)


def test_variogram_domain_errors():
    g = Grid.from_array(np.zeros((10, 10)))
    with pytest.raises(CalibrationError):
        empirical_variogram(g, 2, 3)
    with pytest.raises(CalibrationError):
        empirical_variogram(g, 0, 10)
