"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use fixed seeds; thresholds and replicate counts
are pinned here, not tuned at runtime.
"""

import math
import time

import numpy as np

from splade.bench import run_bench
from splade.calibrate import threshold_q
from splade.detect import SpladeConfig, splade_detect
from splade.lattice import Grid, PatchSet, Rect
from splade.metrics import ari, hausdorff, jaccard_distance
from splade.simulate import (
    FieldSpec,
    canonical_scenario,
    decay_stencil,
    gen_field,
    inject_patches,
)
from splade.single import SearchBounds, naive_ls

from helpers import brute_force_ls, mask_hausdorff
from test_simulate import sar_residual


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(50):
        dims = (8, 8) if i % 2 == 0 else (10, 10)
        kind = "iid-gaussian" if i < 25 else "sar"
        noise = gen_field(FieldSpec(kind=kind, seed=1000 + i, rho=0.4), dims)
        rect = Rect((2, 1), (6, 5)) if i % 2 == 0 else Rect((3, 2), (8, 7))
        x = inject_patches(noise, PatchSet(patches=((rect, 1.0),)))
        fast = naive_ls(x, SearchBounds(0.0, 1.0))
        slow = brute_force_ls(x, 0.0, 1.0)
        mismatches += fast != slow
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"0 mismatches required, got {mismatches}; {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_noiseless_exactness():
    t0 = time.perf_counter()
    failures = []
    for name, k in (("config1", 3), ("config2", 5)):
        for n in (128, 256):
            truth = canonical_scenario(name, n, 0.1)
            x = inject_patches(Grid.from_array(np.zeros((n, n))), truth)
            det = splade_detect(x)
            want = sorted(truth.rects, key=lambda r: (r.lo, r.hi))
            if det.k_hat != k or list(det.patches) != want:
                failures.append((name, n, det.k_hat))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        not failures and elapsed < 5.0,
        f"exact on all 4 scenes required, failures={failures}; {elapsed:.1f}s (< 5s)",
    )


def _scenario_stats(noise, reps, seed, config=None, grid_n=256):
    recs = run_bench("config1", grid_n, noise, 1.0, reps=reps, seed=seed, config=config)
    frac = sum(r.k_hat == 3 for r in recs) / len(recs)
    mean_ari = float(np.mean([r.ari for r in recs]))
    mean_haus = float(np.mean([r.hausdorff for r in recs]))
    times = [r.time_s for r in recs]
    return frac, mean_ari, mean_haus, times


def test_criterion_3_table2_desk_scale():
    t0 = time.perf_counter()
    frac, mean_ari, mean_haus, _ = _scenario_stats("sar:0.04", reps=20, seed=7)
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.85 and mean_ari >= 0.80 and mean_haus <= 0.35 and elapsed < 600
    _verdict(
        3,
        ok,
        f"P(k=3)={frac:.2f} (>=0.85) ARI={mean_ari:.3f} (>=0.80) "
        f"Haus={mean_haus:.3f} (<=0.35); {elapsed:.0f}s (< 600s)",
    )


def test_criterion_4_dependence_robustness():
    frac, mean_ari, _, _ = _scenario_stats("sar:0.4", reps=20, seed=7)
    _verdict(
        4,
        frac >= 0.85 and mean_ari >= 0.80,
        f"P(k=3)={frac:.2f} (>=0.85) ARI={mean_ari:.3f} (>=0.80) at SAR(0.4)",
    )


def test_criterion_5_false_positive_control():
    zero = 0
    for seed in range(20):
        g = gen_field(FieldSpec(kind="iid-gaussian", seed=500 + seed), (256, 256))
        det = splade_detect(g, SpladeConfig(kappa_level=0.05))
        zero += det.k_hat == 0
    _verdict(5, zero >= 18, f"k_hat=0 in {zero}/20 runs (>= 18)")


def test_criterion_6_runtime_scaling():
    medians = {}
    for n in (256, 512):
        times = []
        for rep in range(20):
            noise = gen_field(FieldSpec(kind="sar", seed=7 ^ rep, rho=0.04), (n, n))
            x = inject_patches(noise, canonical_scenario("config1", n, 1.0))
            t0 = time.perf_counter()
            splade_detect(x)
            times.append(time.perf_counter() - t0)
        medians[n] = float(np.median(times))
    ratio = medians[512] / medians[256]
    _verdict(
        6,
        ratio <= 6.0,
        f"median t(512^2)={medians[512]:.2f}s t(256^2)={medians[256]:.2f}s "
        f"ratio={ratio:.2f} (<= 6)",
    )


def test_criterion_7_threshold_vs_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    draws = 200_000
    peak64 = np.zeros(draws)
    peak1024 = np.zeros(draws)
    for slab in range(16):
        z = np.abs(rng.standard_normal((draws, 64)))
        m = z.max(axis=1)
        if slab == 0:
            peak64 = m.copy()
        np.maximum(peak1024, m, out=peak1024)
    worst = 0.0
    for sigma in (1.0, 2.0):
        for v in (64.0, 256.0):
            for m_blocks, peak in ((64, peak64), (1024, peak1024)):
                for kappa in (0.01, 0.05):
                    mc = sigma / math.sqrt(v) * float(np.quantile(peak, 1 - kappa))
                    closed = threshold_q(sigma, v, m_blocks, kappa)
                    worst = max(worst, abs(closed - mc) / mc)
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        worst < 0.02 and elapsed < 30.0,
        f"worst relative error {worst:.4f} (< 0.02) over 16 combos; "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_alpha_sensitivity():
    fracs = {}
    for alpha in (0.4, 0.5, 0.6):
        cfg = SpladeConfig(alpha=alpha)
        frac, _, _, _ = _scenario_stats("sar:0.2", reps=10, seed=11, config=cfg)
        fracs[alpha] = frac
    _verdict(
        8,
        all(f >= 0.8 for f in fracs.values()),
        "P(k=3) by alpha: "
        + ", ".join(f"{a}={f:.2f}" for a, f in fracs.items())
        + " (each >= 0.8)",
    )


def test_criterion_9_metric_unit_suite():
    t0 = time.perf_counter()
    ok = True
    ok &= abs(ari(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 2])) - 4.0 / 7.0) < 1e-12
    empty = Rect((1, 1), (1, 1))
    ok &= jaccard_distance(empty, empty) == 0.0
    rng = np.random.default_rng(17)
    dims = (16, 16)
    for _ in range(200):
        def draw():
            rects = []
            for _ in range(int(rng.integers(0, 4))):
                lo = tuple(int(x) for x in rng.integers(0, 14, 2))
                hi = tuple(int(min(rng.integers(l + 1, 17), 16)) for l in lo)
                cand = Rect(lo, hi)
                if all(cand.intersect(r).is_empty for r in rects):
                    rects.append(cand)
            return rects

        t, e = draw(), draw()
        d = hausdorff(t, e, dims)
        ok &= 0.0 <= d <= 1.0
        ok &= abs(d - hausdorff(e, t, dims)) < 1e-12  # symmetry
        ok &= abs(d - mask_hausdorff(t, e, dims)) < 1e-12  # oracle agreement
        if t == e:
            ok &= d == 0.0
    ok &= hausdorff([Rect((0, 0), (4, 4))], [Rect((0, 0), (4, 4))], dims) == 0.0
    elapsed = time.perf_counter() - t0
    _verdict(9, ok and elapsed < 5.0, f"unit identities hold; {elapsed:.1f}s (< 5s)")


def test_criterion_10_generator_suite():
    t0 = time.perf_counter()
    dims = (128, 128)
    rho = 0.4
    out = gen_field(FieldSpec(kind="sar", seed=13, rho=rho), dims)
    e = np.random.default_rng(13).standard_normal(dims)
    resid = sar_residual(out.data, e, rho)
    identity = np.array_equal(
        gen_field(FieldSpec(kind="sar", seed=21, rho=0.0), dims).data,
        np.random.default_rng(21).standard_normal(dims),
    )
    offsets, weights = decay_stencil(0.6, 2)
    stencil = {tuple(o): w for o, w in zip(offsets.tolist(), weights.tolist())}
    repeat = all(
        np.array_equal(
            gen_field(FieldSpec(kind=k, seed=5, rho=0.3, tail_index=2.5, m=2), (48, 48)).data,
            gen_field(FieldSpec(kind=k, seed=5, rho=0.3, tail_index=2.5, m=2), (48, 48)).data,
        )
        for k in ("iid-gaussian", "sar", "m-dependent", "max-stable")
    )
    elapsed = time.perf_counter() - t0
    ok = (
        resid < 1e-8
        and identity
        and abs(stencil[(1, 1)] - 0.36) < 1e-12
        and repeat
        and elapsed < 30.0
    )
    _verdict(
        10,
        ok,
        f"residual={resid:.2e} (<1e-8) rho0-identity={identity} "
        f"a_(1,1)={stencil[(1, 1)]:.2f} determinism={repeat}; {elapsed:.1f}s (< 30s)",
    )
