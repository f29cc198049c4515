import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from splade import simulate
from splade.lattice import Grid, LatticeError, PatchSet, Rect
from splade.simulate import (
    FieldSpec,
    SimulationError,
    _neighbor_sum,
    canonical_scenario,
    decay_stencil,
    frechet_centering,
    gen_field,
    inject_patches,
)

from helpers import per_offset_max_stable, whole_grid_sar

# two cells, a single row, a single column and a one-cell axis in ranks 1 to 4,
# then longer shapes that take several strips at the smaller strip sizes
ORACLE_SHAPES = [(2,), (1, 7), (7, 1), (3, 5, 2), (3, 2, 1, 4), (37,), (13, 11), (9, 6, 5), (5, 4, 3, 6)]


def sar_residual(field, e, rho):
    """Largest |eps - rho * (W eps) - e| over the grid, W the row-normalised neighbour sum."""
    n = field.shape[0]
    counts = _neighbor_sum(np.ones(field.shape), 0, n, np.empty(field.shape))
    neighbours = _neighbor_sum(field, 0, n, np.empty(field.shape))
    return float(np.max(np.abs(field - rho * (neighbours / counts) - e)))


def test_spec_validation():
    with pytest.raises(SimulationError):
        FieldSpec(kind="sar", rho=1.0)
    with pytest.raises(SimulationError):
        FieldSpec(kind="max-stable", tail_index=2.0)
    with pytest.raises(SimulationError):
        FieldSpec(kind="linear")
    with pytest.raises(SimulationError):
        FieldSpec(kind="white-noise")


def test_sar_rho_zero_is_raw_innovations():
    out = gen_field(FieldSpec(kind="sar", seed=9, rho=0.0), (64, 64))
    ref = np.random.default_rng(9).standard_normal((64, 64))
    assert np.array_equal(out.data, ref)


@pytest.mark.parametrize("rho", [0.04, 0.4, 0.8])
def test_sar_residual_satisfies_defining_equation(rho):
    dims = (48, 48)
    out = gen_field(FieldSpec(kind="sar", seed=13, rho=rho), dims)
    e = np.random.default_rng(13).standard_normal(dims)
    assert sar_residual(out.data, e, rho) < 1e-8


def _sar_strip_sizes(dims):
    """``_STRIP_CELLS`` values for strips of less than a row, 1 row, 2 rows, a
    ragged last strip (n // 2 + 1 rows of n) and the whole grid."""
    row, n = math.prod(dims[1:]), dims[0]
    return sorted({1, row, 2 * row, (n // 2 + 1) * row, n * row})


@pytest.mark.parametrize("rho", [0.04, 0.4, 0.9])
@pytest.mark.parametrize("dims", ORACLE_SHAPES)
def test_sar_equals_whole_grid_sweeps_bit_for_bit(dims, rho, monkeypatch):
    want = whole_grid_sar(np.random.default_rng(3), dims, rho).tobytes()
    for cells in _sar_strip_sizes(dims):
        monkeypatch.setattr(simulate, "_STRIP_CELLS", cells)
        assert gen_field(FieldSpec(kind="sar", seed=3, rho=rho), dims).data.tobytes() == want, cells


# base 0.85 reaches shell 85, whose stencil has 2.8e6 offsets in 4-D: ranks 1 and 2 only
@pytest.mark.parametrize(
    "dims, tail_index, base",
    [(dims, t, b) for dims in ORACLE_SHAPES for t, b in [(3.0, 0.6), (2.5, 0.3), (2.2, 0.85)]
     if b < 0.85 or len(dims) <= 2],
)
def test_max_stable_equals_per_offset_maxima_bit_for_bit(dims, tail_index, base):
    want = per_offset_max_stable(np.random.default_rng(5), dims, tail_index, base).tobytes()
    spec = FieldSpec(kind="max-stable", seed=5, tail_index=tail_index, decay_base=base)
    assert gen_field(spec, dims).data.tobytes() == want


@pytest.mark.parametrize("dims", [(512, 512), (1024, 1024)])
def test_sar_sweeps_make_no_grid_sized_temporaries(dims):
    # the innovations and two sweep buffers are three grids, and the byte-sized
    # neighbour counts an eighth of one; the whole-grid sweep peaked at 7.0x
    # with its temporaries
    tracemalloc.start()
    try:
        out = gen_field(FieldSpec(kind="sar", seed=7, rho=0.4), dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * out.data.nbytes


def test_sar_that_does_not_converge_names_the_sweep_cap():
    with pytest.raises(SimulationError, match="did not converge within 1000 sweeps"):
        gen_field(FieldSpec(kind="sar", seed=1, rho=0.995), (16, 16))


@pytest.mark.parametrize(
    "kind, kw, digest",
    [
        ("iid-gaussian", {}, "d44c02b2d559573f45a75a4070f86ed1c5f6680752df70a46363653c2013c10f"),
        ("sar", {"rho": 0.4}, "5e5174aecd9ede9072a644cc63662509d356aa3b34e79a58a4ed2815a3cb6cfe"),
        ("linear", {"stencil": (((0, 0), 1.0), ((1, 0), 0.5), ((-1, 2), -0.25))},
         "25ca96691f70b00a4b344d91faa35bf93de53a59f9fa59542623c9451b4b2c9e"),
        ("m-dependent", {"m": 2}, "2ac2264f87a231a1fdd6fc29ac547b2425e17c84fd417c77d09cdbb72b06a559"),
        ("max-stable", {"tail_index": 2.5},
         "0c5f7febdb01cfe7883a5484c76de84179fb84546cb6e457868343cb31465ece"),
    ],
)
def test_generator_fingerprint(kind, kw, digest):
    # sha256 of the little-endian float64 cells of a 9x7 field at seed 2024,
    # taken before sar was swept in strips and max-stable taken by shells: a
    # change to any generator's bits fails here, not only in the golden corpus
    data = gen_field(FieldSpec(kind=kind, seed=2024, **kw), (9, 7)).data
    assert hashlib.sha256(data.astype("<f8").tobytes()).hexdigest() == digest


def test_sar_one_cell_grid_rejected_up_front():
    with pytest.raises(SimulationError, match="at least two cells"):
        gen_field(FieldSpec(kind="sar", rho=0.3), (1,))
    assert gen_field(FieldSpec(kind="sar", rho=0.3), (2,)).dims == (2,)


@pytest.mark.parametrize("dims", [(0,), (-5, -5), (4, 0, 3), ()])
def test_gen_field_rejects_non_positive_dims(dims):
    with pytest.raises(SimulationError, match="dims must be positive"):
        gen_field(FieldSpec(kind="sar", rho=0.3), dims)


def test_determinism_same_seed_bit_identical():
    for kind, kw in [
        ("iid-gaussian", {}),
        ("sar", {"rho": 0.4}),
        ("m-dependent", {"m": 2}),
        ("max-stable", {"tail_index": 2.5}),
        ("linear", {"stencil": (((0, 0), 1.0), ((1, 0), 0.5), ((0, 1), 0.25))}),
    ]:
        a = gen_field(FieldSpec(kind=kind, seed=77, **kw), (32, 32))
        b = gen_field(FieldSpec(kind=kind, seed=77, **kw), (32, 32))
        assert np.array_equal(a.data, b.data), kind


def test_max_stable_stencil_and_centering():
    offsets, weights = decay_stencil(0.6, 2)
    table = {tuple(o): w for o, w in zip(offsets.tolist(), weights.tolist())}
    assert table[(0, 0)] == 1.0
    assert table[(1, 1)] == pytest.approx(0.36)
    assert all(w >= 1e-6 for w in weights)
    assert frechet_centering(2.5) == pytest.approx(1.48919, abs=5e-6)  # Gamma(0.6)


@pytest.mark.parametrize("dims", [(16, 16, 16), (6, 6, 6, 6)])
def test_max_stable_beyond_the_cell_budget_fails_before_allocating(dims):
    """At base 0.99 the stencil reaches shell 1374, so the padded draw of a
    3-D or 4-D field, and the stencil's offset grid, would hold billions of
    cells: both raise SimulationError having allocated nothing large."""
    gen_field(FieldSpec(kind="max-stable"), (2, 2))  # the generator's first call imports ~0.7 MB
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match="over the budget of 134217728 cells"):
            gen_field(FieldSpec(kind="max-stable", decay_base=0.99), dims)
        with pytest.raises(SimulationError, match="stencil at decay_base 0.99"):
            decay_stencil(0.99, len(dims))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_m_dependent_never_lists_its_stencil_and_checks_its_budget():
    """A one-cell 2-D field at m = 100 sums 201^2 = 40401 offsets, made one at a
    time next to a 323 kB draw: listed first, they peaked at ~8 MB.  At
    m = 100000 a 64^2 field's draw would hold 200064^2 = 4e10 cells: it raises
    SimulationError having allocated nothing large."""
    gen_field(FieldSpec(kind="m-dependent"), (2, 2))  # the generator's first call imports ~0.8 MB
    tracemalloc.start()
    try:
        out = gen_field(FieldSpec(kind="m-dependent", seed=3, m=100), (1, 1))
        with pytest.raises(SimulationError, match="m-dependent draw .* over the budget of 134217728 cells"):
            gen_field(FieldSpec(kind="m-dependent", m=100000), (64, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.shape == (1, 1) and np.isfinite(out.data).all()
    assert peak < 2**20, peak


def test_linear_draw_beyond_the_cell_budget_fails_before_drawing(monkeypatch):
    """Offsets of +-20000 pad a 64^2 draw to 40064^2 = 1.61e9 cells (12.8 GB): it
    raises SimulationError before asking the generator for a cell, while a
    small stencil draws its padded shape."""
    shapes = []

    class Spy:
        def standard_normal(self, shape):
            shapes.append(shape)
            raise AssertionError(f"drew {shape}")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Spy())
    wide = (((20000, 0), 1.0), ((-20000, 20000), 1.0), ((0, -20000), 1.0))
    with pytest.raises(SimulationError, match=r"linear draw for dims \(64, 64\) would hold 1.61e\+09 cells, "
                                              "over the budget of 134217728 cells; lower the stencil's offsets"):
        gen_field(FieldSpec(kind="linear", stencil=wide), (64, 64))
    assert shapes == []
    with pytest.raises(AssertionError, match="drew"):
        gen_field(FieldSpec(kind="linear", stencil=(((2, 0), 1.0), ((-1, 3), 1.0))), (5, 5))
    assert shapes == [(8, 8)]


def test_max_stable_demeaned():
    out = gen_field(FieldSpec(kind="max-stable", seed=4, tail_index=2.75), (64, 64))
    assert abs(out.data.mean()) < 1e-12


def test_generators_mean_zero_band():
    # band uses the long-run sd (sum of weights), not the marginal sd
    for kind, kw, longrun_sd in [
        ("iid-gaussian", {}, 1.0),
        ("sar", {"rho": 0.4}, 1.0 / 0.6),
        ("m-dependent", {"m": 2}, 5.0),  # (2m+1)^(d/2)
        ("linear", {"stencil": (((0, 0), 1.0), ((2, 1), -0.5))}, 0.5),
    ]:
        g = gen_field(FieldSpec(kind=kind, seed=123, **kw), (96, 96))
        assert abs(g.data.mean()) < 4 * longrun_sd / math.sqrt(g.size), kind


def test_m_dependent_unit_variance():
    g = gen_field(FieldSpec(kind="m-dependent", seed=21, m=2), (256, 256))
    assert g.data.var() == pytest.approx(1.0, abs=0.05)


def test_sar_lag1_autocorrelation_increases_with_rho():
    def lag1(arr):
        a = arr - arr.mean()
        return float((a[1:, :] * a[:-1, :]).mean() / a.var())

    acs = {}
    for rho in (0.04, 0.4, 0.8):
        vals = [
            lag1(gen_field(FieldSpec(kind="sar", seed=100 + r, rho=rho), (256, 256)).data)
            for r in range(20)
        ]
        acs[rho] = (float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals))))
    for lo, hi in [(0.04, 0.4), (0.4, 0.8)]:
        gap = acs[hi][0] - acs[lo][0]
        assert gap > 3 * math.hypot(acs[hi][1], acs[lo][1])


def test_inject_patches_noiseless_indicator():
    noise = Grid.from_array(np.zeros((10, 10)))
    r = Rect((2, 3), (5, 7))
    out = inject_patches(noise, PatchSet(patches=((r, 1.0),), baseline=0.0))
    expect = np.zeros((10, 10))
    expect[2:5, 3:7] = 1.0
    assert np.array_equal(out.data, expect)


def test_inject_empty_patchset_is_baseline_plus_noise():
    rng = np.random.default_rng(0)
    noise = Grid.from_array(rng.standard_normal((8, 8)))
    out = inject_patches(noise, PatchSet(patches=(), baseline=2.0))
    assert np.array_equal(out.data, noise.data + 2.0)


def test_inject_out_of_bounds_and_overlap_rejected():
    noise = Grid.from_array(np.zeros((8, 8)))
    with pytest.raises(SimulationError):
        inject_patches(noise, PatchSet(patches=((Rect((4, 4), (10, 6)), 1.0),)))
    with pytest.raises(LatticeError):
        PatchSet(patches=((Rect((0, 0), (4, 4)), 1.0), (Rect((2, 2), (6, 6)), 1.0)))


def test_inject_monte_carlo_mean_shift():
    r = Rect((20, 20), (60, 60))
    noise = gen_field(FieldSpec(kind="sar", seed=31, rho=0.4), (128, 128))
    x = inject_patches(noise, PatchSet(patches=((r, 0.8),)))
    inside = x.data[r.slices()]
    mask = np.ones((128, 128), dtype=bool)
    mask[r.slices()] = False
    observed = inside.mean() - x.data[mask].mean()
    sigma = noise.data.std()
    assert abs(observed - 0.8) < 4 * sigma / math.sqrt(r.volume())


def test_canonical_config1_structure():
    for n in (64, 128, 256):
        ps = canonical_scenario("config1", n, 0.7)
        assert len(ps.rects) == 3
        assert ps.jumps == (0.7, 0.7, -0.7)
        for r in ps.rects:
            assert r.within((n, n))


def test_canonical_config2_structure():
    ps = canonical_scenario("config2", 256, 0.5)
    assert len(ps.rects) == 5
    assert ps.jumps == tuple(0.5 * k for k in (1, 2, 3, 4, 5))
    sides = [tuple(h - l for l, h in zip(r.lo, r.hi)) for r in ps.rects]
    assert all(abs(s[0] - 0.18 * 256) <= 1 and abs(s[1] - 0.18 * 256) <= 1 for s in sides)


def test_canonical_separation_geometry():
    # Computed geometry at default block side floor(sqrt(N)): pairs are always
    # disjoint, and for N >= 256 the best axis gap is >= 1.1 blocks (the
    # tightest pair is config2's corner-to-center diagonal at 0.07 * N).
    for name in ("config1", "config2"):
        for n in (256, 512):
            ps = canonical_scenario(name, n, 1.0)
            block = int(n**0.5)
            rects = ps.rects
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    a, b = rects[i], rects[j]
                    assert a.intersect(b).is_empty
                    gap = max(
                        max(b.lo[k] - a.hi[k], a.lo[k] - b.hi[k]) for k in range(2)
                    )
                    assert gap >= 1.1 * block, (name, n, i, j, gap)


def test_canonical_rejects_small_n_and_zero_jump():
    with pytest.raises(SimulationError):
        canonical_scenario("config1", 32, 1.0)
    with pytest.raises(SimulationError):
        canonical_scenario("config1", 128, 0.0)
    with pytest.raises(SimulationError):
        canonical_scenario("config9", 128, 1.0)
    for jump in (math.inf, -math.inf, math.nan):  # PatchSet rejects them
        with pytest.raises(LatticeError, match="jump must be finite"):
            canonical_scenario("config1", 128, jump)
