"""The benchmark's workloads: seeded synthetic grids with known patches.

Each workload is a fixed tuple of cases.  Input ``i`` of a workload draws its
noise field with seed ``seed ^ i``, so one seed always yields the same grids,
and the program under test receives only the generated grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from splade.lattice import Grid, PatchSet, Rect
from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches


@dataclass(frozen=True)
class Case:
    """One input recipe: lattice shape, noise kind and planted patches."""

    label: str
    dims: tuple[int, ...]
    kind: str  # FieldSpec kind
    rho: float
    truth: PatchSet


@dataclass(frozen=True)
class Input:
    label: str
    grid: Grid
    truth: PatchSet


def _one(rect: Rect, jump: float) -> PatchSet:
    return PatchSet(patches=((rect, jump),), baseline=0.0)


_NOTHING = PatchSet(patches=(), baseline=0.0)


def _scene(name: str) -> Case:
    return Case(f"{name} 512x512 sar0.04", (512, 512), "sar", 0.04, canonical_scenario(name, 512, 2.0))


# The paper's benchmark scenes; stage 2's 2-D window scan dominates each call
# and the boundary-layer fallback fires, so calibration runs twice.  At jump
# 2.0 the envelopes, and so the scan work, are the same for every noise seed
# (at 1.0 the candidate count varies by up to 35% between seeds).
DETECT_2D = (_scene("config1"), _scene("config2"))

# One planted patch per rank d = 3, 4, 1: every refinement goes through the
# n-D gather scan.  At jump 1.5 the 4-D patch goes undetected for about one
# noise seed in eight (its boundary layer covers the whole 10^4 grid), which
# skips the scan; at 3.0 every call scans and the 3-D and 4-D work no longer
# depends on the seed.  BENCHMARK.json does not list this workload: on a
# 2-core KVM guest its 3-D and 4-D call times differ by ~20% (interquartile
# range over median) between runs, against ~5-8% for the other two.
DETECT_ND = (
    Case("3d 24^3 sar0.04", (24, 24, 24), "sar", 0.04, _one(Rect((6, 5, 8), (16, 15, 18)), 3.0)),
    Case("4d 10^4 sar0.04", (10, 10, 10, 10), "sar", 0.04, _one(Rect((2, 2, 1, 1), (9, 9, 8, 8)), 3.0)),
    Case("1d 262144 sar0.04", (262144,), "sar", 0.04, _one(Rect((100000,), (160000,)), 3.0)),
)

# Nothing planted: calibration and the block screen only, zero scan pairs.
SCREEN_NULL = (
    Case("null 1024x1024 iid", (1024, 1024), "iid-gaussian", 0.0, _NOTHING),
    Case("null 1024x1024 sar0.4", (1024, 1024), "sar", 0.4, _NOTHING),
    Case("null 96^3 iid", (96, 96, 96), "iid-gaussian", 0.0, _NOTHING),
)

WORKLOADS = {
    "detect-2d": DETECT_2D,
    "detect-nd": DETECT_ND,
    "screen-null": SCREEN_NULL,
}


def make_inputs(cases, seed: int) -> tuple[list[Input], float]:
    """Generate every case's grid; returns the inputs and the seconds spent in gen_field."""
    inputs = []
    gen_s = 0.0
    for i, case in enumerate(cases):
        spec = FieldSpec(kind=case.kind, rho=case.rho, seed=seed ^ i)
        t0 = perf_counter()
        noise = gen_field(spec, case.dims)
        gen_s += perf_counter() - t0
        inputs.append(Input(case.label, inject_patches(noise, case.truth), case.truth))
    return inputs, gen_s
