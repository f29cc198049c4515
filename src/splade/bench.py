"""Replicate harness for the synthetic benchmark scenarios.

Each replicate is fully determined by (base seed XOR replicate index), so runs
are reproducible and replicates can execute in any order or in parallel.  The
unit of parallel work is a whole grid: ``map_grids`` runs one replicate (or one
video frame) per worker process, capped by the SPLADE_THREADS environment
variable; a single ``splade_detect`` call always runs on the calling thread.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .detect import Detection, SpladeConfig, splade_detect
from .lattice import LatticeError
from .metrics import BenchRecord, score
from .simulate import FieldSpec, canonical_scenario, gen_field, inject_patches


def worker_count(n_tasks: int) -> int:
    """Process cap: SPLADE_THREADS when set, else the core count."""
    env = os.environ.get("SPLADE_THREADS", "").strip()
    if env and not (env.isdecimal() and int(env) >= 1):
        raise LatticeError(f"SPLADE_THREADS must be an integer >= 1, got {env!r}")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def map_grids(fn, items: list) -> list:
    """``[fn(it) for it in items]``, one item (one grid) per worker process."""
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def parse_noise(text: str, seed: int = 0) -> FieldSpec:
    """Parse CLI noise descriptors: iid | sar:RHO | maxstable:ALPHA[:BASE] | mdep:M."""
    kind, *args = text.split(":")
    fields = None
    try:
        if kind == "iid" and not args:
            fields = {"kind": "iid-gaussian"}
        elif kind == "sar" and len(args) == 1:
            fields = {"kind": "sar", "rho": float(args[0])}
        elif kind == "maxstable" and len(args) in (1, 2):
            base = float(args[1]) if len(args) > 1 else 0.6
            fields = {"kind": "max-stable", "tail_index": float(args[0]), "decay_base": base}
        elif kind == "mdep" and len(args) == 1:
            fields = {"kind": "m-dependent", "m": int(args[0])}
    except ValueError:
        pass
    if fields is None:
        raise LatticeError(
            f"bad noise descriptor {text!r}: expected iid | sar:RHO | maxstable:ALPHA[:BASE] | mdep:M"
        )
    return FieldSpec(seed=seed, **fields)


def timed_detect(grid, config: SpladeConfig) -> tuple[Detection, float]:
    """``splade_detect(grid, config)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    det = splade_detect(grid, config)
    return det, time.perf_counter() - t0


def run_replicate(scenario, grid_n, noise, jump, seed, config, rep) -> BenchRecord:
    rep_seed = seed ^ rep
    spec = parse_noise(noise, seed=rep_seed)
    field = gen_field(spec, (grid_n, grid_n))
    truth = canonical_scenario(scenario, grid_n, jump)
    x = inject_patches(field, truth)
    det, elapsed = timed_detect(x, config)
    return score(scenario, rep_seed, x.dims, truth.rects, det.patches, elapsed)


def check_inputs(scenario, grid_n, noise, jump, reps) -> None:
    """Fail on a bad bench cell here, before any grid is generated, not in every worker."""
    if reps < 1:
        raise LatticeError(f"reps must be >= 1, got {reps}")
    parse_noise(noise)
    canonical_scenario(scenario, grid_n, jump)


def run_bench(scenario, grid_n, noise, jump, reps, seed, config=None):
    check_inputs(scenario, grid_n, noise, jump, reps)
    replicate = partial(run_replicate, scenario, grid_n, noise, jump, seed, config or SpladeConfig())
    return map_grids(replicate, list(range(reps)))
