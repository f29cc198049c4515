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
from dataclasses import dataclass

from .detect import SpladeConfig, splade_detect
from .lattice import LatticeError
from .metrics import BenchRecord, ari, hausdorff, labels_from_patches
from .simulate import FieldSpec, canonical_scenario, gen_field, inject_patches


def worker_count(n_tasks: int) -> int:
    """Process cap: SPLADE_THREADS when set, else the core count."""
    env = os.environ.get("SPLADE_THREADS", "")
    try:
        cap = int(env) if env.strip() else (os.cpu_count() or 1)
    except ValueError:
        raise LatticeError(f"SPLADE_THREADS must be an integer, got {env!r}") from None
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
        elif kind in ("maxstable", "max-stable") and len(args) in (1, 2):
            base = float(args[1]) if len(args) > 1 else 0.6
            fields = {"kind": "max-stable", "tail_index": float(args[0]), "decay_base": base}
        elif kind in ("mdep", "m-dependent") and len(args) == 1:
            fields = {"kind": "m-dependent", "m": int(args[0])}
    except ValueError:
        pass
    if fields is None:
        raise LatticeError(
            f"bad noise descriptor {text!r}: expected iid | sar:RHO | maxstable:ALPHA[:BASE] | mdep:M"
        )
    return FieldSpec(seed=seed, **fields)


@dataclass(frozen=True)
class BenchTask:
    scenario: str
    grid_n: int
    noise: str
    jump: float
    seed: int
    rep: int
    config: SpladeConfig = SpladeConfig()


def run_replicate(task: BenchTask) -> BenchRecord:
    rep_seed = task.seed ^ task.rep
    spec = parse_noise(task.noise, seed=rep_seed)
    noise = gen_field(spec, (task.grid_n, task.grid_n))
    truth = canonical_scenario(task.scenario, task.grid_n, task.jump)
    x = inject_patches(noise, truth)
    t0 = time.perf_counter()
    det = splade_detect(x, task.config)
    elapsed = time.perf_counter() - t0
    dims = x.dims
    a = labels_from_patches(dims, truth.rects)
    b = labels_from_patches(dims, det.patches)
    return BenchRecord(
        scenario=task.scenario,
        seed=rep_seed,
        k_hat=det.k_hat,
        k_true=len(truth.rects),
        ari=float(ari(a, b)),
        hausdorff=float(hausdorff(truth, det, dims)),
        time_s=elapsed,
    )


def run_bench(scenario, grid_n, noise, jump, reps, seed, config=None):
    config = config or SpladeConfig()
    parse_noise(noise)  # a bad descriptor fails here, not in every worker
    tasks = [
        BenchTask(
            scenario=scenario,
            grid_n=grid_n,
            noise=noise,
            jump=jump,
            seed=seed,
            rep=r,
            config=config,
        )
        for r in range(reps)
    ]
    return map_grids(run_replicate, tasks)
