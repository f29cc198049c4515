#!/usr/bin/env python3
"""splade benchmark: closed-loop ``splade_detect`` calls on seeded synthetic grids.

Run from the root of a source checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload detect-2d --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --write-reference

One process and one caller: each call starts after the previous one returns.
``SPLADE_THREADS`` and the BLAS/OpenMP thread counts are pinned to 1 before
numpy is imported.  A run builds the workload's inputs from ``--seed`` (input
``i`` uses noise seed ``seed ^ i``), makes one full pass over them, then keeps
cycling through them until ``--seconds`` have passed.

Every call is checked: it must not raise, a repeat of an input must return the
same detection, the reported jumps must match the grid, and under the default
seed every detection must equal the committed reference (patches exactly,
jumps to 1e-12 relative).  A call that fails any check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  Each input's time is the median
of its calls; ``detect_s_p50`` is the mean of those medians over the inputs and
``throughput_mcells_s`` is the inputs' cells over their summed medians, and
``setup_s`` is the median of several set-ups, each a fresh interpreter's
import of the package plus the generation of every input.
``--trace 1`` traces the even passes and times the odd passes untraced; it
reports per-layer self times and counts per detect call (each input's median,
averaged over the inputs) and the tracing overhead, and writes the spans under
``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also appends
a full record to ``perfbench/out/results.jsonl``, which ``--compare`` reads.
"""

from __future__ import annotations

import os

PINNED_ENV = {
    "SPLADE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 7
SETUP_REPS = 7
JUMP_RTOL = 1e-12


def import_splade() -> None:
    """Import the package from this checkout's ``src`` and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import splade

    if not Path(splade.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"splade imported from {splade.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the package, numpy included."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import splade; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "pinned": PINNED_ENV,
    }


def detection_doc(det) -> dict:
    return {
        "k_hat": det.k_hat,
        "patches": [[list(r.lo), list(r.hi)] for r in det.patches],
        "jumps": list(det.jumps),
    }


def reference_mismatch(doc: dict, ref: dict) -> str | None:
    """Why a detection differs from its reference, or None when it matches."""
    if doc["k_hat"] != ref["k_hat"] or doc["patches"] != ref["patches"]:
        return f"patches {doc['patches']} != reference {ref['patches']}"
    for got, want in zip(doc["jumps"], ref["jumps"]):
        if abs(got - want) > JUMP_RTOL * abs(want):
            return f"jump {got!r} != reference {want!r}"
    return None


def structure_error(det, grid) -> str | None:
    """Checks every detection must pass whatever the seed."""
    for r in det.patches:
        if r.is_empty or not r.within(grid.dims):
            return f"patch {r} empty or outside {grid.dims}"
    for a in det.patches:
        for b in det.patches:
            if a is not b and not a.intersect(b).is_empty:
                return f"patches {a} and {b} overlap"
    mu0 = det.diagnostics["mu0"]
    for r, jump in zip(det.patches, det.jumps):
        want = float(grid.data[r.slices()].mean()) - mu0
        if abs(jump - want) > 1e-8 * max(1.0, abs(want)):
            return f"jump {jump!r} for {r} != cell mean {want!r}"
    return None


def _warm_up() -> None:
    """One small detection so lazy set-up inside numpy finishes before timing."""
    from splade.detect import splade_detect
    from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches

    x = inject_patches(gen_field(FieldSpec(kind="iid-gaussian", seed=0), (128, 128)),
                       canonical_scenario("config1", 128, 2.0))
    splade_detect(x)


class Outcome:
    """Per-input bookkeeping across the calls of one run."""

    def __init__(self, inp):
        self.input = inp
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.layers: list[dict] = []
        self.first = None  # detection doc of the first successful call
        self.diag: dict = {}
        self.k_exact = False
        self.ari = 0.0
        self.score_s = 0.0


def run_workload(cases, seed: int, seconds: float, trace: bool, reference=None) -> dict:
    """Run one workload; returns its result record and the tracer holding its spans."""
    import splade.detect as detect_mod
    from splade.metrics import ari, labels_from_patches

    from tracer import SPAN_METRICS, Tracer
    from workloads import make_inputs

    setups, gens = [], []  # set-up = a fresh import plus generating every input
    for _ in range(SETUP_REPS):
        import_s = import_seconds()
        t0 = time.perf_counter()
        inputs, gen_s = make_inputs(cases, seed)
        setups.append(import_s + time.perf_counter() - t0)
        gens.append(gen_s)
    _warm_up()

    outcomes = [Outcome(inp) for inp in inputs]
    tracer = Tracer()
    attempted = failed = 0
    errors: list[str] = []
    n = len(inputs)
    extra = 1 if trace else 0  # a traced run needs at least one untraced call
    start = time.perf_counter()
    i = 0
    while i < n + extra or time.perf_counter() - start < seconds:
        k = i % n
        oc = outcomes[k]
        traced = trace and (i // n) % 2 == 0
        i += 1
        attempted += 1
        grid = oc.input.grid
        try:
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    det = detect_mod.splade_detect(grid)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                det = detect_mod.splade_detect(grid)
                dt = time.perf_counter() - t0
        except Exception as e:  # a raising call is a failed operation, not a crash
            failed += 1
            errors.append(f"{oc.input.label}: {type(e).__name__}: {e}")
            continue
        if traced:
            oc.traced_times.append(dt)
            oc.layers.append(tracer.layer_metrics(tracer.calls))
        else:
            oc.times.append(dt)

        doc = detection_doc(det)
        if oc.first is None:
            problem = structure_error(det, grid)
            if problem is None and reference is not None:
                problem = reference_mismatch(doc, reference[k])
            oc.first = doc
            oc.diag = det.diagnostics
            t0 = time.perf_counter()
            truth = oc.input.truth
            oc.k_exact = det.k_hat == len(truth.rects)
            oc.ari = float(ari(labels_from_patches(grid.dims, truth.rects),
                               labels_from_patches(grid.dims, det.patches)))
            oc.score_s = time.perf_counter() - t0
        else:
            problem = None if doc == oc.first else f"repeat differs: {doc} != {oc.first}"
        if problem is not None:
            failed += 1
            errors.append(f"{oc.input.label}: {problem}")

    done = [oc for oc in outcomes if oc.first is not None]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        both = [oc for oc in done if oc.times and oc.traced_times]
        untraced = sum(median(oc.times) for oc in both)
        traced_s = sum(median(oc.traced_times) for oc in both)
        per_input = [
            {k: median(call[k] for call in oc.layers) for k in SPAN_METRICS}
            for oc in done if oc.layers
        ]
        for k in SPAN_METRICS:
            unit = "s" if k.endswith("_s") else "count"
            metrics[k] = (_mean(p[k] for p in per_input), unit)
        stage2_us = metrics["single.stage2_s"][0] * 1e6
        metrics["scan.stage2_pairs_per_us"] = (
            metrics["scan.stage2_pairs"][0] / stage2_us if stage2_us > 0 else 0.0,
            "1/us",
        )
        metrics["detect.fallback_count"] = (_mean(float(oc.diag["fallback"]) for oc in done), "count")
        for key in ("flagged_blocks", "degenerate_envelopes"):
            metrics[f"detect.{key}"] = (_mean(oc.diag[key] for oc in done), "count")
        metrics["detect.envelopes"] = (_mean(len(oc.diag["component_cells"]) for oc in done), "count")
        metrics["simulate.gen_field_s"] = (median(gens), "s")
        metrics["metrics.score_s"] = (_mean(oc.score_s for oc in done), "s")
        metrics["trace.overhead_frac"] = (traced_s / untraced - 1.0 if untraced > 0 else 0.0, "frac")
    else:
        timed = [oc for oc in done if oc.times]
        total_s = sum(median(oc.times) for oc in timed)
        cells = sum(oc.input.grid.size for oc in timed)
        metrics["detect_s_p50"] = (total_s / len(timed) if timed else 0.0, "s")
        metrics["throughput_mcells_s"] = (cells / total_s / 1e6 if total_s > 0 else 0.0, "Mcells/s")
        metrics["setup_s"] = (median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["k_exact_frac"] = (_mean(float(oc.k_exact) for oc in done), "frac")
        metrics["ari_mean"] = (_mean(oc.ari for oc in done), "ARI")
    # error_frac is printed but not a tracked metric: it reads 0 on a correct
    # program, and failed/attempted in the result line carry the same count.
    info = {
        "error_frac": (failed / attempted, "frac"),
        "calls": (attempted, "count"),
        "inputs": (n, "count"),
    }
    return {
        "result": {
            "correct": failed == 0 and len(done) == n,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "errors": errors,
        "inputs": [
            {"label": oc.input.label, "times": oc.times, "traced_times": oc.traced_times,
             "detection": oc.first}
            for oc in outcomes
        ],
    }, tracer


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def write_reference() -> None:
    from splade.detect import splade_detect

    from workloads import WORKLOADS, make_inputs

    docs = {}
    for name, cases in WORKLOADS.items():
        inputs, _ = make_inputs(cases, DEFAULT_SEED)
        docs[name] = [dict(label=inp.label, **detection_doc(splade_detect(inp.grid))) for inp in inputs]
        print(f"{name}: {len(inputs)} detections", file=sys.stderr)
    body = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"   {json.dumps(d)}" for d in ds) + "\n  ]"
        for name, ds in docs.items()
    )
    REFERENCE.write_text(f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n{body}\n}}}}\n')


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    env = environment()
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit']} threads=1")
    started = time.time()
    rec, tracer = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       load_reference(args.workload, args.seed))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for err in rec["errors"]:
        print(f"error {err}", file=sys.stderr)
    for name, m in {**rec["result"]["metrics"], **rec["info"]}.items():
        print(f"{args.workload:12s} {name:28s} {m['value']:.6g} {m['unit']}")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, "started": started, "env": env, **rec}) + "\n")
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    try:
        import_splade()
    except ImportError as e:
        print(f"error: cannot import splade from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
