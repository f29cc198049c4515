"""Self-tests of the benchmark: tracer, pair counts, checks, compare rules, smoke run.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import run
from compare import verdict
from tracer import ROOT, TARGETS, Tracer, pair_count
from workloads import Case, make_inputs

from splade.lattice import Grid
from splade.simulate import canonical_scenario

BENCH = Path(run.__file__).resolve().parent
TINY = (
    Case("tiny config1 128x128 iid", (128, 128), "iid-gaussian", 0.0, canonical_scenario("config1", 128, 2.0)),
    Case("tiny config2 128x128 sar0.04", (128, 128), "sar", 0.04, canonical_scenario("config2", 128, 2.0)),
)


def _detect(grid):
    return importlib.import_module("splade.detect").splade_detect(grid)


def _targets():
    return [getattr(importlib.import_module(m), a) for m, a in TARGETS]


def test_tracer_keeps_detections_and_restores_functions():
    (inp, _), _ = make_inputs(TINY, 7)
    before = _targets()
    plain = run.detection_doc(_detect(inp.grid))
    tracer = Tracer()
    with tracer.installed():
        assert all(a is not b for a, b in zip(_targets(), before))
        traced = run.detection_doc(_detect(inp.grid))
    assert traced == plain
    assert all(a is b for a, b in zip(_targets(), before))
    names = {s.name for s in tracer.spans}
    assert {ROOT, "single.best_rectangle", "detect.masked_lrv"} <= names


def test_tracer_restores_functions_when_a_call_raises():
    before = _targets()
    with pytest.raises(ValueError):
        with Tracer().installed():
            _detect(Grid.from_array(np.zeros((4, 4))))  # too few blocks
    assert all(a is b for a, b in zip(_targets(), before))


def _brute_pairs(lo_axes, hi_axes):
    return sum(
        all(l < h for l, h in zip(lo, hi))
        for lo in product(*lo_axes)
        for hi in product(*hi_axes)
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_count_matches_brute_force(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        lo_axes = [np.unique(rng.integers(0, 9, size=4)) for _ in range(d)]
        hi_axes = [np.unique(rng.integers(1, 10, size=4)) for _ in range(d)]
        assert pair_count(lo_axes, hi_axes) == _brute_pairs(lo_axes, hi_axes)


def test_self_times_are_nonnegative_and_within_the_traced_total():
    inputs, _ = make_inputs(TINY, 7)
    tracer = Tracer()
    with tracer.installed():
        for inp in inputs:
            _detect(inp.grid)
    for call in range(1, tracer.calls + 1):
        idxs = tracer.call_spans(call)
        root = next(tracer.spans[i] for i in idxs if tracer.spans[i].name == ROOT)
        layers = tracer.layer_metrics(call)
        times = [v for k, v in layers.items() if k.endswith("_s")]
        assert min(times) >= 0.0
        assert sum(times) <= (root.end - root.start) * (1 + 1e-9)
        assert layers["single.stage2_s"] > 0.0 and layers["scan.stage2_pairs"] > 0


def test_reference_mismatch_trips_failed_and_error_frac():
    first, _ = run.run_workload(TINY, 7, 0.0, False)
    assert first["result"]["correct"]
    reference = [inp["detection"] for inp in first["inputs"]]
    assert run.run_workload(TINY, 7, 0.0, False, reference)[0]["result"]["failed"] == 0

    perturbed = json.loads(json.dumps(reference))
    perturbed[0]["patches"][0][0][0] += 1
    rec, _ = run.run_workload(TINY, 7, 0.0, False, perturbed)
    assert not rec["result"]["correct"]
    assert rec["result"]["failed"] == 1
    assert rec["info"]["error_frac"]["value"] > 0.0

    perturbed = json.loads(json.dumps(reference))
    perturbed[1]["jumps"][0] *= 1 + 1e-9
    assert run.run_workload(TINY, 7, 0.0, False, perturbed)[0]["result"]["failed"] == 1


def test_committed_reference_covers_every_workload_input():
    from workloads import WORKLOADS

    ref = json.loads((BENCH / "reference.json").read_text())
    assert ref["seed"] == run.DEFAULT_SEED
    for name, cases in WORKLOADS.items():
        assert [r["label"] for r in ref["workloads"][name]] == [c.label for c in cases]


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    t0 = time.perf_counter()
    rec, tracer = run.run_workload(TINY, 3, 0.2, trace)
    assert time.perf_counter() - t0 < 30.0
    result = rec["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= len(TINY)
    assert set(result["metrics"]) == want
    if trace:
        assert tracer.calls >= len(TINY)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    n = len(parent)
    assert verdict(parent, faster, "lower", 0.1, n, 0, n) == "improved"
    assert verdict(parent, slower, "lower", 0.1, 0, n, n) == "worse"
    assert verdict(parent, [v * 1.02 for v in parent], "lower", 0.1, 0, n, n) == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1, 3, 7, n) == "unresolved"
