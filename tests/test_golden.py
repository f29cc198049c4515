"""Golden detection corpus: ``splade_detect`` must reproduce pinned detections.

Each case is a seeded synthetic grid and a detector configuration; the fixture
``golden_detections.json`` holds what ``splade_detect`` returned for it.  A
refactor that is meant to change nothing must leave every field equal, except
the jumps and the spectrally summed ``sigma`` (with ``q``, which scales with
it), which may move by rounding (1e-12 relative).

Regenerate the fixture only for a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from splade.detect import SpladeConfig, splade_detect
from splade.lattice import Grid, PatchSet, Rect
from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches
from splade.single import Stage1Params

FIXTURE = Path(__file__).with_name("golden_detections.json")
RTOL = 1e-12
EXACT_KEYS = ("mu0", "flagged_blocks", "component_cells", "fallback", "lrv_clamped",
              "degenerate_envelopes")
ROUNDED_KEYS = ("sigma", "q")

IID = {"kind": "iid-gaussian"}
SAR_WEAK = {"kind": "sar", "rho": 0.04}
SAR_STRONG = {"kind": "sar", "rho": 0.4}
MAX_STABLE = {"kind": "max-stable"}


def _scene(name, n, jump, baseline=0.0):
    return PatchSet(patches=canonical_scenario(name, n, jump).patches, baseline=baseline)


def _patches(*pairs):
    return PatchSet(patches=tuple((Rect(lo, hi), j) for lo, hi, j in pairs))


# label -> (dims, noise, seed, truth, config keywords); a noise of None is a
# noiseless grid.
CASES = {
    "config1 128 iid": ((128, 128), IID, 1, _scene("config1", 128, 1.0), {}),
    "config1 128 sar0.04": ((128, 128), SAR_WEAK, 2, _scene("config1", 128, 1.0), {}),
    "config1 256 sar0.4": ((256, 256), SAR_STRONG, 3, _scene("config1", 256, 1.5), {}),
    "config1 256 max-stable": ((256, 256), MAX_STABLE, 4, _scene("config1", 256, 1.0), {}),
    "config2 128 iid": ((128, 128), IID, 5, _scene("config2", 128, 1.0), {}),
    "config2 256 sar0.04": ((256, 256), SAR_WEAK, 6, _scene("config2", 256, 1.0), {}),
    "config2 128 sar0.4": ((128, 128), SAR_STRONG, 7, _scene("config2", 128, 2.0), {}),
    "config2 128 max-stable": ((128, 128), MAX_STABLE, 8, _scene("config2", 128, 2.0), {}),
    "config1 128 fixed mu0 sigma": (
        (128, 128), IID, 9, _scene("config1", 128, 1.0), {"mu0": 0.0, "sigma": 1.0}),
    "config2 128 fixed mu0": ((128, 128), SAR_WEAK, 10, _scene("config2", 128, 1.0), {"mu0": 0.0}),
    "config2 128 faces+corners": (
        (128, 128), SAR_WEAK, 11, _scene("config2", 128, 1.0), {"connectivity": "faces+corners"}),
    "opposite-sign adjacent 144": (
        (144, 144), IID, 12,
        _patches(((30, 20), (70, 68), 1.5), ((30, 72), (70, 120), -1.5)), {}),
    "config1 256 offset 1e3": (
        (256, 256), SAR_WEAK, 13, _scene("config1", 256, 1.0, baseline=1e3), {}),
    "config2 128 offset 1e3": (
        (128, 128), IID, 14, _scene("config2", 128, 1.0, baseline=1e3), {}),
    "interior patch 128 no fallback": (
        (128, 128), IID, 15, _patches(((48, 44), (84, 80), 1.5)), {}),
    "degenerate envelopes 128": (
        (128, 128), IID, 20, _scene("config1", 128, 1.0),
        {"stage2": Stage1Params(alpha=0.8, kappa=0.01), "envelope_margin_blocks": 0}),
    "null 128 iid": ((128, 128), IID, 16, PatchSet(patches=()), {}),
    "noiseless config1 128": ((128, 128), None, 0, _scene("config1", 128, 0.4), {}),
    "1d 4096 sar0.3": ((4096,), {"kind": "sar", "rho": 0.3}, 17,
                       _patches(((1200,), (2400,), 1.0)), {}),
    "3d 36 iid": (
        (36, 36, 36), IID, 18, _patches(((6, 8, 10), (20, 22, 24), 1.5)),
        {"stage2": Stage1Params(alpha=0.4, kappa=0.01), "envelope_margin_blocks": 1}),
    "4d 12 sar0.04": (
        (12, 12, 12, 12), SAR_WEAK, 19, _patches(((2, 3, 1, 2), (9, 10, 8, 9), 3.0)), {}),
}


def detect_doc(label) -> dict:
    dims, noise, seed, truth, kwargs = CASES[label]
    if noise is None:
        base = Grid.from_array(np.zeros(dims))
    else:
        base = gen_field(FieldSpec(seed=seed, **noise), dims)
    det = splade_detect(inject_patches(base, truth), SpladeConfig(**kwargs))
    doc = {
        "k_hat": det.k_hat,
        "patches": [[list(r.lo), list(r.hi)] for r in det.patches],
        "jumps": list(det.jumps),
    }
    doc.update((key, det.diagnostics[key]) for key in EXACT_KEYS + ROUNDED_KEYS)
    return doc


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_detection(label):
    want = _fixture()[label]
    got = detect_doc(label)
    for key in ("k_hat", "patches") + EXACT_KEYS:
        assert got[key] == want[key], (key, got[key], want[key])
    for key in ROUNDED_KEYS:
        assert abs(got[key] - want[key]) <= RTOL * abs(want[key]), (key, got[key], want[key])
    assert len(got["jumps"]) == len(want["jumps"])
    for g, w in zip(got["jumps"], want["jumps"]):
        assert abs(g - w) <= RTOL * abs(w), (g, w)


def test_golden_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(CASES)


if __name__ == "__main__":
    docs = {label: detect_doc(label) for label in sorted(CASES)}
    FIXTURE.write_text(
        "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in docs.items()) + "\n}\n"
    )
    print(f"wrote {len(docs)} detections to {FIXTURE}", file=sys.stderr)
