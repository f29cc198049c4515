"""Command-line surface.

Subcommands: ``simulate`` (field spec + patches -> SPLG grid + truth doc),
``detect`` (SPLG grid -> patch doc), ``eval`` (truth + estimate docs -> CSV
row), ``bench`` (full replicate loop -> CSV), and ``frames`` (frame directory
-> one patch doc per line).  Results go to files or stdout; everything else
goes to stderr; exit status is nonzero on any error.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import fields, replace
from functools import partial

from . import bench as bench_mod
from . import frames as frames_mod
from .detect import CONNECTIVITIES, Detection, SpladeConfig
from .gridio import (
    detection_to_doc,
    doc_to_detection,
    read_grid,
    read_patch_doc,
    write_grid,
    write_patch_doc,
)
from .lattice import LatticeError, PatchSet, Rect
from .metrics import score, summarize, write_bench_csv
from .simulate import SCENARIOS, FieldSpec, canonical_scenario, gen_field, inject_patches
from .single import Stage1Params


def _field_spec_from_json(obj) -> FieldSpec:
    if not isinstance(obj, dict):
        raise LatticeError(f"field spec must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(FieldSpec)}
    if unknown:
        raise LatticeError(f"unknown field spec keys {sorted(unknown)}")
    if "kind" not in obj:
        raise LatticeError("field spec needs a 'kind'")
    return FieldSpec(**obj)


def _truth_doc(patchset: PatchSet, dims, scenario: str, seed: int) -> dict:
    """Patch doc of the truth, with the scenario and field seed that ``eval`` rows report."""
    det = Detection(patchset.rects, patchset.jumps, {"mu0": patchset.baseline, "truth": True})
    return {**detection_to_doc(det, dims), "scenario": scenario, "seed": seed}


# top-level keys of each spec form; the scenario form is the one naming a scenario
_SPEC_KEYS = {
    "scenario": {"scenario", "n", "jump", "mu0", "field"},
    "explicit": {"dims", "patches", "mu0", "field"},
}


def _cmd_simulate(args) -> int:
    with open(args.spec) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise LatticeError(f"spec must be a JSON object, got {type(cfg).__name__}")
    form = "scenario" if "scenario" in cfg else "explicit"
    unknown = set(cfg) - _SPEC_KEYS[form]
    if unknown:
        raise LatticeError(f"unknown {form} spec keys {sorted(unknown)}")
    try:  # operator.index: a fractional or string size is an error, not truncated
        if form == "scenario":
            n = operator.index(cfg["n"])
            dims = (n, n)
            scene = canonical_scenario(cfg["scenario"], n, float(cfg.get("jump", 1.0)))
            patchset = replace(scene, baseline=float(cfg.get("mu0", 0.0)))
        else:
            dims = tuple(operator.index(x) for x in cfg["dims"])
            patches = tuple(
                (Rect(tuple(p["lo"]), tuple(p["hi"])), float(p["jump"]))
                for p in cfg.get("patches", [])
            )
            baseline = float(cfg.get("mu0", 0.0))
            patchset = PatchSet(patches=patches, baseline=baseline)
        field = cfg["field"]
    except LatticeError:
        raise
    except KeyError as e:
        raise LatticeError(f"malformed spec: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise LatticeError(f"malformed spec: {e}") from None
    spec = _field_spec_from_json(field)
    noise = gen_field(spec, dims)
    grid = inject_patches(noise, patchset) if patchset.rects or patchset.baseline else noise
    write_grid(args.out, grid)
    truth_path = args.truth or (args.out + ".truth.json")
    scenario = cfg.get("scenario", "custom")
    write_patch_doc(truth_path, _truth_doc(patchset, dims, scenario, spec.seed))
    print(f"wrote {args.out} and {truth_path}", file=sys.stderr)
    return 0


def _config_from_args(args) -> SpladeConfig:
    return SpladeConfig(
        alpha=args.alpha,
        kappa_level=args.level,
        stage2=Stage1Params(
            alpha=args.alpha2, kappa=args.kappa2, window_const=args.window_const
        ),
        envelope_margin_blocks=args.margin_blocks,
        min_size_factor=args.min_size_factor,
        mu0=args.mu0,
        sigma=args.sigma,
        connectivity=args.connectivity,
    )


def _auto_or_float(text: str) -> float | None:
    """Flag value 'auto' (None: estimate from the data) or a number."""
    try:
        return None if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    cfg = SpladeConfig()
    p.add_argument("--alpha", type=float, default=cfg.alpha)
    p.add_argument("--alpha2", type=float, default=cfg.stage2.alpha)
    p.add_argument("--kappa2", type=float, default=cfg.stage2.kappa)
    p.add_argument("--window-const", type=float, default=cfg.stage2.window_const)
    p.add_argument("--level", type=float, default=cfg.kappa_level)
    p.add_argument("--mu0", type=_auto_or_float, default="auto")
    p.add_argument("--sigma", type=_auto_or_float, default="auto")
    p.add_argument("--margin-blocks", type=int, default=cfg.envelope_margin_blocks)
    p.add_argument("--min-size-factor", type=float, default=cfg.min_size_factor)
    p.add_argument("--connectivity", choices=CONNECTIVITIES, default=cfg.connectivity)


def _timed_doc(grid, cfg: SpladeConfig) -> dict:
    """Patch doc of ``splade_detect(grid, cfg)``, its wall time in ``diagnostics.time_s``."""
    det, elapsed = bench_mod.timed_detect(grid, cfg)
    doc = detection_to_doc(det, grid.dims)
    doc["diagnostics"]["time_s"] = elapsed
    return doc


def _cmd_detect(args) -> int:
    grid = read_grid(getattr(args, "in"))
    cfg = _config_from_args(args)
    doc = _timed_doc(grid, cfg)
    write_patch_doc(args.out, doc)
    elapsed = doc["diagnostics"]["time_s"]
    print(f"k_hat={doc['k_hat']} in {elapsed:.3f}s -> {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    truth_doc = read_patch_doc(args.truth)
    est_doc = read_patch_doc(args.est)
    truth, dims = doc_to_detection(truth_doc)
    est, dims_e = doc_to_detection(est_doc)
    if dims != dims_e:
        raise LatticeError(f"dims mismatch: truth {dims} vs estimate {dims_e}")
    try:  # operator.index: a fractional seed is an error, not truncated
        seed = operator.index(truth_doc.get("seed", 0))
        time_s = float(est.diagnostics.get("time_s", 0.0))
    except (TypeError, ValueError) as e:
        raise LatticeError(f"malformed patch doc (seed or time_s): {e}") from None
    scenario = str(truth_doc.get("scenario", "custom"))
    write_bench_csv(args.out, [score(scenario, seed, dims, truth.patches, est.patches, time_s)])
    return 0


def _cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    records = bench_mod.run_bench(
        scenario=args.scenario,
        grid_n=args.grid,
        noise=args.noise,
        jump=args.jump,
        reps=args.reps,
        seed=args.seed,
        config=cfg,
    )
    write_bench_csv(args.out, records)
    _, frac, mean_ari, _, _ = summarize(records)
    print(
        f"{args.scenario} N={args.grid} noise={args.noise} jump={args.jump}: "
        f"P(k_hat=k)={frac:.2f} ARI={mean_ari:.3f} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _detect_frame(cfg, frame):
    name, grid = frame
    return {**_timed_doc(grid, cfg), "frame": name}


def _cmd_frames(args) -> int:
    cfg = _config_from_args(args)
    baseline = frames_mod.parse_range(args.baseline)
    frames = list(frames_mod.frames_to_grids(args.dir, baseline, args.channel))
    docs = bench_mod.map_grids(partial(_detect_frame, cfg), frames)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for doc in docs:
            out.write(json.dumps(doc, sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    print(f"processed {len(docs)} frames", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splade",
        description="Localize axis-aligned anomalous patches in lattice data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic grid + truth doc")
    p.add_argument("--spec", required=True, help="JSON: field spec + patches or scenario")
    p.add_argument("--out", required=True, help="output SPLG grid path")
    p.add_argument("--truth", default=None, help="truth patch-doc path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="detect patches in an SPLG grid")
    p.add_argument("--in", required=True, help="input SPLG grid")
    p.add_argument("--out", required=True, help="output patch-doc JSON")
    _add_detect_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score an estimate against a truth doc")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--out", required=True, help="output CSV row")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="replicate loop over a synthetic scenario")
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--noise", default="sar:0.04")
    p.add_argument("--jump", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    _add_detect_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("frames", help="per-frame detection over an image directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--baseline", required=True, help="frame index range a:b")
    p.add_argument("--channel", choices=frames_mod.CHANNELS, default="mean")
    p.add_argument("--out", default=None, help="JSONL output (default stdout)")
    _add_detect_flags(p)
    p.set_defaults(func=_cmd_frames)
    return parser


def run_reporting_errors(fn, *args) -> int:
    """``fn(*args)``'s exit status, or 1 after one ``error: ...`` line on stderr
    for any error the command line reports: bad input, files and flags, or
    memory."""
    try:
        return fn(*args)
    except (LatticeError, OSError, KeyError, json.JSONDecodeError, UnicodeDecodeError, MemoryError) as e:
        # numpy's MemoryError names the allocation; a bare one has no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_reporting_errors(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
