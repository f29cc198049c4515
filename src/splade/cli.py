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
import time
from dataclasses import fields

from . import bench as bench_mod
from . import frames as frames_mod
from .detect import Detection, SpladeConfig, splade_detect
from .gridio import (
    detection_to_doc,
    doc_to_detection,
    read_grid,
    read_patch_doc,
    write_grid,
    write_patch_doc,
)
from .lattice import LatticeError, PatchSet, Rect
from .metrics import (
    BenchRecord,
    ari,
    hausdorff,
    labels_from_patches,
    write_bench_csv,
)
from .simulate import FieldSpec, canonical_scenario, gen_field, inject_patches
from .single import Stage1Params


def _field_spec_from_json(obj, seed_default=0) -> FieldSpec:
    if not isinstance(obj, dict):
        raise LatticeError(f"field spec must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(FieldSpec)}
    if unknown:
        raise LatticeError(f"unknown field spec keys {sorted(unknown)}")
    if "kind" not in obj:
        raise LatticeError("field spec needs a 'kind'")
    return FieldSpec(**{"seed": seed_default, **obj})


def _patchset_from_json(obj) -> PatchSet:
    try:
        patches = tuple(
            (Rect(tuple(p["lo"]), tuple(p["hi"])), float(p["jump"]))
            for p in obj.get("patches", [])
        )
        baseline = float(obj.get("mu0", 0.0))
    except (TypeError, ValueError) as e:
        raise LatticeError(f"malformed patch spec: {e}") from None
    return PatchSet(patches=patches, baseline=baseline)


def _truth_doc(patchset: PatchSet, dims) -> dict:
    det = Detection(
        k_hat=len(patchset.rects),
        patches=patchset.rects,
        jumps=patchset.jumps,
        diagnostics={"mu0": patchset.baseline, "truth": True},
    )
    return detection_to_doc(det, dims)


def _cmd_simulate(args) -> int:
    with open(args.spec) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise LatticeError(f"spec must be a JSON object, got {type(cfg).__name__}")
    try:  # operator.index: a fractional or string size is an error, not truncated
        if "scenario" in cfg:
            n = operator.index(cfg["n"])
            dims = (n, n)
            patchset = canonical_scenario(cfg["scenario"], n, float(cfg.get("jump", 1.0)))
        else:
            dims = tuple(operator.index(x) for x in cfg["dims"])
            patchset = _patchset_from_json(cfg)
    except LatticeError:
        raise
    except (TypeError, ValueError) as e:
        raise LatticeError(f"malformed spec: {e}") from None
    spec = _field_spec_from_json(cfg["field"])
    noise = gen_field(spec, dims)
    grid = inject_patches(noise, patchset) if patchset.rects or patchset.baseline else noise
    write_grid(args.out, grid)
    truth_path = args.truth or (args.out + ".truth.json")
    write_patch_doc(truth_path, _truth_doc(patchset, dims))
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
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--kappa2", type=float, default=0.01)
    p.add_argument("--window-const", type=float, default=1.0)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--mu0", type=_auto_or_float, default="auto")
    p.add_argument("--sigma", type=_auto_or_float, default="auto")
    p.add_argument("--margin-blocks", type=int, default=2)
    p.add_argument("--min-size-factor", type=float, default=1.0)
    p.add_argument("--connectivity", choices=("faces", "faces+corners"), default="faces")


def _cmd_detect(args) -> int:
    grid = read_grid(getattr(args, "in"))
    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    det = splade_detect(grid, cfg)
    elapsed = time.perf_counter() - t0
    doc = detection_to_doc(det, grid.dims)
    doc["diagnostics"]["time_s"] = elapsed
    write_patch_doc(args.out, doc)
    print(f"k_hat={det.k_hat} in {elapsed:.3f}s -> {args.out}", file=sys.stderr)
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
    a = labels_from_patches(dims, truth.patches)
    b = labels_from_patches(dims, est.patches)
    rec = BenchRecord(
        scenario=str(truth_doc.get("scenario", "custom")),
        seed=seed,
        k_hat=est.k_hat,
        k_true=truth.k_hat,
        ari=float(ari(a, b)),
        hausdorff=float(hausdorff(truth.patches, est.patches, dims)),
        time_s=time_s,
    )
    write_bench_csv(args.out, [rec])
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
    frac = sum(r.k_hat == r.k_true for r in records) / len(records)
    mean_ari = sum(r.ari for r in records) / len(records)
    print(
        f"{args.scenario} N={args.grid} noise={args.noise} jump={args.jump}: "
        f"P(k_hat=k)={frac:.2f} ARI={mean_ari:.3f} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _detect_frame(item):
    name, grid, cfg = item
    t0 = time.perf_counter()
    det = splade_detect(grid, cfg)
    doc = detection_to_doc(det, grid.dims)
    doc["frame"] = name
    doc["diagnostics"]["time_s"] = time.perf_counter() - t0
    return doc


def _cmd_frames(args) -> int:
    cfg = _config_from_args(args)
    items = [
        (name, grid, cfg)
        for name, grid in frames_mod.frames_to_grids(
            args.dir, frames_mod.parse_range(args.baseline), args.channel
        )
    ]
    docs = bench_mod.map_grids(_detect_frame, items)
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
    p.add_argument("--scenario", choices=("config1", "config2"), required=True)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatticeError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
