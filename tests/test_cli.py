import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from splade.cli import _config_from_args, build_parser, main
from splade.detect import SpladeConfig, splade_detect
from splade.gridio import (
    detection_to_doc,
    read_grid,
    read_patch_doc,
    write_grid,
)
from splade.lattice import Grid, LatticeError
from splade.metrics import read_bench_csv
from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches

from test_frames import write_ppm


def test_simulate_detect_eval_pipeline(tmp_path):
    spec = {
        "scenario": "config1",
        "n": 128,
        "jump": 1.0,
        "field": {"kind": "sar", "rho": 0.2, "seed": 42},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    grid_path = str(tmp_path / "x.splg")
    truth_path = str(tmp_path / "truth.json")
    est_path = str(tmp_path / "est.json")
    csv_path = str(tmp_path / "row.csv")

    assert main(["simulate", "--spec", str(spec_path), "--out", grid_path, "--truth", truth_path]) == 0
    assert main(["detect", "--in", grid_path, "--out", est_path]) == 0
    assert main(["eval", "--truth", truth_path, "--est", est_path, "--out", csv_path]) == 0

    rec = read_bench_csv(csv_path)[0]
    assert (rec.scenario, rec.seed) == ("config1", 42)  # from the truth doc simulate wrote
    assert rec.k_true == 3
    assert rec.k_hat == 3
    assert rec.ari > 0.8


def test_bare_detect_flags_build_the_default_config():
    args = build_parser().parse_args(["detect", "--in", "x.splg", "--out", "o.json"])
    assert _config_from_args(args) == SpladeConfig()


def test_cli_detect_matches_library(tmp_path):
    truth = canonical_scenario("config1", 128, 1.0)
    noise = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (128, 128))
    x = inject_patches(noise, truth)
    grid_path = str(tmp_path / "x.splg")
    write_grid(grid_path, x)
    est_path = str(tmp_path / "est.json")
    assert main(["detect", "--in", grid_path, "--out", est_path]) == 0
    doc = read_patch_doc(est_path)
    doc["diagnostics"].pop("time_s")

    lib = detection_to_doc(splade_detect(read_grid(grid_path), SpladeConfig()), x.dims)
    assert doc == lib


def test_detect_all_zero_grid_finds_nothing(tmp_path):
    grid_path = str(tmp_path / "z.splg")
    write_grid(grid_path, Grid.from_array(np.zeros((64, 64))))
    est_path = str(tmp_path / "z.json")
    assert main(["detect", "--in", grid_path, "--out", est_path]) == 0
    assert read_patch_doc(est_path)["k_hat"] == 0


def test_detect_flag_overrides(tmp_path):
    truth = canonical_scenario("config1", 128, 1.0)
    x = inject_patches(Grid.from_array(np.zeros((128, 128))), truth)
    grid_path = str(tmp_path / "x.splg")
    write_grid(grid_path, x)
    est_path = str(tmp_path / "e.json")
    rc = main([
        "detect", "--in", grid_path, "--out", est_path,
        "--alpha", "0.45", "--alpha2", "0.5", "--kappa2", "0.02",
        "--level", "0.01", "--mu0", "0", "--sigma", "0.5",
        "--margin-blocks", "1", "--min-size-factor", "0.5",
        "--connectivity", "faces",
    ])
    assert rc == 0
    assert read_patch_doc(est_path)["k_hat"] == 3


# each detect flag, a value other than its default, and the config field it sets
_DETECT_FLAG_FIELDS = {
    "--alpha": ("0.45", "alpha"),
    "--alpha2": ("0.4", "stage2.alpha"),
    "--kappa2": ("0.02", "stage2.kappa"),
    "--window-const": ("0.7", "stage2.window_const"),
    "--level": ("0.01", "kappa_level"),
    "--mu0": ("0.25", "mu0"),
    "--sigma": ("0.5", "sigma"),
    "--margin-blocks": ("1", "envelope_margin_blocks"),
    "--min-size-factor": ("0.5", "min_size_factor"),
    "--connectivity": ("faces+corners", "connectivity"),
}


def _config_fields(cfg, prefix=""):
    """Every leaf field of a config, nested dataclasses spelled ``outer.inner``."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_config_fields(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def test_detect_flags_cover_every_config_field():
    assert sorted(name for _, name in _DETECT_FLAG_FIELDS.values()) == sorted(_config_fields(SpladeConfig()))


@pytest.mark.parametrize("flag", sorted(_DETECT_FLAG_FIELDS))
def test_each_detect_flag_sets_its_own_field(flag):
    """A flag given alone moves its own config field and no other."""
    value, name = _DETECT_FLAG_FIELDS[flag]
    args = build_parser().parse_args(["detect", "--in", "x.splg", "--out", "o.json", flag, value])
    default, got = _config_fields(SpladeConfig()), _config_fields(_config_from_args(args))
    assert [key for key in default if got[key] != default[key]] == [name]


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--in", "x", "--out", "y", "--bogus", "1"])
    assert exc.value.code != 0


def test_missing_file_nonzero_exit(tmp_path, capsys):
    rc = main(["detect", "--in", str(tmp_path / "nope.splg"), "--out", str(tmp_path / "o.json")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_detect_non_finite_grid_fails_cleanly(tmp_path, capsys):
    data = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (64, 64)).data.copy()
    data[5, 6] = np.nan
    grid_path = str(tmp_path / "nan.splg")
    write_grid(grid_path, Grid.from_array(data))
    rc = main(["detect", "--in", grid_path, "--out", str(tmp_path / "o.json")])
    assert rc != 0
    assert "error: grid has 1 non-finite cells" in capsys.readouterr().err


def test_simulate_explicit_patchset(tmp_path):
    spec = {
        "dims": [64, 64],
        "field": {"kind": "iid-gaussian", "seed": 5},
        "patches": [{"lo": [10, 10], "hi": [30, 30], "jump": 2.0}],
        "mu0": 1.0,
    }
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    grid_path = str(tmp_path / "g.splg")
    assert main(["simulate", "--spec", str(p), "--out", grid_path]) == 0
    g = read_grid(grid_path)
    truth = read_patch_doc(grid_path + ".truth.json")
    assert truth["patches"][0]["jump_estimate"] == 2.0
    inside = g.data[10:30, 10:30].mean()
    outside_mean = (g.data.sum() - g.data[10:30, 10:30].sum()) / (64 * 64 - 400)
    assert inside - outside_mean == pytest.approx(2.0, abs=0.2)


def test_simulate_scenario_honours_mu0(tmp_path):
    """A scenario-form spec's mu0 raises every cell and is the truth doc's
    mu0 (it was dropped: baseline 0 in both)."""
    grids, truths = [], []
    for mu0 in (None, 5.0):
        spec = {"scenario": "config1", "n": 64, "jump": 1.0, "field": {"kind": "iid-gaussian", "seed": 3}}
        if mu0 is not None:
            spec["mu0"] = mu0
        p = tmp_path / f"s{mu0}.json"
        p.write_text(json.dumps(spec))
        grid_path = str(tmp_path / f"g{mu0}.splg")
        assert main(["simulate", "--spec", str(p), "--out", grid_path]) == 0
        grids.append(read_grid(grid_path).data)
        truths.append(read_patch_doc(grid_path + ".truth.json"))
    np.testing.assert_allclose(grids[1] - grids[0], 5.0, rtol=0, atol=1e-12)
    assert [t["diagnostics"]["mu0"] for t in truths] == [0.0, 5.0]
    assert truths[1]["patches"] == truths[0]["patches"]
    assert truths[1]["scenario"] == "config1"


def test_bench_deterministic_modulo_time(tmp_path):
    out1 = str(tmp_path / "b1.csv")
    out2 = str(tmp_path / "b2.csv")
    args = [
        "bench", "--scenario", "config1", "--grid", "128", "--noise", "sar:0.2",
        "--jump", "1.0", "--reps", "3", "--seed", "7",
    ]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    r1 = read_bench_csv(out1)
    r2 = read_bench_csv(out2)
    strip = lambda r: (r.scenario, r.seed, r.k_hat, r.k_true, r.ari, r.hausdorff)
    assert [strip(r) for r in r1] == [strip(r) for r in r2]
    assert [r.seed for r in r1] == [7 ^ 0, 7 ^ 1, 7 ^ 2]


def test_splade_threads_env_caps_workers(monkeypatch):
    from splade.bench import worker_count

    monkeypatch.setenv("SPLADE_THREADS", "1")
    assert worker_count(8) == 1
    monkeypatch.setenv("SPLADE_THREADS", "3")
    assert worker_count(8) == 3
    assert worker_count(2) == 2
    monkeypatch.delenv("SPLADE_THREADS")
    assert worker_count(1) == 1


def test_simulate_linear_field_spec(tmp_path):
    spec = {
        "dims": [48, 48],
        "field": {
            "kind": "linear",
            "seed": 2,
            "stencil": [[[0, 0], 1.0], [[1, 1], 0.5]],
        },
        "patches": [],
    }
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    grid_path = str(tmp_path / "g.splg")
    assert main(["simulate", "--spec", str(p), "--out", grid_path]) == 0
    assert read_grid(grid_path).dims == (48, 48)


def _hot_frames_dir(tmp_path):
    """Three flat frames, then one with a bright 16x16 block at (10, 14)."""
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    base = np.full((48, 48, 3), 60, dtype=np.uint8)
    for i in range(3):
        write_ppm(frames_dir / f"f{i:02d}.ppm", base)
    hot = base.copy()
    hot[10:26, 14:30, :] = 230
    write_ppm(frames_dir / "f03.ppm", hot)
    return str(frames_dir)


def test_frames_command_jsonl(tmp_path):
    out = str(tmp_path / "boxes.jsonl")
    rc = main(["frames", "--dir", _hot_frames_dir(tmp_path), "--baseline", "0:3",
               "--channel", "mean", "--out", out])
    assert rc == 0
    lines = [json.loads(line) for line in Path(out).read_text().splitlines()]
    assert len(lines) == 4
    assert [d["k_hat"] for d in lines[:3]] == [0, 0, 0]
    assert lines[3]["k_hat"] == 1
    lo, hi = lines[3]["patches"][0]["lo"], lines[3]["patches"][0]["hi"]
    assert lo == [10, 14] and hi == [26, 30]


def test_bench_and_frames_identical_serial_and_pooled(tmp_path, monkeypatch):
    """SPLADE_THREADS=1 runs in the calling process, 2 in a process pool."""
    frames_dir = _hot_frames_dir(tmp_path)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SPLADE_THREADS", threads)
        csv_path, jsonl_path = str(tmp_path / f"b{threads}.csv"), str(tmp_path / f"f{threads}.jsonl")
        assert main(["bench", "--scenario", "config2", "--grid", "64", "--noise", "sar:0.2",
                     "--reps", "3", "--out", csv_path]) == 0
        assert main(["frames", "--dir", frames_dir, "--baseline", "0:3", "--out", jsonl_path]) == 0
        rows = [dataclasses.replace(r, time_s=0.0) for r in read_bench_csv(csv_path)]
        docs = [json.loads(line) for line in Path(jsonl_path).read_text().splitlines()]
        for doc in docs:
            doc["diagnostics"].pop("time_s")
        results.append((rows, docs))
    assert results[0] == results[1]
    assert len(results[0][0]) == 3 and len(results[0][1]) == 4


def _grid_file(tmp_path):
    path = tmp_path / "g.splg"
    write_grid(str(path), Grid.from_array(np.zeros((64, 64))))
    return str(path)


def _config1_grid_file(tmp_path):
    """config1 at 128^2 with jump 2 on SAR(0.04) noise: three patches to find."""
    path = tmp_path / "c1.splg"
    noise = gen_field(FieldSpec(kind="sar", rho=0.04, seed=3), (128, 128))
    write_grid(str(path), inject_patches(noise, canonical_scenario("config1", 128, 2.0)))
    return str(path)


def _frames_dir(tmp_path, header, payload):
    d = tmp_path / "frames"
    d.mkdir()
    (d / "f00.pgm").write_bytes(header + payload)
    return str(d)


def _spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _field_spec_file(tmp_path, field):
    return _spec_file(tmp_path, {"dims": [64, 64], "field": field, "patches": []})


def _patch_spec_file(tmp_path, patch):
    return _spec_file(tmp_path, {"dims": [64, 64], "field": {"kind": "iid-gaussian"}, "patches": [patch]})


_PATCH_DOC = {"dims": [64, 64], "k_hat": 1, "diagnostics": {},
              "patches": [{"lo": [1, 2], "hi": [5, 5], "jump_estimate": 1.0}]}


def _eval_argv(tmp_path, est, truth=_PATCH_DOC):
    """Eval the truth doc ``truth`` (valid by default) against the estimate doc ``est``."""
    paths = []
    for name, doc in [("truth", truth), ("est", est)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return ["eval", "--truth", paths[0], "--est", paths[1], "--out", str(tmp_path / "r.csv")]


def test_eval_one_cell_grid(tmp_path):
    """On one cell both labelings are one cluster: ARI 1 (was a ZeroDivisionError)."""
    doc = {"dims": [1, 1], "k_hat": 0, "patches": []}
    assert main(_eval_argv(tmp_path, doc, doc)) == 0
    rec = read_bench_csv(str(tmp_path / "r.csv"))[0]
    assert (rec.ari, rec.hausdorff) == (1.0, 0.0)


@pytest.mark.parametrize("side, truth_hi, est_hi, want_ari", [
    (60000, (30000, 30000), (30000, 15000), 0.49090909085509643),  # was ARI 2.5335
    (2**32, (2**32, 2**31), (2**32, 2**30), 0.25),  # was ARI 2.0 and Hausdorff -0.5
])
def test_eval_scores_grids_beyond_int64_exactly(side, truth_hi, est_hi, want_ari, tmp_path):
    """A cluster of 9e8 cells has ~4e17 pairs, whose int64 square overflowed, and
    an int64 volume of 2^64 cells wraps to 0; the exact values come from
    rational arithmetic.  Each estimate holds half its truth: Hausdorff 0.5."""
    def doc(hi):
        return {"dims": [side, side], "k_hat": 1, "patches": [{"lo": [0, 0], "hi": list(hi), "jump_estimate": 1.0}]}

    assert main(_eval_argv(tmp_path, doc(est_hi), doc(truth_hi))) == 0
    rec = read_bench_csv(str(tmp_path / "r.csv"))[0]
    assert abs(rec.ari - want_ari) <= 1e-9 and rec.hausdorff == 0.5


def _noise_grid_file(tmp_path):
    """A SPLG grid whose payload is not UTF-8 (a zero grid's NUL bytes are)."""
    path = tmp_path / "noise.splg"
    write_grid(str(path), gen_field(FieldSpec(kind="iid-gaussian", seed=1), (8, 8)))
    return str(path)


def _overflowing_splg(tmp_path):
    path = tmp_path / "huge.splg"
    path.write_bytes(b"SPLG" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
                     + (2**32).to_bytes(8, "little") * 2)
    return str(path)


def _splg_of_rank(tmp_path, rank):
    path = tmp_path / f"rank{rank}.splg"
    path.write_bytes(b"SPLG" + (1).to_bytes(4, "little") + rank.to_bytes(4, "little")
                     + (2).to_bytes(8, "little") * rank + bytes(8 * 2**rank))
    return str(path)


def _tiny_grid_file(tmp_path):
    """An iid 128^2 grid times 2^-560: a spread of 2e-168."""
    path = tmp_path / "tiny.splg"
    noise = gen_field(FieldSpec(kind="iid-gaussian", seed=3), (128, 128))
    write_grid(str(path), Grid.from_array(noise.data * 2.0**-560))
    return str(path)


# case -> (environment, argv built from tmp_path); each must fail with one
# "error: ..." line and no traceback
CLI_ERRORS = {
    "mu0 not a number": ({}, lambda t: ["detect", "--in", _grid_file(t), "--out", str(t / "o.json"),
                                        "--mu0", "abc"]),
    **{
        f"SPLADE_THREADS {name}": ({"SPLADE_THREADS": value}, lambda t: [
            "bench", "--scenario", "config1", "--grid", "64", "--reps", "1", "--out", str(t / "b.csv")])
        for name, value in [("not a number", "x"), ("0", "0"), ("-2", "-2")]  # 0 and -2 ran one worker
    },
    "simulate spec not UTF-8": ({}, lambda t: [
        "simulate", "--spec", _noise_grid_file(t), "--out", str(t / "g.splg")]),
    "eval truth not UTF-8": ({}, lambda t: [
        "eval", "--truth", _noise_grid_file(t), "--est", _noise_grid_file(t), "--out", str(t / "r.csv")]),
    "unknown field spec key": ({}, lambda t: [
        "simulate", "--spec", _field_spec_file(t, {"kind": "iid-gaussian", "bogus": 1}),
        "--out", str(t / "g.splg")]),
    **{
        f"PNM {name}": ({}, lambda t, header=header, payload=payload: [
            "frames", "--dir", _frames_dir(t, header, payload), "--baseline", "0:1"])
        for name, header, payload in [
            ("header not a number", b"P5\nabc 4\n255", b"\n" + bytes(16)),
            ("payload truncated", b"P5\n4 4\n255", b"\nabc"),
            ("header without payload", b"P5\n4 4\n255", b""),
        ]
    },
    "SPLG dims overflow": ({}, lambda t: ["detect", "--in", _overflowing_splg(t),
                                          "--out", str(t / "o.json")]),
    **{
        f"SPLG rank {rank}": ({}, lambda t, rank=rank: ["detect", "--in", _splg_of_rank(t, rank),
                                                        "--out", str(t / "o.json")])
        for rank in (0, 5)
    },
    "detect spread below 1e-100": ({}, lambda t: ["detect", "--in", _tiny_grid_file(t),
                                                  "--out", str(t / "o.json")]),
    **{
        f"{flag} {value}": ({}, lambda t, flag=flag, value=value: [
            "detect", "--in", _grid_file(t), "--out", str(t / "o.json"), flag, value])
        for flag, value in [("--mu0", "nan"), ("--sigma", "nan"), ("--sigma", "inf"),
                            ("--min-size-factor", "nan"), ("--min-size-factor", "inf"),
                            ("--window-const", "nan"), ("--kappa2", "nan")]
    },
    **{
        f"field spec {name}": ({}, lambda t, field=field: [
            "simulate", "--spec", _field_spec_file(t, field), "--out", str(t / "g.splg")])
        for name, field in [
            ("sar rho not a number", {"kind": "sar", "rho": "abc"}),
            ("seed not an integer", {"kind": "iid-gaussian", "seed": "x"}),
            ("m not an integer", {"kind": "m-dependent", "m": 1.5}),
            ("stencil offset not an integer", {"kind": "linear", "stencil": [[["a", 0], 1.0]]}),
            ("without a kind", {"seed": 1}),
        ]
    },
    "patch corner not a number": ({}, lambda t: [
        "simulate", "--spec", _patch_spec_file(t, {"lo": ["x", 1], "hi": [3, 3], "jump": 1.0}),
        "--out", str(t / "g.splg")]),
    "patch without hi": ({}, lambda t: [
        "simulate", "--spec", _patch_spec_file(t, {"lo": [1, 1], "jump": 1.0}), "--out", str(t / "g.splg")]),
    "patch corner fractional": ({}, lambda t: [
        "simulate", "--spec", _patch_spec_file(t, {"lo": [1.5, 2], "hi": [3, 3], "jump": 1.0}),
        "--out", str(t / "g.splg")]),
    "simulate max-stable over the cell budget": ({}, lambda t: [
        "simulate", "--spec", _spec_file(t, {"dims": [16, 16, 16], "patches": [],
                                             "field": {"kind": "max-stable", "decay_base": 0.99}}),
        "--out", str(t / "g.splg")]),
    # offsets of +-1e8 pad a 64^2 draw to 4e16 cells, 3.2e17 bytes: beyond any
    # address space, so even an unchecked draw could only fail to allocate
    "simulate linear over the cell budget": ({}, lambda t: [
        "simulate", "--spec", _spec_file(t, {"dims": [64, 64], "patches": [], "field": {
            "kind": "linear", "stencil": [[[10**8, 0], 1.0], [[-10**8, 10**8], 1.0], [[0, -10**8], 1.0]]}}),
        "--out", str(t / "g.splg")]),
    **{
        f"simulate {kind} beyond one array": ({}, lambda t, kind=kind: [
            "simulate", "--spec", _spec_file(t, {"dims": [2**32, 2**32], "field": {"kind": kind}}),
            "--out", str(t / "g.splg")])
        for kind in ("iid-gaussian", "sar")  # each was numpy's "ValueError: array is too big"
    },
    "detect level 5e-324": ({}, lambda t: ["detect", "--in", _config1_grid_file(t), "--out", str(t / "o.json"),
                                           "--level", "5e-324"]),
    "simulate mu0 inf": ({}, lambda t: [
        "simulate", "--spec", _spec_file(t, {"dims": [64, 64], "field": {"kind": "iid-gaussian"},
                                             "mu0": float("inf")}),
        "--out", str(t / "g.splg")]),
    **{
        f"spec {name}": ({}, lambda t, spec=spec: [
            "simulate", "--spec", _spec_file(t, spec), "--out", str(t / "g.splg")])
        for name, spec in [
            ("dims not a number", {"dims": ["x", 64], "field": {"kind": "iid-gaussian"}}),
            ("dims fractional", {"dims": [64.7, 64], "field": {"kind": "iid-gaussian"}}),
            ("n not a number", {"scenario": "config1", "n": "abc", "field": {"kind": "iid-gaussian"}}),
            ("n fractional", {"scenario": "config1", "n": 100.9, "field": {"kind": "iid-gaussian"}}),
            ("jump not a number", {"scenario": "config1", "n": 64, "jump": "big",
                                   "field": {"kind": "iid-gaussian"}}),
            ("not an object", [1, 2]),
            ("field not an object", {"dims": [64, 64], "field": 5}),
            ("scenario form unknown key", {"scenario": "config1", "n": 64, "jmup": 2.0,
                                           "field": {"kind": "iid-gaussian"}}),
            ("explicit form unknown key", {"dims": [64, 64], "jmup": 2.0, "field": {"kind": "iid-gaussian"}}),
            ("explicit form with dims and n", {"dims": [64, 64], "n": 64, "field": {"kind": "iid-gaussian"}}),
            ("without field", {"dims": [64, 64]}),
            ("without n", {"scenario": "config1", "field": {"kind": "iid-gaussian"}}),
            ("without dims", {"field": {"kind": "iid-gaussian"}}),
        ]
    },
    **{
        f"eval estimate {name}": ({}, lambda t, est=est: _eval_argv(t, est))
        for name, est in [
            ("corner not an integer", {**_PATCH_DOC, "patches": [{"lo": [1.5, "2"], "hi": [5, 5],
                                                                  "jump_estimate": 1.0}]}),
            ("dims fractional", {**_PATCH_DOC, "dims": [64.5, 64]}),
            ("k_hat not a number", {**_PATCH_DOC, "k_hat": "x"}),
            ("k_hat not its patch count", {**_PATCH_DOC, "k_hat": 2}),
            ("jump not a number", {**_PATCH_DOC, "patches": [{"lo": [1, 2], "hi": [5, 5],
                                                              "jump_estimate": "a"}]}),
            ("patches not a list", {**_PATCH_DOC, "patches": 5}),
            ("patch of another rank", {**_PATCH_DOC, "patches": [{"lo": [1, 2, 3], "hi": [5, 5, 5],
                                                                  "jump_estimate": 1.0}]}),
            ("not an object", [1]),
            ("time_s not a number", {**_PATCH_DOC, "diagnostics": {"time_s": "x"}}),
            ("without dims", {key: v for key, v in _PATCH_DOC.items() if key != "dims"}),
            ("patch without jump_estimate", {**_PATCH_DOC, "patches": [{"lo": [1, 2], "hi": [5, 5]}]}),
            ("patch out of bounds", {**_PATCH_DOC, "patches": [{"lo": [60, 60], "hi": [70, 70],
                                                                "jump_estimate": 1.0}]}),
        ]
    },
    **{
        f"eval dims {name}": ({}, lambda t, doc={**_PATCH_DOC, "dims": dims, "k_hat": 0, "patches": []}:
                              _eval_argv(t, doc, doc))
        for name, dims in [("zero", [0, 64]), ("empty", [])]  # a traceback from the ARI
    },
    "eval truth overlapping patches": ({}, lambda t: _eval_argv(t, _PATCH_DOC, {
        **_PATCH_DOC, "k_hat": 2, "patches": [{"lo": [0, 0], "hi": [9, 9], "jump_estimate": 1.0},
                                              {"lo": [2, 2], "hi": [5, 5], "jump_estimate": 1.0}]})),
    "eval truth seed fractional": ({}, lambda t: _eval_argv(t, _PATCH_DOC, {**_PATCH_DOC, "seed": 7.9})),
    **{
        f"bench noise {noise}": ({}, lambda t, noise=noise: [
            "bench", "--scenario", "config1", "--grid", "64", "--reps", "1", "--noise", noise,
            "--out", str(t / "b.csv")])
        for noise in ["sar", "maxstable", "sar:abc", "mdep:1.5", "sar:0.4:junk", "mdep:100000"]
    },
    **{
        f"bench reps {reps}": ({}, lambda t, reps=reps: [
            "bench", "--scenario", "config1", "--grid", "64", "--reps", reps, "--out", str(t / "b.csv")])
        for reps in ["0", "-1"]
    },
    **{
        f"bench {flag} {value}": ({}, lambda t, scenario=scenario, flag=flag, value=value: [
            "bench", "--scenario", scenario, "--grid", "64", "--reps", "1", f"--{flag}", value,
            "--out", str(t / "b.csv")])
        for scenario, flag, value in [("config1", "grid", "0"), ("config1", "grid", "-5"),
                                      ("config1", "jump", "inf"), ("config2", "jump", "1e200"),
                                      ("config2", "jump", "1e308")]
    },
    "frames baseline not a range": ({}, lambda t: [
        "frames", "--dir", _hot_frames_dir(t), "--baseline", "a:b"]),
}

# cases whose error line must name the fault itself: unchecked, a later stage
# fails with one line that blames something else (an infinite jump makes
# non-finite grid cells), the run ends in overflow warnings and k_hat = 0, or
# it succeeds (an infinite baseline gave an all-inf grid and exit 0)
CLI_ERROR_TEXT = {
    "simulate mu0 inf": "baseline must be finite",
    "simulate max-stable over the cell budget": "over the budget of 134217728 cells",
    "simulate linear over the cell budget": "linear draw for dims (64, 64) would hold 4e+16 cells, over the budget",
    "bench noise mdep:100000": "m-dependent draw for dims (64, 64) at m 100000 would hold 4e+10 cells",
    "spec scenario form unknown key": "unknown scenario spec keys ['jmup']",  # was ignored, exit 0
    "spec explicit form unknown key": "unknown explicit spec keys ['jmup']",
    "spec explicit form with dims and n": "unknown explicit spec keys ['n']",
    "spec without field": "missing key 'field'",  # each was a bare "error: 'field'"
    "spec without n": "missing key 'n'",
    "spec without dims": "missing key 'dims'",
    "patch without hi": "missing key 'hi'",
    "eval estimate without dims": "missing key 'dims'",
    "eval estimate patch without jump_estimate": "missing key 'jump_estimate'",
    "eval estimate patch out of bounds": "dims [64, 64] must be sizes >= 1 that hold every patch",
    "eval estimate k_hat not its patch count": "k_hat 2 differs from the patch count 1",
    "eval dims zero": "dims [0, 64] must be sizes >= 1",
    "eval dims empty": "dims [] must be sizes >= 1",
    "SPLADE_THREADS 0": "SPLADE_THREADS must be an integer >= 1, got '0'",
    "SPLADE_THREADS -2": "SPLADE_THREADS must be an integer >= 1, got '-2'",
    "eval truth overlapping patches": "overlap",  # was scored, exit 0
    "bench jump inf": "jump must be finite",
    "bench jump 1e200": "squared sums would overflow",  # config2 cells reach 5e200
    "bench jump 1e308": "patch jump must be finite",  # config2's 2 x 1e308 is inf
    "SPLG rank 0": "rank 0 outside 1..4",  # was a traceback from the payload's reshape
    "SPLG rank 5": "rank 5 outside 1..4",
    "detect spread below 1e-100": "squared sums would underflow",  # was exit 0, sigma 0, k_hat 7
    "simulate iid-gaussian beyond one array": "hold too many cells for one array",
    "simulate sar beyond one array": "hold too many cells for one array",
    # was a StatisticsError from the normal quantile: the per-block tail underflows to 0
    "detect level 5e-324": "kappa_level 5e-324 is too small for 144 blocks",
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_errors_are_one_line(case, tmp_path, monkeypatch, capsys):
    env, argv = CLI_ERRORS[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        rc = main(argv(tmp_path))
    except SystemExit as e:  # argparse rejects a bad flag value at parse time
        rc = e.code
    assert rc != 0
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err
    assert CLI_ERROR_TEXT.get(case, "error:") in err


_MAX = sys.float_info.max
# each numeric detect flag's smallest and largest finite accepted values; the
# whole sweep takes ~0.5 s
DETECT_FLAG_ENDS = {
    "--alpha": (5e-324, 1 - 2**-53),
    "--alpha2": (5e-324, 0.99 - 2**-53),  # alpha2 + kappa2 (0.01) < 1
    "--kappa2": (0.0, 0.5 - 2**-53),  # alpha2 (0.5) + kappa2 < 1
    "--window-const": (5e-324, _MAX),  # was an OverflowError from the window's ceil
    "--level": (5e-324, 1 - 2**-53),
    "--mu0": (-_MAX, _MAX),
    "--sigma": (0.0, _MAX),
    "--margin-blocks": (0, 2**64),  # any int >= 0; this one is past int64
    "--min-size-factor": (5e-324, _MAX),  # was an OverflowError from the size threshold's ceil
}


def _detect_flag_accepted(flag, value) -> bool:
    args = build_parser().parse_args(["detect", "--in", "g", "--out", "o", f"{flag}={value!r}"])
    try:
        _config_from_args(args)
    except LatticeError:
        return False
    return True


@pytest.mark.parametrize("flag, end", [(flag, end) for flag in sorted(DETECT_FLAG_ENDS) for end in (0, 1)])
def test_detect_flag_extremes_end_cleanly(flag, end, tmp_path, capsys):
    """Each numeric detect flag at either end of its accepted range ends in exit
    0 or 1, at most one error line and no traceback."""
    value = DETECT_FLAG_ENDS[flag][end]
    assert _detect_flag_accepted(flag, value)
    if isinstance(value, float):  # one float further is refused: this is the end
        assert not _detect_flag_accepted(flag, math.nextafter(value, math.inf if end else -math.inf))
    elif not end:
        assert not _detect_flag_accepted(flag, value - 1)
    out = str(tmp_path / "o.json")
    assert main(["detect", "--in", _config1_grid_file(tmp_path), "--out", out, f"{flag}={value!r}"]) in (0, 1)
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) <= 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("module, message", [("cli", "Unable to allocate 745. GiB"), ("bench", "")])
def test_out_of_memory_is_one_line(module, message, tmp_path, monkeypatch, capsys):
    """A grid too large to allocate (a spec's "dims": [100000000000]) ends in one
    error line, with numpy's message or, for a bare MemoryError, its name;
    gen_field is replaced, so nothing is allocated."""
    def no_memory(spec, dims):
        raise MemoryError(message)

    monkeypatch.setattr(f"splade.{module}.gen_field", no_memory)
    monkeypatch.setenv("SPLADE_THREADS", "1")  # the bench replicate runs in this process
    spec = _spec_file(tmp_path, {"dims": [100000000000], "field": {"kind": "iid-gaussian"}})
    argv = {
        "cli": ["simulate", "--spec", spec, "--out", str(tmp_path / "g.splg")],
        "bench": ["bench", "--scenario", "config1", "--grid", "64", "--reps", "1",
                  "--out", str(tmp_path / "b.csv")],
    }[module]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"


def test_bench_row_equals_simulate_detect_eval(tmp_path, monkeypatch):
    """bench and eval score through one function: bench's rep-1 row (field seed
    3 ^ 1 = 2) is the row of simulate -> detect -> eval on the same scene. That
    replicate misses one of config2's five patches, so neither metric is trivial."""
    monkeypatch.setenv("SPLADE_THREADS", "1")
    bench_csv = str(tmp_path / "b.csv")
    assert main(["bench", "--scenario", "config2", "--grid", "128", "--noise", "sar:0.2", "--jump", "1.0",
                 "--reps", "3", "--seed", "3", "--out", bench_csv]) == 0
    spec = _spec_file(tmp_path, {"scenario": "config2", "n": 128, "jump": 1.0,
                                 "field": {"kind": "sar", "rho": 0.2, "seed": 2}})
    grid, truth, est, row = (str(tmp_path / name) for name in ("g.splg", "t.json", "e.json", "r.csv"))
    assert main(["simulate", "--spec", spec, "--out", grid, "--truth", truth]) == 0
    assert main(["detect", "--in", grid, "--out", est]) == 0
    assert main(["eval", "--truth", truth, "--est", est, "--out", row]) == 0
    bench_row = Path(bench_csv).read_text().splitlines()[2]  # header, rep 0, rep 1
    eval_row = Path(row).read_text().splitlines()[1]
    without_time = [line.rsplit(",", 1)[0] for line in (bench_row, eval_row)]
    assert without_time == ["config2,2,4,5,0.8585325045189585,0.9590909090909091"] * 2


def _script(monkeypatch, name):
    """scripts/<name>.py, loaded by path (it is not part of the package)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_script", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, script)
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's own src insert
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("argv", [
    ["--grid", "10"],
    ["--noises", "sar:0.04", "bogus"],
    ["--scenarios", "config1", "config9"],
    ["--jumps", "1.0", "inf"],
    ["--reps", "0"],
])
def test_run_bench_script_checks_every_cell_first(argv, tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "out"
    rc = _script(monkeypatch, "run_bench").main(["--reps", "1"] + argv + ["--outdir", str(outdir)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""  # not even the table header
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "Traceback" not in err
    assert not outdir.exists()  # no cell ran


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""])
def test_run_bench_script_out_of_memory_is_one_line(message, tmp_path, monkeypatch, capsys):
    """As ``splade bench``: a MemoryError in a cell ends in one error line, not a
    traceback; gen_field is replaced, so nothing is allocated."""
    def no_memory(spec, dims):
        raise MemoryError(message)

    script = _script(monkeypatch, "run_bench")
    monkeypatch.setattr("splade.bench.gen_field", no_memory)
    monkeypatch.setenv("SPLADE_THREADS", "1")  # the replicate runs in this process
    argv = ["--grid", "64", "--reps", "1", "--scenarios", "config1", "--noises", "sar:0.04",
            "--jumps", "1.0", "--outdir", str(tmp_path / "out")]
    assert script.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"


def test_demo_frames_box_counts(tmp_path, monkeypatch):
    """scripts/make_demo_frames.py finds the box counts its docstring and the
    README promise: two subjects enter, merge into one blob, separate and leave."""
    monkeypatch.setenv("SPLADE_THREADS", "1")
    out = tmp_path / "boxes.jsonl"
    script = _script(monkeypatch, "make_demo_frames")
    assert script.main(["--dir", str(tmp_path / "frames"), "--out", str(out)]) == 0
    counts = [json.loads(line)["k_hat"] for line in out.read_text().splitlines()]
    assert counts == [0] * 12 + [2] * 5 + [1] * 7 + [2] * 3 + [0] * 2
