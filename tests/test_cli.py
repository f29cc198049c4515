import dataclasses
import json

import numpy as np
import pytest

from splade.cli import main
from splade.detect import SpladeConfig, splade_detect
from splade.gridio import (
    detection_to_doc,
    read_grid,
    read_patch_doc,
    write_grid,
)
from splade.lattice import Grid
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
    assert rec.k_true == 3
    assert rec.k_hat == 3
    assert rec.ari > 0.8


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
    lines = [json.loads(line) for line in open(out)]
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
        docs = [json.loads(line) for line in open(jsonl_path)]
        for doc in docs:
            doc["diagnostics"].pop("time_s")
        results.append((rows, docs))
    assert results[0] == results[1]
    assert len(results[0][0]) == 3 and len(results[0][1]) == 4


def _grid_file(tmp_path):
    path = tmp_path / "g.splg"
    write_grid(str(path), Grid.from_array(np.zeros((64, 64))))
    return str(path)


def _frames_dir(tmp_path, header):
    d = tmp_path / "frames"
    d.mkdir()
    (d / "f00.pgm").write_bytes(header + b"\n" + bytes(16))
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


def _overflowing_splg(tmp_path):
    path = tmp_path / "huge.splg"
    path.write_bytes(b"SPLG" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
                     + (2**32).to_bytes(8, "little") * 2)
    return str(path)


# case -> (environment, argv built from tmp_path); each must fail with one
# "error: ..." line and no traceback
CLI_ERRORS = {
    "mu0 not a number": ({}, lambda t: ["detect", "--in", _grid_file(t), "--out", str(t / "o.json"),
                                        "--mu0", "abc"]),
    "SPLADE_THREADS not a number": ({"SPLADE_THREADS": "x"}, lambda t: [
        "bench", "--scenario", "config1", "--grid", "64", "--reps", "1", "--out", str(t / "b.csv")]),
    "unknown field spec key": ({}, lambda t: [
        "simulate", "--spec", _field_spec_file(t, {"kind": "iid-gaussian", "bogus": 1}),
        "--out", str(t / "g.splg")]),
    "PNM header not a number": ({}, lambda t: [
        "frames", "--dir", _frames_dir(t, b"P5\nabc 4\n255"), "--baseline", "0:1"]),
    "SPLG dims overflow": ({}, lambda t: ["detect", "--in", _overflowing_splg(t),
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
    "patch corner fractional": ({}, lambda t: [
        "simulate", "--spec", _patch_spec_file(t, {"lo": [1.5, 2], "hi": [3, 3], "jump": 1.0}),
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
        ]
    },
    **{
        f"eval estimate {name}": ({}, lambda t, est=est: _eval_argv(t, est))
        for name, est in [
            ("corner not an integer", {**_PATCH_DOC, "patches": [{"lo": [1.5, "2"], "hi": [5, 5],
                                                                  "jump_estimate": 1.0}]}),
            ("dims fractional", {**_PATCH_DOC, "dims": [64.5, 64]}),
            ("k_hat not a number", {**_PATCH_DOC, "k_hat": "x"}),
            ("jump not a number", {**_PATCH_DOC, "patches": [{"lo": [1, 2], "hi": [5, 5],
                                                              "jump_estimate": "a"}]}),
            ("patches not a list", {**_PATCH_DOC, "patches": 5}),
            ("patch of another rank", {**_PATCH_DOC, "patches": [{"lo": [1, 2, 3], "hi": [5, 5, 5],
                                                                  "jump_estimate": 1.0}]}),
            ("not an object", [1]),
            ("time_s not a number", {**_PATCH_DOC, "diagnostics": {"time_s": "x"}}),
        ]
    },
    "eval truth seed fractional": ({}, lambda t: _eval_argv(t, _PATCH_DOC, {**_PATCH_DOC, "seed": 7.9})),
    **{
        f"bench noise {noise}": ({}, lambda t, noise=noise: [
            "bench", "--scenario", "config1", "--grid", "64", "--reps", "1", "--noise", noise,
            "--out", str(t / "b.csv")])
        for noise in ["sar", "maxstable", "sar:abc", "mdep:1.5", "sar:0.4:junk"]
    },
    "frames baseline not a range": ({}, lambda t: [
        "frames", "--dir", _hot_frames_dir(t), "--baseline", "a:b"]),
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
