"""The package's exported names, the README's entry-point table and its file formats stay in step."""

import inspect
import re
from pathlib import Path

import pytest

import splade
from splade.bench import parse_noise
from splade.cli import main
from splade.gridio import read_patch_doc, write_grid
from splade.lattice import LatticeError
from splade.simulate import FieldSpec, canonical_scenario, gen_field, inject_patches

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(splade.__all__)) == len(splade.__all__)
    missing = [name for name in splade.__all__ if not hasattr(splade, name)]
    assert not missing, missing


def test_readme_entry_points_are_package_attributes():
    text = README.read_text()
    table = text[text.index("Key entry points:"):].split("\n\n")[1]
    rows = [line for line in table.splitlines()[2:] if line.startswith("|")]
    assert rows
    names = [name for row in rows for name in re.findall(r"`([A-Za-z_]\w*)", row.split("|")[1])]
    assert len(names) >= len(rows)
    missing = [name for name in names if not hasattr(splade, name)]
    assert not missing, missing
    # a row written as `name(a, b, ...)` lists every parameter of the call
    calls = [call for row in rows for call in re.findall(r"`([A-Za-z_]\w*)\(([^)]*)\)`", row.split("|")[1])]
    assert calls
    wrong = [(name, args) for name, args in calls
             if len(args.split(",")) != len(inspect.signature(getattr(splade, name)).parameters)]
    assert not wrong, wrong


def test_readme_noise_descriptors_parse():
    """Every form on README's "Noise descriptors:" line parses, one per CLI noise
    kind, with its optional part and without; no other spelling does."""
    text = README.read_text()
    forms = re.findall(r"`([^`]+)`", text[text.index("Noise descriptors:"):].split("\n\n")[0])
    values = {"RHO": "0.4", "ALPHA": "3", "BASE": "0.6", "M": "2"}
    kinds = set()
    for form in forms:
        for spelled in {re.sub(r"\[(.*?)\]", r"\1", form), re.sub(r"\[.*?\]", "", form)}:
            kinds.add(parse_noise(re.sub(r"[A-Z]+", lambda m: values[m[0]], spelled)).kind)
    assert kinds == {"iid-gaussian", "sar", "max-stable", "m-dependent"}, forms
    for alias in ("max-stable:3", "m-dependent:2"):
        with pytest.raises(LatticeError, match="bad noise descriptor"):
            parse_noise(alias)


def test_readme_lists_every_detect_diagnostics_key(tmp_path):
    """README's "File formats" names exactly the diagnostics keys ``splade detect`` writes."""
    text = README.read_text()
    listed = text[text.index("The diagnostics keys of a `splade detect` doc are"):text.index("The truth doc")]
    names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", listed.split(" are ", 1)[1]))
    grid = inject_patches(gen_field(FieldSpec(kind="iid-gaussian", seed=1), (128, 128)),
                          canonical_scenario("config1", 128, 2.0))
    write_grid(tmp_path / "g.splg", grid)
    assert main(["detect", "--in", str(tmp_path / "g.splg"), "--out", str(tmp_path / "d.json")]) == 0
    keys = read_patch_doc(tmp_path / "d.json")["diagnostics"]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(keys)
