"""The package's exported names and the README's entry-point table stay in step."""

import inspect
import re
from pathlib import Path

import pytest

import splade
from splade.bench import parse_noise
from splade.lattice import LatticeError

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
