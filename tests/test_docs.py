"""The package's exported names and the README's entry-point table stay in step."""

import inspect
import re
from pathlib import Path

import splade

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
