"""README.md names only code that exists."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_named_object_resolves():
    # Each backticked `crra_opt.<module>[.<name>...]` imports the module and
    # reaches the rest by getattr, so a rename or deletion fails here.
    text = README.read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"`(crra_opt(?:\.\w+)+)`", text)))
    assert "crra_opt.simulation.METHODS" in names
    for name in names:
        package, module, *attrs = name.split(".")
        obj = importlib.import_module(f"{package}.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README.md names {name}, which does not resolve"
            obj = getattr(obj, attr)
