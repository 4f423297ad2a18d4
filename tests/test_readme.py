"""README.md names only code that exists."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

from crra_opt.cli import build_parser

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


def test_every_cli_command_parses():
    # Each `crra-opt ...` command of README's sh blocks, its continuation
    # lines joined and its comments dropped, parses, so a renamed or deleted
    # flag fails here.
    text = README.read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    argvs = [shlex.split(line, comments=True) for line in lines.splitlines()]
    commands = [argv[1:] for argv in argvs if argv[:1] == ["crra-opt"]]
    assert len(commands) == 6
    for argv in commands:
        assert callable(build_parser().parse_args(argv).func)
