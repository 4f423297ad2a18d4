"""Golden outputs of the CLI: run the cases of ``cases.json`` and record them.

``cases.json`` holds the markets (mu, sigma, r_f), the price CSVs and one
entry per CLI run: ``compare`` on the three benchmark workload markets at
N = 20,000 (the one-asset sweep keeps its 12 gammas and 4096 ECDF points)
and once more on the paper's market at N = 65,541, where the solvers' sums
run over three blocks of scenarios; ``solve --method all`` on two markets,
``frontier``, ``estimate`` on a price CSV with one ASCII and one non-ASCII
asset name, and ``--help`` of the program and of each subcommand.  Each
``compare`` and ``solve`` run passes ``--max-iter`` a few times the gd
steps it takes (9-10, or 20-25 on the 16-asset market), so a broken gd
fails the golden test in seconds; no output holds the budget.  A run
with a market or a price CSV writes the file its ``--out``/``--outdir``
names; a run without one (``--help``) is recorded as its stdout, wrapped
at ``COLUMNS`` = 80.  ``manifest.json`` records the sha256 of every file
these runs write, and the numpy version, Python version (argparse lays out
the help) and machine they were recorded under; the four
``comparison.json`` files, the estimated params file and the help texts
are also kept verbatim, so a moved digit or a changed help line shows as a
readable diff.

To rewrite the data, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only in a change that means to move output digits or to change
an output format, and name in its CHANGES.md entry the files that moved and
the largest change per method; a format change shows, with a check that
parses old and new, that every value is the same float64 (|delta| = 0).
Before it rewrites the data, the script prints both: every manifest entry
whose sha256 changed, and for each verbatim ``comparison.json`` the largest
|delta| per method over every cell's weights and stats.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from crra_opt.cli import main as cli_main

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"
MANIFEST = HERE / "manifest.json"

# Outputs kept verbatim next to the manifest.
VERBATIM = (
    *(f"compare/{case}/comparison.json"
      for case in ("paper_study", "gamma_sweep_1asset", "wide_market_k16", "paper_study_n65541")),
    "estimate/two_assets.json",
    *(f"help/{command}.txt"
      for command in ("crra-opt", "estimate", "solve", "compare", "frontier")),
)


def environment() -> dict:
    """What the output bytes depend on beyond the code: numpy's kernels and
    the Python version, whose argparse lays out the help."""
    return {"numpy": np.__version__, "python": ".".join(platform.python_version_tuple()[:2]),
            "machine": platform.machine()}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``crra-opt argv``, with help wrapped at 80 columns."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, stdout.getvalue()


def run_cases(workdir: Path) -> dict[str, bytes]:
    """Run every case into ``workdir``; map each written file's path,
    relative to ``workdir``, to its bytes."""
    cases = json.loads(CASES.read_text(encoding="utf-8"))
    params = {}
    for name, market in cases["markets"].items():
        params[name] = workdir / "params" / f"{name}.json"
        params[name].parent.mkdir(parents=True, exist_ok=True)
        params[name].write_text(json.dumps(market), encoding="utf-8")
    prices = {}
    for name, text in cases["prices"].items():
        prices[name] = workdir / "prices" / f"{name}.csv"
        prices[name].parent.mkdir(parents=True, exist_ok=True)
        prices[name].write_text(text, encoding="utf-8")
    outdir = workdir / "out"
    for run in cases["runs"]:
        out = outdir / run["out"]
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = run["argv"]
        if "market" in run:
            out_flag = "--outdir" if argv[0] == "compare" else "--out"
            argv = [*argv, "--params", str(params[run["market"]]), out_flag, str(out)]
        elif "prices" in run:
            argv = [*argv, "--prices", str(prices[run["prices"]]), "--out", str(out)]
        code, stdout = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"crra-opt {' '.join(argv)} exited {code}")
        if "market" not in run and "prices" not in run:
            out.write_bytes(stdout.encode("utf-8"))
    return {path.relative_to(outdir).as_posix(): path.read_bytes()
            for path in sorted(outdir.rglob("*")) if path.is_file()}


def sha256s(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def _cell_values(cell: dict) -> list[float]:
    return [*(cell.get("weights") or ()), *(cell.get("stats") or {}).values()]


def largest_changes(old: bytes, new: bytes) -> dict[str, float]:
    """The largest |delta| per method over every cell's weights and stats
    between two ``comparison.json`` files; a cell whose values differ in
    number (one of them failed, say) counts as inf."""
    old_results, delta = json.loads(old)["results"], {}
    for gamma, cells in json.loads(new)["results"].items():
        for method, cell in cells.items():
            a = _cell_values(old_results.get(gamma, {}).get(method, {}))
            b = _cell_values(cell)
            d = (max((abs(x - y) for x, y in zip(a, b)), default=0.0)
                 if len(a) == len(b) else math.inf)
            delta[method] = max(delta.get(method, 0.0), d)
    return delta


def report_changes(outputs: dict[str, bytes]) -> None:
    """Print what a rewrite of the data would move: each manifest entry whose
    sha256 changed, appeared or went, and the :func:`largest_changes` of each
    verbatim ``comparison.json``."""
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["sha256"] if MANIFEST.exists() else {}
    new = sha256s(outputs)
    moved = [name for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    for name in moved:
        print(f"moved: {name}" if name in old and name in new
              else f"{'added' if name in new else 'removed'}: {name}")
    print(f"{len(moved)} of {len(new)} manifest entries moved")
    for name in VERBATIM:
        if name.endswith("comparison.json") and (HERE / name).exists():
            delta = largest_changes((HERE / name).read_bytes(), outputs[name])
            print(f"max |delta| in {name}: "
                  + ", ".join(f"{method} {d:.3g}" for method, d in delta.items()))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_cases(Path(tmp))
    report_changes(outputs)
    for name in VERBATIM:
        path = HERE / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(outputs[name])
    manifest = {"environment": environment(), "sha256": sha256s(outputs)}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(outputs)} outputs under {environment()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
