"""Report serialization: solver JSON, long-form CSV, ECDF files.

JSON floats are written with 17 significant digits (lossless for float64)
and CSV floats with shortest round-trip ``repr``; both are fixed formats,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .closed_form import ClosedFormSolution
from .gradient import GdReport
from .simulation import METHODS, ComparisonReport, SummaryStats
from .taylor import TaylorReport

# Summary statistics in output order: mean, sd, median, mad.
STATS = tuple(f.name for f in fields(SummaryStats))

JSON_INDENT = "  "


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_gamma(g: float) -> str:
    return f"{float(g):g}"


def dumps_json(obj) -> str:
    """Serialize nested dict/list/scalar data with 17-digit floats.

    Strings and keys are escaped per RFC 8259 section 7: ``"``, ``\\`` and the
    control characters U+0000-U+001F; every other character is written
    as is.  A NaN or infinite float, which JSON cannot hold, raises
    ``ValueError``.
    """
    return _dumps(obj, 0) + "\n"


def _dumps(obj, level: int) -> str:
    pad = JSON_INDENT * level
    inner = JSON_INDENT * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{_dumps_str(str(key))}: {_dumps(value, level + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_dumps(value, level + 1)}" for value in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r} as JSON")
        return fmt17(obj)
    if isinstance(obj, str):
        return _dumps_str(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _dumps_str(text: str) -> str:
    return json.dumps(text, ensure_ascii=False)


def analytical_report_dict(sol: ClosedFormSolution) -> dict:
    return {
        "weights": [float(x) for x in sol.weights],
        "c": sol.c,
        "J": sol.J,
        "D": sol.D,
        "gamma": sol.gamma,
        "mean_excess": sol.expected_excess_return,
        "variance": sol.variance,
        "foc_residual": sol.foc_residual,
        "method": "analytical",
    }


def gd_report_dict(rep: GdReport) -> dict:
    return {
        "weights": [float(x) for x in rep.weights],
        "iterations": rep.iterations,
        "grad_norm": rep.final_gradient_norm,
        "objective": rep.objective,
        "converged": rep.converged,
        "method": "gd",
    }


def taylor_report_dict(rep: TaylorReport) -> dict:
    return {
        "weights": [float(x) for x in rep.weights],
        "iterations": rep.iterations,
        "converged": rep.converged,
        "method": "taylor",
    }


def comparison_report_dict(report: ComparisonReport) -> dict:
    """Nested gamma -> method -> {weights, stats, infeasible_count, nonfinite_count}."""
    results: dict = {}
    for g in report.gammas:
        row: dict = {}
        for method in METHODS:
            cell = report.cells[(g, method)]
            if cell.failed:
                row[method] = {"error": cell.error}
                continue
            row[method] = {
                "weights": [float(x) for x in cell.weights],
                "stats": {stat: getattr(cell.stats, stat) for stat in STATS},
                "infeasible_count": cell.infeasible_count,
                "nonfinite_count": cell.nonfinite_count,
            }
        results[fmt_gamma(g)] = row
    return {
        "n": report.n,
        "seed": report.seed,
        "gammas": list(report.gammas),
        "results": results,
    }


def write_text(path, text: str) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_comparison_csv(report: ComparisonReport, path) -> None:
    """Long-form CSV with columns gamma,method,stat,value.

    Fields are quoted only where they must be, so an error message holding a
    comma, a quote or a newline stays one field.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("gamma", "method", "stat", "value"))
    for g in report.gammas:
        for method in METHODS:
            cell = report.cells[(g, method)]
            if cell.failed:
                writer.writerow((fmt_gamma(g), method, "error", cell.error))
                continue
            for stat in STATS:
                writer.writerow((fmt_gamma(g), method, stat, repr(getattr(cell.stats, stat))))
    write_text(path, buf.getvalue())


def ecdf_filename(kind: str, gamma: float, method: str) -> str:
    return f"ecdf_{kind}_gamma{fmt_gamma(gamma)}_{method}.csv"


def write_ecdf_files(report: ComparisonReport, outdir) -> list[Path]:
    """One ``x,F`` CSV per (gamma, method, kind); returns written paths."""
    outdir = Path(outdir)
    written: list[Path] = []
    for (g, method, kind), table in report.ecdfs.items():
        rows = "".join(f"{x!r},{f!r}\n" for x, f in table.tolist())
        path = outdir / ecdf_filename(kind, g, method)
        write_text(path, "x,F\n" + rows)
        written.append(path)
    return written


def human_comparison_table(report: ComparisonReport) -> str:
    """Per-gamma blocks with one row per statistic, 6 significant digits,
    then the counts of infeasible and of non-finite draws the statistics
    leave out."""
    col = 16
    lines: list[str] = []
    header = "stat".ljust(10) + "".join(m.rjust(col) for m in METHODS)
    for g in report.gammas:
        lines.append(f"gamma = {fmt_gamma(g)}")
        lines.append(header)
        for stat in STATS:
            row = stat.ljust(10)
            for method in METHODS:
                cell = report.cells[(g, method)]
                if cell.failed:
                    row += "failed".rjust(col)
                else:
                    row += f"{getattr(cell.stats, stat):.6g}".rjust(col)
            lines.append(row)
        for count in ("infeasible", "nonfinite"):
            values = [str(getattr(report.cells[(g, m)], f"{count}_count")) for m in METHODS]
            lines.append(count.ljust(10) + "".join(v.rjust(col) for v in values))
        lines.append("")
    return "\n".join(lines)
