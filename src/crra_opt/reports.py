"""Report serialization: solver JSON, long-form CSV, ECDF files.

Every float in every file, JSON and CSV alike, is written as its shortest
round-trip ``repr``: a fixed format, lossless for float64, so identical
inputs produce byte-identical files.  Every JSON file is written by
:func:`~crra_opt.market.dumps_json`, which also writes the params file;
it and :func:`~crra_opt.market.write_text` are imported here for the
report writers and their callers.  The ECDF files, most of a study's
bytes, are written by up to one process per CPU (see
:func:`write_ecdf_files`); their bytes do not depend on how many.
"""

from __future__ import annotations

import csv
import io
import os
import threading
from dataclasses import fields
from pathlib import Path

from .market import dumps_json, write_text
from .simulation import METHODS, ComparisonReport, SummaryStats, fmt_gamma, worker_count

# Summary statistics in output order: mean, sd, median, mad.
STATS = tuple(f.name for f in fields(SummaryStats))

# Fewest ECDF rows per writer process.  On a 2-vCPU x86-64 VM, a fork of
# a ~50 MB process, its reaping and the copy-on-write faults the caller
# takes afterwards cost ~10 ms, and a row takes ~2 us to format, so a
# child pays only for a share of well over 5,000 rows.  A study with 256-point ECDFs
# (6,144 rows for 4 gammas) stays in one process; one with 12 gammas of
# 4096-point ECDFs (295k rows) gets one process per CPU.
MIN_SHARE_ROWS = 16_384


def solver_report_dict(method: str, report) -> dict:
    """A solver report as ``solve`` writes it: the dataclass fields under
    their own names, in declaration order, then ``method``."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out["weights"] = report.weights.tolist()  # the one array field
    out["method"] = method
    return out


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
    """One ``x,F`` CSV per (gamma, method, kind); returns the written paths
    in ``report.ecdfs`` order.

    The files are dealt round robin into up to one share per CPU this
    process may run on (:func:`~crra_opt.simulation.worker_count`), and
    at most one share per :data:`MIN_SHARE_ROWS` rows.  The caller writes
    share 0; each other share is written by a child made with
    ``os.fork``, which reads the tables copy-on-write and leaves through
    ``os._exit``: status 0 once its share is written, 1 on any failure.
    The caller reaps every child, even when its own share raises, and then
    writes again each share whose child failed, so a write error reaches
    the caller as the ``OSError`` a serial write would raise.  Where the
    platform has no ``os.fork``, or another Python thread is alive (a fork
    would copy its locks in whatever state they are), there is only share
    0.  Every process formats the rows alike, so the bytes do not depend on
    the number of shares.
    """
    outdir = Path(outdir)
    jobs = [(outdir / ecdf_filename(kind, g, method), table)
            for (g, method, kind), table in report.ecdfs.items()]
    shares = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        rows = sum(table.shape[0] for _, table in jobs)
        shares = worker_count(min(len(jobs), rows // MIN_SHARE_ROWS))
    children: dict[int, int | None] = {}  # share -> child pid, None if fork failed
    try:
        for share in range(1, shares):
            try:
                pid = os.fork()
            except OSError:
                children[share] = None
                continue
            if pid == 0:
                status = 1
                try:
                    _write_ecdf_share(jobs[share::shares])
                    status = 0
                finally:
                    os._exit(status)
            children[share] = pid
        _write_ecdf_share(jobs[0::shares])
    finally:
        failed = [share for share, pid in children.items()
                  if pid is None or os.waitpid(pid, 0)[1] != 0]
    for share in failed:
        _write_ecdf_share(jobs[share::shares])
    return [path for path, _ in jobs]


def _write_ecdf_share(jobs) -> None:
    for path, table in jobs:
        rows = "".join(f"{x!r},{f!r}\n" for x, f in table.tolist())
        write_text(path, "x,F\n" + rows)


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
