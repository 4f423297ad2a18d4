"""Report serialization: solver JSON, long-form CSV, ECDF files.

Every float in every file, JSON and CSV alike, is written as its shortest
round-trip ``repr``: a fixed format, lossless for float64, so identical
inputs produce byte-identical files.  Every JSON file is written by
:func:`~crra_opt.market.dumps_json`, which also writes the params file;
it and :func:`~crra_opt.market.write_text` are imported here for the
report writers and their callers.  The ECDF files, most of a study's
bytes, are written by one :class:`EcdfWriters`, fed each gamma's tables
by ``crra-opt compare`` while it still solves the others, and a finished
report's by :func:`write_ecdf_files`; the bytes do not depend on how
many processes it forks.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import struct
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np

from .market import dumps_json, write_text
from .simulation import METHODS, ComparisonReport, SummaryStats, fmt_gamma, worker_count

# Summary statistics in output order: mean, sd, median, mad.
STATS = tuple(f.name for f in fields(SummaryStats))

# Fewest ECDF rows per writer process.  On a 2-vCPU x86-64 VM, forking
# and reaping a writer from the ~30 MB CLI process costs ~3 ms, and a row
# takes 1-2 us to format, so a writer pays for its fork after a few
# thousand rows; the floor sits well above that, because the writers take
# CPU from the solver threads.  A study with 256-point ECDFs (6,144 rows
# for 4 gammas) stays in one process; one with 12 gammas of 4096-point
# ECDFs (295k rows) gets one writer per CPU.
MIN_SHARE_ROWS = 16_384

# A table on a writer's pipe: the file name's length and the number of
# float64 values, then the name and the values.
_HEADER = struct.Struct("=HQ")


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
    """One ``x,F`` CSV per (gamma, method, kind) of ``report.ecdfs``;
    returns the written paths in ``report.ecdfs`` order.

    The tables go to an :class:`EcdfWriters`, the writers ``crra-opt
    compare`` feeds while it is still solving, so the bytes do not depend
    on how many processes write them.
    """
    outdir = Path(outdir)
    rows = sum(table.shape[0] for table in report.ecdfs.values())
    with EcdfWriters.start(outdir, len(report.ecdfs), rows) as writers:
        writers(report.ecdfs)
    return [outdir / ecdf_filename(kind, g, method) for g, method, kind in report.ecdfs]


class EcdfWriters:
    """The ECDF writers: forked processes fed through pipes, or this one.

    Calling the object with a dict of tables keyed ``(gamma, method,
    kind)``, as :func:`~crra_opt.simulation.compare` calls its
    ``ecdf_sink``, counts them in :attr:`files`.  Where :meth:`start`
    forked writers, it deals the tables round robin to them, each as its
    file name and raw float64 values, so this process keeps no table.  A
    writer makes ``outdir`` if it is missing and formats and writes the
    files it gets; on an error it sends the error back through a second
    pipe and exits, and the feeder, finding that writer's pipe closed,
    sends it nothing more.  Where none is forked, the object keeps the
    tables.  Used as a context manager, it reaps every writer on every
    exit; where the block raised nothing, it then raises the first
    writer's error (the ``OSError`` a write in this process would raise,
    or :class:`ChildProcessError` for a writer that ended without one,
    killed say) or writes the kept tables.
    """

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.files = 0  # tables fed so far
        self._children: list[list] = []  # [pid, table pipe or None once closed, error pipe]
        self._kept: dict = {}  # the tables fed where no writer is forked

    @classmethod
    def start(cls, outdir, tables: int, rows: int) -> EcdfWriters:
        """Writers for ``tables`` ECDF tables of ``rows`` rows in all: up to
        one process per CPU this process may run on
        (:func:`~crra_opt.simulation.worker_count`) and at most one per
        :data:`MIN_SHARE_ROWS` rows.  No process is forked where that is
        one writer, where the platform has no ``os.fork``, where another
        Python thread is alive (a fork would copy its locks in whatever
        state they are) or where every fork fails: then this process
        writes the files itself."""
        writers = cls(outdir)
        if (hasattr(os, "fork") and threading.active_count() == 1
                and (count := worker_count(min(tables, rows // MIN_SHARE_ROWS))) > 1):
            for _ in range(count):
                if not writers._fork():
                    break
        return writers

    def _fork(self) -> bool:
        tables_r, tables_w = os.pipe()
        error_r, error_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (tables_r, tables_w, error_r, error_w):
                os.close(fd)
            return False
        if pid == 0:
            status = 1
            try:
                # Only the parent may hold a write end of a table pipe: a
                # writer holding another's keeps it from its input's end.
                for fd in (tables_w, error_r,
                           *(fd for _, pipe, error in self._children for fd in (pipe, error))):
                    os.close(fd)
                status = _serve(self.outdir, tables_r, error_w)
            finally:
                os._exit(status)
        os.close(tables_r)
        os.close(error_w)
        self._children.append([pid, tables_w, error_r])
        return True

    def __call__(self, ecdfs: dict) -> None:
        if not self._children:
            self._kept.update(ecdfs)
            self.files += len(ecdfs)
            return
        for (g, method, kind), table in ecdfs.items():
            child = self._children[self.files % len(self._children)]
            self.files += 1
            if child[1] is None:  # the writer has ended; __exit__ reports why
                continue
            values = np.ascontiguousarray(table, dtype=float)
            name = ecdf_filename(kind, g, method).encode()
            try:
                _write_all(child[1], _HEADER.pack(len(name), values.size) + name)
                _write_all(child[1], values)
            except BrokenPipeError:
                os.close(child[1])
                child[1] = None

    def __enter__(self) -> EcdfWriters:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        children, self._children = self._children, []
        error = None
        try:
            for child in children:
                if child[1] is not None:
                    os.close(child[1])
        finally:
            for pid, _, error_r in children:
                with open(error_r, "rb") as pipe:
                    sent = pipe.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if error is None and sent:
                    error = pickle.loads(sent)
                elif error is None and status != 0:
                    error = ChildProcessError(
                        f"an ECDF writer process exited with status {status}")
        if exc_type is not None:
            return
        if error is not None:
            raise error
        _write_tables(self.outdir, ((ecdf_filename(kind, g, method), tuple(table.ravel().tolist()))
                                    for (g, method, kind), table in self._kept.items()))


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _received(pipe):
    """The ``(name, values)`` of each table sent down ``pipe``."""
    while header := pipe.read(_HEADER.size):
        name_len, count = _HEADER.unpack(header)
        name = pipe.read(name_len).decode()
        values = pipe.read(8 * count)
        if len(values) != 8 * count:
            raise EOFError(f"the ECDF table {name} was cut short")
        yield name, tuple(memoryview(values).cast("d"))


def _serve(outdir: Path, tables_r: int, error_w: int) -> int:
    """A writer's life: write the tables sent down ``tables_r``; on an
    error, stop and send the error down ``error_w``.  Returns the exit
    status."""
    with open(tables_r, "rb") as pipe, open(error_w, "wb") as errors:
        try:
            _write_tables(outdir, _received(pipe))
        except Exception as exc:
            errors.write(pickle.dumps(exc))
            return 1
    return 0


def _write_tables(outdir: Path, tables) -> None:
    """Write each ``(name, values)`` of ``tables`` to ``outdir / name`` as
    ``x,F`` rows, making ``outdir`` first if it is missing.  ``values`` is
    the table's floats row by row; one C-level ``%`` formats them all, and
    ``%r`` is ``repr``, so each float is its shortest round-trip form."""
    made = False
    for name, values in tables:
        if not made:
            outdir.mkdir(parents=True, exist_ok=True)
            made = True
        write_text(outdir / name, "x,F\n" + ("%r,%r\n" * (len(values) // 2)) % values)


def human_comparison_table(report: ComparisonReport) -> str:
    """Per-gamma blocks with one row per statistic, 6 significant digits,
    then the counts of infeasible and of non-finite draws the statistics
    leave out; a failed cell reads ``failed`` in every row."""
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
            cells = [report.cells[(g, m)] for m in METHODS]
            values = ["failed" if c.failed else str(getattr(c, f"{count}_count")) for c in cells]
            lines.append(count.ljust(10) + "".join(v.rjust(col) for v in values))
        lines.append("")
    return "\n".join(lines)
