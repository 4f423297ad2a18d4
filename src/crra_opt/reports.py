"""Report serialization: solver JSON, long-form CSV, ECDF files.

Every float in every file, JSON and CSV alike, is written as its shortest
round-trip ``repr``: a fixed format, lossless for float64, so identical
inputs produce byte-identical files.  Every JSON file is written by
:func:`~crra_opt.market.dumps_json`, which also writes the params file;
it and :func:`~crra_opt.market.write_text` are imported here for the
report writers and their callers.  The ECDF files, most of a study's
bytes, are written by up to one forked process per CPU
(:class:`EcdfWriters`), which ``crra-opt compare`` feeds each gamma's
tables while it is still solving the others, and :func:`write_ecdf_files`
feeds a finished report's; their bytes do not depend on how many.
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

    The tables go to the :class:`EcdfWriters` forked for them, the same
    writers ``crra-opt compare`` feeds while it is still solving; where
    none is forked, this process writes every file itself.  The bytes do
    not depend on how many processes write them.
    """
    outdir = Path(outdir)
    rows = sum(table.shape[0] for table in report.ecdfs.values())
    writers = EcdfWriters.start(outdir, len(report.ecdfs), rows)
    if writers is None:
        _write_tables(outdir, ((ecdf_filename(kind, g, method), tuple(table.ravel().tolist()))
                               for (g, method, kind), table in report.ecdfs.items()))
    else:
        with writers:
            writers(report.ecdfs)
    return [outdir / ecdf_filename(kind, g, method) for g, method, kind in report.ecdfs]


class EcdfWriters:
    """ECDF writer processes, each fed its tables through a pipe.

    :meth:`start` forks them.  Calling the object with a dict of tables
    keyed ``(gamma, method, kind)``, as :func:`~crra_opt.simulation.compare`
    calls its ``ecdf_sink``, deals the tables round robin to the writers
    and sends each one as its file name and its raw float64 values, so this
    process keeps no table.  Each writer makes ``outdir`` if it is missing
    and formats and writes the files it gets; on an error it sends the
    error back through a second pipe and exits, and the feeder, finding
    that writer's pipe closed, sends it nothing more.  :meth:`close`
    closes the pipes and reaps every writer.  It then raises the error of
    the first writer that failed: the ``OSError`` a write in this process
    would raise, or :class:`ChildProcessError` for a writer that ended
    without one, killed say.  Used as a context manager, the writers are reaped on
    every exit, and a writer's error is raised only where the block raised
    none.
    """

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.files = 0  # tables dealt so far
        self._children: list[list] = []  # [pid, table pipe or None once closed, error pipe]

    @classmethod
    def start(cls, outdir, tables: int, rows: int) -> EcdfWriters | None:
        """Writers for ``tables`` ECDF tables of ``rows`` rows in all: up to
        one per CPU this process may run on
        (:func:`~crra_opt.simulation.worker_count`) and at most one per
        :data:`MIN_SHARE_ROWS` rows.  None where that is one writer, where
        the platform has no ``os.fork``, where another Python thread is
        alive (a fork would copy its locks in whatever state they are) or
        where every fork fails: then the caller writes the files itself."""
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return None
        count = worker_count(min(tables, rows // MIN_SHARE_ROWS))
        if count < 2:
            return None
        writers = cls(outdir)
        for _ in range(count):
            if not writers._fork():
                break
        return writers if writers._children else None

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
        for (g, method, kind), table in ecdfs.items():
            child = self._children[self.files % len(self._children)]
            self.files += 1
            if child[1] is None:  # the writer has ended; close() reports why
                continue
            values = np.ascontiguousarray(table, dtype=float)
            name = ecdf_filename(kind, g, method).encode()
            try:
                _write_all(child[1], _HEADER.pack(len(name), values.size) + name)
                _write_all(child[1], values)
            except BrokenPipeError:
                os.close(child[1])
                child[1] = None

    def close(self) -> int:
        """Close the pipes and reap every writer, then raise the first
        writer's error; returns the number of tables dealt."""
        error = self._reap()
        if error is not None:
            raise error
        return self.files

    def _reap(self) -> BaseException | None:
        """Close the pipes, reap every writer and return the first one's error."""
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
        return error

    def __enter__(self) -> EcdfWriters:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        error = self._reap()
        if error is not None and exc_type is None:
            raise error


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
