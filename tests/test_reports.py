"""Serialization helpers: lossless floats and stable shapes."""

from __future__ import annotations

import csv
import itertools
import json
import os
import signal
import threading

import numpy as np
import pytest

from crra_opt import (CellResult, ComparisonReport, GdConfig, RiskAversion, SummaryStats,
                      simulate)
from crra_opt import reports
from crra_opt.reports import (
    dumps_json,
    ecdf_filename,
    fmt_gamma,
    solver_report_dict,
    write_comparison_csv,
    write_ecdf_files,
)
from crra_opt.simulation import METHODS, solve_methods


class TestFloatFormatting:
    def test_dumps_json_round_trips_float64(self):
        rng = np.random.default_rng(8)
        values = list(rng.normal(scale=1e4, size=200)) + [
            0.1, 1e-300, -1e300, 3.141592653589793, 1.0006 ** (-4) / (-4),
            -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        ]
        parsed = np.array(json.loads(dumps_json(values)))
        assert parsed.dtype == np.float64
        assert parsed.tobytes() == np.array(values).tobytes()

    def test_fmt_gamma_trims(self):
        assert fmt_gamma(5.0) == "5"
        assert fmt_gamma(1.5) == "1.5"


class TestDumpsJson:
    def test_parses_and_preserves_values(self):
        payload = {
            "name": 'quote " and \\ backslash',
            "flag": True,
            "nothing": None,
            "count": 7,
            "values": [0.1, 2.0, -3.5e-9],
            "nested": {"empty_list": [], "empty_map": {}},
        }
        text = dumps_json(payload)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["name"] == payload["name"]
        assert parsed["flag"] is True and parsed["nothing"] is None
        assert parsed["values"] == [0.1, 2.0, -3.5e-9]
        assert parsed["nested"] == {"empty_list": [], "empty_map": {}}

    def test_control_characters_round_trip(self):
        text = "a\nb\tc\x00d\x1f\re"
        assert json.loads(dumps_json({"error": text, text: 1})) == {"error": text, text: 1}

    def test_strings_without_control_characters_keep_their_bytes(self):
        text = 'quote " backslash \\ slash / unicode \u00e9\u2603 del \x7f'
        quoted = json.dumps(text, ensure_ascii=False)
        assert dumps_json({"e": text}) == '{\n  "e": ' + quoted + "\n}\n"
        assert dumps_json({"e": "plain"}) == '{\n  "e": "plain"\n}\n'

    def test_ndarray_serializes_as_list(self):
        parsed = json.loads(dumps_json({"w": np.array([1.5, 2.5])}))
        assert parsed["w"] == [1.5, 2.5]

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json({"bad": object()})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64("nan")])
    def test_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_json({"stats": {"mean": value}})


def test_ecdf_filename_shape():
    assert ecdf_filename("wealth", 5.0, "gd") == "ecdf_wealth_gamma5_gd.csv"
    assert ecdf_filename("utility", 12.5, "analytical") == "ecdf_utility_gamma12.5_analytical.csv"


def _report_with(cells=None, ecdfs=None, gammas=(5.0,)):
    report = ComparisonReport(gammas=gammas, n=10, seed=1)
    report.cells.update(cells or {})
    report.ecdfs.update(ecdfs or {})
    return report


def test_solver_report_keys_keep_solve_order(benchmark_params):
    scenarios = simulate(benchmark_params, 2_000, 3)
    expected = {
        "analytical": ["weights", "c", "J", "D", "gamma", "expected_excess_return", "variance",
                       "foc_residual", "method"],
        "taylor": ["weights", "iterations", "stopping_residual", "converged", "method"],
        "gd": ["weights", "iterations", "stopping_residual", "objective", "converged", "method"],
    }
    solved = solve_methods(METHODS, benchmark_params, scenarios, RiskAversion(10.0),
                           GdConfig(max_iter=50))  # gd takes 10 steps
    assert list(solved) == list(expected)
    for method, report in solved.items():
        payload = solver_report_dict(method, report)
        assert list(payload) == expected[method]
        assert payload["method"] == method
        assert payload["weights"] == [float(x) for x in report.weights]


class TestComparisonCsv:
    def test_error_text_round_trips_through_csv_reader(self, tmp_path):
        stats = SummaryStats(mean=-0.25, sd=0.1, median=float("nan"), mad=1e-300)
        message = 'gradient norm 1.0e-03, "tol" 1e-08\nafter 3 iterations'
        report = _report_with({
            (5.0, "analytical"): CellResult(weights=None, stats=None, infeasible_count=0,
                                            error=message),
            (5.0, "taylor"): CellResult(weights=np.zeros(1), stats=stats, infeasible_count=0),
            (5.0, "gd"): CellResult(weights=None, stats=None, infeasible_count=0, error="x,y"),
        })
        path = tmp_path / "comparison.csv"
        write_comparison_csv(report, path)
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "method", "stat", "value"]
        assert rows[1] == ["5", "analytical", "error", message]
        assert rows[-1] == ["5", "gd", "error", "x,y"]
        assert all(len(row) == 4 for row in rows)

    def test_rows_without_errors_keep_their_bytes(self, tmp_path):
        stats = SummaryStats(mean=-0.25, sd=1 / 3, median=float("nan"), mad=-2.5e20)
        report = _report_with({
            (5.0, m): CellResult(weights=np.zeros(1), stats=stats, infeasible_count=0)
            for m in METHODS
        })
        path = tmp_path / "comparison.csv"
        write_comparison_csv(report, path)
        expected = ["gamma,method,stat,value"] + [
            f"5,{m},{stat},{value!r}" for m in METHODS
            for stat, value in (("mean", -0.25), ("sd", 1 / 3), ("median", float("nan")),
                                ("mad", -2.5e20))
        ]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_ecdf_files_match_per_row_float_repr(tmp_path):
    awkward = np.array([[1e-300, 0.1], [-2.5e20, 1 / 3], [0.1, 1.0], [1 / 3, 1e-300]])
    report = _report_with(ecdfs={(12.5, "gd", "utility"): awkward})
    (path,) = write_ecdf_files(report, tmp_path)
    expected = ["x,F"] + [f"{float(x)!r},{float(f)!r}" for x, f in awkward]
    assert path.name == "ecdf_utility_gamma12.5_gd.csv"
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def _awkward_report(tables: int = 7):
    """``tables`` ECDF tables of floats whose shortest repr is long, tiny,
    huge, negative zero or subnormal, under distinct (gamma, method, kind)."""
    rng = np.random.default_rng(5)
    special = [1e-300, -2.5e20, 0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308]
    keys = itertools.product((5.0, 7.5, 12.5), METHODS, ("wealth", "utility"))
    ecdfs = {}
    for i, key in zip(range(tables), keys):
        x = np.concatenate([special[i:], rng.normal(scale=10.0 ** i, size=20 + i)])
        ecdfs[key] = np.column_stack([x, rng.uniform(size=x.shape[0])])
    return _report_with(ecdfs=ecdfs, gammas=(5.0, 7.5, 12.5))


def _expected_text(table) -> bytes:
    return ("x,F\n" + "".join(f"{float(x)!r},{float(f)!r}\n" for x, f in table)).encode()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ecdf_files_keep_their_bytes_under_any_worker_count(tmp_path, ecdf_forks, deadline,
                                                            workers):
    report = _awkward_report()
    forks = ecdf_forks(workers)
    written = write_ecdf_files(report, tmp_path)
    assert len(forks) == (workers if workers > 1 else 0)  # one writer stays in process
    assert written == [tmp_path / ecdf_filename(kind, g, m) for g, m, kind in report.ecdfs]
    for path, table in zip(written, report.ecdfs.values()):
        assert path.read_bytes() == _expected_text(table)
    assert sorted(tmp_path.iterdir()) == sorted(written)


def test_streamed_tables_keep_their_bytes_and_need_no_report(tmp_path, ecdf_forks, deadline):
    # Fed one gamma at a time, as compare feeds its sink, into a directory
    # that does not exist yet: the writers make it.
    report = _awkward_report()
    forks = ecdf_forks(2)
    outdir = tmp_path / "new" / "dir"
    writers = reports.EcdfWriters.start(outdir, tables=7, rows=7 * reports.MIN_SHARE_ROWS)
    with writers:
        for g in report.gammas:
            writers({key: table for key, table in report.ecdfs.items() if key[0] == g})
    assert len(forks) == 2
    assert writers.files == 7
    for (g, method, kind), table in report.ecdfs.items():
        assert (outdir / ecdf_filename(kind, g, method)).read_bytes() == _expected_text(table)


def test_each_writer_ends_once_its_own_pipe_closes(tmp_path, ecdf_forks, deadline):
    # A writer holding another's table pipe would keep that one waiting for
    # its input's end; here the first writer ends while the others still wait.
    ecdf_forks(3)
    writers = reports.EcdfWriters.start(tmp_path, tables=3, rows=3 * reports.MIN_SHARE_ROWS)
    with writers:
        first = writers._children[0]
        os.close(first[1])
        first[1] = None
        assert os.waitpid(first[0], 0)[1] == 0
        os.close(first[2])
        writers._children.remove(first)
        assert all(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid, _, _ in writers._children)


def test_a_single_writer_forks_no_process(tmp_path, ecdf_forks, deadline):
    forks = ecdf_forks(1)
    with reports.EcdfWriters.start(tmp_path, tables=7, rows=7 * reports.MIN_SHARE_ROWS) as writers:
        assert isinstance(writers, reports.EcdfWriters)
        assert writers._children == []
    assert forks == []


def test_unforked_writers_write_every_table_when_the_block_ends(tmp_path, ecdf_forks, deadline):
    # Fed one gamma at a time, as compare feeds its sink: nothing is written,
    # not even the directory, until the block ends.
    report = _awkward_report()
    forks = ecdf_forks(1)
    outdir = tmp_path / "new" / "dir"
    with reports.EcdfWriters.start(outdir, tables=7, rows=7 * reports.MIN_SHARE_ROWS) as writers:
        for g in report.gammas:
            writers({key: table for key, table in report.ecdfs.items() if key[0] == g})
        assert not outdir.exists()
    assert forks == []
    assert writers.files == 7
    expected = [outdir / ecdf_filename(kind, g, m) for g, m, kind in report.ecdfs]
    assert sorted(outdir.iterdir()) == sorted(expected)
    for path, table in zip(expected, report.ecdfs.values()):
        assert path.read_bytes() == _expected_text(table)


def test_unforked_writers_write_nothing_when_the_block_raises(tmp_path, ecdf_forks, deadline):
    report = _awkward_report()
    forks = ecdf_forks(1)
    outdir = tmp_path / "o"
    with pytest.raises(RuntimeError, match="^the study failed$"):
        with reports.EcdfWriters.start(outdir, tables=7, rows=7 * reports.MIN_SHARE_ROWS) as w:
            w(report.ecdfs)
            raise RuntimeError("the study failed")
    assert forks == []
    assert not outdir.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_child_share_raises_in_the_caller_and_leaves_no_child(tmp_path, monkeypatch,
                                                                    deadline):
    report = _awkward_report()
    monkeypatch.setattr(reports, "worker_count", lambda tasks: 3)
    g, method, kind = list(report.ecdfs)[1]  # dealt to writer 1 of 3
    bad = tmp_path / ecdf_filename(kind, g, method)
    bad.mkdir()
    with pytest.raises(IsADirectoryError) as excinfo:
        write_ecdf_files(report, tmp_path)
    assert str(excinfo.value) == f"[Errno 21] Is a directory: {str(bad)!r}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # The other writers wrote every file they got; the failed one stopped.
    for i, ((g, method, kind), table) in enumerate(report.ecdfs.items()):
        if i % 3 != 1:
            path = tmp_path / ecdf_filename(kind, g, method)
            assert path.read_bytes() == _expected_text(table)


def test_a_killed_writer_is_reported_not_a_broken_pipe(tmp_path, ecdf_forks, deadline):
    ecdf_forks(2)
    table = np.zeros((reports.MIN_SHARE_ROWS, 2))
    writers = reports.EcdfWriters.start(tmp_path, tables=2, rows=2 * reports.MIN_SHARE_ROWS)
    with pytest.raises(ChildProcessError, match="exited with status -9"):
        with writers:
            os.kill(writers._children[1][0], signal.SIGKILL)
            for g in (5.0, 7.5, 10.0):
                writers({(g, "gd", "wealth"): table, (g, "gd", "utility"): table})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_fork_while_another_thread_is_alive(tmp_path, monkeypatch, deadline):
    report = _awkward_report()

    def fork():
        raise AssertionError("forked while another thread was alive")

    monkeypatch.setattr(reports, "worker_count", lambda tasks: 3)
    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        written = write_ecdf_files(report, tmp_path)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    for path, table in zip(written, report.ecdfs.values()):
        assert path.read_bytes() == _expected_text(table)


def test_caller_writes_every_file_when_every_fork_fails(tmp_path, monkeypatch, deadline):
    report = _awkward_report()

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(reports, "worker_count", lambda tasks: 3)
    monkeypatch.setattr(os, "fork", fork)
    written = write_ecdf_files(report, tmp_path)
    for path, table in zip(written, report.ecdfs.values()):
        assert path.read_bytes() == _expected_text(table)


@pytest.mark.parametrize("min_share_rows, tasks", [(60, 3), (10, 7), (reports.MIN_SHARE_ROWS, 0)])
def test_writer_count_asks_for_one_share_per_min_share_rows(tmp_path, monkeypatch,
                                                             min_share_rows, tasks):
    report = _awkward_report()  # 7 tables of 27 rows
    asked = []

    def fork():
        raise AssertionError("forked for one share")

    monkeypatch.setattr(reports, "MIN_SHARE_ROWS", min_share_rows)
    monkeypatch.setattr(reports, "worker_count", lambda n: asked.append(n) or 1)
    monkeypatch.setattr(os, "fork", fork)
    write_ecdf_files(report, tmp_path)
    assert asked == [tasks]
