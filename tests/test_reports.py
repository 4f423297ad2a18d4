"""Serialization helpers: lossless floats and stable shapes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from crra_opt import CellResult, ComparisonReport, SummaryStats
from crra_opt.reports import (
    dumps_json,
    ecdf_filename,
    fmt17,
    fmt_gamma,
    write_comparison_csv,
    write_ecdf_files,
)
from crra_opt.simulation import METHODS


class TestFloatFormatting:
    def test_fmt17_round_trips_float64(self):
        rng = np.random.default_rng(8)
        values = list(rng.normal(scale=1e4, size=200)) + [
            0.1, 1e-300, -1e300, 3.141592653589793, 1.0006 ** (-4) / (-4)
        ]
        for x in values:
            assert float(fmt17(float(x))) == float(x)

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

    def test_ndarray_serializes_as_list(self):
        parsed = json.loads(dumps_json({"w": np.array([1.5, 2.5])}))
        assert parsed["w"] == [1.5, 2.5]

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json({"bad": object()})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64("nan")])
    def test_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json({"stats": {"mean": value}})


def test_ecdf_filename_shape():
    assert ecdf_filename("wealth", 5.0, "gd") == "ecdf_wealth_gamma5_gd.csv"
    assert ecdf_filename("utility", 12.5, "analytical") == "ecdf_utility_gamma12.5_analytical.csv"


def _report_with(cells=None, ecdfs=None, gammas=(5.0,)):
    report = ComparisonReport(gammas=gammas, n=10, seed=1)
    report.cells.update(cells or {})
    report.ecdfs.update(ecdfs or {})
    return report


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
