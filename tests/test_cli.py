"""Command-line interface: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crra_opt
from conftest import BENCHMARK_MU, BENCHMARK_RF, BENCHMARK_SIGMA
from crra_opt import (
    GdConfig,
    NonFiniteIterate,
    gamma_lower_bound,
    make_params,
    simulation,
    tangency,
    write_params_json,
)
from crra_opt.cli import main
from crra_opt.reports import dumps_json

PRICES_CSV = """date,one,two
2024-01-01,100.0,50.0
2024-01-08,101.5,49.5
2024-01-15,103.0,50.5
2024-01-22,102.0,51.0
2024-01-29,104.5,50.0
2024-02-05,106.0,52.0
"""


@pytest.fixture
def benchmark_json(tmp_path):
    path = tmp_path / "benchmark.json"
    write_params_json(make_params(BENCHMARK_MU, BENCHMARK_SIGMA, BENCHMARK_RF), path)
    return path


@pytest.fixture
def prices_csv(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(PRICES_CSV, encoding="utf-8")
    return path


class TestEstimate:
    def test_writes_params_and_prints_summary(self, tmp_path, prices_csv, capsys):
        out = tmp_path / "params.json"
        code = main(["estimate", "--prices", str(prices_csv), "--rf", "0.0006",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "assets k = 2" in captured
        assert "observations T = 6" in captured
        assert "1+4J" in captured
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["r_f"] == 0.0006
        assert payload["asset_names"] == ["one", "two"]

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["estimate", "--prices", str(tmp_path / "absent.csv"),
                     "--rf", "0.0", "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_constant_price_asset_is_validation_error(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "date,flat\n2024-01-01,100\n2024-01-08,100\n2024-01-15,100\n",
            encoding="utf-8",
        )
        code = main(["estimate", "--prices", str(path), "--rf", "0.0",
                     "--out", str(tmp_path / "p.json")])
        assert code == 3


class TestSolve:
    def test_analytical_report_to_stdout(self, benchmark_json, capsys):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "analytical"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "analytical"
        assert abs(payload["foc_residual"]) < 1e-10
        assert len(payload["weights"]) == 3
        assert payload["mean_excess"] ** 2 == pytest.approx(
            payload["J"] * payload["variance"], rel=1e-10
        )

    def test_gamma_below_bound_exit_4_with_bound_printed(self, benchmark_json, capsys):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "1.05",
                     "--method", "analytical"])
        assert code == 4
        assert "1.07722" in capsys.readouterr().err

    def test_gd_requires_samples_and_seed(self, benchmark_json):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "gd"])
        assert code == 3

    def test_gd_with_auto_eta_converges(self, tmp_path, benchmark_json):
        out = tmp_path / "gd.json"
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "gd", "--samples", "50000", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["converged"] is True
        assert payload["grad_norm"] <= GdConfig.tol
        assert payload["method"] == "gd"

    def test_gd_iteration_cap_exit_5(self, benchmark_json):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "gd", "--samples", "2000", "--seed", "42",
                     "--eta", "0.1", "--max-iter", "5"])
        assert code == 5

    def test_all_reports_with_pairwise_distances(self, tmp_path, benchmark_json):
        out = tmp_path / "all.json"
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "all", "--samples", "50000", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"analytical", "taylor", "gd", "weight_distance_inf"}
        distances = payload["weight_distance_inf"]
        assert set(distances) == {"analytical_taylor", "analytical_gd", "taylor_gd"}
        w_taylor = np.asarray(payload["taylor"]["weights"])
        w_gd = np.asarray(payload["gd"]["weights"])
        assert distances["taylor_gd"] == pytest.approx(
            float(np.max(np.abs(w_taylor - w_gd))), rel=1e-12
        )


class TestCompare:
    def test_gammas_below_bound_exit_4(self, tmp_path, benchmark_json):
        code = main(["compare", "--params", str(benchmark_json), "--gammas", "1.05",
                     "--samples", "100", "--seed", "1", "--outdir", str(tmp_path / "o")])
        assert code == 4

    def test_writes_expected_files(self, tmp_path, benchmark_json, capsys):
        outdir = tmp_path / "study"
        code = main(["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                     "--samples", "5000", "--seed", "9", "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "comparison.csv").is_file()
        assert (outdir / "comparison.json").is_file()
        ecdfs = sorted(p.name for p in outdir.glob("ecdf_*.csv"))
        assert len(ecdfs) == 12  # 2 gammas x 3 methods x {wealth, utility}
        assert "ecdf_utility_gamma5_analytical.csv" in ecdfs
        assert "ecdf_wealth_gamma10_gd.csv" in ecdfs
        table = capsys.readouterr().out
        assert "gamma = 5" in table and "gamma = 10" in table
        csv_lines = (outdir / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "gamma,method,stat,value"
        assert len(csv_lines) == 1 + 2 * 3 * 4
        payload = json.loads((outdir / "comparison.json").read_text(encoding="utf-8"))
        assert payload["n"] == 5000 and payload["seed"] == 9
        assert set(payload["results"]) == {"5", "10"}
        assert set(payload["results"]["5"]) == {"analytical", "taylor", "gd"}
        cell = payload["results"]["5"]["gd"]
        assert {"weights", "stats", "infeasible_count"} <= set(cell)

    def test_byte_identical_reruns(self, tmp_path, benchmark_json):
        args = ["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                "--samples", "5000", "--seed", "9"]
        assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
        assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_byte_identical_under_blas_thread_counts(self, tmp_path, k):
        # OpenBLAS reads its thread count once, at load, so each count needs
        # its own process.  N = 1e5 is above the size at which OpenBLAS
        # starts splitting a product across threads.
        params = tmp_path / "params.json"
        write_params_json(make_params(BENCHMARK_MU[:k],
                                      [row[:k] for row in BENCHMARK_SIGMA[:k]],
                                      BENCHMARK_RF), params)
        src = str(Path(crra_opt.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            # The summary names the output directory, so both runs use the
            # same relative one.
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "crra_opt.cli", "compare", "--params", str(params),
                 "--gammas", "5,20", "--samples", "100000", "--seed", "11",
                 "--outdir", "study"],
                env=env, cwd=cwd, capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            files = {p.name: p.read_bytes() for p in sorted((cwd / "study").iterdir())}
            outputs.append((proc.stdout, files))
        assert len(outputs[0][1]) == 14  # comparison.csv/.json + 12 ECDF files
        assert outputs[0] == outputs[1]

    def test_max_iter_applies_with_auto_eta(self, tmp_path, benchmark_json, capsys):
        outdir = tmp_path / "study"
        code = main(["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                     "--samples", "5000", "--seed", "9", "--max-iter", "1",
                     "--outdir", str(outdir)])
        assert code == 0
        results = json.loads((outdir / "comparison.json").read_text(encoding="utf-8"))["results"]
        for g in ("5", "10"):
            assert "after 1 iterations" in results[g]["gd"]["error"]
            assert "error" not in results[g]["taylor"]
        assert "method=gd failed" in capsys.readouterr().err

    def test_tol_applies_with_auto_eta(self, tmp_path, benchmark_json):
        args = ["compare", "--params", str(benchmark_json), "--gammas", "10",
                "--samples", "5000", "--seed", "9"]
        assert main(args + ["--outdir", str(tmp_path / "default")]) == 0
        assert main(args + ["--tol", "1e-3", "--outdir", str(tmp_path / "loose")]) == 0

        def cells(name):
            text = (tmp_path / name / "comparison.json").read_text(encoding="utf-8")
            return json.loads(text)["results"]["10"]

        default, loose = cells("default"), cells("loose")
        assert loose["gd"]["weights"] != default["gd"]["weights"]
        assert loose["taylor"] == default["taylor"]

    def test_multi_line_error_cell_stays_valid_json_and_csv(self, tmp_path, benchmark_json,
                                                            monkeypatch):
        # numpy wraps a long array across lines, as in a NonFiniteIterate
        # message at k >= 8.
        message = f"fixed-point update produced non-finite weights: {np.full(8, -1.2345e110)}"
        message += "\tand a NUL \x00"
        assert "\n" in message

        def taylor_solve(*args, **kwargs):
            raise NonFiniteIterate(message)

        monkeypatch.setattr(simulation, "taylor_solve", taylor_solve)
        outdir = tmp_path / "study"
        assert main(["compare", "--params", str(benchmark_json), "--gammas", "10",
                     "--samples", "500", "--seed", "9", "--outdir", str(outdir)]) == 0
        payload = json.loads((outdir / "comparison.json").read_text(encoding="utf-8"))
        assert payload["results"]["10"]["taylor"] == {"error": message}
        assert "weights" in payload["results"]["10"]["gd"]
        with (outdir / "comparison.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert ["10", "taylor", "error", message] in rows

    def test_gd_cell_matches_solve(self, tmp_path, benchmark_json):
        common = ["--params", str(benchmark_json), "--samples", "5000", "--seed", "9"]
        assert main(["compare", *common, "--gammas", "10",
                     "--outdir", str(tmp_path / "study")]) == 0
        assert main(["solve", *common, "--gamma", "10", "--method", "gd",
                     "--out", str(tmp_path / "gd.json")]) == 0
        cell = json.loads((tmp_path / "study" / "comparison.json").read_text(encoding="utf-8"))
        solved = json.loads((tmp_path / "gd.json").read_text(encoding="utf-8"))
        assert dumps_json(cell["results"]["10"]["gd"]["weights"]) == dumps_json(solved["weights"])

    @staticmethod
    def _assert_gd_untouched_by(tmp_path, benchmark_json, monkeypatch, taylor_flags,
                                all_code=0):
        """Under ``taylor_flags``, compare's gd JSON cell and gd ECDF files
        are byte-identical to a default run's and equal ``solve --method
        gd``; ``solve --method all`` solves Taylor once, and exits with
        ``all_code`` (its gd report equals ``solve --method gd``'s if 0)."""
        taylor_calls = []

        def counted(*args, real=simulation.taylor_solve):
            taylor_calls.append(args[1].gamma)
            return real(*args)

        monkeypatch.setattr(simulation, "taylor_solve", counted)
        common = ["--params", str(benchmark_json), "--samples", "5000", "--seed", "9"]
        assert main(["solve", *common, *taylor_flags, "--gamma", "10", "--method", "all",
                     "--out", str(tmp_path / "all.json")]) == all_code
        assert taylor_calls == [10.0]
        assert main(["solve", *common, *taylor_flags, "--gamma", "10", "--method", "gd",
                     "--out", str(tmp_path / "gd.json")]) == 0
        for name, flags in (("flagged", taylor_flags), ("default", [])):
            assert main(["compare", *common, *flags, "--gammas", "10",
                         "--outdir", str(tmp_path / name)]) == 0

        def read(name):
            return json.loads((tmp_path / name).read_text(encoding="utf-8"))

        solved = read("gd.json")
        if all_code == 0:
            assert read("all.json")["gd"] == solved
        cell = read("flagged/comparison.json")["results"]["10"]["gd"]
        assert cell == read("default/comparison.json")["results"]["10"]["gd"]
        assert dumps_json(cell["weights"]) == dumps_json(solved["weights"])
        for kind in ("wealth", "utility"):
            name = f"ecdf_{kind}_gamma10_gd.csv"
            assert (tmp_path / "flagged" / name).read_bytes() == (
                tmp_path / "default" / name).read_bytes()
        return read("flagged/comparison.json")["results"]["10"]["taylor"]

    @pytest.mark.parametrize("taylor_flags", [[], ["--taylor-tol", "1e-6"]])
    def test_gd_agrees_across_commands_under_taylor_flags(self, tmp_path, benchmark_json,
                                                          monkeypatch, taylor_flags):
        # Taylor's flags reach only Taylor.
        self._assert_gd_untouched_by(tmp_path, benchmark_json, monkeypatch, taylor_flags)

    def test_gd_cell_matches_solve_when_taylor_stops_short(self, tmp_path, benchmark_json,
                                                           monkeypatch):
        # Two Taylor iterations are too few: the Taylor cell fails (and
        # `solve --method all` exits 5), and gd's does not move.
        taylor = self._assert_gd_untouched_by(tmp_path, benchmark_json, monkeypatch,
                                              ["--taylor-max-iter", "2"], all_code=5)
        assert "after 2 iterations" in taylor["error"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("compare", ["--eta", "0"]),
        ("compare", ["--tol", "0"]),
        ("compare", ["--max-iter", "0"]),
        ("compare", ["--taylor-tol", "0"]),
        ("compare", ["--taylor-max-iter", "0"]),
        ("compare", ["--samples", "0"]),
        ("compare", ["--ecdf-points", "1"]),
        ("solve", ["--eta", "-1"]),
        ("solve", ["--taylor-tol", "0"]),
        ("solve", ["--samples", "0"]),
        ("compare", ["--samples", "1"]),
        ("compare", ["--gammas", "10.0000001,10.0000002"]),
        ("compare", ["--gammas", "5,5"]),
        ("compare", ["--seed", "-1"]),
        ("solve", ["--method", "gd", "--seed", "-1"]),
    ],
)
def test_bad_numeric_flag_is_validation_error(tmp_path, benchmark_json, capsys, command, flags):
    if command == "compare":
        args = ["compare", "--params", str(benchmark_json), "--gammas", "10",
                "--samples", "500", "--seed", "9", "--outdir", str(tmp_path / "o")]
    else:
        args = ["solve", "--params", str(benchmark_json), "--gamma", "10",
                "--method", "all", "--samples", "500", "--seed", "9"]
    code = main(args + flags)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


class TestFrontier:
    def test_sweep_rows_and_tangency_row(self, tmp_path, benchmark_json):
        out = tmp_path / "frontier.csv"
        code = main(["frontier", "--params", str(benchmark_json),
                     "--gamma-from", "2", "--gamma-to", "20", "--steps", "10",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gamma,mean_excess,variance,tangency"
        rows = [line.split(",") for line in lines[1:]]
        sweep = [r for r in rows if r[3] == "false"]
        assert len(sweep) == 10
        means = np.array([float(r[1]) for r in sweep])
        variances = np.array([float(r[2]) for r in sweep])
        assert np.all(np.diff(means) < 0.0)
        assert np.all(np.diff(variances) < 0.0)
        p = make_params(BENCHMARK_MU, BENCHMARK_SIGMA, BENCHMARK_RF)
        j = (gamma_lower_bound(p) - 1.0) / 4.0
        for r in sweep:
            assert float(r[1]) ** 2 == pytest.approx(j * float(r[2]), rel=1e-10)
        tangency_rows = [r for r in rows if r[3] == "true"]
        assert len(tangency_rows) == 1
        assert float(tangency_rows[0][0]) == pytest.approx(tangency(p).gamma_tgc, rel=1e-12)

    def test_range_below_bound_exit_4(self, tmp_path, benchmark_json):
        code = main(["frontier", "--params", str(benchmark_json),
                     "--gamma-from", "1.01", "--gamma-to", "5", "--steps", "3",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 4


class TestHelp:
    @pytest.mark.parametrize("command", ["estimate", "solve", "compare", "frontier"])
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--params" in text or "--prices" in text
        if command in ("solve", "compare"):
            assert "--eta" in text and "default" in text
            assert "--max-iter" in text
        if command == "compare":
            assert "--ecdf-points" in text


def test_runtime_needs_no_scipy(tmp_path, benchmark_json):
    # The package depends on numpy alone: neither importing it nor running
    # compare and solve --method all may load scipy.
    script = f"""
import sys
import crra_opt
from crra_opt.cli import main
common = ["--params", {str(benchmark_json)!r}, "--samples", "500", "--seed", "9"]
assert main(["compare", *common, "--gammas", "5,10", "--outdir", {str(tmp_path / "o")!r}]) == 0
assert main(["solve", *common, "--gamma", "10", "--method", "all",
             "--out", {str(tmp_path / "all.json")!r}]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(crra_opt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
