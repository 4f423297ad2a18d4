"""Command-line interface: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import crra_opt
from conftest import BENCHMARK_MU, BENCHMARK_RF, BENCHMARK_SIGMA
from crra_opt import (
    AllScenariosInfeasible,
    CrraOptError,
    GdConfig,
    NonFiniteIterate,
    NotConverged,
    StepIntoInfeasible,
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


# The gd budget of the runs below that reach gd: five times the 9 or 10
# steps each takes, so a broken gd fails its test in seconds instead of
# grinding through the default 100,000 steps.
GD_BUDGET = ["--max-iter", "50"]


def _env_with_src() -> dict:
    """The environment with this ``crra_opt`` first on ``PYTHONPATH``."""
    src = str(Path(crra_opt.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class UnlistedSolverFailure(CrraOptError):
    """A package error that the command line names nowhere."""


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
        assert payload["expected_excess_return"] ** 2 == pytest.approx(
            payload["J"] * payload["variance"], rel=1e-10
        )

    @pytest.mark.parametrize("to_file", [False, True])
    def test_all_names_its_failures_after_the_output(self, tmp_path, benchmark_json, to_file):
        # Unbuffered, with stderr merged into stdout, the lines come in the
        # order they are written.
        out = ["--out", str(tmp_path / "all.json")] if to_file else []
        proc = subprocess.run(
            [sys.executable, "-u", "-m", "crra_opt.cli", "solve", "--params",
             str(benchmark_json), "--gamma", "10", "--method", "all", "--samples", "2000",
             "--seed", "9", "--taylor-max-iter", "1", *GD_BUDGET, *out],
            env=_env_with_src(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=120)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[-1].startswith("method taylor failed: fixed-point step")
        assert lines[-2] == (f"wrote {tmp_path / 'all.json'}" if to_file else "}")

    def test_gamma_below_bound_exit_4_with_bound_printed(self, benchmark_json, capsys):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "1.05",
                     "--method", "analytical"])
        assert code == 4
        assert "1.07722" in capsys.readouterr().err

    def test_all_below_bound_exit_4_before_any_scenario_solve(self, tmp_path, benchmark_json,
                                                              monkeypatch, capsys):
        # The closed form checks the bound first; the other methods never run.
        def never(*args):
            raise AssertionError("a scenario solver ran below the bound")

        monkeypatch.setitem(simulation.METHODS, "taylor", never)
        monkeypatch.setitem(simulation.METHODS, "gd", never)
        out = tmp_path / "all.json"
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "1.05",
                     "--method", "all", "--samples", "500", "--seed", "42", "--out", str(out)])
        assert code == 4
        assert "1.07722" in capsys.readouterr().err
        assert not out.exists()

    def test_gd_requires_samples_and_seed(self, benchmark_json):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "gd"])
        assert code == 3

    def test_gd_with_auto_eta_converges(self, tmp_path, benchmark_json):
        out = tmp_path / "gd.json"
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "gd", "--samples", "50000", "--seed", "42", *GD_BUDGET,
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["converged"] is True
        assert payload["stopping_residual"] <= GdConfig.tol
        assert payload["method"] == "gd"

    def test_gd_iteration_cap_exit_5(self, benchmark_json):
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "gd", "--samples", "2000", "--seed", "42",
                     "--eta", "0.1", "--max-iter", "5"])
        assert code == 5

    def test_all_reports_with_pairwise_distances(self, tmp_path, benchmark_json):
        out = tmp_path / "all.json"
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "all", "--samples", "50000", "--seed", "42", *GD_BUDGET,
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

    def test_each_method_writes_its_entry_of_all(self, tmp_path, benchmark_json):
        common = ["--params", str(benchmark_json), "--gamma", "10", "--samples", "5000",
                  "--seed", "9", *GD_BUDGET]
        assert main(["solve", *common, "--method", "all", "--out", str(tmp_path / "all.json")]) == 0
        every = json.loads((tmp_path / "all.json").read_text(encoding="utf-8"))
        assert list(every) == [*simulation.METHODS, "weight_distance_inf"]
        for method in simulation.METHODS:
            out = tmp_path / f"{method}.json"
            assert main(["solve", *common, "--method", method, "--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == dumps_json(every[method])

    def test_all_exits_5_only_when_every_method_fails(self, tmp_path, benchmark_json,
                                                      monkeypatch, capsys):
        for method in list(simulation.METHODS):
            def fail(*args, method=method):
                raise NotConverged(f"{method} gave up", None)

            monkeypatch.setitem(simulation.METHODS, method, fail)
        out = tmp_path / "all.json"
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "all", "--samples", "500", "--seed", "42",
                     "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        for method in simulation.METHODS:
            assert f"method {method} failed: {method} gave up" in err
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["weight_distance_inf"] == {}
        assert payload["gd"] == {"error": "gd gave up", "method": "gd"}

    @pytest.mark.parametrize("exc", [
        NotConverged("taylor gave up", None),
        StepIntoInfeasible("no feasible step"),
        NonFiniteIterate("non-finite weights"),
        AllScenariosInfeasible("no feasible scenario"),
        UnlistedSolverFailure("a failure of a new kind"),
    ], ids=lambda exc: type(exc).__name__)
    def test_every_solver_failure_exits_5(self, benchmark_json, monkeypatch, capsys, exc):
        def fail(*args):
            raise exc

        monkeypatch.setitem(simulation.METHODS, "taylor", fail)
        code = main(["solve", "--params", str(benchmark_json), "--gamma", "10",
                     "--method", "taylor", "--samples", "500", "--seed", "42"])
        assert code == 5
        assert capsys.readouterr() == ("", f"error: {exc}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--method", "taylor", "--gamma", "0.5", "--samples", "50"],
         "fixed-point update produced non-finite weights: [nan]"),
        (["--method", "gd", "--gamma", "6", "--samples", "200", "--eta", "1e20", *GD_BUDGET],
         "no feasible step after 60 halvings at iteration 0"),
    ], ids=["taylor-overflow", "gd-no-feasible-step"])
    def test_solver_failure_prints_only_its_error(self, tmp_path, capsys, flags, message):
        params = tmp_path / "p.json"
        params.write_text('{"mu": [0.1], "sigma": [[0.01]], "r_f": 0.0}', encoding="utf-8")
        assert main(["solve", "--params", str(params), *flags, "--seed", "1"]) == 5
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_one_signed_sample_has_no_maximizer(self, tmp_path, capsys):
        # 500 draws of N(0.05, 0.01): every excess return is positive.
        params = tmp_path / "p.json"
        params.write_text('{"mu": [0.05], "sigma": [[0.0001]], "r_f": 0.0}', encoding="utf-8")
        assert main(["solve", "--params", str(params), "--method", "gd", "--gamma", "150",
                     "--samples", "500", "--seed", "3", "--max-iter", "50"]) == 5
        assert capsys.readouterr() == ("", "error: no maximizer: every excess return is >= 0, "
                                           "not all zero, so the sampled utility keeps rising "
                                           "as the weight rises\n")

    def test_asset_names_as_one_string_is_validation_error(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"mu": [0.1, 0.2], "sigma": [[1.0, 0.0], [0.0, 1.0]], "r_f": 0.0,'
                          ' "asset_names": "AB"}', encoding="utf-8")
        assert main(["solve", "--params", str(params), "--gamma", "10"]) == 3
        assert capsys.readouterr().err == "error: asset_names must be 2 names, not one string\n"


class TestCompare:
    def test_gammas_below_bound_exit_4(self, tmp_path, benchmark_json):
        code = main(["compare", "--params", str(benchmark_json), "--gammas", "1.05",
                     "--samples", "100", "--seed", "1", "--outdir", str(tmp_path / "o")])
        assert code == 4

    def test_writes_expected_files(self, tmp_path, benchmark_json, capsys):
        outdir = tmp_path / "study"
        code = main(["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                     "--samples", "5000", "--seed", "9", *GD_BUDGET, "--outdir", str(outdir)])
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

    def test_gd_cell_without_a_maximizer_fails_alone(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"mu": [0.05], "sigma": [[0.0001]], "r_f": 0.0}', encoding="utf-8")
        outdir = tmp_path / "o"
        assert main(["compare", "--params", str(params), "--gammas", "150", "--samples", "500",
                     "--seed", "3", "--max-iter", "50", "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().err.startswith(
            "cell gamma=150 method=gd failed: no maximizer: every excess return is >= 0")
        assert sorted(p.name for p in outdir.glob("ecdf_*.csv")) == [
            f"ecdf_{kind}_gamma150_{m}.csv" for kind in ("utility", "wealth")
            for m in ("analytical", "taylor")]

    def test_every_failed_cell_is_listed(self, tmp_path, benchmark_json, monkeypatch, capsys):
        def infeasible(*args, **kwargs):
            raise AllScenariosInfeasible("no scenario keeps wealth positive")

        monkeypatch.setattr(simulation, "_utilities", infeasible)
        outdir = tmp_path / "o"
        code = main(["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                     "--samples", "500", "--seed", "9", *GD_BUDGET, "--outdir", str(outdir)])
        assert code == 5
        out, err = capsys.readouterr()
        assert out.splitlines()[-3:] == [f"wrote {outdir / 'comparison.csv'}",
                                         f"wrote {outdir / 'comparison.json'}",
                                         f"wrote 0 ECDF files to {outdir}"]
        assert err.splitlines() == [
            f"cell gamma={g} method={m} failed: no scenario keeps wealth positive"
            for g in ("5", "10") for m in simulation.METHODS
        ] + ["every cell failed"]
        payload = json.loads((outdir / "comparison.json").read_text(encoding="utf-8"))
        assert payload["results"]["10"]["gd"] == {"error": "no scenario keeps wealth positive"}

    def test_byte_identical_reruns(self, tmp_path, benchmark_json):
        args = ["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                "--samples", "5000", "--seed", "9", *GD_BUDGET]
        assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
        assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_streamed_ecdf_files_match_the_write_after_the_study(
            self, tmp_path, benchmark_json, ecdf_forks, capsys, deadline, workers):
        args = ["compare", "--params", str(benchmark_json), "--gammas", "5,10,15",
                "--samples", "5000", "--seed", "9", *GD_BUDGET]
        # 18 tables of 256 rows stay below MIN_SHARE_ROWS: no fork.
        forks = ecdf_forks()
        assert main(args + ["--outdir", str(tmp_path / "after")]) == 0
        assert forks == []
        after = capsys.readouterr()
        ecdf_forks(workers, min_share_rows=1)
        assert main(args + ["--outdir", str(tmp_path / "streamed")]) == 0
        assert len(forks) == workers
        streamed = capsys.readouterr()
        assert streamed.out == after.out.replace(str(tmp_path / "after"),
                                                 str(tmp_path / "streamed"))
        assert streamed.err == after.err
        files = sorted(p.name for p in (tmp_path / "after").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "streamed").iterdir())
        assert len(files) == 2 + 18
        for name in files:
            assert (tmp_path / "streamed" / name).read_bytes() == (
                tmp_path / "after" / name).read_bytes()

    @pytest.mark.parametrize("error", [RuntimeError, AllScenariosInfeasible])
    def test_error_mid_study_leaves_no_writer(self, tmp_path, benchmark_json, monkeypatch,
                                              ecdf_forks, deadline, error):
        def broken(x, lam, real=simulation._utilities):
            if lam == 1.0 - 10.0:
                raise error("failed at gamma 10")
            real(x, lam)

        monkeypatch.setattr(simulation, "_utilities", broken)
        forks = ecdf_forks(3, min_share_rows=1)
        outdir = tmp_path / "o"
        argv = ["compare", "--params", str(benchmark_json), "--gammas", "5,10,15",
                "--samples", "2000", "--seed", "9", *GD_BUDGET, "--outdir", str(outdir)]
        if error is RuntimeError:  # not a package error: the study stops
            with pytest.raises(RuntimeError, match="failed at gamma 10"):
                main(argv)
        else:  # a package error fails gamma 10's cells alone
            assert main(argv) == 0
            assert sorted(p.name for p in outdir.glob("ecdf_*.csv")) == sorted(
                f"ecdf_{kind}_gamma{g}_{m}.csv" for g in (5, 15) for m in simulation.METHODS
                for kind in ("wealth", "utility"))
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_validation_error_with_writers_forked_leaves_no_writer_and_no_outdir(
            self, tmp_path, benchmark_json, ecdf_forks, capsys, deadline):
        forks = ecdf_forks(2, min_share_rows=1)
        assert main(["compare", "--params", str(benchmark_json), "--gammas", "5,1.05",
                     "--samples", "100", "--seed", "1", "--outdir", str(tmp_path / "o")]) == 4
        assert len(forks) == 2
        assert capsys.readouterr().err.startswith("error: gamma")
        assert not (tmp_path / "o").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_ecdf_path_that_is_a_directory_exits_2_after_the_comparison_files(
            self, tmp_path, benchmark_json, ecdf_forks, capsys, deadline, workers):
        forks = ecdf_forks(workers, min_share_rows=1) if workers else ecdf_forks()
        outdir = tmp_path / "o"
        bad = outdir / "ecdf_utility_gamma10_taylor.csv"
        bad.mkdir(parents=True)
        assert main(["compare", "--params", str(benchmark_json), "--gammas", "5,10",
                     "--samples", "2000", "--seed", "9", *GD_BUDGET,
                     "--outdir", str(outdir)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: {str(bad)!r}\n")
        assert (outdir / "comparison.csv").is_file() and (outdir / "comparison.json").is_file()
        assert len(forks) == workers

    @pytest.mark.parametrize("k", [1, 3])
    def test_byte_identical_under_blas_thread_counts(self, tmp_path, k):
        # OpenBLAS reads its thread count once, at load, so each count needs
        # its own process.  N = 1e5 is above the size at which OpenBLAS
        # starts splitting a product across threads.
        params = tmp_path / "params.json"
        write_params_json(make_params(BENCHMARK_MU[:k],
                                      [row[:k] for row in BENCHMARK_SIGMA[:k]],
                                      BENCHMARK_RF), params)
        outputs = []
        for threads in ("1", "2"):
            env = dict(_env_with_src(), OPENBLAS_NUM_THREADS=threads)
            # The summary names the output directory, so both runs use the
            # same relative one.
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "crra_opt.cli", "compare", "--params", str(params),
                 "--gammas", "5,20", "--samples", "100000", "--seed", "11", *GD_BUDGET,
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
                "--samples", "5000", "--seed", "9", *GD_BUDGET]
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
                     "--samples", "500", "--seed", "9", *GD_BUDGET, "--outdir", str(outdir)]) == 0
        payload = json.loads((outdir / "comparison.json").read_text(encoding="utf-8"))
        assert payload["results"]["10"]["taylor"] == {"error": message}
        assert "weights" in payload["results"]["10"]["gd"]
        with (outdir / "comparison.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert ["10", "taylor", "error", message] in rows

    def test_overflowing_statistic_is_an_error_cell(self, tmp_path, monkeypatch, capsys):
        # The first draw leaves wealth 1e-10 at w = 1: at gamma = 20 its
        # utility, about -5e188, squares past the float range, so the sd of
        # every gamma = 20 cell overflows; the gamma = 5 cells are finite.
        returns = np.random.default_rng(4).normal(0.001, 0.02, (500, 1))
        returns[0] = 1e-10 - 1.0006
        scenarios = crra_opt.ScenarioSet(returns=returns, seed=0)
        monkeypatch.setattr(simulation, "simulate", lambda p, n, seed: scenarios)
        solved = SimpleNamespace(weights=np.ones(1))
        for method in list(simulation.METHODS):
            monkeypatch.setitem(simulation.METHODS, method, lambda *args: solved)
        params = tmp_path / "params.json"
        write_params_json(make_params([0.001], [[0.0005]], 0.0006), params)
        outdir = tmp_path / "study"
        assert main(["compare", "--params", str(params), "--gammas", "5,20",
                     "--samples", "500", "--seed", "0", "--outdir", str(outdir)]) == 0
        message = "the utility sd overflows the float range"
        assert capsys.readouterr().err.splitlines() == [
            f"cell gamma=20 method={m} failed: {message}" for m in simulation.METHODS]

        def refuse(constant):
            raise AssertionError(f"non-strict JSON constant {constant}")

        payload = json.loads((outdir / "comparison.json").read_text(encoding="utf-8"),
                             parse_constant=refuse)
        with (outdir / "comparison.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for method in simulation.METHODS:
            assert payload["results"]["20"][method] == {"error": message}
            assert "stats" in payload["results"]["5"][method]
            assert ["20", method, "error", message] in rows
        assert len(list(outdir.glob("ecdf_*.csv"))) == 2 * len(simulation.METHODS)

    def test_gd_cell_matches_solve(self, tmp_path, benchmark_json):
        common = ["--params", str(benchmark_json), "--samples", "5000", "--seed", "9",
                  *GD_BUDGET]
        assert main(["compare", *common, "--gammas", "10",
                     "--outdir", str(tmp_path / "study")]) == 0
        assert main(["solve", *common, "--gamma", "10", "--method", "gd",
                     "--out", str(tmp_path / "gd.json")]) == 0
        cell = json.loads((tmp_path / "study" / "comparison.json").read_text(encoding="utf-8"))
        solved = json.loads((tmp_path / "gd.json").read_text(encoding="utf-8"))
        assert dumps_json(cell["results"]["10"]["gd"]["weights"]) == dumps_json(solved["weights"])

    @staticmethod
    def _assert_gd_untouched_by(tmp_path, benchmark_json, monkeypatch, taylor_flags):
        """Under ``taylor_flags``, compare's gd JSON cell and gd ECDF files
        are byte-identical to a default run's and equal ``solve --method
        gd``; ``solve --method all`` solves Taylor once, exits 0 and reports
        the same gd answer.  Returns compare's Taylor cell and ``solve
        --method all``'s report."""
        taylor_calls = []

        def counted(*args, real=simulation.taylor_solve):
            taylor_calls.append(args[1].gamma)
            return real(*args)

        monkeypatch.setattr(simulation, "taylor_solve", counted)
        common = ["--params", str(benchmark_json), "--samples", "5000", "--seed", "9",
                  *GD_BUDGET]
        assert main(["solve", *common, *taylor_flags, "--gamma", "10", "--method", "all",
                     "--out", str(tmp_path / "all.json")]) == 0
        assert taylor_calls == [10.0]
        assert main(["solve", *common, *taylor_flags, "--gamma", "10", "--method", "gd",
                     "--out", str(tmp_path / "gd.json")]) == 0
        for name, flags in (("flagged", taylor_flags), ("default", [])):
            assert main(["compare", *common, *flags, "--gammas", "10",
                         "--outdir", str(tmp_path / name)]) == 0

        def read(name):
            return json.loads((tmp_path / name).read_text(encoding="utf-8"))

        solved = read("gd.json")
        assert read("all.json")["gd"] == solved
        cell = read("flagged/comparison.json")["results"]["10"]["gd"]
        assert cell == read("default/comparison.json")["results"]["10"]["gd"]
        assert dumps_json(cell["weights"]) == dumps_json(solved["weights"])
        for kind in ("wealth", "utility"):
            name = f"ecdf_{kind}_gamma10_gd.csv"
            assert (tmp_path / "flagged" / name).read_bytes() == (
                tmp_path / "default" / name).read_bytes()
        return read("flagged/comparison.json")["results"]["10"]["taylor"], read("all.json")

    @pytest.mark.parametrize("taylor_flags", [[], ["--taylor-tol", "1e-6"]])
    def test_gd_agrees_across_commands_under_taylor_flags(self, tmp_path, benchmark_json,
                                                          monkeypatch, taylor_flags):
        # Taylor's flags reach only Taylor.
        self._assert_gd_untouched_by(tmp_path, benchmark_json, monkeypatch, taylor_flags)

    def test_gd_cell_matches_solve_when_taylor_stops_short(self, tmp_path, benchmark_json,
                                                           monkeypatch, capsys):
        # Two Taylor iterations are too few: the Taylor cell fails, `solve
        # --method all` records that failure and still reports the others,
        # and gd's answer does not move.
        taylor, solved_all = self._assert_gd_untouched_by(
            tmp_path, benchmark_json, monkeypatch, ["--taylor-max-iter", "2"])
        assert "after 2 iterations" in taylor["error"]
        assert solved_all["taylor"] == {"error": taylor["error"], "method": "taylor"}
        assert list(solved_all["weight_distance_inf"]) == ["analytical_gd"]
        assert capsys.readouterr().err.count("method taylor failed: ") == 1


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
        ("compare", ["--gammas", ","]),
        ("compare", ["--gammas", "nan"]),
        ("solve", ["--tol", "inf"]),
        ("solve", ["--taylor-tol", "inf"]),
        ("solve", ["--eta", "inf"]),
        ("compare", ["--tol", "inf"]),
        ("compare", ["--gammas", "5,x"]),
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


@pytest.mark.parametrize(
    "command, flag, value, code",
    [
        ("compare", "--gammas", "-inf", 4),
        ("compare", "--gammas", "-5,10", 4),
        ("compare", "--gammas", "-1e3", 4),
        ("solve", "--gamma", "-inf", 3),
        ("frontier", "--gamma-to", "-1e3", 3),
        ("solve", "--eta", "-1e-3", 3),
    ],
)
def test_negative_value_reads_as_its_equals_form(tmp_path, benchmark_json, capsys, command,
                                                 flag, value, code):
    # Left to itself, argparse takes "-inf" for an unknown option: the space
    # form would exit 2 ("expected one argument") while "=" reaches validation.
    args = {
        "compare": ["--gammas", "10", "--samples", "500", "--seed", "9",
                    "--outdir", str(tmp_path / "o")],
        "solve": ["--gamma", "10", "--method", "all", "--samples", "500", "--seed", "9"],
        "frontier": ["--gamma-from", "5", "--gamma-to", "50", "--out", str(tmp_path / "f.csv")],
    }[command]
    args = [command, "--params", str(benchmark_json), *args]
    assert main([*args, f"{flag}={value}"]) == code
    equals_err = capsys.readouterr().err
    assert main([*args, flag, value]) == code
    assert capsys.readouterr().err == equals_err


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in {
        "estimate": ("--prices", "--rf", "--out"),
        "solve": ("--params", "--gamma", "--method", "--samples", "--seed", "--eta", "--tol",
                  "--max-iter", "--taylor-tol", "--taylor-max-iter", "--out"),
        "compare": ("--params", "--gammas", "--samples", "--seed", "--eta", "--tol",
                    "--max-iter", "--taylor-tol", "--taylor-max-iter", "--ecdf-points",
                    "--outdir"),
        "frontier": ("--params", "--gamma-from", "--gamma-to", "--steps", "--out"),
    }.items() for flag in flags],
)
def test_double_dash_value_is_usage_error(tmp_path, benchmark_json, prices_csv, capsys,
                                          command, flag):
    # argparse hands "--flag=--" the value [] without calling the flag's type.
    args = {
        "estimate": ["--prices", str(prices_csv), "--rf", "0", "--out", str(tmp_path / "p.json")],
        "solve": ["--params", str(benchmark_json), "--gamma", "10"],
        "compare": ["--params", str(benchmark_json), "--gammas", "10", "--samples", "500",
                    "--seed", "9", "--outdir", str(tmp_path / "o")],
        "frontier": ["--params", str(benchmark_json), "--gamma-from", "5", "--gamma-to", "50",
                     "--out", str(tmp_path / "f.csv")],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *args, f"{flag}=--"])
    assert excinfo.value.code == 2
    assert f"crra-opt {command}: error: argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, name, data", [
    ("estimate", "latin1.csv", "date,Acme,Société\n2024-01-01,100,50\n".encode("latin-1")),
    ("solve", "utf16.json", b"\xff\xfe" + '{"mu": [0.1]}'.encode("utf-16-le")),
], ids=["latin1-prices", "utf16-params"])
def test_input_file_not_utf8_is_validation_error(tmp_path, capsys, command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    args = {"estimate": ["--prices", str(path), "--rf", "0", "--out", str(tmp_path / "p.json")],
            "solve": ["--params", str(path), "--gamma", "10"]}[command]
    assert main([command, *args]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: not ")


@pytest.mark.parametrize("command", ["estimate", "solve"])
def test_input_file_with_byte_order_mark_reads_as_without(tmp_path, benchmark_json, prices_csv,
                                                          command):
    source = {"estimate": prices_csv, "solve": benchmark_json}[command]
    marked = tmp_path / f"marked{source.suffix}"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    outputs = []
    for path in (source, marked):
        out = tmp_path / f"{path.stem}.out"
        args = {"estimate": ["--prices", str(path), "--rf", "0", "--out", str(out)],
                "solve": ["--params", str(path), "--gamma", "10", "--out", str(out)]}[command]
        assert main([command, *args]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("tail", [["--gamma"], ["--gamma", "10", "--bogus", "-1"],
                                  ["--gamma", "10", "--eta", "-x"]],
                         ids=["missing-value", "unknown-flag", "non-numeric-value"])
def test_usage_errors_still_exit_2(benchmark_json, tail):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--params", str(benchmark_json), *tail])
    assert excinfo.value.code == 2


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

    def test_steps_default_to_50(self, tmp_path, benchmark_json):
        out = tmp_path / "frontier.csv"
        code = main(["frontier", "--params", str(benchmark_json),
                     "--gamma-from", "2", "--gamma-to", "20", "--out", str(out)])
        assert code == 0
        flags = [line.split(",")[3] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert flags == ["false"] * 50 + ["true"]

    def test_tangency_row_of_a_market_in_large_units(self, tmp_path):
        # 1' sigma^-1 mu = 2e-140 is small only by the units; the tangency
        # weights are [0.5, 0.5], so its mean is 1e160 and its variance 5e299.
        params = tmp_path / "params.json"
        params.write_text('{"mu": [1e160, 1e160], "sigma": [[1e300, 0], [0, 1e300]], '
                          '"r_f": 0.0}', encoding="utf-8")
        out = tmp_path / "frontier.csv"
        code = main(["frontier", "--params", str(params), "--gamma-from", "1e21",
                     "--gamma-to", "2e21", "--steps", "3", "--out", str(out)])
        assert code == 0
        last = out.read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert last[1:] == [repr(1e160), repr(5e299), "true"]
        assert float(last[0]) == pytest.approx(2e180, rel=1e-15)

    def test_range_below_bound_exit_4(self, tmp_path, benchmark_json):
        code = main(["frontier", "--params", str(benchmark_json),
                     "--gamma-from", "1.01", "--gamma-to", "5", "--steps", "3",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 4


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--gamma", "5"]),
    ("solve", ["--gamma", "5", "--method", "all", "--samples", "100", "--seed", "1"]),
    ("solve", ["--gamma", "5", "--method", "gd", "--samples", "100", "--seed", "1"]),
    ("solve", ["--gamma", "5", "--method", "taylor", "--samples", "100", "--seed", "1"]),
    ("frontier", ["--gamma-from", "5", "--gamma-to", "10", "--out", "f.csv"]),
    ("compare", ["--gammas", "5,10", "--samples", "100", "--seed", "1", "--outdir", "out"]),
], ids=["solve", "solve-all", "solve-gd", "solve-taylor", "frontier", "compare"])
def test_market_whose_sigma_inv_mu_overflows_is_refused(tmp_path, monkeypatch, capsys,
                                                         command, flags):
    # Asset 1 earns 1% with a variance of 1e-320, an arbitrage: sigma has a
    # Cholesky factor, but sigma^-1 mu = [inf, 1] has no finite bound 1 + 4J.
    params = tmp_path / "params.json"
    params.write_text('{"mu": [0.01, 0.01], "sigma": [[1e-320, 0], [0, 0.01]], "r_f": 0.0}',
                      encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([command, "--params", str(params), *flags]) == 3
    err = capsys.readouterr().err
    assert "bound = inf" not in err and "RuntimeWarning" not in err
    assert err == "error: sigma^-1 mu is not finite: sigma is near singular along mu\n"


@pytest.mark.parametrize("method", ["gd", "taylor"])
def test_scenarios_whose_m2_overflows_are_refused(tmp_path, capsys, method):
    # Each draw is finite, near 1e160, but its square is not.
    params = tmp_path / "params.json"
    params.write_text('{"mu": [1e160, 1e160], "sigma": [[1e300, 0], [0, 1e300]], "r_f": 0.0}',
                      encoding="utf-8")
    assert main(["solve", "--params", str(params), "--method", method, "--gamma", "5",
                 "--samples", "100", "--seed", "1"]) == 3
    assert capsys.readouterr() == (
        "", "error: the sample second moment M2 of the returns overflows\n")


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--gamma", "20.99999999999999"]),
    ("frontier", ["--gamma-from", "20.99999999999999", "--gamma-to", "30", "--out", "f.csv"]),
    # gd takes 2,652 steps at gamma 21 on these 100 draws.
    ("compare", ["--gammas", "20.99999999999999,30", "--samples", "100", "--seed", "1",
                 "--max-iter", "10000", "--outdir", "out"]),
])
def test_gamma_admitted_just_below_the_bound_is_solved(tmp_path, monkeypatch, command, flags):
    # J = 5: the bound 1 + 4J is 20.999999999999993 and admits this gamma,
    # whose discriminant rounds negative.
    params = tmp_path / "params.json"
    write_params_json(make_params([0.22360679774997896], [[0.01]], 0.0), params)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--params", str(params), *flags]) == 0


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
common = ["--params", {str(benchmark_json)!r}, "--samples", "500", "--seed", "9",
          *{GD_BUDGET!r}]
assert main(["compare", *common, "--gammas", "5,10", "--outdir", {str(tmp_path / "o")!r}]) == 0
assert main(["solve", *common, "--gamma", "10", "--method", "all",
             "--out", {str(tmp_path / "all.json")!r}]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
