"""The ``compare`` study rebuilt from public calls, with a span around each.

Usage: ``python perfbench/traced.py WORKLOAD SEED PARAMS_JSON OUTDIR SPANS_JSON``.

The study is recomposed, in the order ``crra_opt.simulation.compare`` and
``crra_opt.cli`` use, from names in ``crra_opt.__all__`` and the public
``crra_opt.reports`` writers only (never ``ScenarioSet.returns`` or a
private helper), so it survives changes to the package's internals.  It
writes the same files as ``crra-opt compare``; ``run.py`` requires them to
be byte-identical to an untraced CLI run, otherwise the trace would
describe a different program.

Each call gets a span: name, start and end (``time.monotonic_ns``), parent
span and run id, plus the counts the call returns.  Spans stay in memory
and are written to SPANS_JSON at the end.  After the study, single calls
are probed at the final gd weights of the first gamma, outside the study's
spans.

Prints one JSON object: the per-layer ``metrics`` and ``after_study_s``,
the time this process spent after the study (probes, writing the spans),
which the parent subtracts from the process's wall time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import crra_opt as co
from crra_opt import reports
from workloads import WORKLOADS

METHODS = ("analytical", "taylor", "gd")
PROBE_REPEATS = 9
FLOAT_BYTES = 8


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"id": index, "name": name, "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id, "start_ns": time.monotonic_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.monotonic_ns()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def total_s(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e9

    def total_count(self, name: str, key: str) -> int:
        return sum(s[key] for s in self.spans if s["name"] == name)


def study(tr: Tracer, workload, scenario_seed: int, params_path: Path, outdir: Path) -> dict:
    """Run the traced study; returns the state the probes need."""
    params = tr.call("market.read_params_json", co.read_params_json, params_path)
    scenarios = tr.call("simulation.simulate", co.simulate, params, workload.samples,
                        scenario_seed)
    report = co.ComparisonReport(gammas=workload.gammas, n=workload.samples, seed=scenario_seed)
    gross_rf = params.gross_rf
    first_gd = None
    for g in workload.gammas:
        ra = co.RiskAversion(g)
        weights = {
            "analytical": tr.call("closed_form.solve_analytical", co.solve_analytical,
                                  params, ra).weights,
        }
        with tr.span("taylor.taylor_solve") as sp:
            rep = co.taylor_solve(scenarios, ra, gross_rf, co.TaylorConfig())
            sp["iterations"] = rep.iterations
        weights["taylor"] = rep.weights
        eta = tr.call("gradient.suggest_eta", co.suggest_eta, scenarios, ra)
        with tr.span("gradient.gd_solve") as sp:
            rep = co.gd_solve(scenarios, ra, gross_rf, co.GdConfig(eta=eta))
            sp["iterations"] = rep.iterations
        weights["gd"] = rep.weights
        if first_gd is None:
            first_gd = (ra, rep.weights)
        for method in METHODS:
            with tr.span("simulation.evaluate_strategy") as sp:
                outcome = co.evaluate_strategy(scenarios, weights[method], ra, gross_rf,
                                               method=method)
                finite = outcome.utilities[np.isfinite(outcome.utilities)]
                sp["infeasible_draws"] = outcome.infeasible_count
                sp["nonfinite_dropped"] = (outcome.utilities.shape[0] - finite.shape[0]
                                           - outcome.infeasible_count)
            stats = tr.call("simulation.summarize", co.summarize, finite)
            report.cells[(g, method)] = co.CellResult(
                weights=weights[method], stats=stats, infeasible_count=outcome.infeasible_count)
            report.ecdfs[(g, method, "wealth")] = tr.call(
                "simulation.ecdf", co.ecdf, outcome.wealths, workload.ecdf_points)
            report.ecdfs[(g, method, "utility")] = tr.call(
                "simulation.ecdf", co.ecdf, finite, workload.ecdf_points)
    outdir.mkdir(parents=True, exist_ok=True)
    with tr.span("reports.write"):
        tr.call("reports.write_comparison_csv", reports.write_comparison_csv, report,
                outdir / "comparison.csv")
        tr.call("reports.write_comparison_json", lambda: reports.write_text(
            outdir / "comparison.json",
            reports.dumps_json(reports.comparison_report_dict(report))))
        tr.call("reports.write_ecdf_files", reports.write_ecdf_files, report, outdir)
    return {"params": params, "scenarios": scenarios, "first_gd": first_gd}


def probe_ms(fn, *args) -> float:
    """Median wall time of PROBE_REPEATS calls, in ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv: list[str]) -> int:
    name, seed, params_path, outdir, spans_path = argv
    workload = WORKLOADS[name]
    tr = Tracer(run_id=f"{name}-{seed}-{time.monotonic_ns()}")
    with tr.span("cli.compare"):
        state = study(tr, workload, workload.scenario_seed(int(seed)), Path(params_path),
                      Path(outdir))
    study_end_ns = tr.spans[0]["end_ns"]

    params, scenarios = state["params"], state["scenarios"]
    ra, w = state["first_gd"]
    gross_rf = params.gross_rf
    gd_iterations = tr.total_count("gradient.gd_solve", "iterations")
    taylor_iterations = tr.total_count("taylor.taylor_solve", "iterations")
    # taylor_solve makes one update for its start point plus one per iteration.
    taylor_steps = taylor_iterations + len(workload.gammas)
    n, k = workload.samples, params.k
    files = [p for p in Path(outdir).iterdir() if p.is_file()]
    metrics = {
        "gradient.solve_s": (tr.total_s("gradient.gd_solve"), "s"),
        "gradient.iter_ms": (1e3 * tr.total_s("gradient.gd_solve") / max(gd_iterations, 1), "ms"),
        "gradient.suggest_eta_s": (tr.total_s("gradient.suggest_eta"), "s"),
        "gradient.v0_gradient_probe_ms": (probe_ms(co.v0_gradient, scenarios, w, ra, gross_rf), "ms"),
        "gradient.v0_probe_ms": (probe_ms(co.v0, scenarios, w, ra, gross_rf), "ms"),
        "gradient.v0_hessian_probe_ms": (probe_ms(co.v0_hessian, scenarios, w, ra, gross_rf), "ms"),
        "gradient.iterations": (gd_iterations, "count"),
        # Computed, not measured: one v0_gradient reads the (N, k) returns
        # twice (wealth mat-vec, gradient reduction) and writes and reads
        # the N-vectors of wealth and of its power once each.
        "gradient.v0_gradient_bytes_computed": (FLOAT_BYTES * n * (2 * k + 4), "bytes"),
        "taylor.solve_s": (tr.total_s("taylor.taylor_solve"), "s"),
        "taylor.iterations": (taylor_iterations, "count"),
        "taylor.step_ms": (1e3 * tr.total_s("taylor.taylor_solve") / taylor_steps, "ms"),
        "taylor.taylor_step_probe_ms": (probe_ms(co.taylor_step, scenarios, ra, gross_rf, w), "ms"),
        "simulation.simulate_s": (tr.total_s("simulation.simulate"), "s"),
        "simulation.evaluate_strategy_s": (tr.total_s("simulation.evaluate_strategy"), "s"),
        "simulation.summarize_s": (tr.total_s("simulation.summarize"), "s"),
        "simulation.ecdf_s": (tr.total_s("simulation.ecdf"), "s"),
        "simulation.infeasible_draws": (
            tr.total_count("simulation.evaluate_strategy", "infeasible_draws"), "count"),
        "simulation.nonfinite_dropped": (
            tr.total_count("simulation.evaluate_strategy", "nonfinite_dropped"), "count"),
        "closed_form.solve_analytical_s": (tr.total_s("closed_form.solve_analytical"), "s"),
        "market.read_params_s": (tr.total_s("market.read_params_json"), "s"),
        "reports.write_s": (tr.total_s("reports.write"), "s"),
        "reports.bytes_written": (sum(p.stat().st_size for p in files), "bytes"),
        "reports.files_written": (len(files), "count"),
    }
    with Path(spans_path).open("w", encoding="utf-8") as fh:
        json.dump({"run_id": tr.run_id, "spans": tr.spans}, fh, indent=1)
    print(json.dumps({"after_study_s": (time.monotonic_ns() - study_end_ns) / 1e9,
                      "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
