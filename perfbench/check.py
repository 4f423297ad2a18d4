"""Output checks and the Newton accuracy reference for one ``compare`` run.

Usage: ``python perfbench/check.py WORKLOAD SEED PARAMS_JSON OUTDIR``.
Prints one JSON object: ``problems`` (empty when every check passes),
``failed_cells`` and, when the Newton reference is trusted,
``gd_weight_err_inf``.  Runs in its own process, after the timed window.

Checks:
- ``comparison.json`` is strict JSON (no bare nan/inf), names the expected
  n, seed and gammas, and holds every (gamma, method) cell with finite
  weights and stats; ``comparison.csv`` has four finite stats per cell.
- ``paper_study`` matches the acceptance gate's reference table with the
  gate's tolerances.
- The gd weights are compared against ``w_ref``, undamped Newton steps on
  the sampled utility (public ``v0_gradient``/``v0_hessian``) started at
  the gd weights.  ``w_ref`` is trusted only if its gradient norm reaches
  NEWTON_GRAD_TOL.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

import crra_opt as co
from workloads import WORKLOADS

METHODS = ("analytical", "taylor", "gd")
STATS = ("mean", "sd", "median", "mad")

# Acceptance-gate reference table (tests/test_acceptance.py): gamma ->
# method -> (mean, sd, median, mad), N = 1e6 draws of the benchmark market.
REFERENCE_STATS = {
    5.0: {
        "analytical": (-0.24761, 0.03487, -0.24461, 0.03387),
        "taylor": (-0.24748, 0.02747, -0.24560, 0.02698),
        "gd": (-0.24748, 0.02699, -0.24566, 0.02653),
    },
    10.0: {
        "analytical": (-0.10957, 0.01530, -0.10840, 0.01497),
        "taylor": (-0.10956, 0.01369, -0.10861, 0.01345),
        "gd": (-0.10956, 0.01343, -0.10865, 0.01321),
    },
    15.0: {
        "analytical": (-0.07020, 0.00978, -0.06947, 0.00959),
        "taylor": (-0.07020, 0.00909, -0.06957, 0.00894),
        "gd": (-0.07020, 0.00892, -0.06959, 0.00878),
    },
    20.0: {
        "analytical": (-0.05156, 0.00718, -0.05104, 0.00704),
        "taylor": (-0.05156, 0.00680, -0.05109, 0.00668),
        "gd": (-0.05156, 0.00667, -0.05111, 0.00657),
    },
}
MEAN_TOL = 3e-4     # absolute, mean and median
SPREAD_TOL = 0.05   # relative, sd and mad

NEWTON_GRAD_TOL = 1e-15
NEWTON_MAX_STEPS = 8


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def check_json(text: str, workload, seed: int, problems: list) -> dict | None:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"comparison.json is not strict JSON: {exc}")
        return None
    expected = {"n": workload.samples, "seed": workload.scenario_seed(seed),
                "gammas": list(workload.gammas)}
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"comparison.json {key} = {doc.get(key)!r}, expected {value!r}")
    return doc


def cell_table(doc: dict, workload, k: int, problems: list) -> tuple[dict, int]:
    """(gamma, method) -> cell for every complete cell; count of failed cells."""
    cells, failed = {}, 0
    results = doc.get("results", {})
    for g in workload.gammas:
        row = results.get(f"{g:g}", {})
        for method in METHODS:
            cell = row.get(method)
            label = f"gamma={g:g} {method}"
            if cell is None:
                problems.append(f"{label}: cell missing")
                failed += 1
            elif "error" in cell:
                problems.append(f"{label}: cell failed: {cell['error']}")
                failed += 1
            elif (len(cell.get("weights", ())) != k
                  or set(cell.get("stats", {})) != set(STATS)
                  or not all(math.isfinite(x) for x in cell["weights"])
                  or not all(math.isfinite(x) for x in cell["stats"].values())):
                problems.append(f"{label}: malformed or non-finite cell {cell}")
                failed += 1
            else:
                cells[(g, method)] = cell
    return cells, failed


def check_csv(path: Path, workload, problems: list) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["gamma", "method", "stat", "value"]]:
        problems.append("comparison.csv: bad header")
        return
    seen = set()
    for row in rows[1:]:
        if len(row) != 4:
            problems.append(f"comparison.csv: bad row {row}")
            continue
        try:
            value = float(row[3])
        except ValueError:
            problems.append(f"comparison.csv: non-numeric value in {row}")
            continue
        if not math.isfinite(value):
            problems.append(f"comparison.csv: non-finite value in {row}")
        seen.add((row[0], row[1], row[2]))
    expected = {(f"{g:g}", m, s) for g in workload.gammas for m in METHODS for s in STATS}
    if seen != expected:
        problems.append(f"comparison.csv: {len(expected - seen)} stats missing, "
                        f"{len(seen - expected)} unexpected")


def check_reference_table(cells: dict, problems: list) -> None:
    for g, row in REFERENCE_STATS.items():
        for method, (mean, sd, median, mad) in row.items():
            cell = cells.get((g, method))
            if cell is None:
                continue  # already reported as missing or failed
            s = cell["stats"]
            if not (abs(s["mean"] - mean) <= MEAN_TOL
                    and abs(s["median"] - median) <= MEAN_TOL
                    and abs(s["sd"] - sd) <= SPREAD_TOL * abs(sd)
                    and abs(s["mad"] - mad) <= SPREAD_TOL * abs(mad)):
                problems.append(f"gamma={g:g} {method}: stats {s} outside the reference "
                                f"table ({mean}, {sd}, {median}, {mad})")


def newton_reference(scenarios, w_start, ra, gross_rf) -> tuple[np.ndarray, float]:
    """Undamped Newton steps on V0 from ``w_start`` while the gradient norm
    falls; returns (w, |grad|)."""
    w = np.array(w_start, dtype=float)
    grad = co.v0_gradient(scenarios, w, ra, gross_rf)
    norm = float(np.linalg.norm(grad))
    for _ in range(NEWTON_MAX_STEPS):
        cand = w - np.linalg.solve(co.v0_hessian(scenarios, w, ra, gross_rf), grad)
        cand_grad = co.v0_gradient(scenarios, cand, ra, gross_rf)
        cand_norm = float(np.linalg.norm(cand_grad))
        if cand_norm >= norm:
            break  # at rounding level
        w, grad, norm = cand, cand_grad, cand_norm
    return w, norm


def main(argv: list[str]) -> int:
    name, seed, params_path, outdir = argv
    workload, seed, outdir = WORKLOADS[name], int(seed), Path(outdir)
    params = co.read_params_json(params_path)
    problems: list[str] = []
    result: dict = {"problems": problems,
                    "failed_cells": 3 * len(workload.gammas)}
    doc = check_json((outdir / "comparison.json").read_text(encoding="utf-8"),
                     workload, seed, problems)
    check_csv(outdir / "comparison.csv", workload, problems)
    if doc is None:
        print(json.dumps(result))
        return 0
    cells, result["failed_cells"] = cell_table(doc, workload, params.k, problems)
    if name == "paper_study":
        check_reference_table(cells, problems)

    scenarios = co.simulate(params, workload.samples, workload.scenario_seed(seed))
    errs, norms = [], []
    for g in workload.gammas:
        cell = cells.get((g, "gd"))
        if cell is None:
            continue
        w_gd = np.asarray(cell["weights"])
        w_ref, norm = newton_reference(scenarios, w_gd, co.RiskAversion(g), params.gross_rf)
        norms.append(norm)
        errs.append(float(np.max(np.abs(w_gd - w_ref))))
    result["newton_grad_norm_max"] = max(norms, default=None)
    if norms and max(norms) <= NEWTON_GRAD_TOL and len(errs) == len(workload.gammas):
        result["gd_weight_err_inf"] = max(errs)
    else:
        problems.append(f"Newton reference not trusted: gradient norms {norms} "
                        f"(need <= {NEWTON_GRAD_TOL:g} at every gamma)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
