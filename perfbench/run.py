"""crra-opt benchmark: the ``compare`` study, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: it starts ``python -m
crra_opt.cli compare`` (``PYTHONPATH=src``) in a fresh process again and
again while another one still ends within ``--seconds``, each after a fresh
interpreter that imports ``crra_opt`` and reads the params file (the
set-up).  ``--trace 1`` alternates an untraced CLI run with the traced
study of ``traced.py`` for the per-layer metrics.  Both check the outputs (``check.py``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``; the line before it, ``record {...}``,
holds the machine fingerprint, the sample counts and the output digests.

This file uses the standard library only.  A child's peak RSS
(``ru_maxrss``) can include the parent's at the time it was started, so the
parent stays small and numeric work runs in child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable

# Least number of set-up samples; one is also taken before every compare,
# so set-up and compare samples see the same drift in machine speed.
SETUP_REPEATS = 5
SETUP_CODE = "import sys, crra_opt; crra_opt.read_params_json(sys.argv[1])"
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, log_stem: Path) -> Child:
    """Run one process to completion; its own rusage comes from wait4."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        print(f"{log_stem.name}: exit {proc.returncode}\n{stderr[-2000:]}", file=sys.stderr)
    return Child(
        returncode=proc.returncode,
        wall_s=(end_ns - start_ns) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def json_child(argv: list, log_stem: Path, problems: list) -> dict | None:
    """Run a helper that prints one JSON object; None (and a problem) on failure."""
    child = run_child(argv, log_stem)
    if child.returncode != 0:
        problems.append(f"{log_stem.name} exited {child.returncode}")
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


def window(seconds: float):
    """Yield while one more sample, as long as the median one so far, still
    ends within ``seconds``; always at least once."""
    start = time.monotonic()
    durations: list[float] = []
    while not durations or (time.monotonic() - start + statistics.median(durations)
                            <= seconds):
        begun = time.monotonic()
        yield
        durations.append(time.monotonic() - begun)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digests(outdir: Path) -> dict:
    """sha256 of comparison.json, comparison.csv and of all ECDF files together."""
    ecdf = hashlib.sha256()
    for path in sorted(outdir.glob("ecdf_*.csv")):
        ecdf.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "comparison.json": hashlib.sha256((outdir / "comparison.json").read_bytes()).hexdigest(),
        "comparison.csv": hashlib.sha256((outdir / "comparison.csv").read_bytes()).hexdigest(),
        "ecdf": ecdf.hexdigest(),
    }


def fingerprint(numeric: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "crra_opt").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **numeric,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Study:
    """One workload at one seed: inputs, CLI runs and their checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.params = work / "params.json"
        self.problems: list[str] = []
        self.digest: dict | None = None
        self.runs = 0

    @property
    def cells(self) -> int:
        return 3 * len(self.workload.gammas)

    def compare(self, outdir: Path) -> Child:
        """One untraced ``crra-opt compare``; its outputs must match every other run's."""
        w = self.workload
        child = run_child(
            [PY, "-m", "crra_opt.cli", "compare", "--params", self.params,
             "--gammas", w.gamma_flag(), "--samples", w.samples,
             "--seed", w.scenario_seed(self.seed), "--ecdf-points", w.ecdf_points,
             "--outdir", fresh_dir(outdir)],
            self.work / f"compare{self.runs}")
        self.runs += 1
        if child.returncode != 0:
            self.problems.append(f"compare run {self.runs} exited {child.returncode}")
            return child
        digest = digests(outdir)
        if self.digest is None:
            self.digest = digest
            shutil.copytree(outdir, self.work / "first", dirs_exist_ok=False)
        elif digest != self.digest:
            self.problems.append(f"compare run {self.runs} outputs differ from run 1: {digest}")
        return child

    def check(self) -> dict:
        """Output checks and the Newton reference on the first run's outputs."""
        if self.digest is None:
            return {"failed_cells": self.cells}
        result = json_child([PY, HERE / "check.py", self.workload.name, self.seed,
                             self.params, self.work / "first"],
                            self.work / "check", self.problems)
        if result is None:
            return {"failed_cells": self.cells}
        self.problems.extend(result["problems"])
        return result

    def failed_cells(self, children: list[Child], check: dict) -> int:
        ok_runs = sum(c.returncode == 0 for c in children)
        return (len(children) - ok_runs) * self.cells + ok_runs * check["failed_cells"]


def end_to_end(study: Study, seconds: float) -> tuple[dict, dict, int, int]:
    setup: list[Child] = []
    runs: list[Child] = []

    def set_up():
        setup.append(run_child([PY, "-c", SETUP_CODE, study.params],
                               study.work / f"setup{len(setup)}"))

    for _ in window(seconds):
        set_up()
        runs.append(study.compare(study.work / "out"))
    while len(setup) < SETUP_REPEATS:
        set_up()
    if any(c.returncode != 0 for c in setup):
        study.problems.append("set-up interpreter failed")
    check = study.check()
    failed = study.failed_cells(runs, check)
    ok = [c for c in runs if c.returncode == 0] or runs
    metrics = {
        "wall_s": (statistics.median(c.wall_s for c in ok), "s"),
        "setup_s": (statistics.median(c.wall_s for c in setup), "s"),
        "peak_rss_mb": (statistics.median(c.maxrss_mb for c in ok), "MB"),
        "cell_success_share": (1.0 - failed / (len(runs) * study.cells), "ratio"),
    }
    if "gd_weight_err_inf" in check:
        metrics["gd_weight_err_inf"] = (check["gd_weight_err_inf"], "weight")
    record = {
        "wall_s_samples": [round(c.wall_s, 4) for c in runs],
        "setup_s_samples": [round(c.wall_s, 4) for c in setup],
        "newton_grad_norm_max": check.get("newton_grad_norm_max"),
    }
    return metrics, record, len(runs) * study.cells, failed


def per_layer(study: Study, seconds: float) -> tuple[dict, dict, int, int]:
    samples: dict[str, list] = {}
    units: dict[str, str] = {}
    cli_runs: list[Child] = []
    traced_failed = 0
    for _ in window(seconds):
        i = len(cli_runs)
        cli = study.compare(study.work / "out")
        cli_runs.append(cli)
        outdir = fresh_dir(study.work / "traced")
        traced = run_child([PY, HERE / "traced.py", study.workload.name, study.seed,
                            study.params, outdir, study.work / f"spans{i}.json"],
                           study.work / f"traced{i}")
        if traced.returncode != 0:
            study.problems.append(f"traced run {i + 1} exited {traced.returncode}")
            traced_failed += study.cells
            continue
        if cli.returncode == 0 and digests(outdir) != digests(study.work / "out"):
            study.problems.append(f"traced run {i + 1} outputs differ from the CLI run's")
        result = json.loads(traced.stdout.strip().splitlines()[-1])
        values = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        values["cli.cpu_s"] = (cli.cpu_s, "s")
        values["trace.overhead_s"] = (traced.wall_s - result["after_study_s"] - cli.wall_s, "s")
        for name, (value, unit) in values.items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
    check = study.check()
    failed = study.failed_cells(cli_runs, check) + traced_failed
    metrics = {name: (statistics.median_low(v), units[name]) for name, v in samples.items()}
    record = {"pairs": len(cli_runs), "spans": str((study.work / "spans0.json").relative_to(ROOT))}
    return metrics, record, 2 * len(cli_runs) * study.cells, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crra_opt" / "__init__.py").is_file():
        print(f"error: no crra_opt package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    study = Study(workload, args.seed, fresh_dir(WORK / workload.name))
    numeric = json_child([PY, HERE / "workloads.py", workload.name, study.params],
                         study.work / "prepare", study.problems)
    if numeric is None:
        print("error: could not generate the workload inputs", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    metrics, details, attempted, failed = measure(study, args.seconds)
    record = {
        "workload": workload.name, "seed": args.seed,
        "scenario_seed": workload.scenario_seed(args.seed), "samples": workload.samples,
        "gammas": list(workload.gammas), "trace": args.trace, "compare_runs": study.runs,
        **details, "sha256": study.digest, "problems": study.problems,
        "fingerprint": fingerprint(numeric),
    }
    print("record " + json.dumps(record))
    for problem in study.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not study.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
