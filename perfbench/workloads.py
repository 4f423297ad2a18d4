"""Workload table and input generation for the crra-opt benchmark.

Each workload is one ``crra-opt compare`` invocation: a generated params
JSON file plus CLI flags.  The table below is plain data so the
orchestrator (``run.py``) can read it without importing numpy; only the
generated market of ``wide_market_k16`` needs numpy, and that runs in a
child process (``python perfbench/workloads.py``).

Scenario sizes are scaled down from the paper's N = 1e6 so that one
``compare`` takes a few seconds and a run holds several samples.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

# Scenario seed of the paper's study and of the acceptance gate.
REFERENCE_SEED = 20120116

# Three-asset weekly benchmark market of the paper (excess-return moments,
# 0.06% weekly risk-free rate), as in tests/conftest.py.
BENCHMARK_MU = (0.00134, 0.00231, 0.00139)
BENCHMARK_SIGMA = (
    (0.000545, 0.000319, 0.000341),
    (0.000319, 0.000410, 0.000393),
    (0.000341, 0.000393, 0.000487),
)
BENCHMARK_RF = 0.0006

# Seed of the generated 16-asset market.  The market is fixed, not drawn
# from --seed: gd's iteration count depends on its conditioning (700 to 1500
# per gamma across market seeds 1-8), which would swamp timing noise.
WIDE_MARKET_SEED = 2
WIDE_K = 16
# Largest admissible-gamma bound 1 + 4J accepted for the wide market; the
# smallest gamma of the workload (5) must stay above it.
WIDE_MAX_BOUND = 4.5


@dataclass(frozen=True)
class Workload:
    name: str
    gammas: tuple[float, ...]
    samples: int
    ecdf_points: int
    # True: every run draws its scenarios from REFERENCE_SEED; False: the
    # draw follows --seed.
    fixed_scenarios: bool

    def scenario_seed(self, seed: int) -> int:
        return REFERENCE_SEED if self.fixed_scenarios else REFERENCE_SEED + seed

    def gamma_flag(self) -> str:
        return ",".join(f"{g:g}" for g in self.gammas)


WORKLOADS = {
    w.name: w
    for w in (
        # Fixed draws: the reference table holds for the gate's draw.
        Workload("paper_study", (5.0, 10.0, 15.0, 20.0), 200_000, 256, True),
        Workload(
            "gamma_sweep_1asset",
            (5.0, 7.5, 10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0, 80.0),
            250_000, 4096, False,
        ),
        # Fixed draws: on this market gd's final error moves by up to 50%
        # between scenario draws (gd_weight_err_inf 6.8e-6 to 1.02e-5 at
        # seeds 1-5), more than any bound the benchmark may set.
        Workload("wide_market_k16", (5.0, 20.0), 100_000, 256, True),
    )
}


def market(name: str) -> dict:
    """Params payload (mu, sigma, r_f) of a workload's market."""
    if name == "paper_study":
        return {"mu": list(BENCHMARK_MU), "sigma": [list(r) for r in BENCHMARK_SIGMA],
                "r_f": BENCHMARK_RF}
    if name == "gamma_sweep_1asset":
        return {"mu": [BENCHMARK_MU[0]], "sigma": [[BENCHMARK_SIGMA[0][0]]],
                "r_f": BENCHMARK_RF}
    if name == "wide_market_k16":
        return _wide_market()
    raise KeyError(name)


def _random_market(rng, k: int):
    """The ``make_random_params`` recipe of tests/conftest.py."""
    import numpy as np

    a = rng.normal(size=(k, k)) * 0.01
    sigma = a @ a.T + np.diag(rng.uniform(0.5, 1.5, size=k)) * 1e-4
    mu = rng.normal(scale=0.005, size=k)
    if float(mu @ np.linalg.solve(sigma, mu)) < 1e-10:
        mu = mu + 0.003
    return mu, sigma, float(rng.uniform(0.0, 0.005))


def _wide_market() -> dict:
    """First draw of the recipe whose bound 1 + 4J is below WIDE_MAX_BOUND."""
    import numpy as np

    rng = np.random.default_rng(WIDE_MARKET_SEED)
    while True:
        mu, sigma, r_f = _random_market(rng, WIDE_K)
        bound = 1.0 + 4.0 * float(mu @ np.linalg.solve(sigma, mu))
        if bound <= WIDE_MAX_BOUND:
            break
    sigma = (sigma + sigma.T) / 2.0
    return {"mu": [float(x) for x in mu],
            "sigma": [[float(x) for x in row] for row in sigma], "r_f": r_f}


def fingerprint_numeric() -> dict:
    """Versions of the numeric stack and the BLAS numpy was built against."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main(argv: list[str]) -> int:
    """``workloads.py NAME OUT_PARAMS_JSON``: write the params file, print
    the numeric-stack fingerprint as JSON."""
    name, out = argv
    with Path(out).open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(market(name), fh, indent=2)
        fh.write("\n")
    print(json.dumps(fingerprint_numeric()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
