"""Shared fixtures: the benchmark three-asset market and instance factories."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crra_opt import MarketParams, make_params
from crra_opt.closed_form import _scale_root

pytest_plugins = ["pytester"]

# Three-asset weekly benchmark market used throughout: excess-return moments
# estimated from DAX / Nasdaq futures / Russell 2000 futures weekly prices,
# with a 0.06% weekly risk-free rate.
BENCHMARK_MU = (0.00134, 0.00231, 0.00139)
BENCHMARK_SIGMA = (
    (0.000545, 0.000319, 0.000341),
    (0.000319, 0.000410, 0.000393),
    (0.000341, 0.000393, 0.000487),
)
BENCHMARK_RF = 0.0006

# 1 + 4 mu' sigma^-1 mu for the benchmark market, pinned from this build.
BENCHMARK_BOUND = 1.0772240691920854


def scale_roots(j: float, gamma: float, gross_rf: float) -> tuple[float, float]:
    """Both roots of the closed form's first-order condition: the one it
    uses, and the other, ``R_f (a - J + sqrt(D)) / J^2`` with
    ``a = (gamma-1)/2``."""
    c_minus, d = _scale_root(j, gamma, gross_rf)
    return c_minus, gross_rf * ((gamma - 1.0) / 2.0 - j + math.sqrt(d)) / (j * j)


@pytest.fixture(scope="session")
def benchmark_params() -> MarketParams:
    return make_params(BENCHMARK_MU, BENCHMARK_SIGMA, BENCHMARK_RF,
                       asset_names=("dax", "nasdaq_fut", "russell_fut"))


@pytest.fixture(scope="session")
def single_asset_params() -> MarketParams:
    """k=1 toy market: mu=0.05, variance=0.01, zero risk-free rate (J=0.25)."""
    return make_params([0.05], [[0.01]], 0.0)


@pytest.fixture
def make_random_params():
    """Factory for random positive-definite markets at realistic scales.

    Scales are chosen so weights stay moderate and every scenario wealth is
    comfortably positive: |mu| ~ 5e-3, sigma ~ 1e-4 .. 1e-3.
    """

    def factory(rng: np.random.Generator, k: int | None = None) -> MarketParams:
        if k is None:
            k = int(rng.integers(1, 7))
        a = rng.normal(size=(k, k)) * 0.01
        sigma = a @ a.T + np.diag(rng.uniform(0.5, 1.5, size=k)) * 1e-4
        mu = rng.normal(scale=0.005, size=k)
        if float(mu @ np.linalg.solve(sigma, mu)) < 1e-10:
            mu = mu + 0.003  # keep J safely away from degeneracy
        r_f = float(rng.uniform(0.0, 0.005))
        return make_params(mu, sigma, r_f)

    return factory
