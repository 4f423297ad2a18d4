"""Every input check of the package raises a :class:`CrraOptError`."""

from __future__ import annotations

import datetime as dt
import re

import numpy as np
import pytest

from crra_opt import (
    CrraOptError,
    DimensionMismatch,
    NonFiniteInput,
    PriceSeries,
    RiskAversion,
    ScenarioSet,
    SingularSecondMoment,
    ValidationError,
    evaluate_strategy,
    gd_solve,
    make_params,
    objective_g,
    taylor_step,
    v0,
    v0_gradient,
    v0_hessian,
)

RA = RiskAversion(5.0)
DATES = (dt.date(2024, 1, 1), dt.date(2024, 1, 8), dt.date(2024, 1, 15))


def _pair() -> ScenarioSet:
    return ScenarioSet(np.array([[0.01, 0.02], [-0.01, 0.0]]), seed=0)


@pytest.mark.parametrize("call, error, match", [
    (lambda p: ScenarioSet(np.zeros((0, 2)), seed=0), DimensionMismatch, "returns must be 2-D"),
    (lambda p: ScenarioSet(np.array([[0.1, np.nan]]), seed=0), NonFiniteInput,
     "returns must be finite"),
    (lambda p: evaluate_strategy(_pair(), np.zeros(3), RA, 1.0), DimensionMismatch,
     r"weights must have shape \(2,\)"),
    (lambda p: gd_solve(ScenarioSet(np.zeros((50, 2)), seed=0), RA, 1.0),
     SingularSecondMoment, "no positive eigenvalue"),
    (lambda p: make_params([[0.1]], [[0.01]], 0.0), DimensionMismatch,
     "mu must be a non-empty vector"),
    (lambda p: make_params([0.1, 0.2], np.eye(2), 0.0, asset_names="AB"), ValidationError,
     "asset_names must be 2 names, not one string"),
    (lambda p: objective_g(p, np.zeros(2), RA), DimensionMismatch,
     r"weights must have shape \(3,\)"),
    (lambda p: PriceSeries(DATES, np.array([100.0, 101.0, 102.0]), ("a",)), DimensionMismatch,
     "prices must be 2-D"),
    (lambda p: PriceSeries(DATES[:2], np.ones((3, 1)), ("a",)), DimensionMismatch,
     "2 dates for 3 price rows"),
    (lambda p: PriceSeries(DATES, np.ones((3, 1)), ("a", "b")), DimensionMismatch,
     "2 names for 1 assets"),
    (lambda p: PriceSeries(DATES, np.array([[1.0], [np.inf], [2.0]]), ("a",)), NonFiniteInput,
     "prices must be finite"),
    (lambda p: PriceSeries(DATES, np.ones((3, 2)), "AB"), ValidationError,
     "asset_names must be 2 names, not one string"),
], ids=["returns-shape", "returns-non-finite", "weights-shape", "no-positive-eigenvalue",
        "mu-2d", "asset-names-one-string", "closed-form-weights-shape", "prices-1d",
        "dates-count", "names-count", "prices-non-finite", "prices-asset-names-one-string"])
def test_input_checks_raise_package_errors(benchmark_params, call, error, match):
    with pytest.raises(error, match=match) as excinfo:
        call(benchmark_params)
    assert isinstance(excinfo.value, CrraOptError)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)], ids=["k-1", "k+1", "column"])
@pytest.mark.parametrize("call", [
    lambda s, w: v0(s, w, RA, 1.0),
    lambda s, w: v0_gradient(s, w, RA, 1.0),
    lambda s, w: v0_hessian(s, w, RA, 1.0),
    lambda s, w: taylor_step(s, RA, 1.0, w),
    lambda s, w: evaluate_strategy(s, w, RA, 1.0),
], ids=["v0", "v0_gradient", "v0_hessian", "taylor_step", "evaluate_strategy"])
def test_every_sampled_function_checks_the_weights_shape(call, shape):
    # The scenario set's one check gives every function the same error.
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"weights must have shape (2,), got {shape}")):
        call(_pair(), np.zeros(shape))
