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
    NotPositiveDefinite,
    PriceSeries,
    RiskAversion,
    ScenarioSet,
    SingularSecondMoment,
    ValidationError,
    approx_expected_utility,
    evaluate_strategy,
    gd_solve,
    make_params,
    objective_g,
    objective_g_gradient,
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
    (lambda p: ScenarioSet(np.full((2, 2), 1e160), seed=0), NonFiniteInput,
     "second moment M2 of the returns overflows"),
    (lambda p: evaluate_strategy(_pair(), np.zeros(3), RA, 1.0), DimensionMismatch,
     r"weights must have shape \(2,\)"),
    (lambda p: gd_solve(ScenarioSet(np.zeros((50, 2)), seed=0), RA, 1.0),
     SingularSecondMoment, "no positive eigenvalue"),
    (lambda p: make_params([[0.1]], [[0.01]], 0.0), DimensionMismatch,
     "mu must be a non-empty vector"),
    (lambda p: make_params([0.1, 0.2], np.eye(2), 0.0, asset_names="AB"), ValidationError,
     "asset_names must be 2 names, not one string"),
    (lambda p: make_params([0.01, 0.01], [[1e-320, 0.0], [0.0, 0.01]], 0.0),
     NotPositiveDefinite, r"sigma\^-1 mu is not finite"),
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
], ids=["returns-shape", "returns-non-finite", "m2-overflow", "weights-shape",
        "no-positive-eigenvalue", "mu-2d", "asset-names-one-string", "sigma-inv-mu-overflow",
        "closed-form-weights-shape", "prices-1d", "dates-count", "names-count",
        "prices-non-finite", "prices-asset-names-one-string"])
def test_input_checks_raise_package_errors(benchmark_params, call, error, match):
    with pytest.raises(error, match=match) as excinfo:
        call(benchmark_params)
    assert isinstance(excinfo.value, CrraOptError)
    assert isinstance(excinfo.value, ValueError)


SAMPLED_CALLS = pytest.mark.parametrize("call", [
    lambda s, w: v0(s, w, RA, 1.0),
    lambda s, w: v0_gradient(s, w, RA, 1.0),
    lambda s, w: v0_hessian(s, w, RA, 1.0),
    lambda s, w: taylor_step(s, RA, 1.0, w),
    lambda s, w: evaluate_strategy(s, w, RA, 1.0),
], ids=["v0", "v0_gradient", "v0_hessian", "taylor_step", "evaluate_strategy"])


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)], ids=["k-1", "k+1", "column"])
@SAMPLED_CALLS
def test_every_sampled_function_checks_the_weights_shape(call, shape):
    # The scenario set's one check gives every function the same error.
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"weights must have shape (2,), got {shape}")):
        call(_pair(), np.zeros(shape))


@pytest.mark.parametrize("weights", [[np.nan, 0.0], [np.inf, 0.0]], ids=["nan", "inf"])
@SAMPLED_CALLS
def test_every_sampled_function_checks_the_weights_are_finite(call, weights):
    # Not a NaN value, a count of infeasible draws or a zero utility.
    with pytest.raises(NonFiniteInput, match="weights must be finite"):
        call(_pair(), np.array(weights))


@pytest.mark.parametrize("weights", [[np.nan, 0.0], [np.inf, 0.0]], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [objective_g, objective_g_gradient, approx_expected_utility])
def test_every_closed_form_function_checks_the_weights_are_finite(call, weights):
    # The same check as on scenarios, not a NaN value or a numpy warning.
    p = make_params([0.05, 0.03], np.diag([0.04, 0.02]), 0.01)
    with pytest.raises(NonFiniteInput, match="weights must be finite"):
        call(p, np.array(weights), RA)
