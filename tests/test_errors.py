"""Every input check of the package raises a :class:`CrraOptError`."""

from __future__ import annotations

import numpy as np
import pytest

from crra_opt import (
    CrraOptError,
    DimensionMismatch,
    NonFiniteInput,
    RiskAversion,
    ScenarioSet,
    SingularSecondMoment,
    evaluate_strategy,
    gd_solve,
)

RA = RiskAversion(5.0)


def _pair() -> ScenarioSet:
    return ScenarioSet(np.array([[0.01, 0.02], [-0.01, 0.0]]), seed=0)


@pytest.mark.parametrize("call, error", [
    (lambda p: ScenarioSet(np.zeros((0, 2)), seed=0), DimensionMismatch),
    (lambda p: ScenarioSet(np.array([[0.1, np.nan]]), seed=0), NonFiniteInput),
    (lambda p: evaluate_strategy(_pair(), np.zeros(3), RA, 1.0), DimensionMismatch),
    (lambda p: gd_solve(ScenarioSet(np.zeros((50, 2)), seed=0), RA, 1.0),
     SingularSecondMoment),
], ids=["returns-shape", "returns-non-finite", "weights-shape", "no-positive-eigenvalue"])
def test_input_checks_raise_package_errors(benchmark_params, call, error):
    with pytest.raises(error) as excinfo:
        call(benchmark_params)
    assert isinstance(excinfo.value, CrraOptError)
    assert isinstance(excinfo.value, ValueError)
