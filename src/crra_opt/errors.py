"""Exception types shared across the library.

Every error raised by this package derives from :class:`CrraOptError`, so
callers can catch one base class.  Validation-style errors also derive from
``ValueError`` to stay friendly to generic handling.  The checks shared by
every count and every positive setting end the module.
"""

from __future__ import annotations

import math
import operator


class CrraOptError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CrraOptError, ValueError):
    """Invalid input that fails a constructor or precondition check."""


class DimensionMismatch(ValidationError):
    """Array shapes do not agree (e.g. mu length vs. sigma order)."""


class NonFiniteInput(ValidationError):
    """An input contains NaN or infinity."""


class AsymmetricSigma(ValidationError):
    """Covariance input is asymmetric beyond the accepted tolerance."""


class NotPositiveDefinite(ValidationError):
    """Covariance matrix has no Cholesky factorization."""


class InvalidRiskFreeRate(ValidationError):
    """Gross risk-free return 1 + r_f is not positive."""


class InvalidRiskAversion(ValidationError):
    """Relative risk aversion must satisfy gamma > 0 and gamma != 1."""


class TooFewObservations(ValidationError):
    """Price history is too short to estimate moments (need T >= 3)."""


class InvalidPriceSeries(ValidationError):
    """Price rows violate positivity or date ordering requirements."""


class InvalidParamsFile(ValidationError):
    """Parameter JSON file is malformed or misses required keys."""


class GammaBelowBound(ValidationError):
    """Risk aversion below the admissibility bound 1 + 4 mu' Sigma^-1 mu."""

    def __init__(self, gamma: float, bound: float):
        self.gamma = float(gamma)
        self.bound = float(bound)
        super().__init__(
            f"gamma={self.gamma:.6g} is below the admissible bound {self.bound:.6g}"
        )


class DegenerateMu(ValidationError):
    """mu' Sigma^-1 mu is numerically zero; the weight scale is undefined."""


class NonPositiveGrossMean(ValidationError):
    """Expected gross portfolio return R_f + w'mu is not positive."""


class SingularDenominator(ValidationError):
    """1' Sigma^-1 mu is not numerically positive; no fully-risky portfolio is admissible."""


class NonPositiveWealthScenario(ValidationError):
    """Some scenario drives wealth to zero or below at the given weights."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"scenario {self.index} yields non-positive wealth")


class AllScenariosInfeasible(CrraOptError):
    """Every simulated scenario yields non-positive wealth."""


class SingularSecondMoment(ValidationError):
    """Sample second-moment matrix of returns is not positive definite."""


class NonFiniteIterate(CrraOptError):
    """A solver iterate became NaN or infinite."""


class StepIntoInfeasible(CrraOptError):
    """Backtracking could not find a step keeping all wealths positive."""


class NoMaximizer(CrraOptError):
    """The sampled utility rises without end along some weight direction."""


class NotConverged(CrraOptError):
    """Iteration budget exhausted before the stopping rule was met.

    The partial result is attached as ``report``.
    """

    def __init__(self, message: str, report):
        self.report = report
        super().__init__(message)


def require_int(name: str, value, least: int) -> int:
    """``value`` as an ``int``; :class:`ValidationError` unless it is an
    integer (a float, even a whole one, is not) of at least ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def require_positive(name: str, value: float) -> None:
    """Raise :class:`ValidationError` unless ``value`` is finite and > 0."""
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
