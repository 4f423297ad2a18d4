"""Closed-form power-utility weights under a log-normal gross-return proxy.

For excess returns ``R ~ N(mu, sigma)`` the gross portfolio return
``R_f + w'R`` is normal; replacing it by the matched log-normal
``logN(ln(R_f + w'mu), w'sigma w / (R_f + w'mu)^2)`` makes the expected
power utility available in closed form.  Maximizing it reduces to the
scalar quadratic first-order condition

    (R_f + c J)^2 + (1 - gamma) c R_f = 0,      J = mu' sigma^-1 mu,

whose admissible solution exists for ``gamma >= 1 + 4 J`` and yields
weights ``w* = c sigma^-1 mu``.  This module implements that solution,
whose mean and variance trace the frontier, and its companion quantities:
the reduced objective ``G``, the approximate expected utility and the
tangency portfolio, all from the market's one ``sigma^-1 mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMu, NonPositiveGrossMean, SingularDenominator
from .market import MarketParams, RiskAversion, as_weights, require_admissible_gamma

D_CLAMP = 1e-14     # discriminant values below D_CLAMP, negative ones too, are treated as 0
J_MIN = 1e-14       # below this, mu is considered degenerate


@dataclass(frozen=True)
class ClosedFormSolution:
    """Closed-form weights ``c * sigma^-1 mu`` plus diagnostics.

    ``(expected_excess_return, variance)`` is the frontier point, on the
    parabola ``mean^2 = J * variance``.  ``foc_residual`` is
    ``(R_f + cJ)^2 + (1-gamma) c R_f`` at the returned scale; it is zero up
    to rounding for any valid solution.
    """

    weights: np.ndarray
    c: float
    J: float
    D: float
    gamma: float
    expected_excess_return: float
    variance: float
    foc_residual: float


@dataclass(frozen=True)
class TangencyResult:
    """Fully-risky portfolio (weights sum to one) and the risk aversion
    at which the closed-form solution holds it."""

    weights: np.ndarray
    gamma_tgc: float


def _scale_root(J: float, gamma: float, gross_rf: float):
    """The smaller root ``c`` of the first-order condition, in
    cancellation-free form, and the discriminant ``D``.

    The quadratic ``J^2 c^2 + (2 R_f J + (1-gamma) R_f) c + R_f^2 = 0`` has
    roots ``c_± = R_f (a - J ± sqrt(D)) / J^2`` with ``a = (gamma-1)/2`` and
    ``D = a^2 - (gamma-1) J``.  The minus root is rewritten through the root
    product ``c_+ c_- = R_f^2 / J^2`` as ``R_f / (a - J + sqrt(D))``, which
    avoids the catastrophic cancellation of the textbook form when J is
    small.

    ``D < D_CLAMP`` is treated as an exact double root: after the bound test, a
    negative D is rounding within ``BOUND_TOL`` of the bound, and a tiny positive
    one rounding noise (~1e-18) whose square root would skew c at ~1e-8 relative.
    """
    a = (gamma - 1.0) / 2.0
    d = a * a - (gamma - 1.0) * J
    if d < D_CLAMP:
        d = 0.0
    return gross_rf / (a - J + math.sqrt(d)), d


def solve_analytical(p: MarketParams, ra: RiskAversion) -> ClosedFormSolution:
    """Closed-form optimal weights for ``gamma >= 1 + 4J``.

    Selects the smaller root of the first-order condition, which carries the
    higher value of the reduced objective ``G`` whenever both roots are
    admissible.  Equality ``gamma = 1 + 4J`` is accepted (double root, D=0).

    Raises
    ------
    GammaBelowBound
        If ``gamma < 1 + 4J`` beyond ``market.BOUND_TOL``; carries the bound.
    DegenerateMu
        If ``J <= J_MIN`` (the weight scale divides by J).
    """
    if p.J <= J_MIN:
        raise DegenerateMu(f"mu' sigma^-1 mu = {p.J:.3e} is numerically zero")
    gamma = ra.gamma
    require_admissible_gamma(p, gamma)
    c, d = _scale_root(p.J, gamma, p.gross_rf)
    weights = c * p.sigma_inv_mu
    mean = float(weights @ p.mu)
    variance = float(weights @ p.sigma @ weights)
    foc = (p.gross_rf + c * p.J) ** 2 + (1.0 - gamma) * c * p.gross_rf
    return ClosedFormSolution(
        weights=weights, c=c, J=p.J, D=d, gamma=gamma,
        expected_excess_return=mean, variance=variance, foc_residual=float(foc),
    )


def objective_g(p: MarketParams, weights: np.ndarray, ra: RiskAversion) -> float:
    """Reduced maximization objective
    ``G(w) = ln(R_f + w'mu) + (1-gamma)/2 * w'sigma w / (R_f + w'mu)^2``.

    Maximizing G is equivalent to maximizing the approximate expected
    utility: the two differ by a monotone transform.
    """
    w, m = _weights_and_gross_mean(p, weights)
    quad = float(w @ p.sigma @ w)
    return math.log(m) + 0.5 * (1.0 - ra.gamma) * quad / (m * m)


def objective_g_gradient(p: MarketParams, weights: np.ndarray, ra: RiskAversion) -> np.ndarray:
    """Analytic gradient of :func:`objective_g`:
    ``mu/m + (1-gamma) [sigma w * m - (w'sigma w) mu] / m^3`` with
    ``m = R_f + w'mu``."""
    w, m = _weights_and_gross_mean(p, weights)
    sw = p.sigma @ w
    quad = float(w @ sw)
    return p.mu / m + (1.0 - ra.gamma) * (sw * m - quad * p.mu) / m**3


def approx_expected_utility(p: MarketParams, weights: np.ndarray, ra: RiskAversion) -> float:
    """Log-normal approximation of ``E[U(W)]`` at the given weights and unit initial wealth.

    Uses the closed-form moment of a log-normal variable,
    ``E[X^lam] = exp(alpha lam + beta^2 lam^2 / 2)`` for
    ``X ~ logN(alpha, beta^2)``, applied to the matched gross return:

    ``1/(1-gamma) * exp[(1-gamma) ln(R_f + w'mu)
    + (1-gamma)^2/2 * w'sigma w / (R_f + w'mu)^2]``.  Initial wealth ``W0``
    would only scale this by ``W0^(1-gamma) > 0``, moving no maximizer.
    """
    w, m = _weights_and_gross_mean(p, weights)
    lam = 1.0 - ra.gamma
    quad = float(w @ p.sigma @ w)
    exponent = lam * math.log(m) + 0.5 * lam * lam * quad / (m * m)
    return 1.0 / lam * math.exp(exponent)


def tangency(p: MarketParams) -> TangencyResult:
    """Fully-risky portfolio ``sigma^-1 mu / (1' sigma^-1 mu)``.

    ``gamma_tgc = (J / s + R_f)^2 * s / R_f + 1`` with ``s = 1' sigma^-1 mu``
    is the risk aversion at which the closed-form solution invests nothing in
    the risk-free asset; whenever ``s > 0`` it satisfies ``gamma_tgc >= 1 + 4J``,
    and no admissible gamma holds it when ``s < 0``, since ``sum(w*) = c s``
    with ``c > 0``.  :class:`SingularDenominator` refuses ``s`` as not positive
    when ``s <= k * eps * sum |sigma^-1 mu|``, the rounding its sum can carry,
    so the test does not depend on the units of the returns.
    """
    s = float(p.sigma_inv_mu.sum())
    if s <= p.k * np.finfo(float).eps * float(np.abs(p.sigma_inv_mu).sum()):
        raise SingularDenominator(f"1' sigma^-1 mu = {s:.3e} is not numerically positive")
    a = p.J / s + p.gross_rf
    try:
        a2s = a**2 * s
    except OverflowError:  # a^2 alone overflows, where a^2 s need not
        a2s = a * (a * s)
    gamma_tgc = a2s / p.gross_rf + 1.0
    return TangencyResult(weights=p.sigma_inv_mu / s, gamma_tgc=gamma_tgc)


def _weights_and_gross_mean(p: MarketParams, weights) -> tuple[np.ndarray, float]:
    """The checked weights (:func:`~crra_opt.market.as_weights`) and
    ``m = R_f + w'mu``, which must be positive."""
    w = as_weights(weights, p.k)
    m = p.gross_rf + float(w @ p.mu)
    if m <= 0.0:
        raise NonPositiveGrossMean(f"R_f + w'mu = {m:.6g} must be positive")
    return w, m
