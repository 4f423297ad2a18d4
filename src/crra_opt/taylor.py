"""Fourth-order expansion benchmark solver (fixed-point iteration).

Expanding the marginal utility of final wealth to fourth order and solving
the resulting first-order condition gives the update

    w(i+1) = (1/gamma) M2^-1 [ R_f m1
             + gamma(gamma+1)/(2 R_f)       * (1/N) sum (w'R_i)^2 R_i
             - gamma(gamma+1)(gamma+2)/(6 R_f^2) * (1/N) sum (w'R_i)^3 R_i ],

where ``M2 = (1/N) sum R_i R_i'`` and ``m1 = (1/N) sum R_i`` are sample
moments of the shared scenario set.  The zero-weight instance of the update,
``taylor_step`` at ``w = 0``, is the standard starting point
``(R_f/gamma) M2^-1 m1``; iterating to a fixed point yields the benchmark
weights, and the last update's length is the report's ``stopping_residual``.
The start, like every update, reads only the scenario set: there is no
variant built on the population moments ``(mu, sigma)``.

``M2`` and ``m1`` are the scenario set's moments, shared with
``suggest_eta``; ``M2`` is factored once per solve and reused.  The
excess wealth ``w'R_i`` and the two sums of each update are the scenario
set's own reductions; a solve allocates the two length-N arrays they work
in once, and every update overwrites them.  Expectations are estimated on
the same scenario set used by the other solvers, which removes
cross-method sampling noise from comparisons.  An update that overflows
raises :class:`NonFiniteIterate` and no numpy warning, also where warnings
are errors: the solver's own checks report the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteIterate,
    NotConverged,
    SingularSecondMoment,
    require_int,
    require_positive,
)
from .market import RiskAversion, cho_solve


@dataclass(frozen=True)
class TaylorConfig:
    """Fixed-point stopping rule: quit once ``||w(i+1) - w(i)|| <= tol``.
    ``tol`` must be finite and positive and ``max_iter`` an integer >= 1,
    else :class:`ValidationError`."""

    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        require_positive("tol", self.tol)
        require_int("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class TaylorReport:
    """Fixed-point outcome; ``converged`` iff ``stopping_residual``, the
    last update's length ``||w(i+1) - w(i)||``, is <= tol."""

    weights: np.ndarray
    iterations: int
    stopping_residual: float
    converged: bool


def _m2_factor(scenarios) -> np.ndarray:
    """Lower Cholesky factor of the scenario set's M2, for ``cho_solve``.

    M2 counts as singular when the factorization fails or its smallest
    squared pivot is at most ``k * eps * max(diag(M2))``: the size of the
    rounding error left in a pivot, relative to the scale of M2.  A
    rank-deficient sample then fails whatever its scale or row order,
    instead of depending on whether rounding leaves a tiny positive pivot.
    """
    m2 = scenarios.m2
    try:
        factor = np.linalg.cholesky(m2)
    except np.linalg.LinAlgError:
        factor = None
    k = m2.shape[0]
    if factor is None or (
        np.min(np.diag(factor)) ** 2 <= k * np.finfo(float).eps * np.max(np.diag(m2))
    ):
        raise SingularSecondMoment("sample second-moment matrix is not positive definite")
    return factor


def _step(scenarios, factor, ra: RiskAversion, gross_rf: float, w: np.ndarray,
          x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """One update; overwrites the length-N work arrays ``x`` and ``x2``."""
    g = ra.gamma
    scenarios.excess(w, out=x)
    np.multiply(x, x, out=x2)
    quad = scenarios.weighted_mean(x2)
    x2 *= x
    cube = scenarios.weighted_mean(x2)
    rhs = (
        gross_rf * scenarios.m1
        + (g * (g + 1.0) / (2.0 * gross_rf)) * quad
        - (g * (g + 1.0) * (g + 2.0) / (6.0 * gross_rf**2)) * cube
    )
    out = cho_solve(factor, rhs) / g
    if not np.isfinite(out).all():
        raise NonFiniteIterate(f"fixed-point update produced non-finite weights: {out}")
    return out


@np.errstate(over="ignore", invalid="ignore")
def taylor_step(scenarios, ra: RiskAversion, gross_rf: float, w: np.ndarray) -> np.ndarray:
    """One fixed-point update of the fourth-order expansion weights; at
    ``w = 0`` it gives the starting point ``(R_f / gamma) M2^-1 m1``."""
    return _step(scenarios, _m2_factor(scenarios), ra, gross_rf, w, np.empty(scenarios.n),
                 np.empty(scenarios.n))


@np.errstate(over="ignore", invalid="ignore")
def taylor_solve(
    scenarios,
    ra: RiskAversion,
    gross_rf: float,
    cfg: TaylorConfig | None = None,
) -> TaylorReport:
    """Iterate the fixed-point update from the sample starting point.

    Stops, converged, once an undamped update ``||w(i+1) - w(i)||`` is at
    most ``cfg.tol``.  Raises :class:`NotConverged` with the partial report
    when ``max_iter`` updates do not get there, as in a market where the
    update does not contract.
    """
    cfg = cfg or TaylorConfig()
    factor = _m2_factor(scenarios)
    work = np.empty(scenarios.n), np.empty(scenarios.n)
    w = _step(scenarios, factor, ra, gross_rf, np.zeros(scenarios.k), *work)
    for iteration in range(1, cfg.max_iter + 1):
        update = _step(scenarios, factor, ra, gross_rf, w, *work) - w
        delta = float(np.linalg.norm(update))
        w = w + update
        if delta <= cfg.tol:
            break
    report = TaylorReport(weights=w, iterations=iteration, stopping_residual=delta,
                          converged=delta <= cfg.tol)
    if report.converged:
        return report
    raise NotConverged(
        f"fixed-point step {delta:.3e} > tol {cfg.tol:.3e} after {iteration} iterations", report)
