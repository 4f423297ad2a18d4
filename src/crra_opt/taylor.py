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

``M2`` and ``m1`` are the scenario set's moments, shared with gd.  Each
update solves ``M2 x = rhs`` as ``V (V'rhs / lambda)`` in the eigenbasis
that the set computed once, with ``np.einsum`` rather than BLAS; a set with
a direction it does not resolve, one along which gd keeps the Euclidean
step, raises :class:`SingularSecondMoment`.  Both sums of an update come
from one :meth:`~crra_opt.simulation.ScenarioSet.fold` pass.  An update
that overflows raises :class:`NonFiniteIterate` and no numpy warning, also
where warnings are errors: the solver's own checks report the failure.
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
from .market import RiskAversion


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


def _sums(x, block) -> np.ndarray:
    """The block's ``sum_i (w'R_i)^2 R_i`` and ``sum_i (w'R_i)^3 R_i``, stacked."""
    x2 = x * x
    quad = np.einsum("ij,j->i", block, x2)
    x2 *= x
    return np.stack((quad, np.einsum("ij,j->i", block, x2)))


@np.errstate(over="ignore", invalid="ignore")
def taylor_step(scenarios, ra: RiskAversion, gross_rf: float, w: np.ndarray) -> np.ndarray:
    """One fixed-point update of the fourth-order expansion weights, from
    one pass over the scenarios; at ``w = 0`` it gives the starting point
    ``(R_f / gamma) M2^-1 m1``."""
    if not scenarios.m2_resolved.all():
        raise SingularSecondMoment("sample second-moment matrix is not positive definite")
    g = ra.gamma
    quad, cube = scenarios.fold(w, 0.0, _sums)
    rhs = (
        gross_rf * scenarios.m1
        + (g * (g + 1.0) / (2.0 * gross_rf)) * quad
        - (g * (g + 1.0) * (g + 2.0) / (6.0 * gross_rf**2)) * cube
    )
    vecs = scenarios.m2_eigvecs
    coords = np.einsum("ji,j->i", vecs, rhs) / scenarios.m2_eigvals
    out = np.einsum("ij,j->i", vecs, coords) / g
    if not np.isfinite(out).all():
        raise NonFiniteIterate(f"fixed-point update produced non-finite weights: {out}")
    return out


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
    w = taylor_step(scenarios, ra, gross_rf, np.zeros(scenarios.k))
    for iteration in range(1, cfg.max_iter + 1):
        update = taylor_step(scenarios, ra, gross_rf, w) - w
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
