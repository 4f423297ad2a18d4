"""Gradient-ascent maximization of the sampled expected power utility.

The objective over a scenario set ``{R_i}`` is

    V0(w) = (1/N) sum_i (R_f + w'R_i)^(1-gamma) / (1-gamma),

with gradient ``(1/N) sum_i R_i / (R_f + w'R_i)^gamma`` and Hessian
``-(gamma/N) sum_i R_i R_i' / (R_f + w'R_i)^(1+gamma)``, which is negative
definite on the feasible region.  The iteration is fixed-step ascent in
the fixed metric of the sample second moment ``M2 = (1/N) sum_i R_i R_i'``,

    w(i+1) = w(i) + eta * lambda_max(M2) * M2^+ grad V0(w(i)),

started at zero (the all-risk-free portfolio) and stopped once the
gradient's norm in the same metric, ``sqrt(grad' M2^+ grad)``, falls to
``tol``; :class:`GdReport` gives that norm at the last iterate as
``stopping_residual``.  This is steepest ascent in the quadratic norm of
``M2``, stopped by the gradient's dual norm (Boyd & Vandenberghe, *Convex
Optimization* 9.4.1), still a first-order method: ``M2`` is factored once
per solve (``eigh``) and no Hessian is formed per step.  In ``M2``'s
eigenbasis the gradient's coordinate ``i`` is scaled by
``lambda_max / lambda_i``.  Along the top eigenvector the step is the
Euclidean ``eta * grad V0``, so ``eta`` keeps its units and its stable
range; every other direction makes the same relative progress, so the step
count no longer grows with the conditioning of ``M2``.  Directions with
``lambda_i <= k * eps * lambda_max``, which a rank-deficient sample has,
keep the Euclidean step, and the ascent converges along ``M2``'s span.
With ``M2 = c I``, or at k = 1, the step is the Euclidean one.

Stability: at ``w = 0`` with ``R_f = 1`` the Hessian is ``-gamma M2``,
so the auto step ``eta = 0.8 / (gamma lambda_max)`` of :func:`suggest_eta`
makes the update ``0.8 (gamma M2)^-1 grad V0``, which closes 80% of the
distance to the optimum in every direction of ``M2``'s span; the Euclidean
step closes only ``0.8 lambda_i / lambda_max`` of it along eigenvector
``i``.  An explicit ``eta`` is stable where the Euclidean step with the
same ``eta`` is, since both take the same step along the stiffest
direction.  Steps that would push some scenario wealth to zero or below
are halved (up to 60 times) before failing, which preserves feasibility.

Rescaling the returns, ``R -> cR``, maps the optimum to ``w / c``.  The
zero start, the auto step (which scales as ``1 / c^2``) and the stopping
norm (unchanged) then make the iterates ``w(i) / c`` to rounding, so the
step count and the stop do not depend on the units of the returns.  On the
paper's benchmark draw (N = 2e5) the ascent takes 10 steps per gamma.  gd
uses nothing of the Taylor solver: the two are independent columns of the
comparison.

The wealth ``R_f + w'R_i`` and the gradient's mean over scenarios are the
scenario set's own reductions (:class:`~crra_opt.simulation.ScenarioSet`),
which fix their summation order without BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonPositiveWealthScenario,
    NotConverged,
    SingularSecondMoment,
    StepIntoInfeasible,
    require_int,
    require_positive,
)
from .market import RiskAversion

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class GdConfig:
    """Fixed-step ascent settings.

    ``eta`` is the step along ``M2``'s stiffest direction (see the module
    docstring); ``None``, the default, takes the step :func:`suggest_eta`
    matches to the sampled curvature, and a number pins the step.  ``tol``
    bounds the stopping norm ``sqrt(grad' M2^+ grad)`` (directions off
    ``M2``'s span, where the step is Euclidean, count ``1 / lambda_max``),
    which, unlike the Euclidean gradient norm, does not change when the
    returns are rescaled.  ``eta`` and ``tol`` must be finite and positive
    and ``max_iter`` an integer >= 1, else :class:`ValidationError`.
    """

    eta: float | None = None
    tol: float = 1e-7
    max_iter: int = 100_000

    def __post_init__(self):
        if self.eta is not None:
            require_positive("eta", self.eta)
        require_positive("tol", self.tol)
        require_int("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class GdReport:
    """Ascent outcome; ``converged`` iff ``stopping_residual``, the
    gradient's norm in the step's metric (see :class:`GdConfig`) at the
    last iterate, is <= tol."""

    weights: np.ndarray
    iterations: int
    stopping_residual: float
    objective: float
    converged: bool


def _positive_wealth(scenarios, weights, gross_rf: float) -> np.ndarray:
    """Wealth ``R_f + w'R_i`` of every scenario; raises
    :class:`NonPositiveWealthScenario` naming the first one that is <= 0."""
    wealth = scenarios.wealth(weights, gross_rf)
    bad = wealth <= 0.0
    if bad.any():
        raise NonPositiveWealthScenario(int(np.argmax(bad)))
    return wealth


def _v0_from_wealth(wealth: np.ndarray, gamma: float) -> float:
    return float(np.sum(wealth ** (1.0 - gamma))) / wealth.shape[0] / (1.0 - gamma)


def v0(scenarios, weights, ra: RiskAversion, gross_rf: float) -> float:
    """Sampled expected power utility at the given weights.

    Raises :class:`NonPositiveWealthScenario` naming the first scenario with
    ``R_f + w'R_i <= 0``.
    """
    return _v0_from_wealth(_positive_wealth(scenarios, weights, gross_rf), ra.gamma)


def v0_gradient(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Gradient ``(1/N) sum_i R_i (R_f + w'R_i)^(-gamma)``."""
    wealth = _positive_wealth(scenarios, weights, gross_rf)
    return scenarios.weighted_mean(wealth ** (-ra.gamma))


def v0_hessian(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Hessian ``-(gamma/N) sum_i R_i R_i' (R_f + w'R_i)^(-(1+gamma))``.

    Negative definite wherever wealth stays positive; exposed for concavity
    diagnostics.
    """
    cols = scenarios.cols
    k, n = cols.shape
    wealth = _positive_wealth(scenarios, weights, gross_rf)
    np.power(wealth, -(1.0 + ra.gamma), out=wealth)
    # Row by row, the upper half only, through one length-N scratch buffer:
    # a three-operand einsum runs its generic slow loop, and (cols * v)
    # would hold a k x N temporary.
    scaled = np.empty(n)
    total = np.empty((k, k))
    for i in range(k):
        np.multiply(cols[i], wealth, out=scaled)
        total[i, i:] = np.einsum("lj,j->l", cols[i:], scaled)
        total[i + 1:, i] = total[i, i + 1:]
    return -(ra.gamma / n) * total


def suggest_eta(scenarios, ra: RiskAversion) -> float:
    """Curvature-matched learning rate ``0.8 / (gamma * lambda_max(M2))``.

    ``gamma M2``, with ``M2 = (1/N) sum_i R_i R_i'``, is the Hessian scale
    near the start of the ascent, so in :func:`gd_solve`'s metric this step
    is ``0.8 (gamma M2)^-1 grad V0``: stable, and orders of magnitude faster
    than a unit-scale ``eta`` when returns have small variance.  ``M2`` is
    the scenario set's cached ``m2``.
    """
    lam_max = float(np.linalg.eigvalsh(scenarios.m2)[-1])
    if lam_max <= 0.0:
        raise SingularSecondMoment("second-moment matrix has no positive eigenvalue")
    return 0.8 / (ra.gamma * lam_max)


def _metric(m2: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvectors ``V`` of ``M2``, the scale ``lambda_max / lambda_i`` of
    each (1 where ``lambda_i <= k * eps * lambda_max``) and ``lambda_max``:
    the step direction is ``V (scale * V'g)`` and the stopping norm
    ``sqrt(sum(scale * (V'g)^2) / lambda_max)``.  An all-zero ``M2``, whose
    scenarios give a zero gradient everywhere, takes ``lambda_max = 1``."""
    lam, vecs = np.linalg.eigh(m2)
    scale = np.ones_like(lam)
    resolved = lam > lam.shape[0] * np.finfo(float).eps * lam[-1]
    scale[resolved] = lam[-1] / lam[resolved]
    return vecs, scale, float(lam[-1]) if lam[-1] > 0.0 else 1.0


def gd_solve(scenarios, ra: RiskAversion, gross_rf: float, cfg: GdConfig | None = None) -> GdReport:
    """Run the fixed-step ascent of the module docstring from zero.

    Returns a converged :class:`GdReport`; raises :class:`NotConverged`,
    with the partial report attached, if ``max_iter`` steps do not bring
    the stopping norm to ``tol``, and :class:`StepIntoInfeasible` if step
    halving cannot keep every scenario wealth positive.
    """
    cfg = cfg or GdConfig()
    eta = cfg.eta if cfg.eta is not None else suggest_eta(scenarios, ra)
    w = np.zeros(scenarios.k)
    wealth = _positive_wealth(scenarios, w, gross_rf)
    vecs, scale, lam_max = _metric(scenarios.m2)

    steps = 0
    while True:
        grad = scenarios.weighted_mean(wealth ** (-ra.gamma))
        # einsum, not BLAS, so the step cannot depend on BLAS threads.
        proj = np.einsum("ji,j->i", vecs, grad)
        coords = scale * proj
        norm = math.sqrt(float(np.einsum("i,i->", coords, proj)) / lam_max)
        if norm <= cfg.tol or steps >= cfg.max_iter:
            break
        step = eta * np.einsum("ij,j->i", vecs, coords)
        for _ in range(MAX_BACKTRACKS + 1):
            cand = w + step
            cand_wealth = scenarios.wealth(cand, gross_rf)
            if cand_wealth.min() > 0.0:
                break
            step = 0.5 * step
        else:
            raise StepIntoInfeasible(
                f"no feasible step after {MAX_BACKTRACKS} halvings at iteration {steps}"
            )
        w, wealth = cand, cand_wealth
        steps += 1
    report = GdReport(weights=w, iterations=steps, stopping_residual=norm,
                      objective=_v0_from_wealth(wealth, ra.gamma), converged=norm <= cfg.tol)
    if report.converged:
        return report
    raise NotConverged(
        f"gradient norm {norm:.3e} > tol {cfg.tol:.3e} after {steps} iterations", report)
