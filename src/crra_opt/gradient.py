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
Optimization* 9.4.1), still a first-order method: the metric is the
spectrum of ``M2`` that the scenario set computed once, and no Hessian is
formed per step, so this module factors no matrix.  In ``M2``'s
eigenbasis the gradient's coordinate ``i`` is scaled by
``lambda_max / lambda_i``.  Along the top eigenvector the step is the
Euclidean ``eta * grad V0``, so ``eta`` keeps its units and its stable
range; every other direction makes the same relative progress, so the step
count no longer grows with the conditioning of ``M2``.  Directions the set
does not resolve (``lambda_i <= k * eps * lambda_max``, see
:class:`~crra_opt.simulation.ScenarioSet`), which a rank-deficient sample
has, keep the Euclidean step (Taylor refuses such a set), and the ascent
converges along ``M2``'s span.
With ``M2 = c I``, or at k = 1, the step is the Euclidean one.

Stability: at ``w = 0`` with ``R_f = 1`` the Hessian is ``-gamma M2``,
so the auto step ``eta = 0.8 / (gamma lambda_max)`` of :func:`suggest_eta`
makes the update ``0.8 (gamma M2)^-1 grad V0``, which closes 80% of the
distance to the optimum in every direction of ``M2``'s span; the Euclidean
step closes only ``0.8 lambda_i / lambda_max`` of it along eigenvector
``i``.  An explicit ``eta`` is stable where the Euclidean step with the
same ``eta`` is, since both take the same step along the stiffest
direction.  A step that would push some scenario wealth to zero or below
is halved (up to 60 times) before failing, which preserves feasibility:
a candidate's one ``v0_gradient`` pass is also its feasibility test.

Rescaling the returns, ``R -> cR``, maps the optimum to ``w / c``.  The
zero start, the auto step (which scales as ``1 / c^2``) and the stopping
norm (unchanged) then make the iterates ``w(i) / c`` to rounding, so the
step count and the stop do not depend on the units of the returns.  On the
paper's benchmark draw (N = 2e5) the ascent takes 10 steps per gamma.  gd
uses nothing of the Taylor solver: the two are independent columns of the
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteInput,
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


def v0(scenarios, weights, ra: RiskAversion, gross_rf: float) -> float:
    """Sampled expected power utility at the given weights; raises
    :class:`NonPositiveWealthScenario` naming the first scenario with
    ``R_f + w'R_i <= 0``, as :func:`v0_gradient` and :func:`v0_hessian` do."""
    lam = 1.0 - ra.gamma
    return float(scenarios.fold(weights, gross_rf, lambda x, block: np.sum(x ** lam),
                                positive=True)) / lam


def v0_gradient(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Gradient ``(1/N) sum_i R_i (R_f + w'R_i)^(-gamma)``."""
    return scenarios.fold(weights, gross_rf,
                          lambda x, block: np.einsum("ij,j->i", block, x ** (-ra.gamma)),
                          positive=True)


def v0_hessian(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Hessian ``-(gamma/N) sum_i R_i R_i' (R_f + w'R_i)^(-(1+gamma))``.

    Negative definite wherever wealth stays positive; exposed for concavity
    diagnostics.
    """
    def part(x, block):
        np.power(x, -(1.0 + ra.gamma), out=x)
        # Row by row, the upper half only: a three-operand einsum runs its
        # generic slow loop, and (block * x) would hold a k x B temporary.
        total = np.empty((block.shape[0],) * 2)
        for i in range(block.shape[0]):
            total[i, i:] = np.einsum("lj,j->l", block[i:], block[i] * x)
            total[i + 1:, i] = total[i, i + 1:]
        return total

    return -ra.gamma * scenarios.fold(weights, gross_rf, part, positive=True)


def suggest_eta(scenarios, ra: RiskAversion) -> float:
    """Curvature-matched learning rate ``0.8 / (gamma * lambda_max(M2))``.

    ``gamma M2``, with ``M2 = (1/N) sum_i R_i R_i'``, is the Hessian scale
    near the start of the ascent, so in :func:`gd_solve`'s metric this step
    is ``0.8 (gamma M2)^-1 grad V0``: stable, and orders of magnitude faster
    than a unit-scale ``eta`` when returns have small variance.
    ``lambda_max`` is the last of the scenario set's cached ``m2_eigvals``.
    """
    lam_max = float(scenarios.m2_eigvals[-1])
    if lam_max <= 0.0:
        raise SingularSecondMoment("second-moment matrix has no positive eigenvalue")
    return 0.8 / (ra.gamma * lam_max)


def _metric(scenarios) -> tuple[np.ndarray, np.ndarray, float]:
    """From the set's cached spectrum of ``M2``: the eigenvectors ``V``, the
    scale ``lambda_max / lambda_i`` of each (1 where the set leaves the
    direction unresolved) and ``lambda_max``.  The step direction is
    ``V (scale * V'g)`` and the stopping norm
    ``sqrt(sum(scale * (V'g)^2) / lambda_max)``.  An all-zero ``M2``, whose
    scenarios give a zero gradient everywhere, takes ``lambda_max = 1``."""
    lam, resolved = scenarios.m2_eigvals, scenarios.m2_resolved
    scale = np.ones_like(lam)
    scale[resolved] = lam[-1] / lam[resolved]
    return scenarios.m2_eigvecs, scale, float(lam[-1]) if lam[-1] > 0.0 else 1.0


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
    grad = v0_gradient(scenarios, w, ra, gross_rf)
    vecs, scale, lam_max = _metric(scenarios)

    steps = 0
    while True:
        # einsum, not BLAS, so the step cannot depend on BLAS threads.
        proj = np.einsum("ji,j->i", vecs, grad)
        coords = scale * proj
        norm = math.sqrt(float(np.einsum("i,i->", coords, proj)) / lam_max)
        if norm <= cfg.tol or steps >= cfg.max_iter:
            break
        step = eta * np.einsum("ij,j->i", vecs, coords)
        for _ in range(MAX_BACKTRACKS + 1):
            try:
                grad = v0_gradient(scenarios, w + step, ra, gross_rf)
                break
            except (NonPositiveWealthScenario, NonFiniteInput):  # or an overflowed step
                step = 0.5 * step
        else:
            raise StepIntoInfeasible(
                f"no feasible step after {MAX_BACKTRACKS} halvings at iteration {steps}")
        w = w + step
        steps += 1
    report = GdReport(weights=w, iterations=steps, stopping_residual=norm,
                      objective=v0(scenarios, w, ra, gross_rf), converged=norm <= cfg.tol)
    if report.converged:
        return report
    raise NotConverged(
        f"gradient norm {norm:.3e} > tol {cfg.tol:.3e} after {steps} iterations", report)
