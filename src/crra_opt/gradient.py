"""Gradient-ascent maximization of the sampled expected power utility.

The objective over a scenario set ``{R_i}`` is

    V0(w) = (1/N) sum_i (R_f + w'R_i)^(1-gamma) / (1-gamma),

with gradient ``(1/N) sum_i R_i / (R_f + w'R_i)^gamma`` and Hessian
``-(gamma/N) sum_i R_i R_i' / (R_f + w'R_i)^(1+gamma)``, which is negative
definite on the feasible region.  The iteration is fixed-step ascent in
the fixed metric of the sample second moment ``M2 = (1/N) sum_i R_i R_i'``,

    w(i+1) = w(i) + eta * lambda_max(M2) * M2^+ grad V0(w(i)),

stopped once the Euclidean gradient norm falls below ``tol``.  This is
steepest ascent in the quadratic norm of ``M2`` (Boyd & Vandenberghe,
*Convex Optimization* 9.4.1), still a first-order method: ``M2`` is
factored once per solve (``eigh``) and no Hessian is formed per step.  In
``M2``'s eigenbasis the gradient's coordinate ``i`` is scaled by
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

By default the ascent starts at the fourth-order expansion weights of
:func:`~crra_opt.taylor.taylor_solve`, which lie next to the sampled
optimum (see :func:`with_taylor_start` for the fallback to zero); on the
paper's benchmark draw (N = 2e5) it then needs 3-4 steps per gamma
against 9 from zero.  gd's answer depends on the Taylor weights only
through this start: it still stops by its own gradient-norm rule, so the
Taylor error does not carry over.  ``compare`` and ``solve --method all``
solve Taylor once per gamma and start gd from that answer.

The wealth ``R_f + w'R_i`` and the gradient's mean over scenarios are the
scenario set's own reductions (:class:`~crra_opt.simulation.ScenarioSet`),
which fix their summation order without BLAS.

The same ascent applies to any concave utility: replace the power kernel in
the gradient by ``U'(W0 (R_f + w'R_i)) R_i`` and the Hessian stays negative
definite by concavity of U.  This module pins the power-utility instance;
the hooks above are the extension point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CrraOptError,
    NonPositiveWealthScenario,
    NotConverged,
    StepIntoInfeasible,
    ValidationError,
)
from .market import RiskAversion
from .taylor import TaylorConfig, taylor_solve

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class GdConfig:
    """Fixed-step ascent settings.

    ``eta`` is the step along ``M2``'s stiffest direction (the top
    eigenvector of the sample second moment); every other direction is
    scaled to the same relative progress, as the module docstring says.
    ``eta=None``, the default, takes the step :func:`suggest_eta` matches
    to the sampled curvature; a number pins the step.
    ``initial_weights=None`` starts from the fourth-order expansion weights,
    which lie next to the sampled optimum: :func:`gd_solve` runs
    ``taylor_solve`` with its default :class:`~crra_opt.taylor.TaylorConfig`,
    while ``solve_method``, ``compare`` and the CLI use the run's own
    ``TaylorConfig``.  When that solve fails, or its weights leave some
    scenario wealth at or below zero, the start is the all risk-free
    portfolio (the zero vector), which is always feasible
    (:func:`with_taylor_start`).  Either way only the start moves: the steps
    and the stopping rule are gd's own.
    """

    eta: float | None = None
    tol: float = 1e-8
    max_iter: int = 100_000
    initial_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.eta is not None and not self.eta > 0.0:
            raise ValidationError(f"eta must be positive, got {self.eta}")
        if not self.tol > 0.0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.initial_weights is not None:
            w = np.array(self.initial_weights, dtype=float)
            w.setflags(write=False)
            object.__setattr__(self, "initial_weights", w)


@dataclass(frozen=True)
class GdReport:
    """Ascent outcome; ``converged`` iff the final gradient norm is <= tol."""

    weights: np.ndarray
    iterations: int
    final_gradient_norm: float
    objective: float
    converged: bool


def _require_positive(wealth: np.ndarray) -> None:
    bad = wealth <= 0.0
    if bad.any():
        raise NonPositiveWealthScenario(int(np.argmax(bad)))


def _v0_from_wealth(wealth: np.ndarray, gamma: float) -> float:
    return float(np.sum(wealth ** (1.0 - gamma))) / wealth.shape[0] / (1.0 - gamma)


def v0(scenarios, weights, ra: RiskAversion, gross_rf: float) -> float:
    """Sampled expected power utility at the given weights.

    Raises :class:`NonPositiveWealthScenario` naming the first scenario with
    ``R_f + w'R_i <= 0``.
    """
    wealth = scenarios.wealth(np.asarray(weights, dtype=float), gross_rf)
    _require_positive(wealth)
    return _v0_from_wealth(wealth, ra.gamma)


def v0_gradient(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Gradient ``(1/N) sum_i R_i (R_f + w'R_i)^(-gamma)``."""
    wealth = scenarios.wealth(np.asarray(weights, dtype=float), gross_rf)
    _require_positive(wealth)
    return scenarios.weighted_mean(wealth ** (-ra.gamma))


def v0_hessian(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Hessian ``-(gamma/N) sum_i R_i R_i' (R_f + w'R_i)^(-(1+gamma))``.

    Negative definite wherever wealth stays positive; exposed for concavity
    diagnostics.
    """
    cols = scenarios.cols
    k, n = cols.shape
    wealth = scenarios.wealth(np.asarray(weights, dtype=float), gross_rf)
    _require_positive(wealth)
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
        raise ValueError("second-moment matrix has no positive eigenvalue")
    return 0.8 / (ra.gamma * lam_max)


def with_taylor_start(cfg: GdConfig | None, scenarios, gross_rf: float,
                      taylor_weights: np.ndarray | None) -> GdConfig:
    """``cfg`` (``GdConfig()`` if None) with its start made explicit.

    An ``initial_weights`` of its own is kept.  Otherwise the start is
    ``taylor_weights``, the Taylor fixed point, when every scenario wealth
    ``R_f + w'R_i`` is positive there, else zero; also zero when the Taylor
    solve failed (``taylor_weights`` None).  This is the only place that
    chooses gd's default start.
    """
    cfg = cfg or GdConfig()
    if cfg.initial_weights is not None:
        return cfg
    if taylor_weights is None or not scenarios.wealth(taylor_weights, gross_rf).min() > 0.0:
        taylor_weights = np.zeros(scenarios.k)
    return replace(cfg, initial_weights=taylor_weights)


def with_solved_taylor_start(cfg: GdConfig | None, scenarios, ra: RiskAversion,
                             gross_rf: float, taylor_cfg: TaylorConfig | None = None) -> GdConfig:
    """:func:`with_taylor_start` after a ``taylor_solve`` under
    ``taylor_cfg``, which runs only when ``cfg`` has no start of its own
    and counts as failed when it raises a :class:`CrraOptError`."""
    if cfg is not None and cfg.initial_weights is not None:
        return cfg
    try:
        taylor_weights = taylor_solve(scenarios, ra, gross_rf, taylor_cfg).weights
    except CrraOptError:
        taylor_weights = None
    return with_taylor_start(cfg, scenarios, gross_rf, taylor_weights)


def _metric(m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors ``V`` of ``M2`` and the scale ``lambda_max / lambda_i``
    of each, 1 where ``lambda_i <= k * eps * lambda_max``; the step
    direction is ``V (scale * V'g)``."""
    lam, vecs = np.linalg.eigh(m2)
    scale = np.ones_like(lam)
    resolved = lam > lam.shape[0] * np.finfo(float).eps * lam[-1]
    scale[resolved] = lam[-1] / lam[resolved]
    return vecs, scale


def gd_solve(scenarios, ra: RiskAversion, gross_rf: float, cfg: GdConfig | None = None) -> GdReport:
    """Run fixed-step gradient ascent on the sampled utility.

    Each step is ``eta * lambda_max(M2) * M2^+ grad V0`` in the metric of
    the cached sample second moment, as the module docstring describes.
    The ascent starts at ``cfg.initial_weights``, or, when that is None, at
    the Taylor fixed point or zero as :class:`GdConfig` describes.  Returns
    a converged :class:`GdReport`; raises :class:`NotConverged`
    (with the partial report attached) if ``max_iter`` steps do not bring
    the gradient norm below ``tol``, and :class:`StepIntoInfeasible` if step
    halving cannot keep every scenario wealth positive.
    """
    cfg = with_solved_taylor_start(cfg, scenarios, ra, gross_rf)
    eta = cfg.eta if cfg.eta is not None else suggest_eta(scenarios, ra)
    w = np.array(cfg.initial_weights, dtype=float)
    wealth = scenarios.wealth(w, gross_rf)
    _require_positive(wealth)
    vecs, scale = _metric(scenarios.m2)

    steps = 0
    while True:
        grad = scenarios.weighted_mean(wealth ** (-ra.gamma))
        norm = float(np.linalg.norm(grad))
        if norm <= cfg.tol:
            return GdReport(
                weights=w, iterations=steps, final_gradient_norm=norm,
                objective=_v0_from_wealth(wealth, ra.gamma), converged=True,
            )
        if steps >= cfg.max_iter:
            report = GdReport(
                weights=w, iterations=steps, final_gradient_norm=norm,
                objective=_v0_from_wealth(wealth, ra.gamma), converged=False,
            )
            raise NotConverged(
                f"gradient norm {norm:.3e} > tol {cfg.tol:.3e} after {steps} iterations",
                report,
            )
        # einsum, not BLAS, so the step cannot depend on BLAS threads.
        coords = scale * np.einsum("ji,j->i", vecs, grad)
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
