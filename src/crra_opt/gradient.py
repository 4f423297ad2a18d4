"""Gradient-ascent maximization of the sampled expected power utility.

The objective over a scenario set ``{R_i}`` is

    V0(w) = (1/N) sum_i (R_f + w'R_i)^(1-gamma) / (1-gamma),

with gradient ``(1/N) sum_i R_i / (R_f + w'R_i)^gamma`` and Hessian
``-(gamma/N) sum_i R_i R_i' / (R_f + w'R_i)^(1+gamma)``, which is negative
definite on the feasible region, so fixed-step ascent converges for any
stable learning rate.  The iteration is

    w(i+1) = w(i) + eta * grad V0(w(i)),

stopped once the Euclidean gradient norm falls below ``tol``.  Steps that
would push some scenario wealth to zero or below are halved (up to 60
times) before failing, which preserves both feasibility and ascent.

By default the ascent starts at the fourth-order expansion weights of
:func:`~crra_opt.taylor.taylor_solve`, which lie next to the sampled
optimum (see :class:`GdConfig` for the fallback to zero); on the benchmark
market it then needs about a third of the steps a zero start needs.  gd's
answer depends on the Taylor weights only through this start: it still
stops by its own gradient-norm rule, so the Taylor error does not carry
over.

Scenarios are read from the ``(k, N)`` array ``ScenarioSet.cols``.  Every
length-N operation is a single ``np.einsum`` or ``np.sum`` over contiguous
rows, never a BLAS product, so its summation order is fixed by numpy alone
and reports are bit-identical under any BLAS thread count.  This includes
the wealth ``R_f + w'R_i``, a k-term sum per scenario computed as
``einsum("i,ij->j", w, cols)``: no step wakes BLAS's thread pool, so
solvers running in several threads at once do not compete with it.

The same ascent applies to any concave utility: replace the power kernel in
the gradient by ``U'(W0 (R_f + w'R_i)) R_i`` and the Hessian stays negative
definite by concavity of U.  This module pins the power-utility instance;
the hooks above are the extension point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CrraOptError,
    NonPositiveWealthScenario,
    NotConverged,
    StepIntoInfeasible,
    ValidationError,
)
from .market import RiskAversion
from .taylor import taylor_solve

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class GdConfig:
    """Fixed-step ascent settings.

    ``eta=0.1`` is the customary default; ``eta=None`` (auto) takes the step
    :func:`suggest_eta` matches to the sampled curvature, for markets whose
    covariance is far from unit scale.  ``initial_weights=None`` starts from
    the fourth-order expansion weights, ``taylor_solve`` with its default
    :class:`~crra_opt.taylor.TaylorConfig`, which lie next to the sampled
    optimum; when that solve fails, or its weights leave some scenario
    wealth at or below zero, the start is the all risk-free portfolio (the
    zero vector), which is always feasible.  Either way only the start
    moves: the steps and the stopping rule are gd's own.
    """

    eta: float | None = 0.1
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


def _wealth(cols: np.ndarray, weights: np.ndarray, gross_rf: float) -> np.ndarray:
    wealth = np.einsum("i,ij->j", weights, cols)
    wealth += gross_rf
    return wealth


def _require_positive(wealth: np.ndarray) -> None:
    bad = wealth <= 0.0
    if bad.any():
        raise NonPositiveWealthScenario(int(np.argmax(bad)))


def _v0_from_wealth(wealth: np.ndarray, gamma: float) -> float:
    return float(np.sum(wealth ** (1.0 - gamma))) / wealth.shape[0] / (1.0 - gamma)


def _gradient_from_wealth(cols: np.ndarray, wealth: np.ndarray, gamma: float) -> np.ndarray:
    return np.einsum("ij,j->i", cols, wealth ** (-gamma)) / wealth.shape[0]


def v0(scenarios, weights, ra: RiskAversion, gross_rf: float) -> float:
    """Sampled expected power utility at the given weights.

    Raises :class:`NonPositiveWealthScenario` naming the first scenario with
    ``R_f + w'R_i <= 0``.
    """
    wealth = _wealth(scenarios.cols, np.asarray(weights, dtype=float), gross_rf)
    _require_positive(wealth)
    return _v0_from_wealth(wealth, ra.gamma)


def v0_gradient(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Gradient ``(1/N) sum_i R_i (R_f + w'R_i)^(-gamma)``."""
    wealth = _wealth(scenarios.cols, np.asarray(weights, dtype=float), gross_rf)
    _require_positive(wealth)
    return _gradient_from_wealth(scenarios.cols, wealth, ra.gamma)


def v0_hessian(scenarios, weights, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Hessian ``-(gamma/N) sum_i R_i R_i' (R_f + w'R_i)^(-(1+gamma))``.

    Negative definite wherever wealth stays positive; exposed for concavity
    diagnostics.
    """
    cols = scenarios.cols
    wealth = _wealth(cols, np.asarray(weights, dtype=float), gross_rf)
    _require_positive(wealth)
    total = np.einsum("ij,j,lj->il", cols, wealth ** (-(1.0 + ra.gamma)), cols)
    return -(ra.gamma / wealth.shape[0]) * total


def suggest_eta(scenarios, ra: RiskAversion) -> float:
    """Curvature-matched learning rate ``0.8 / (gamma * lambda_max(M2))``.

    ``M2 = (1/N) sum_i R_i R_i'`` bounds the Hessian scale near the start of
    the ascent, so this step is stable while converging orders of magnitude
    faster than a unit-scale ``eta`` when returns have small variance.
    ``M2`` is the scenario set's cached ``m2``.
    """
    lam_max = float(np.linalg.eigvalsh(scenarios.m2)[-1])
    if lam_max <= 0.0:
        raise ValueError("second-moment matrix has no positive eigenvalue")
    return 0.8 / (ra.gamma * lam_max)


def _default_start(scenarios, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """The Taylor fixed point if it exists and is feasible, else zero."""
    try:
        w = taylor_solve(scenarios, ra, gross_rf).weights
    except CrraOptError:
        return np.zeros(scenarios.k)
    if _wealth(scenarios.cols, w, gross_rf).min() > 0.0:
        return w
    return np.zeros(scenarios.k)


def gd_solve(scenarios, ra: RiskAversion, gross_rf: float, cfg: GdConfig | None = None) -> GdReport:
    """Run fixed-step gradient ascent on the sampled utility, with the
    step of :func:`suggest_eta` when ``cfg.eta`` is None.

    The ascent starts at ``cfg.initial_weights``, or, when that is None, at
    the Taylor fixed point or zero as :class:`GdConfig` describes.  Returns
    a converged :class:`GdReport`; raises :class:`NotConverged`
    (with the partial report attached) if ``max_iter`` steps do not bring
    the gradient norm below ``tol``, and :class:`StepIntoInfeasible` if step
    halving cannot keep every scenario wealth positive.
    """
    if cfg is None:
        cfg = GdConfig()
    eta = cfg.eta if cfg.eta is not None else suggest_eta(scenarios, ra)
    cols = scenarios.cols
    if cfg.initial_weights is None:
        w = _default_start(scenarios, ra, gross_rf)
    else:
        w = np.array(cfg.initial_weights, dtype=float)
    wealth = _wealth(cols, w, gross_rf)
    _require_positive(wealth)

    steps = 0
    while True:
        grad = _gradient_from_wealth(cols, wealth, ra.gamma)
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
        step = eta * grad
        for _ in range(MAX_BACKTRACKS + 1):
            cand = w + step
            cand_wealth = _wealth(cols, cand, gross_rf)
            if cand_wealth.min() > 0.0:
                break
            step = 0.5 * step
        else:
            raise StepIntoInfeasible(
                f"no feasible step after {MAX_BACKTRACKS} halvings at iteration {steps}"
            )
        w, wealth = cand, cand_wealth
        steps += 1
