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
    NonPositiveWealthScenario,
    NotConverged,
    StepIntoInfeasible,
)
from .market import RiskAversion

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class GdConfig:
    """Fixed-step ascent settings.

    ``eta=0.1`` is the customary default; for markets with per-period
    covariance far from unit scale, :func:`suggest_eta` picks a step matched
    to the sampled curvature instead.  ``initial_weights=None`` starts from
    the all risk-free portfolio (the zero vector), which is always feasible.
    """

    eta: float = 0.1
    tol: float = 1e-8
    max_iter: int = 100_000
    initial_weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
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


def suggest_eta(scenarios, ra: RiskAversion, safety: float = 0.8) -> float:
    """Curvature-matched learning rate ``safety / (gamma * lambda_max(M2))``.

    ``M2 = (1/N) sum_i R_i R_i'`` bounds the Hessian scale near the start of
    the ascent, so this step is stable while converging orders of magnitude
    faster than a unit-scale ``eta`` when returns have small variance.
    ``M2`` is the scenario set's cached ``m2``.
    """
    lam_max = float(np.linalg.eigvalsh(scenarios.m2)[-1])
    if lam_max <= 0.0:
        raise ValueError("second-moment matrix has no positive eigenvalue")
    return safety / (ra.gamma * lam_max)


def gd_solve(scenarios, ra: RiskAversion, gross_rf: float, cfg: GdConfig | None = None) -> GdReport:
    """Run fixed-step gradient ascent on the sampled utility.

    Returns a converged :class:`GdReport`; raises :class:`NotConverged`
    (with the partial report attached) if ``max_iter`` steps do not bring
    the gradient norm below ``tol``, and :class:`StepIntoInfeasible` if step
    halving cannot keep every scenario wealth positive.
    """
    if cfg is None:
        cfg = GdConfig()
    cols = scenarios.cols
    k = cols.shape[0]
    if cfg.initial_weights is None:
        w = np.zeros(k)
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
        step = cfg.eta * grad
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
