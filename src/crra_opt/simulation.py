"""Seeded scenario generation, strategy evaluation, and study summaries.

Scenario draws are ``R_i = mu + L z_i`` with ``L`` the lower Cholesky factor
of sigma and ``z_i`` i.i.d. standard normal from a PCG64 generator, so a
``(params, n, seed)`` triple always reproduces the same scenario set on a
given build.  One scenario set is shared by every method and risk-aversion
level inside a comparison run, which makes the per-method statistics
directly comparable.

:class:`ScenarioSet` owns the reductions over the N scenarios that the
solvers and the evaluation share.  Every sum over scenarios in the package,
these and the single-site ones (the draw, ``v0_hessian``), is one
``np.einsum`` or ``np.sum`` over contiguous per-asset rows, never a BLAS
product, so numpy alone fixes its summation order: draws, weights and
statistics are bit-identical under any BLAS thread count, and no BLAS
thread pool competes with the solver threads of :func:`compare`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .closed_form import solve_analytical
from .errors import AllScenariosInfeasible, CrraOptError, ValidationError
from .gradient import GdConfig, gd_solve
from .market import MarketParams, RiskAversion, gamma_lower_bound, require_admissible_gamma
from .taylor import TaylorConfig, taylor_solve

METHODS = ("analytical", "taylor", "gd")

# Median-absolute-deviation scale for consistency with the standard
# deviation under normality.
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class ScenarioSet:
    """N simulated excess-return vectors plus the seed that produced them.

    The draws are held once, as the read-only C-contiguous ``(k, N)`` array
    ``cols``: row ``j`` holds asset ``j``'s return in every scenario, so each
    length-N reduction reads one contiguous row per asset.  ``returns`` is
    the ``(N, k)`` view ``cols.T`` of the same buffer.  The read-only sample
    moments ``m1 = (1/N) sum_i R_i`` and ``M2 = m2 = (1/N) sum_i R_i R_i'``
    are computed once, on construction, and shared by every solver.
    """

    returns: np.ndarray
    seed: int
    cols: np.ndarray = field(init=False, repr=False, compare=False)
    m1: np.ndarray = field(init=False, repr=False, compare=False)
    m2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        if returns.ndim != 2 or returns.shape[0] < 1:
            raise ValueError(f"returns must be 2-D (N, k) with N >= 1, got shape {returns.shape}")
        if not np.isfinite(returns).all():
            raise ValueError("scenario returns must be finite")
        cols = np.array(returns.T, order="C")
        n = cols.shape[1]
        m1 = np.einsum("ij->i", cols) / n
        m2 = np.einsum("ij,lj->il", cols, cols) / n
        for name, value in (("cols", cols), ("m1", m1), ("m2", m2)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "returns", cols.T)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.cols.shape[1]

    @property
    def k(self) -> int:
        return self.cols.shape[0]

    def excess(self, weights: np.ndarray) -> np.ndarray:
        """Portfolio excess return ``w'R_i`` of every scenario, a new array."""
        return np.einsum("i,ij->j", weights, self.cols)

    def wealth(self, weights: np.ndarray, gross_rf: float) -> np.ndarray:
        """Gross portfolio return ``R_f + w'R_i`` of every scenario, a new array."""
        wealth = self.excess(weights)
        wealth += gross_rf
        return wealth

    def weighted_mean(self, v: np.ndarray) -> np.ndarray:
        """``(1/N) sum_i v_i R_i`` for one scalar ``v_i`` per scenario."""
        return np.einsum("ij,j->i", self.cols, v) / self.n


@dataclass(frozen=True)
class StrategyOutcome:
    """Per-scenario wealth and utility for one (method, gamma, weights) cell.

    Wealth is ``w0 * (R_f + w'R_i)``.  Utilities at non-positive wealth are
    undefined and stored as NaN; they are counted in ``infeasible_count``
    rather than silently dropped.  A positive wealth whose power
    ``W^(1-gamma)`` overflows gives an infinite utility, which is kept here
    without a numpy warning.
    """

    method: str
    gamma: float
    weights: np.ndarray
    wealths: np.ndarray
    utilities: np.ndarray
    infeasible_count: int


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    median: float
    mad: float


@dataclass(frozen=True)
class CellResult:
    """One (gamma, method) cell of a comparison run.

    ``stats`` leave out two kinds of draws, each counted: ``infeasible_count``
    draws with non-positive wealth and ``nonfinite_count`` draws with a
    positive wealth whose utility is not finite (``W^(1-gamma)`` overflows).
    """

    weights: np.ndarray | None
    stats: SummaryStats | None
    infeasible_count: int
    error: str | None = None
    nonfinite_count: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ComparisonReport:
    """Per-(gamma, method) summary statistics plus ECDF tables.

    ``cells`` maps ``(gamma, method)`` to :class:`CellResult`; ``ecdfs`` maps
    ``(gamma, method, kind)`` with kind in {"wealth", "utility"} to an
    ``(points, 2)`` array of ``(x, F(x))`` rows.
    """

    gammas: tuple[float, ...]
    n: int
    seed: int
    cells: dict = field(default_factory=dict)
    ecdfs: dict = field(default_factory=dict)


def simulate(p: MarketParams, n: int, seed: int) -> ScenarioSet:
    """Draw ``n`` excess-return vectors from ``N(mu, sigma)``.

    The draw stream is determined solely by ``seed``; the covariance enters
    linearly through the cached lower Cholesky factor.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n), p.k))
    returns = np.einsum("nj,ij->ni", z, p.chol_lower)
    returns += p.mu
    return ScenarioSet(returns=returns, seed=seed)


def evaluate_strategy(
    scenarios: ScenarioSet,
    weights,
    ra: RiskAversion,
    gross_rf: float,
    method: str = "custom",
    w0: float = 1.0,
) -> StrategyOutcome:
    """Realized wealth and utility of fixed weights on every scenario."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (scenarios.k,):
        raise ValueError(f"weights must have shape ({scenarios.k},), got {w.shape}")
    if not w0 > 0.0:
        raise ValueError(f"w0 must be positive, got {w0}")
    wealths = scenarios.wealth(w, gross_rf)
    wealths *= w0
    feasible = wealths > 0.0
    infeasible_count = int(wealths.shape[0] - np.count_nonzero(feasible))
    if infeasible_count == wealths.shape[0]:
        raise AllScenariosInfeasible("every scenario yields non-positive wealth")
    lam = 1.0 - ra.gamma
    utilities = np.full(wealths.shape[0], np.nan)
    # An overflow is an infinite utility, which compare counts.
    with np.errstate(over="ignore"):
        np.power(wealths, lam, out=utilities, where=feasible)
    utilities /= lam
    return StrategyOutcome(
        method=method, gamma=ra.gamma, weights=w,
        wealths=wealths, utilities=utilities, infeasible_count=infeasible_count,
    )


def summarize(values) -> SummaryStats:
    """Mean, sd (n-1 denominator), median, and scaled MAD of a sample.

    The median averages the two middle order statistics for even sizes; the
    MAD is ``MAD_SCALE * median(|x - median(x)|)`` so it estimates the
    standard deviation under normality.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValidationError("summarize needs a 1-D sample of size >= 2")
    med = float(np.median(x))
    dev = x - med
    np.abs(dev, out=dev)
    return SummaryStats(
        mean=float(x.mean()),
        sd=float(x.std(ddof=1)),
        median=med,
        mad=MAD_SCALE * float(np.median(dev, overwrite_input=True)),
    )


def ecdf(values, grid_points: int) -> np.ndarray:
    """Right-continuous empirical CDF on an even grid from min to max.

    Returns a ``(grid_points, 2)`` array of ``(x, F(x))`` rows with
    ``F(x) = #(values <= x) / N``; the last row always has ``F = 1``.
    """
    x = np.sort(np.asarray(values, dtype=float))
    if x.shape[0] < 1:
        raise ValueError("ecdf needs at least one value")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid = np.linspace(x[0], x[-1], int(grid_points))
    f = np.searchsorted(x, grid, side="right") / x.shape[0]
    return np.column_stack([grid, f])


def _solve_workers(tasks: int) -> int:
    """Threads for the solve phase of :func:`compare`: one per task, at most
    one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus))


def solve_method(method: str, p: MarketParams, scenarios: ScenarioSet | None, ra: RiskAversion,
                 gd_cfg: GdConfig | None = None, taylor_cfg: TaylorConfig | None = None):
    """Run one of :data:`METHODS` at one gamma and return its report.

    ``analytical`` solves on the exact (mu, sigma) and ignores ``scenarios``.
    """
    if method == "analytical":
        return solve_analytical(p, ra)
    if method == "taylor":
        return taylor_solve(scenarios, ra, p.gross_rf, taylor_cfg)
    if method == "gd":
        return gd_solve(scenarios, ra, p.gross_rf, gd_cfg)
    raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")


def _solve_gamma(p, scenarios, ra, gd_cfg, taylor_cfg) -> dict:
    """``method -> (weights, error)`` for the three solvers at one gamma.

    A :class:`CrraOptError` becomes its cell's error message; any other
    exception propagates.
    """
    solved = {}
    for method in METHODS:
        try:
            report = solve_method(method, p, scenarios, ra, gd_cfg, taylor_cfg)
            solved[method] = (report.weights, None)
        except CrraOptError as exc:
            solved[method] = (None, str(exc))
    return solved


def _solve_gammas(p, scenarios, gammas, gd_cfg, taylor_cfg) -> list[dict]:
    """:func:`_solve_gamma` for every gamma, on up to one thread per CPU.

    The calling thread is one of the workers.  Each worker takes the next
    unsolved gamma until none is left, and results are stored by gamma
    index, so they do not depend on the number of workers or on which
    worker solved what.
    """
    solved: list = [None] * len(gammas)
    todo = iter(range(len(gammas)))
    todo_lock = threading.Lock()

    def work() -> None:
        while True:
            with todo_lock:
                i = next(todo, None)
            if i is None:
                return
            solved[i] = _solve_gamma(p, scenarios, RiskAversion(gammas[i]), gd_cfg, taylor_cfg)

    helpers = _solve_workers(len(gammas)) - 1
    # A pool starts its threads on submit, so one worker starts none.
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
    for future in futures:
        future.result()
    return solved


def compare(
    p: MarketParams,
    gammas,
    n: int,
    seed: int,
    gd_cfg: GdConfig | None = None,
    taylor_cfg: TaylorConfig | None = None,
    ecdf_points: int = 256,
) -> ComparisonReport:
    """Run the three solvers on one shared scenario set and summarize.

    For each gamma: the closed form solves on the exact (mu, sigma); the
    fixed-point and gradient solvers consume the simulated scenarios.  All
    strategies are then evaluated on the same scenarios; utility summary
    statistics exclude (but count) non-positive-wealth draws and draws whose
    utility overflows.  ``n`` must be at least 2, the smallest sample the
    statistics take.

    The solvers are called through :func:`solve_method`.  Failures inside
    one (gamma, method) cell are recorded on that cell and do not abort the
    rest of the run; any error that is not a :class:`CrraOptError`
    propagates.

    The solve phase runs the gammas concurrently, on up to one thread per
    CPU this process may run on (the calling thread is one of them); the
    solves only read the shared scenario set.  Evaluation, summaries and
    ECDFs then run serially in gamma order.  The report is bit-identical
    whatever the number of threads.
    """
    if n < 2:
        raise ValidationError(f"compare needs n >= 2 scenarios, got {n}")
    gammas = tuple(float(g) for g in gammas)
    bound = gamma_lower_bound(p)
    for g in gammas:
        require_admissible_gamma(g, bound)
    scenarios = simulate(p, n, seed)
    solved = _solve_gammas(p, scenarios, gammas, gd_cfg, taylor_cfg)
    report = ComparisonReport(gammas=gammas, n=int(n), seed=int(seed))
    for g, cells in zip(gammas, solved):
        ra = RiskAversion(g)
        for method in METHODS:
            w, error = cells[method]
            if w is None:
                report.cells[(g, method)] = CellResult(
                    weights=None, stats=None, infeasible_count=0, error=error
                )
                continue
            try:
                outcome = evaluate_strategy(scenarios, w, ra, p.gross_rf, method=method)
                finite = outcome.utilities
                kept = np.isfinite(finite)
                dropped = finite.shape[0] - int(np.count_nonzero(kept))
                if dropped:
                    finite = finite[kept]
                stats = summarize(finite)
                report.cells[(g, method)] = CellResult(
                    weights=w, stats=stats, infeasible_count=outcome.infeasible_count,
                    nonfinite_count=dropped - outcome.infeasible_count,
                )
                report.ecdfs[(g, method, "wealth")] = ecdf(outcome.wealths, ecdf_points)
                report.ecdfs[(g, method, "utility")] = ecdf(finite, ecdf_points)
            except CrraOptError as exc:
                report.cells[(g, method)] = CellResult(
                    weights=w, stats=None, infeasible_count=0, error=str(exc)
                )
    return report
