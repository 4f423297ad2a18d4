"""Seeded scenario generation, strategy evaluation, and study summaries.

Scenario draws are ``R_i = mu + L z_i`` with ``L`` the lower Cholesky factor
of sigma and ``z_i`` i.i.d. standard normal from a PCG64 generator, so a
``(params, n, seed)`` triple always reproduces the same scenario set on a
given build.  :func:`simulate` draws ``_DRAW_BLOCK`` scenarios at a time
and writes each block's ``mu + L z_i`` straight into the set's ``(k, N)``
array, so neither an ``(N, k)`` copy of the set nor a transformed block is
ever held; the generator's stream does not depend on how the draw is
split into blocks, so the draws are bitwise those of one ``(N, k)`` draw.
One scenario set is shared by every method and risk-aversion level inside
a comparison run, which makes the per-method statistics directly
comparable; it also factors its second moment M2 once, for both solvers.

Every sampled objective, gradient, Hessian and Taylor update is one
:meth:`ScenarioSet.fold` over fixed blocks of ``_FOLD_BLOCK`` scenarios,
so no solver holds a length-N array.  Every sum over scenarios is an
``np.einsum`` or ``np.sum`` over per-asset rows, never a BLAS product, so
numpy and the fixed blocks alone set its order: draws, weights and
statistics are bit-identical under any BLAS thread count, and no BLAS
thread pool competes with the solver threads of :func:`compare`.

The workers of :func:`compare` solve without a length-N array and share
one length-N evaluation buffer per two workers (:func:`_compare_gammas`):
after each solve a worker waits for a free buffer and evaluates its gamma
there; a caller's ``ecdf_sink`` then gets that gamma's ECDF tables, which
the report does not keep.  A cell (:func:`_evaluate_cell`) writes its
wealths in the buffer once, sorts them once, counts its ``W <= 0`` draws at
the front and turns the rest into utilities in place, so it holds no
second length-N float array.  The one utility kernel, :func:`_utilities`, leaves feasibility to
its callers; only :func:`evaluate_strategy`'s draw-ordered output holds
NaN.  Every statistic, in :func:`summarize` as in a cell, is read from the
sorted sample (:func:`_summary_of_sorted`), so it does not depend on the
order of the values.

The solvers sit in one table, :data:`METHODS`, in output order.
:func:`solve_methods`, which :func:`compare` and the CLI's ``solve`` both
call, runs them and decides what a failure does.  The iterative methods'
reports share ``iterations``, ``stopping_residual`` and ``converged``,
which holds exactly when ``stopping_residual <= tol``.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .closed_form import solve_analytical
from .errors import (
    AllScenariosInfeasible,
    CrraOptError,
    DimensionMismatch,
    GammaBelowBound,
    NonFiniteInput,
    NonPositiveWealthScenario,
    ValidationError,
    require_int,
)
from .gradient import GdConfig, gd_solve
from .market import (MarketParams, RiskAversion, as_weights, gamma_lower_bound,
                     require_admissible_gamma)
from .taylor import TaylorConfig, taylor_solve

# Each method's solver, (p, scenarios, ra, gd_cfg, taylor_cfg) -> report, in
# output order.  The closed form solves on the exact (mu, sigma) and reads
# neither scenarios nor configs; Taylor reads only taylor_cfg, gd only gd_cfg.
METHODS = {
    "analytical": lambda p, scenarios, ra, gd_cfg, taylor_cfg: solve_analytical(p, ra),
    "taylor": lambda p, scenarios, ra, gd_cfg, taylor_cfg: taylor_solve(
        scenarios, ra, p.gross_rf, taylor_cfg),
    "gd": lambda p, scenarios, ra, gd_cfg, taylor_cfg: gd_solve(
        scenarios, ra, p.gross_rf, gd_cfg),
}

# Scenarios drawn per block by :func:`simulate`: its temporaries stay a few
# MB, whatever N.
_DRAW_BLOCK = 8192

# Scenarios per block of :meth:`ScenarioSet.fold`: a pass holds a few
# length-``_FOLD_BLOCK`` temporaries, whatever N.
_FOLD_BLOCK = 32_768

# Median-absolute-deviation scale for consistency with the standard
# deviation under normality.
MAD_SCALE = 1.4826


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """N simulated excess-return vectors plus the seed that produced them.

    The draws are held once, as the read-only C-contiguous ``(k, N)`` array
    ``cols``: row ``j`` holds asset ``j``'s return in every scenario, so each
    block of a :meth:`fold` reads one contiguous run per asset.  ``returns`` is
    the ``(N, k)`` view ``cols.T`` of the same buffer.  The read-only sample
    moments ``m1 = (1/N) sum_i R_i`` and ``M2 = m2 = (1/N) sum_i R_i R_i'``
    are computed once, on construction, and shared by every solver, as is
    M2's eigendecomposition, the package's one factorization of M2: the
    ascending ``m2_eigvals``, the eigenvectors ``m2_eigvecs`` (columns) and
    ``m2_resolved``, true where ``lambda_i > k * eps * lambda_max``, above
    the rounding left in M2.  gd steps Euclidean along a direction that is
    not resolved, and Taylor refuses the set.  Sets compare by identity.
    """

    returns: np.ndarray
    seed: int
    cols: np.ndarray = field(init=False, repr=False)
    m1: np.ndarray = field(init=False, repr=False)
    m2: np.ndarray = field(init=False, repr=False)
    m2_eigvals: np.ndarray = field(init=False, repr=False)
    m2_eigvecs: np.ndarray = field(init=False, repr=False)
    m2_resolved: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # A private copy, so the set never aliases the caller's array.
        self._own(np.array(np.asarray(self.returns, dtype=float).T, order="C"))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def _from_cols(cls, cols: np.ndarray, seed: int) -> ScenarioSet:
        """A set that takes ownership of the C-contiguous float ``(k, N)``
        array ``cols`` without copying it; the caller must not keep it."""
        scenarios = cls.__new__(cls)
        scenarios._own(cols)
        object.__setattr__(scenarios, "seed", int(seed))
        return scenarios

    def _own(self, cols: np.ndarray) -> None:
        """Check ``cols`` and its moments, compute M2's spectrum and freeze them all."""
        if cols.ndim != 2 or 0 in cols.shape:
            raise DimensionMismatch("returns must be 2-D (N, k) with N >= 1 and k >= 1, "
                                    f"got shape {cols.shape[::-1]}")
        if not np.isfinite(cols).all():
            raise NonFiniteInput("scenario returns must be finite")
        k, n = cols.shape
        m1 = np.einsum("ij->i", cols) / n
        m2 = np.einsum("ij,lj->il", cols, cols) / n
        if not np.isfinite(m2).all():  # then neither does m1 overflow
            raise NonFiniteInput("the sample second moment M2 of the returns overflows")
        eigvals, eigvecs = np.linalg.eigh(m2)
        resolved = eigvals > k * np.finfo(float).eps * eigvals[-1]
        for name, value in (("cols", cols), ("m1", m1), ("m2", m2), ("m2_eigvals", eigvals),
                            ("m2_eigvecs", eigvecs), ("m2_resolved", resolved)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "returns", cols.T)

    @property
    def n(self) -> int:
        return self.cols.shape[1]

    @property
    def k(self) -> int:
        return self.cols.shape[0]

    def wealth(self, weights: np.ndarray, gross_rf: float,
               out: np.ndarray | None = None) -> np.ndarray:
        """Gross portfolio return ``R_f + w'R_i`` of every scenario, in
        ``out`` (a float length-N array) if given, else in a new array."""
        wealth = np.einsum("i,ij->j", as_weights(weights, self.k), self.cols, out=out)
        wealth += gross_rf
        return wealth

    def fold(self, weights: np.ndarray, shift: float, part, positive: bool = False):
        """``(1/N) sum part(x, block)`` over blocks of ``_FOLD_BLOCK``
        scenarios, in order: ``block`` is the ``(k, B)`` view of the block's
        columns and ``x = shift + w'R_i`` on them, an array of its own that
        ``part`` may overwrite.  With ``positive``, an ``x_i`` that is not
        > 0 (NaN included) raises :class:`NonPositiveWealthScenario` naming
        the first such scenario, before ``part`` sees its block."""
        w = as_weights(weights, self.k)
        total = 0.0
        for start in range(0, self.n, _FOLD_BLOCK):
            block = self.cols[:, start:start + _FOLD_BLOCK]
            x = np.einsum("i,ij->j", w, block)
            x += shift
            if positive:
                feasible = x > 0.0
                if not feasible.all():
                    raise NonPositiveWealthScenario(start + int(np.argmin(feasible)))
            total = total + part(x, block)
        return total / self.n


@dataclass(frozen=True)
class StrategyOutcome:
    """Per-scenario wealth ``R_f + w'R_i`` (unit initial wealth) and utility
    of one method's weights.  Utilities at non-positive wealth are undefined
    and stored as NaN; they are counted in ``infeasible_count`` rather than
    silently dropped.  A positive wealth whose power ``W^(1-gamma)``
    overflows gives an infinite utility, kept here without a numpy warning.
    """

    method: str
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
    ``(points, 2)`` array of ``(x, F(x))`` rows.  ``ecdfs`` is empty when
    :func:`compare` hands the tables to an ``ecdf_sink`` instead.
    """

    gammas: tuple[float, ...]
    n: int
    seed: int
    cells: dict = field(default_factory=dict)
    ecdfs: dict = field(default_factory=dict)


def fmt_gamma(g: float) -> str:
    """The label of a gamma in every output: its key in ``comparison.json``,
    its CSV column and its ECDF file names.  Gammas alike to 6 significant
    digits share a label, so :func:`compare` refuses them."""
    return f"{float(g):g}"


def simulate(p: MarketParams, n: int, seed: int) -> ScenarioSet:
    """Draw ``n`` excess-return vectors from ``N(mu, sigma)``.

    The draw stream is determined solely by ``seed``; the covariance enters
    linearly through the cached lower Cholesky factor.  The draw is made
    in blocks straight into the set's ``(k, N)`` array (see the module
    docstring).  ``n`` must be an integer >= 1 and ``seed`` one >= 0; a
    float, even a whole one, raises :class:`ValidationError`.
    """
    n, seed = require_int("n", n, 1), require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    cols = np.empty((p.k, n))
    for start in range(0, n, _DRAW_BLOCK):
        z = rng.standard_normal((min(_DRAW_BLOCK, n - start), p.k))
        block = cols[:, start:start + z.shape[0]]
        np.einsum("nj,ij->in", z, p.chol_lower, out=block)
        block += p.mu[:, None]
    return ScenarioSet._from_cols(cols, seed)


def evaluate_strategy(
    scenarios: ScenarioSet,
    weights,
    ra: RiskAversion,
    gross_rf: float,
    method: str = "custom",
) -> StrategyOutcome:
    """Realized wealth and utility of fixed weights on every scenario, in
    draw order; a draw with ``W <= 0`` is counted and has utility NaN."""
    wealths = scenarios.wealth(weights, gross_rf)
    feasible = wealths > 0.0
    infeasible = _some_feasible(feasible.size - int(np.count_nonzero(feasible)), feasible.size)
    utilities = np.where(feasible, wealths, np.nan)
    _utilities(utilities, 1.0 - ra.gamma)
    return StrategyOutcome(method=method, wealths=wealths, utilities=utilities,
                           infeasible_count=infeasible)


def _utilities(x: np.ndarray, lam: float) -> None:
    """Turn the wealths ``x`` into the utilities ``W^lam / lam`` in place.
    Each caller counts its own ``W <= 0`` draws and hands over positive
    wealths or NaN, which stays NaN.  A power that overflows is an infinite
    utility, which :func:`compare` counts, and no numpy warning."""
    with np.errstate(over="ignore"):
        np.power(x, lam, out=x)
    x /= lam


def _some_feasible(infeasible: int, n: int) -> int:
    """``infeasible``, the number of the ``n`` draws with ``W <= 0``, unless
    it is every draw: then raise :class:`AllScenariosInfeasible`."""
    if infeasible == n:
        raise AllScenariosInfeasible("every scenario yields non-positive wealth")
    return infeasible


def _enough_finite(finite: np.ndarray, n: int) -> np.ndarray:
    """``finite``, the finite utilities of ``n`` draws, unless too few for the statistics."""
    if finite.shape[0] < 2:
        raise ValidationError(f"{finite.shape[0]} of {n} draws has a finite utility; "
                              "the statistics need at least 2")
    return finite


def _sample(values, min_size: int, what: str) -> np.ndarray:
    """``values`` as a 1-D float array of at least ``min_size`` values."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape[0] < min_size:
        raise ValidationError(f"{what} needs a 1-D sample of size >= {min_size}")
    return x


def _middle(s: np.ndarray) -> float:
    """The median of the ascending ``s``: the middle value for odd sizes,
    the mean of the middle pair for even ones."""
    h = s.shape[0] // 2
    if s.shape[0] % 2:
        return float(s[h])
    return float((s[h - 1] + s[h]) / 2)


def _summary_of_sorted(s: np.ndarray) -> SummaryStats:
    """Summary of the ascending finite sample ``s`` of size n >= 2, which
    the call overwrites.  Every statistic reads ``s`` in ascending order, so
    none depends on the order the values came in.

    The median is read from ``s``.  Its absolute deviations form two
    ascending runs, ``med - s[h-1], ..., med - s[0]`` left of ``h = n // 2``
    and ``s[h] - med, ..., s[n-1] - med`` from it on, because the median
    lies between ``s[h-1]`` and ``s[h]`` (or, when the sum of the middle
    pair overflows, every deviation is infinite).  The MAD needs only the
    middle one or two order statistics of the two runs together; a binary
    search for how many of the ``h`` smallest deviations come from the left
    run finds them in O(log n) deviations, each computed as ``|s_i - med|``.
    Then ``np.mean(s)`` gives the mean and, last, :func:`_sd_in_place` the
    sd, numpy's ``std(ddof=1)`` of ``s`` bit for bit.
    """
    n = s.shape[0]
    h = n // 2
    med = _middle(s)

    def left(i: int) -> float:  # the i-th smallest deviation left of h
        return abs(s[h - 1 - i] - med) if i < h else np.inf

    def right(j: int) -> float:  # the j-th smallest deviation from h on
        if j < 0:
            return -np.inf
        return abs(s[h + j] - med) if h + j < n else np.inf

    # The smallest i whose left(i) is no smaller than right(h - 1 - i): then
    # the h smallest deviations are left(0..i-1) and right(0..h-1-i).
    lo, hi = 0, h
    while lo < hi:
        i = (lo + hi) // 2
        if left(i) >= right(h - 1 - i):
            hi = i
        else:
            lo = i + 1
    upper = min(left(lo), right(h - lo))  # the deviation of rank h (from 0)
    if n % 2:
        mad = float(upper)
    else:
        lower = left(lo - 1) if lo > 0 else -np.inf
        mad = float((max(lower, right(h - 1 - lo)) + upper) / 2)
    mean = float(np.mean(s))
    return SummaryStats(mean=mean, sd=_sd_in_place(s), median=med, mad=MAD_SCALE * mad)


def _sd_in_place(x: np.ndarray) -> float:
    """``x.std(ddof=1)`` bit for bit, by the arithmetic of numpy's own
    ``_var``, without its length-N temporary: the size >= 2 sample ``x`` is
    overwritten by its squared deviations."""
    n = x.shape[0]
    mean = np.add.reduce(x, keepdims=True)
    mean /= n
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    return float(np.sqrt(np.add.reduce(x) / (n - 1)))


def _ecdf_of_sorted(s: np.ndarray, grid_points: int) -> np.ndarray:
    """:func:`ecdf` of the ascending, non-empty sample ``s``."""
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):  # NaN sorts last
        raise ValidationError("ecdf needs finite values")
    grid = np.linspace(s[0], s[-1], int(grid_points))
    f = np.searchsorted(s, grid, side="right") / s.shape[0]
    return np.column_stack([grid, f])


def summarize(values) -> SummaryStats:
    """Mean, sd (n-1 denominator), median, and scaled MAD of a sample.

    The sample must be 1-D, of size >= 2 and finite; anything else raises
    :class:`ValidationError`.  Every statistic is read from one sorted copy
    (see :func:`_summary_of_sorted`), so none depends on the order of the
    values: the mean and sd are numpy's ``mean`` and ``std(ddof=1)`` of
    that copy, the median averages the two middle order statistics for even
    sizes, and the MAD is ``MAD_SCALE * median(|x - median(x)|)``, so it
    estimates the standard deviation under normality.  A statistic that
    overflows is returned as it comes, infinite.
    """
    x = _sample(values, 2, "summarize")
    if not np.isfinite(x).all():
        raise ValidationError("summarize needs finite values")
    return _summary_of_sorted(np.sort(x))


def ecdf(values, grid_points: int) -> np.ndarray:
    """Right-continuous empirical CDF on an even grid from min to max.

    Returns a ``(grid_points, 2)`` array of ``(x, F(x))`` rows with
    ``F(x) = #(values <= x) / N``; the last row always has ``F = 1``.
    ``values`` must be 1-D, non-empty and finite and ``grid_points`` at
    least 2; anything else raises :class:`ValidationError`.
    """
    require_int("grid_points", grid_points, 2)
    return _ecdf_of_sorted(np.sort(_sample(values, 1, "ecdf")), grid_points)


def worker_count(tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: one per task, at most one
    per CPU this process may run on.  :func:`compare`'s gamma threads and
    the ECDF writer processes of :mod:`crra_opt.reports` both follow it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus))


def solve_methods(methods, p: MarketParams, scenarios: ScenarioSet | None, ra: RiskAversion,
                  gd_cfg: GdConfig | None = None, taylor_cfg: TaylorConfig | None = None) -> dict:
    """Each of ``methods``, in the order given, mapped to its :data:`METHODS`
    entry's report at one gamma or to the :class:`CrraOptError` it raised.
    Names are checked before any solve; a :class:`GammaBelowBound` propagates."""
    for method in methods:
        if method not in METHODS:
            raise ValidationError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    solved = {}
    for method in methods:
        try:
            solved[method] = METHODS[method](p, scenarios, ra, gd_cfg, taylor_cfg)
        except GammaBelowBound:
            raise
        except CrraOptError as exc:
            solved[method] = exc
    return solved


def _evaluate_cell(scenarios, weights, ra, gross_rf, ecdf_points, buf) -> tuple:
    """The :class:`CellResult` of fixed weights and its wealth and utility
    ECDF tables, equal to what :func:`summarize` and :func:`ecdf` give,
    worked out in ``buf``, a float array of length N that the call
    overwrites; in :func:`compare` it is one of the evaluation buffers
    that every two workers share, so nothing in it outlives the call.

    The wealths, written once and sorted once, give the wealth ECDF; the
    leading ``W <= 0`` draws are the infeasible ones, counted by one binary
    search; only the rest reach the utility kernel :func:`_utilities`, in
    place, so no NaN is written.  They ascend, because U increases in W;
    should rounding break that, they are sorted.  A finite positive wealth
    has a non-finite utility only where ``W^(1-gamma)`` overflows, so those
    draws sit at the ends, where two binary searches trim and count them.
    The finite utilities give the utility ECDF and then every statistic
    (:func:`_summary_of_sorted`), so the cell does not depend on the order
    of the draws.  Fewer than two finite utilities fail the cell with a
    :class:`ValidationError` that counts them, and a statistic that
    overflows with one that names it, and no numpy warning.

    The peak is the buffer and a length-N mask, with no second float array.
    """
    scenarios.wealth(weights, gross_rf, out=buf).sort()
    infeasible = _some_feasible(int(np.searchsorted(buf, 0.0, side="right")), buf.shape[0])
    wealth_table = _ecdf_of_sorted(buf, ecdf_points)
    utilities = buf[infeasible:]
    _utilities(utilities, 1.0 - ra.gamma)
    if not (utilities[1:] >= utilities[:-1]).all():
        utilities.sort()
    lo = int(np.searchsorted(utilities, -np.inf, side="right"))
    hi = int(np.searchsorted(utilities, np.inf, side="left"))
    nonfinite = lo + utilities.shape[0] - hi
    utilities = _enough_finite(utilities[lo:hi], buf.shape[0])
    utility_table = _ecdf_of_sorted(utilities, ecdf_points)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _summary_of_sorted(utilities)
    for stat in fields(stats):
        if not np.isfinite(getattr(stats, stat.name)):
            raise ValidationError(f"the utility {stat.name} overflows the float range")
    cell = CellResult(weights=weights, stats=stats, infeasible_count=infeasible,
                      nonfinite_count=nonfinite)
    return cell, wealth_table, utility_table


def _compare_gamma(scenarios, ra, gross_rf, solved, ecdf_points, buf) -> tuple[dict, dict]:
    """The cells and ECDF tables of one gamma, keyed as in :class:`ComparisonReport`,
    from its :func:`solve_methods` outcomes ``solved``.

    Each solved method's ``report.weights`` are evaluated in ``buf``, a
    float array of length N that the call overwrites (:func:`_evaluate_cell`).
    A failed solve, or a :class:`CrraOptError` while evaluating, becomes its
    cell's error text, with the weights kept if the solve got that far.  Any
    other exception propagates.
    """
    g = ra.gamma
    cells, ecdfs = {}, {}
    for method, outcome in solved.items():
        if isinstance(outcome, CrraOptError):
            weights, error = None, str(outcome)
        else:
            weights, error = outcome.weights, None
            try:
                cell, wealth_table, utility_table = _evaluate_cell(
                    scenarios, weights, ra, gross_rf, ecdf_points, buf
                )
            except CrraOptError as exc:
                error = str(exc)
            else:
                ecdfs[(g, method, "wealth")] = wealth_table
                ecdfs[(g, method, "utility")] = utility_table
        if error is not None:
            cell = CellResult(weights=weights, stats=None, infeasible_count=0, error=error)
        cells[(g, method)] = cell
    return cells, ecdfs


def _compare_gammas(p, scenarios, ras, gd_cfg, taylor_cfg, ecdf_points, sink) -> list[tuple]:
    """The cells and ECDF tables of every risk aversion, on up to one thread per CPU.

    The calling thread is one of the W workers.  Each worker takes the next
    gamma until none is left and solves its methods (:func:`solve_methods`),
    which needs no length-N array.  Evaluation is 7-43 % of a gamma's time
    on the benchmark workloads, so the W workers share ``ceil(W / 2)``
    length-N evaluation buffers: after each solve a worker waits for a free
    buffer, evaluates that gamma in it (:func:`_compare_gamma`) and hands
    it back, even when the evaluation raises.  With a ``sink``, the worker
    then calls it, under a lock, with that gamma's ECDF tables and keeps
    none of them.  Results are stored by gamma index, so they do not depend
    on the number of workers or on which worker took what.  ``pool.map``
    with an idle caller is no faster and needs one more thread, whose own
    malloc arena raised the median peak RSS by 0.2-0.6 MB on the benchmark
    workloads.
    """
    results: list = [None] * len(ras)
    todo = iter(range(len(ras)))
    todo_lock, sink_lock = threading.Lock(), threading.Lock()
    workers = worker_count(len(ras))
    buffers = queue.SimpleQueue()
    for _ in range((workers + 1) // 2):
        buffers.put(np.empty(scenarios.n))

    def work() -> None:
        while True:
            with todo_lock:
                i = next(todo, None)
            if i is None:
                return
            solved = solve_methods(METHODS, p, scenarios, ras[i], gd_cfg, taylor_cfg)
            buf = buffers.get()
            try:
                cells, ecdfs = _compare_gamma(scenarios, ras[i], p.gross_rf, solved,
                                              ecdf_points, buf)
            finally:
                buffers.put(buf)
            if sink is not None:
                with sink_lock:
                    sink(ecdfs)
                ecdfs = {}
            results[i] = cells, ecdfs

    helpers = workers - 1
    # A pool starts its threads on submit, so one worker starts none.
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
    for future in futures:
        future.result()
    return results


def compare(
    p: MarketParams,
    gammas,
    n: int,
    seed: int,
    gd_cfg: GdConfig | None = None,
    taylor_cfg: TaylorConfig | None = None,
    ecdf_points: int = 256,
    ecdf_sink=None,
) -> ComparisonReport:
    """Run every :data:`METHODS` solver on one shared scenario set and summarize.

    Each (gamma, method) cell is its method's :func:`solve_methods` outcome:
    ``taylor_cfg`` reaches only the Taylor cells and ``gd_cfg`` only the gd
    cells.  Every cell's weights are evaluated on the same scenarios; the
    utility statistics exclude (but count) non-positive-wealth draws and
    draws whose utility overflows.  A :class:`CrraOptError` while solving or
    evaluating a cell is recorded on that cell and does not abort the run;
    any other error propagates.  Before the draw, ``n`` (the statistics need
    2 draws) and ``ecdf_points`` must be integers >= 2, ``seed`` one >= 0,
    and ``gammas`` non-empty, distinct by :func:`fmt_gamma` label, at least
    the admissibility bound and each a valid :class:`RiskAversion`.

    ``ecdf_sink``, if given, is called with each gamma's ECDF tables, a dict
    keyed as :attr:`ComparisonReport.ecdfs`, as soon as that gamma is
    evaluated: one call at a time, from whichever thread evaluated it, in
    the order the gammas finish.  The report then keeps no table, so its
    ``ecdfs`` is empty; the CLI's sink, an
    :class:`~crra_opt.reports.EcdfWriters`, sends the tables to forked
    writer processes or keeps them until the study is over.  When the run
    aborts on an error, the sink has already had the tables of the gammas
    evaluated before it.

    Each gamma is solved, then evaluated, summarized and given its ECDFs;
    the gammas run concurrently, on up to one thread per CPU this process
    may run on (the calling thread is one of them), which only read the
    shared scenario set.  After each solve a thread waits for one of the
    evaluation buffers, one per two threads, and evaluates its gamma there
    (:func:`_compare_gammas`).  An error that propagates does so once the
    other threads have run out of gammas.  Results are merged in gamma
    order, so the report is bit-identical whatever the number of threads.
    """
    n = require_int("n", n, 2)
    ecdf_points = require_int("ecdf_points", ecdf_points, 2)
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise ValidationError("compare needs at least one gamma")
    labels = [fmt_gamma(g) for g in gammas]
    if len(set(labels)) < len(labels):
        raise ValidationError(f"gammas repeat a value at 6 digits: {', '.join(labels)}")
    bound = gamma_lower_bound(p)
    for g in gammas:
        require_admissible_gamma(g, bound)
    ras = [RiskAversion(g) for g in gammas]
    scenarios = simulate(p, n, seed)
    report = ComparisonReport(gammas=gammas, n=n, seed=int(seed))
    for cells, ecdfs in _compare_gammas(p, scenarios, ras, gd_cfg, taylor_cfg, ecdf_points,
                                        ecdf_sink):
        report.cells.update(cells)
        report.ecdfs.update(ecdfs)
    return report
