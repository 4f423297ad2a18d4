"""Seeded scenario generation, strategy evaluation, and study summaries.

Scenario draws are ``R_i = mu + L z_i`` with ``L`` the lower Cholesky factor
of sigma and ``z_i`` i.i.d. standard normal from a PCG64 generator, so a
``(params, n, seed)`` triple always reproduces the same scenario set on a
given build.  :func:`simulate` draws ``_DRAW_BLOCK`` scenarios at a time
straight into the set's ``(k, N)`` array, so no ``(N, k)`` copy of the set
is ever held; the generator's stream does not depend on how the draw is
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

Each gamma of :func:`compare` evaluates its cells in one length-N buffer
(:func:`_evaluate_cell`): a cell writes its wealths and utilities there in
place and sorts once, so it holds no second length-N float array.

The solvers sit in one table, :data:`METHODS`, in output order.
:func:`solve_method` looks a method up there; it is the one call that
:func:`compare` and the CLI's ``solve`` make.  The iterative methods'
reports share ``iterations``, ``stopping_residual`` and ``converged``,
which holds exactly when ``stopping_residual <= tol``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .closed_form import solve_analytical
from .errors import (
    AllScenariosInfeasible,
    CrraOptError,
    DimensionMismatch,
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

# Values moved per block by :func:`_finite_front`: its temporaries stay
# about 130 kB, whatever N.
_MOVE_BLOCK = 8192

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
    ``(points, 2)`` array of ``(x, F(x))`` rows.
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
        np.add(np.einsum("nj,ij->ni", z, p.chol_lower).T, p.mu[:, None],
               out=cols[:, start:start + z.shape[0]])
    return ScenarioSet._from_cols(cols, seed)


def evaluate_strategy(
    scenarios: ScenarioSet,
    weights,
    ra: RiskAversion,
    gross_rf: float,
    method: str = "custom",
) -> StrategyOutcome:
    """Realized wealth and utility of fixed weights on every scenario."""
    wealths = scenarios.wealth(weights, gross_rf)
    utilities = wealths.copy()
    infeasible_count = _utilities(utilities, 1.0 - ra.gamma)
    return StrategyOutcome(
        method=method, wealths=wealths, utilities=utilities, infeasible_count=infeasible_count,
    )


def _utilities(x: np.ndarray, lam: float) -> int:
    """Turn the wealths ``x`` into the utilities ``W^lam / lam`` in place,
    NaN where ``W <= 0``, and return how many draws that is; if it is every
    draw, raise :class:`AllScenariosInfeasible`.  A power that overflows is
    an infinite utility, which :func:`compare` counts, and no numpy warning.
    """
    feasible = x > 0.0
    infeasible = x.shape[0] - int(np.count_nonzero(feasible))
    if infeasible == x.shape[0]:
        raise AllScenariosInfeasible("every scenario yields non-positive wealth")
    with np.errstate(over="ignore"):
        np.power(x, lam, out=x, where=feasible)
    if infeasible:
        x[np.logical_not(feasible, out=feasible)] = np.nan
    x /= lam
    return infeasible


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


def _summary_of_sorted(s: np.ndarray, mean: float, sd: float) -> SummaryStats:
    """Summary of the ascending sample ``s`` of size n >= 2, given its mean
    and sd; ``s`` is only read.

    The median is read from ``s``.  Its absolute deviations form two
    ascending runs, ``med - s[h-1], ..., med - s[0]`` left of ``h = n // 2``
    and ``s[h] - med, ..., s[n-1] - med`` from it on, because the median
    lies between ``s[h-1]`` and ``s[h]`` (or, when the sum of the middle
    pair overflows, every deviation is infinite).  The MAD needs only the
    middle one or two order statistics of the two runs together; a binary
    search for how many of the ``h`` smallest deviations come from the left
    run finds them in O(log n) deviations, each computed as ``|s_i - med|``.
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
    return SummaryStats(mean=mean, sd=sd, median=med, mad=MAD_SCALE * mad)


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
    :class:`ValidationError`.  The median averages the two middle order
    statistics for even sizes and is read from one sorted copy; the MAD is
    ``MAD_SCALE * median(|x - median(x)|)``, read from the same sorted copy
    (see :func:`_summary_of_sorted`), so it estimates the standard deviation
    under normality.
    """
    x = _sample(values, 2, "summarize")
    if not np.isfinite(x).all():
        raise ValidationError("summarize needs finite values")
    mean, sd = float(x.mean()), float(x.std(ddof=1))
    return _summary_of_sorted(np.sort(x), mean, sd)


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


def solve_method(method: str, p: MarketParams, scenarios: ScenarioSet | None, ra: RiskAversion,
                 gd_cfg: GdConfig | None = None, taylor_cfg: TaylorConfig | None = None):
    """Run the :data:`METHODS` entry ``method`` at one gamma and return its report."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    return METHODS[method](p, scenarios, ra, gd_cfg, taylor_cfg)


def _finite_front(x: np.ndarray) -> np.ndarray:
    """Move the finite values of ``x`` to its front, in order, and return
    that prefix, a view of ``x``, a block of ``_MOVE_BLOCK`` values at a time."""
    m = 0
    for start in range(0, x.shape[0], _MOVE_BLOCK):
        block = x[start:start + _MOVE_BLOCK]
        finite = np.isfinite(block)
        kept = block if finite.all() else block[finite]
        if kept is not block or m < start:
            x[m:m + kept.shape[0]] = kept
        m += kept.shape[0]
    return x[:m]


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


def _evaluate_cell(scenarios, weights, ra, gross_rf, ecdf_points, buf) -> tuple:
    """The :class:`CellResult` of fixed weights and its wealth and utility
    ECDF tables, equal to what :func:`summarize` and :func:`ecdf` give,
    worked out in ``buf``, a float array of length N that the call
    overwrites.

    1. The utilities, in draw order (:func:`_utilities`, as in
       :func:`evaluate_strategy`), count the infeasible and the non-finite
       draws; the finite ones, moved to the front in order, give the mean
       and, in place, the sd.
    2. The wealths, written again and sorted once, give the wealth ECDF.
    3. The utilities of the sorted positive wealths, taken in place, are
       ascending, because U increases in W.  A finite wealth has a
       non-finite utility only where ``W^(1-gamma)`` overflows, at gamma >
       1 and the smallest wealths, so those lead as ``-inf`` and are
       trimmed.  An O(N) check that the utilities ascend and that the trim
       drops as many draws as step 1 counted guards this; should it fail,
       the draw-order utilities are filtered and sorted instead.  They give
       the utility ECDF and :func:`_summary_of_sorted`.

    The peak is the buffer and a length-N mask, with no second float array.
    """
    lam = 1.0 - ra.gamma
    infeasible = _utilities(scenarios.wealth(weights, gross_rf, out=buf), lam)
    finite = _finite_front(buf)
    nonfinite = buf.shape[0] - finite.shape[0] - infeasible
    mean = sd = None
    if finite.shape[0] >= 2:  # else _sample fails the cell, after the wealth ECDF
        mean, sd = float(np.mean(finite)), _sd_in_place(finite)
    scenarios.wealth(weights, gross_rf, out=buf).sort()
    wealth_table = _ecdf_of_sorted(buf, ecdf_points)
    # The wealths are finite here, so the infeasible ones lead.
    utilities = buf[infeasible:]
    _utilities(utilities, lam)
    lo = int(np.searchsorted(utilities, -np.inf, side="right"))
    if lo == nonfinite and (utilities[1:] >= utilities[:-1]).all():
        utilities = utilities[lo:]
    else:
        _utilities(scenarios.wealth(weights, gross_rf, out=buf), lam)
        utilities = _finite_front(buf)
        utilities.sort()
    utilities = _sample(utilities, 2, "summarize")
    cell = CellResult(
        weights=weights, stats=_summary_of_sorted(utilities, mean, sd),
        infeasible_count=infeasible, nonfinite_count=nonfinite,
    )
    return cell, wealth_table, _ecdf_of_sorted(utilities, ecdf_points)


def _compare_gamma(p, scenarios, ra, gd_cfg, taylor_cfg, ecdf_points) -> tuple[dict, dict]:
    """The cells and ECDF tables of one gamma, keyed as in :class:`ComparisonReport`.

    Each method is solved and its weights evaluated; a :class:`CrraOptError`
    at either step becomes its cell's error, with the weights kept if the
    solve got that far.  Any other exception propagates.  One length-N
    buffer serves the evaluation of every method (:func:`_evaluate_cell`).
    """
    g = ra.gamma
    cells, ecdfs = {}, {}
    buf = np.empty(scenarios.n)
    for method in METHODS:
        weights = None
        try:
            weights = solve_method(method, p, scenarios, ra, gd_cfg, taylor_cfg).weights
            cell, wealth_table, utility_table = _evaluate_cell(
                scenarios, weights, ra, p.gross_rf, ecdf_points, buf
            )
        except CrraOptError as exc:
            cells[(g, method)] = CellResult(
                weights=weights, stats=None, infeasible_count=0, error=str(exc)
            )
        else:
            cells[(g, method)] = cell
            ecdfs[(g, method, "wealth")] = wealth_table
            ecdfs[(g, method, "utility")] = utility_table
    return cells, ecdfs


def _compare_gammas(p, scenarios, ras, gd_cfg, taylor_cfg, ecdf_points) -> list[tuple]:
    """:func:`_compare_gamma` for every risk aversion, on up to one thread per CPU.

    The calling thread is one of the workers.  Each worker takes the next
    gamma until none is left, and results are stored by gamma index, so
    they do not depend on the number of workers or on which worker took
    what.  ``pool.map`` with an idle caller is no faster and needs one more
    thread, whose own malloc arena raised peak RSS by 0.4-1.7 MB on the
    benchmark workloads.
    """
    results: list = [None] * len(ras)
    todo = iter(range(len(ras)))
    todo_lock = threading.Lock()

    def work() -> None:
        while True:
            with todo_lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = _compare_gamma(p, scenarios, ras[i], gd_cfg, taylor_cfg, ecdf_points)

    helpers = worker_count(len(ras)) - 1
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
) -> ComparisonReport:
    """Run every :data:`METHODS` solver on one shared scenario set and summarize.

    Each (gamma, method) cell is :func:`solve_method`'s answer, on its own:
    ``taylor_cfg`` reaches only the Taylor cells and ``gd_cfg`` only the gd
    cells.  Every cell's weights are evaluated on the same scenarios; the
    utility statistics exclude (but count) non-positive-wealth draws and
    draws whose utility overflows.  A :class:`CrraOptError` while solving or
    evaluating a cell is recorded on that cell and does not abort the run;
    any other error propagates.  Before the draw, ``n`` (the statistics need
    2 draws) and ``ecdf_points`` must be integers >= 2, ``seed`` one >= 0,
    and ``gammas`` non-empty, distinct by :func:`fmt_gamma` label, at least
    the admissibility bound and each a valid :class:`RiskAversion`.

    Each gamma is solved, evaluated, summarized and given its ECDFs as one
    task; the tasks run concurrently, on up to one thread per CPU this
    process may run on (the calling thread is one of them), and only read
    the shared scenario set.  Their results are merged in gamma order, so
    the report is bit-identical whatever the number of threads.
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
    for cells, ecdfs in _compare_gammas(p, scenarios, ras, gd_cfg, taylor_cfg, ecdf_points):
        report.cells.update(cells)
        report.ecdfs.update(ecdfs)
    return report
