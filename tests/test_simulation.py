"""Scenario generation, strategy evaluation, summaries, and the study driver."""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crra_opt import (
    AllScenariosInfeasible,
    GammaBelowBound,
    GdConfig,
    NonFiniteIterate,
    NotConverged,
    RiskAversion,
    ScenarioSet,
    StepIntoInfeasible,
    SummaryStats,
    TaylorConfig,
    ValidationError,
    compare,
    ecdf,
    evaluate_strategy,
    gamma_lower_bound,
    gd_solve,
    make_params,
    simulate,
    suggest_eta,
    summarize,
    taylor_solve,
    taylor_step,
)
from crra_opt import simulation
from crra_opt.reports import comparison_report_dict, dumps_json, human_comparison_table
from crra_opt.simulation import MAD_SCALE, METHODS

BLOCK = simulation._DRAW_BLOCK
FOLD = simulation._FOLD_BLOCK
# The gd budget of the solves below that do not test gd's defaults: a few
# times the 8-13 steps each takes, so a broken gd fails its test in seconds
# instead of grinding through the default 100,000 steps.
GD_BUDGET = GdConfig(max_iter=50)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def _peak_bytes(fn) -> int:
    """Peak bytes that numpy and Python allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSimulate:
    def test_single_row_is_reproducible(self, benchmark_params):
        a = simulate(benchmark_params, 1, 123)
        b = simulate(benchmark_params, 1, 123)
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_full_set_is_reproducible(self, benchmark_params):
        a = simulate(benchmark_params, 5000, 99)
        b = simulate(benchmark_params, 5000, 99)
        np.testing.assert_array_equal(a.returns, b.returns)
        assert a.seed == 99 and a.n == 5000 and a.k == 3

    def test_different_seeds_differ(self, benchmark_params):
        a = simulate(benchmark_params, 100, 1)
        b = simulate(benchmark_params, 100, 2)
        assert not np.array_equal(a.returns, b.returns)

    def test_draws_are_linear_in_scale(self):
        p1 = make_params([0.03], [[0.01]], 0.0)
        p4 = make_params([0.03], [[0.04]], 0.0)
        a = simulate(p1, 500, 7).returns
        b = simulate(p4, 500, 7).returns
        np.testing.assert_allclose(b, 0.03 + 2.0 * (a - 0.03), rtol=1e-12, atol=1e-14)

    def test_moments_match_population(self):
        sigma = np.diag([0.04, 0.09])
        p = make_params([0.0, 0.0], sigma, 0.0)
        n = 1_000_000
        draws = simulate(p, n, 424242).returns
        tol_mean = 4.0 * np.sqrt(np.diag(sigma)) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) <= tol_mean)
        centered = draws - draws.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        scale = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
        assert np.all(np.abs(cov - sigma) <= 0.01 * scale)

    def test_n_must_be_positive(self, benchmark_params):
        with pytest.raises(ValueError):
            simulate(benchmark_params, 0, 1)

    @pytest.mark.parametrize("k", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_block_draw_equals_one_shot_draw(self, make_random_params, n, k):
        p = make_random_params(np.random.default_rng(k), k)
        z = np.random.default_rng(41).standard_normal((n, k))
        expected = np.einsum("nj,ij->ni", z, p.chol_lower) + p.mu
        scenarios = simulate(p, n, 41)
        assert np.array_equal(_bits(scenarios.returns), _bits(expected))
        assert scenarios.cols.flags.c_contiguous and not scenarios.cols.flags.writeable

    def test_draw_peak_memory(self, make_random_params):
        # One (k, N) array plus two blocks (the normals and their
        # transform); an (N, k) draw copied into the set peaks at twice
        # the array.
        p = make_random_params(np.random.default_rng(16), 16)
        n = 100_000
        simulate(p, BLOCK, 0)
        assert _peak_bytes(lambda: simulate(p, n, 5)) <= 1.2 * p.k * n * 8


class TestScenarioSet:
    @pytest.mark.parametrize(
        "returns",
        [np.zeros((0, 2)), np.zeros(3), np.array([[0.1], [np.inf]]), np.ones((5, 0))],
    )
    def test_invalid_returns(self, returns):
        with pytest.raises(ValueError):
            ScenarioSet(returns=returns, seed=0)

    def test_caller_array_is_copied(self):
        returns = np.random.default_rng(8).normal(0.01, 0.05, size=(30, 2))
        scenarios = ScenarioSet(returns=returns, seed=0)
        before = [a.copy() for a in (scenarios.cols, scenarios.m1, scenarios.m2)]
        returns[:] = 7.0
        for kept, now in zip(before, (scenarios.cols, scenarios.m1, scenarios.m2)):
            assert np.array_equal(_bits(kept), _bits(now))

    def test_reductions_match_plain_numpy(self):
        returns = np.random.default_rng(3).normal(0.01, 0.05, size=(40, 3))
        scenarios = ScenarioSet(returns=returns, seed=0)
        w = np.array([0.5, -0.2, 1.1])
        wealth = 1.001 + returns @ w
        np.testing.assert_allclose(scenarios.wealth(w, 1.001), wealth, rtol=1e-13)
        buf = np.empty(40)
        assert scenarios.wealth(w, 1.001, out=buf) is buf
        assert np.array_equal(_bits(buf), _bits(scenarios.wealth(w, 1.001)))
        np.testing.assert_allclose(
            scenarios.fold(w, 1.001, lambda x, block: np.einsum("ij,j->i", block, x ** -5.0)),
            wealth ** -5.0 @ returns / 40, rtol=1e-13)
        np.testing.assert_allclose(scenarios.m1, returns.mean(axis=0), rtol=1e-13)
        np.testing.assert_allclose(scenarios.m2, returns.T @ returns / 40, rtol=1e-13)
        assert not scenarios.m1.flags.writeable and not scenarios.m2.flags.writeable

    @pytest.mark.parametrize("n", [FOLD - 1, FOLD, FOLD + 1, 3 * FOLD + 5])
    def test_fold_matches_one_pass_of_numpy(self, n):
        # One block sums in the order of one pass over all N scenarios, bit
        # for bit; more blocks only regroup the sums.
        scenarios = ScenarioSet(np.random.default_rng(n).normal(0.001, 0.02, (n, 3)), seed=0)
        w, cols = np.array([0.5, -0.2, 1.1]), scenarios.cols
        x = np.einsum("i,ij->j", w, cols) + 1.0006
        expected = (np.einsum("ij,j->i", cols, x ** -5.0) / n, np.sum(x ** -4.0) / n)
        folded = (
            scenarios.fold(w, 1.0006, lambda x, block: np.einsum("ij,j->i", block, x ** -5.0)),
            scenarios.fold(w, 1.0006, lambda x, block: np.sum(x ** -4.0), positive=True),
        )
        for got, want in zip(folded, expected):
            if n <= FOLD:
                assert np.array_equal(_bits(got), _bits(want))
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13)
        blocks = []
        scenarios.fold(w, 0.0, lambda x, block: blocks.append(block) or 0.0)
        assert max(block.shape[1] for block in blocks) <= FOLD
        assert np.array_equal(np.concatenate(blocks, axis=1), cols)

    @pytest.mark.parametrize("solve, cfg", [(gd_solve, GD_BUDGET), (taylor_solve, None)],
                             ids=["gd", "taylor"])
    def test_solvers_hold_no_length_n_array(self, benchmark_params, solve, cfg):
        # A solve holds a few block-length arrays at a time; one length-N
        # array would take 1.6 MB here.
        scenarios = simulate(benchmark_params, 200_000, 11)
        ra = RiskAversion(10.0)
        solve(simulate(benchmark_params, 100, 11), ra, benchmark_params.gross_rf, cfg)
        peak = _peak_bytes(lambda: solve(scenarios, ra, benchmark_params.gross_rf, cfg))
        assert peak <= 4 * FOLD * 8

    def test_spectrum_of_m2_is_cached_read_only(self):
        returns = np.random.default_rng(4).normal(0.01, 0.05, size=(60, 3))
        scenarios = ScenarioSet(returns=returns, seed=0)
        lam, vecs = scenarios.m2_eigvals, scenarios.m2_eigvecs
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(scenarios.m2), rtol=1e-12)
        np.testing.assert_allclose(np.einsum("ij,j,lj->il", vecs, lam, vecs), scenarios.m2,
                                   rtol=1e-12)
        assert scenarios.m2_resolved.dtype == bool and scenarios.m2_resolved.all()
        assert not any(a.flags.writeable
                       for a in (lam, vecs, scenarios.m2_resolved))

    def test_m2_is_factored_once_per_set(self, benchmark_params, monkeypatch):
        # Every solver reads the set's cached spectrum: with the factorizations
        # unavailable after the draw, each returns bitwise the same answer.
        scenarios = simulate(benchmark_params, 5_000, 12)
        ra, gross_rf = RiskAversion(10.0), benchmark_params.gross_rf
        calls = {
            "suggest_eta": lambda: suggest_eta(scenarios, ra),
            "gd_solve": lambda: gd_solve(scenarios, ra, gross_rf, GD_BUDGET).weights,
            "taylor_step": lambda: taylor_step(scenarios, ra, gross_rf, np.full(3, 0.1)),
            "taylor_solve": lambda: taylor_solve(scenarios, ra, gross_rf).weights,
        }
        expected = {name: call() for name, call in calls.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("M2 was factored again")

        for name in ("eigh", "eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name, call in calls.items():
            assert np.array_equal(_bits(call()), _bits(expected[name])), name

    def test_sets_compare_by_identity(self):
        a = ScenarioSet(returns=np.ones((3, 2)), seed=0)
        b = ScenarioSet(returns=np.ones((3, 2)), seed=0)
        assert a == a and a != b
        assert len({a, b}) == 2


class TestEvaluateStrategy:
    def test_risk_free_strategy(self):
        scenarios = ScenarioSet(returns=np.random.default_rng(0).normal(size=(50, 1)) * 0.01,
                                seed=0)
        outcome = evaluate_strategy(scenarios, np.zeros(1), RiskAversion(5.0), 1.0006)
        expected = 1.0006 ** (-4.0) / (-4.0)
        np.testing.assert_allclose(outcome.utilities, expected, rtol=1e-15)
        np.testing.assert_allclose(outcome.wealths, 1.0006, rtol=1e-15)
        assert outcome.infeasible_count == 0

    def test_symmetric_pair(self):
        scenarios = ScenarioSet(returns=np.array([[0.1], [-0.1]]), seed=0)
        outcome = evaluate_strategy(scenarios, np.ones(1), RiskAversion(2.0), 1.0)
        np.testing.assert_allclose(outcome.utilities, [-1.0 / 1.1, -1.0 / 0.9], rtol=1e-15)

    def test_infeasible_scenarios_counted_not_dropped(self):
        scenarios = ScenarioSet(returns=np.array([[0.1], [-2.0], [0.2]]), seed=0)
        outcome = evaluate_strategy(scenarios, np.ones(1), RiskAversion(3.0), 1.0)
        assert outcome.infeasible_count == 1
        assert outcome.wealths.shape == (3,)
        assert np.isnan(outcome.utilities[1])
        assert np.isfinite(outcome.utilities[[0, 2]]).all()

    def test_all_infeasible(self):
        scenarios = ScenarioSet(returns=np.full((4, 1), -2.0), seed=0)
        with pytest.raises(AllScenariosInfeasible):
            evaluate_strategy(scenarios, np.ones(1), RiskAversion(3.0), 1.0)


class TestSummarize:
    def test_three_values(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.sd == pytest.approx(1.0, rel=1e-15)
        assert stats.median == 2.0
        assert stats.mad == pytest.approx(1.4826, rel=1e-15)

    def test_constant_vector(self):
        stats = summarize(np.full(10, 3.25))
        assert stats.sd == 0.0 and stats.mad == 0.0
        assert stats.mean == 3.25 and stats.median == 3.25

    def test_even_sample_median_averages_middle_pair(self):
        assert summarize([1.0, 2.0, 3.0, 4.0]).median == 2.5

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            summarize([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            summarize([1.0, bad, 3.0])

    @pytest.mark.parametrize("x", [[1e308, 1e308], [0.0, 1.5e308, 1.6e308, 2.0],
                                   [-1e308, -1.5e308, 3.0, -1.2e308]])
    def test_overflowing_median_follows_the_np_median_formulas(self, x):
        # The middle pair's sum overflows, so the median is infinite and so
        # is every deviation from it.
        x = np.array(x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_stats(summarize(x), _np_median_summary(x))


@st.composite
def _tied_samples(draw):
    """Samples of 2-500 values from a pool of 1 to n values, either chosen
    by hypothesis or normal draws: a small pool gives heavy ties, a pool of
    one a constant sample."""
    n = draw(st.integers(2, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.asarray(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=n)))
    else:
        pool = rng.normal(draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 1e3)),
                          size=draw(st.integers(1, n)))
    # +0.0 turns -0.0 into 0.0: neither a sort nor a partition fixes the
    # order of zeros of both signs, so a median of them may take either.
    return pool[rng.integers(pool.shape[0], size=n)] + 0.0


def _np_median_summary(x) -> SummaryStats:
    """The statistics by numpy's ``np.median`` formulas, with the mean and
    sd of the sorted sample."""
    med, ascending = float(np.median(x)), np.sort(x)
    return SummaryStats(
        mean=float(ascending.mean()), sd=float(ascending.std(ddof=1)), median=med,
        mad=MAD_SCALE * float(np.median(np.abs(x - med))),
    )


def _same_stats(a: SummaryStats, b: SummaryStats) -> bool:
    return np.array_equal(_bits(dataclasses.astuple(a)), _bits(dataclasses.astuple(b)))


@settings(max_examples=300, deadline=None)
@given(x=_tied_samples())
@example(x=np.full(7, -2.5))
@example(x=np.array([-3.0, 1.0, 1.0, 4.0]))
@example(x=np.array([1.0, -1.0]))
@example(x=np.array([0.5, 0.25]))  # n = 2
@example(x=np.array([-1.0, 10.0, 4.0]))  # n = 3
@example(x=np.array([0.0, 0.0, 0.0, 5.0]))  # every deviation right of the median
@example(x=np.array([2.0, 2.0, 2.0, 2.0, 9.0]))  # a run of ties at the median
@example(x=np.array([-1.5, -1.5, -1.5, -1.5, 0.25, 3.0]))  # the median is the minimum
@example(x=np.array([5e-324, 2e-323]))  # the MAD search asks for a deviation of rank -1
def test_summarize_equals_the_np_median_formulas(x):
    assert _same_stats(summarize(x), _np_median_summary(x))


@pytest.mark.parametrize("n", [2, 7, 9, 130, 4_001, 100_000])
def test_summarize_does_not_depend_on_the_order_of_the_values(n):
    # Sizes on both sides of numpy's pairwise-sum blocks (8 and 128).
    rng = np.random.default_rng(n)
    x = rng.lognormal(0.0, 2.0, n) - rng.lognormal(0.0, 2.0, n)
    for _ in range(3):
        assert _same_stats(summarize(rng.permutation(x)), summarize(x))


def test_summarize_equals_the_np_median_formulas_on_normal_samples():
    # Distinct values: a MAD partition that misses the lower middle
    # deviation of an even sample shows on a few percent of them.
    rng = np.random.default_rng(2024)
    for n in rng.integers(2, 400, size=300):
        x = rng.normal(size=n)
        assert _same_stats(summarize(x), _np_median_summary(x)), n


class TestEcdf:
    def test_grid_at_sample_points(self):
        table = ecdf([1.0, 2.0, 3.0, 4.0], 4)
        np.testing.assert_allclose(table[:, 0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(table[:, 1], [0.25, 0.5, 0.75, 1.0])

    def test_constant_vector_jumps_to_one(self):
        table = ecdf(np.full(5, 2.0), 3)
        np.testing.assert_allclose(table[:, 1], 1.0)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(77)
        table = ecdf(rng.normal(size=1000), 64)
        f = table[:, 1]
        assert np.all(np.diff(f) >= 0.0)
        assert np.all(f > 0.0) and f[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ecdf([], 4)
        with pytest.raises(ValueError):
            ecdf([1.0, 2.0], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ecdf([1.0, 2.0, bad], 3)

    def test_grid_points_checked_before_the_values(self):
        with pytest.raises(ValidationError, match="grid_points"):
            ecdf([np.nan], 1)


class TestEvaluateCell:
    """``compare``'s per-cell evaluation against the public functions."""

    @staticmethod
    def _set_with_infeasible_draws(make_random_params, n):
        # Every 50th draw is a loss of 150 %, so the unit-weight strategy
        # has infeasible draws and its utilities are filtered.
        p = make_random_params(np.random.default_rng(5), 3)
        returns = simulate(p, n, 12).returns.copy()
        returns[::50] = -1.5
        return p, ScenarioSet(returns=returns, seed=12)

    @staticmethod
    def _public_route(scenarios, w, ra, gross_rf, ecdf_points):
        """The cell and its wealth and utility tables by the public functions."""
        outcome = evaluate_strategy(scenarios, w, ra, gross_rf, method="gd")
        finite = outcome.utilities[np.isfinite(outcome.utilities)]
        infeasible = outcome.infeasible_count
        cell = simulation.CellResult(
            weights=w, stats=summarize(finite), infeasible_count=infeasible,
            nonfinite_count=scenarios.n - finite.shape[0] - infeasible)
        return cell, ecdf(outcome.wealths, ecdf_points), ecdf(finite, ecdf_points)

    @staticmethod
    def _assert_same(result, expected):
        (cell, *tables), (want, *want_tables) = result, expected
        assert cell.infeasible_count == want.infeasible_count
        assert cell.nonfinite_count == want.nonfinite_count
        assert _same_stats(cell.stats, want.stats)
        for table, want_table in zip(tables, want_tables):
            assert np.array_equal(_bits(table), _bits(want_table))

    @pytest.mark.parametrize("n", [4_001, 4_000])
    @pytest.mark.parametrize("gamma", [3.0, 30.0])
    def test_equals_summarize_and_ecdf(self, make_random_params, n, gamma):
        p, scenarios = self._set_with_infeasible_draws(make_random_params, n)
        w, ra = np.full(3, 1.0 / 3.0), RiskAversion(gamma)
        public = self._public_route(scenarios, w, ra, p.gross_rf, 64)
        assert public[0].infeasible_count > 0
        result = simulation._evaluate_cell(scenarios, w, ra, p.gross_rf, 64, np.empty(n))
        self._assert_same(result, public)

    def test_overflowing_utilities_are_trimmed(self):
        # At gamma = 30 a wealth below ~1e-11 overflows W^(1-gamma): those
        # draws lead the sorted utilities as -inf, after the infeasible ones.
        wealth = np.exp(np.random.default_rng(3).normal(0.0, 1.0, 3_001))
        wealth[::10] = 1e-12
        wealth[5::20] = -0.5
        scenarios = ScenarioSet(returns=(wealth - 1.0)[:, None], seed=0)
        ra = RiskAversion(30.0)
        public = self._public_route(scenarios, np.ones(1), ra, 1.0, 32)
        assert (public[0].infeasible_count, public[0].nonfinite_count) == (150, 301)
        result = simulation._evaluate_cell(scenarios, np.ones(1), ra, 1.0, 32, np.empty(3_001))
        self._assert_same(result, public)

    def test_reused_buffer_equals_a_fresh_one(self, make_random_params):
        # compare hands one buffer to the three cells of a gamma in turn.
        n = 5_003
        p, scenarios = self._set_with_infeasible_draws(make_random_params, n)
        buf = np.full(n, np.nan)
        for w, g in [(np.ones(3), 5.0), (np.full(3, 0.2), 30.0), (np.zeros(3), 2.0)]:
            args = (scenarios, w, RiskAversion(g), p.gross_rf, 64)
            self._assert_same(simulation._evaluate_cell(*args, buf),
                              simulation._evaluate_cell(*args, np.empty(n)))

    @pytest.mark.parametrize("n", [4_001, 4_000])
    @pytest.mark.parametrize("gamma", [3.0, 30.0])
    def test_does_not_depend_on_the_order_of_the_draws(self, make_random_params, n, gamma):
        p, scenarios = self._set_with_infeasible_draws(make_random_params, n)
        rng = np.random.default_rng(n)
        for w in (np.full(3, 1.0 / 3.0), rng.normal(size=3)):
            args = (w, RiskAversion(gamma), p.gross_rf, 64)
            result = simulation._evaluate_cell(scenarios, *args, np.empty(n))
            for _ in range(3):
                permuted = ScenarioSet(returns=rng.permutation(scenarios.returns), seed=12)
                self._assert_same(simulation._evaluate_cell(permuted, *args, np.empty(n)),
                                  result)

    def test_utilities_that_do_not_ascend_are_sorted(self, make_random_params, monkeypatch):
        # Should the utilities of the sorted wealths not ascend, the cell
        # sorts them.
        n = 4_000
        p, scenarios = self._set_with_infeasible_draws(make_random_params, n)
        w, ra = np.full(3, 1.0 / 3.0), RiskAversion(5.0)
        public = self._public_route(scenarios, w, ra, p.gross_rf, 64)
        real_utilities, calls = simulation._utilities, []

        def swapped(x, lam):
            infeasible = real_utilities(x, lam)
            calls.append(x.shape[0])
            x[[10, 20]] = x[[20, 10]]
            return infeasible

        monkeypatch.setattr(simulation, "_utilities", swapped)
        result = simulation._evaluate_cell(scenarios, w, ra, p.gross_rf, 64, np.empty(n))
        assert calls == [n - public[0].infeasible_count]
        self._assert_same(result, public)

    def test_overflowing_top_wealth_fails_as_its_ecdf_does(self):
        # At gamma = 0.5 the top wealth, 1e160 * 1e150, overflows to +inf,
        # and so does its utility; the wealth ECDF refuses the cell first.
        returns = np.array([[1e-160], [-2e-160], [3e-160], [1e150], [0.0]])
        scenarios = ScenarioSet(returns=returns, seed=0)
        w, ra = np.array([1e160]), RiskAversion(0.5)
        outcome = evaluate_strategy(scenarios, w, ra, 1.0)
        assert outcome.utilities[3] == np.inf and outcome.infeasible_count == 1
        with pytest.raises(ValidationError, match="ecdf needs finite values"):
            ecdf(outcome.wealths, 8)
        with pytest.raises(ValidationError, match="ecdf needs finite values"):
            simulation._evaluate_cell(scenarios, w, ra, 1.0, 8, np.empty(5))

    def test_sd_in_place_equals_numpy(self):
        rng = np.random.default_rng(8)
        for x in (rng.normal(-3.0, 1e-3, 100_001), rng.lognormal(0.0, 3.0, 7), [1.0, 2.0]):
            x = np.asarray(x, dtype=float)
            expected = x.std(ddof=1)
            assert _bits(simulation._sd_in_place(x.copy())) == _bits(expected)

    def test_peak_memory(self, make_random_params):
        # The buffer and one length-N mask; the public summarize/ecdf route
        # also holds the utilities, a filtered and a sorted copy.
        n = 100_000
        p, scenarios = self._set_with_infeasible_draws(make_random_params, n)
        args = (scenarios, np.ones(3), RiskAversion(5.0), p.gross_rf, 256)
        simulation._evaluate_cell(*args, np.empty(n))
        assert _peak_bytes(lambda: simulation._evaluate_cell(*args, np.empty(n))) <= 1.25 * n * 8


class TestCompare:
    def test_smoke_small_sample(self, benchmark_params):
        report = compare(benchmark_params, [5.0], n=100, seed=3, gd_cfg=GD_BUDGET)
        assert set(report.cells) == {(5.0, m) for m in METHODS}
        for cell in report.cells.values():
            assert not cell.failed
            assert np.isfinite(cell.stats.mean)
        assert set(report.ecdfs) == {(5.0, m, kind) for m in METHODS
                                     for kind in ("wealth", "utility")}

    def test_gamma_below_bound_rejected(self, benchmark_params):
        with pytest.raises(GammaBelowBound):
            compare(benchmark_params, [1.05, 5.0], n=100, seed=3)

    def test_ecdf_points_checked_before_the_draw(self, benchmark_params, monkeypatch):
        def simulate_unexpected(p, n, seed):
            raise AssertionError("compare drew scenarios")

        monkeypatch.setattr(simulation, "simulate", simulate_unexpected)
        with pytest.raises(ValidationError, match="must be >= 2, got 1"):
            compare(benchmark_params, [10.0], n=500, seed=9, ecdf_points=1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=1), "n must be >= 2, got 1"),
        (dict(n=10, ecdf_points=1), "ecdf_points must be >= 2, got 1"),
    ], ids=["n", "ecdf_points"])
    def test_count_check_names_the_parameter(self, benchmark_params, kwargs, message):
        with pytest.raises(ValidationError) as excinfo:
            compare(benchmark_params, [5.0], seed=1, **kwargs)
        assert str(excinfo.value) == message

    def test_repeated_gamma_labels_checked_before_the_draw(self, benchmark_params,
                                                           monkeypatch):
        # 5 and 5.0000001 share the label "5", which keys comparison.json
        # and names the ECDF files.
        def simulate_unexpected(p, n, seed):
            raise AssertionError("compare drew scenarios")

        monkeypatch.setattr(simulation, "simulate", simulate_unexpected)
        with pytest.raises(ValidationError, match="repeat a value at 6 digits: 5, 5, 10"):
            compare(benchmark_params, [5, 5.0000001, 10], n=2000, seed=1)

    @pytest.mark.parametrize("gammas", [[], [np.nan], [np.inf], [5.0, np.nan]])
    def test_gamma_list_checked_before_the_draw(self, benchmark_params, monkeypatch, gammas):
        draws = []
        real_simulate = simulation.simulate

        def counting_simulate(p, n, seed):
            draws.append(n)
            return real_simulate(p, n, seed)

        monkeypatch.setattr(simulation, "simulate", counting_simulate)
        with pytest.raises(ValidationError):
            compare(benchmark_params, gammas, n=2000, seed=1)
        assert draws == []
        # A gamma below the bound is still a GammaBelowBound, before any draw.
        with pytest.raises(GammaBelowBound):
            compare(benchmark_params, [0.5], n=2000, seed=1)
        assert draws == []

    @pytest.mark.parametrize("n, seed", [(2.5, 1), (100.0, 1), (100, 1.5), (100, None)])
    def test_non_integer_n_or_seed_raises_before_the_draw(self, benchmark_params, monkeypatch,
                                                          n, seed):
        # Truncating n = 2.5 would draw 2 scenarios and report n == 2.
        rngs = []
        real_default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            rngs.append(args)
            return real_default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        with pytest.raises(ValidationError, match="must be an integer"):
            compare(benchmark_params, [5.0], n=n, seed=seed)
        with pytest.raises(ValidationError, match="must be an integer"):
            simulate(benchmark_params, n, seed)
        assert rngs == []

    def test_deterministic(self, benchmark_params):
        a = compare(benchmark_params, [6.0], n=20_000, seed=12, gd_cfg=GD_BUDGET)
        b = compare(benchmark_params, [6.0], n=20_000, seed=12, gd_cfg=GD_BUDGET)
        for key in a.cells:
            np.testing.assert_array_equal(a.cells[key].weights, b.cells[key].weights)
            assert a.cells[key].stats == b.cells[key].stats
        for key in a.ecdfs:
            np.testing.assert_array_equal(a.ecdfs[key], b.ecdfs[key])

    def test_per_cell_failure_does_not_abort_run(self, benchmark_params):
        # One-step gradient budget: the gd cell fails, the others complete.
        cfg = GdConfig(eta=0.1, tol=1e-12, max_iter=1)
        report = compare(benchmark_params, [8.0], n=500, seed=4, gd_cfg=cfg)
        assert report.cells[(8.0, "gd")].failed
        assert not report.cells[(8.0, "analytical")].failed
        assert not report.cells[(8.0, "taylor")].failed

    def test_utilities_negative_for_gamma_above_one(self, benchmark_params):
        report = compare(benchmark_params, [5.0, 12.0], n=2000, seed=5, gd_cfg=GD_BUDGET)
        for cell in report.cells.values():
            assert cell.stats.mean < 0.0
            assert cell.stats.median < 0.0

    def test_all_methods_share_the_direction_at_the_bound(self, benchmark_params):
        # At the admissibility bound every solver's weights stay aligned
        # with sigma^-1 mu even though the scales differ widely.
        bound = gamma_lower_bound(benchmark_params)
        report = compare(benchmark_params, [bound], n=200_000, seed=6, gd_cfg=GD_BUDGET)
        direction = benchmark_params.sigma_inv_mu
        direction = direction / np.linalg.norm(direction)
        for method in METHODS:
            cell = report.cells[(bound, method)]
            assert not cell.failed
            unit = cell.weights / np.linalg.norm(cell.weights)
            assert float(unit @ direction) >= 0.999
            assert np.isfinite(cell.stats.mean)

    @staticmethod
    def _compare_on(monkeypatch, returns, gammas=(200.0,)) -> simulation.ComparisonReport:
        """compare at ``gammas`` and R_f = 1.0006 on fixed one-asset
        ``returns``, with w = 1 from every solver."""
        scenarios = ScenarioSet(returns=returns, seed=0)
        monkeypatch.setattr(simulation, "simulate", lambda p, n, seed: scenarios)
        solved = SimpleNamespace(weights=np.ones(1))
        for method in list(METHODS):
            monkeypatch.setitem(METHODS, method, lambda *args: solved)
        return compare(make_params([0.001], [[0.0005]], 0.0006), gammas,
                       n=len(returns), seed=0)

    def test_overflowing_utility_is_counted_not_dropped(self, monkeypatch):
        # Wealth 1e-6 at gamma = 200: W^(1-gamma) overflows, so a feasible
        # draw has utility -inf and the statistics must leave it out.  The
        # second draw has negative wealth and counts as infeasible only.
        returns = [[-1.000599], [-1.5], [0.01], [0.02], [-0.01]]
        outcome = evaluate_strategy(ScenarioSet(returns=returns, seed=0), [1.0],
                                    RiskAversion(200.0), 1.0006)
        assert outcome.infeasible_count == 1
        assert outcome.utilities[0] == -np.inf
        report = self._compare_on(monkeypatch, returns)
        payload = comparison_report_dict(report)["results"]["200"]
        for method in METHODS:
            cell = report.cells[(200.0, method)]
            assert (cell.infeasible_count, cell.nonfinite_count) == (1, 1)
            assert cell.stats == summarize(outcome.utilities[2:])
            assert payload[method]["nonfinite_count"] == 1

    def test_overflow_is_a_table_row_not_a_warning(self, monkeypatch):
        returns = [[-1.000599], [-1.5], [0.01], [0.02], [-0.01]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = self._compare_on(monkeypatch, returns)
        lines = human_comparison_table(report).splitlines()
        row = lines.index("infeasible".ljust(10) + "1".rjust(16) * 3)
        assert lines[row + 1] == "nonfinite".ljust(10) + "1".rjust(16) * 3

    @pytest.mark.parametrize("wealth, count, gamma, stat", [
        (1e-10, 1, 20.0, "sd"),  # a utility of -5e188 squares past the float range
        (1.5e308 ** (-1 / 199), 300, 200.0, "mean"),  # 300 utilities of -7.5e305 add up past it
    ])
    def test_overflowing_statistic_fails_its_cell(self, monkeypatch, wealth, count, gamma, stat):
        # The gamma = 5 cells stay finite; the overflowing ones fail, named,
        # with no numpy warning, and the JSON of the report stays strict.
        returns = np.random.default_rng(4).normal(0.001, 0.02, (500, 1))
        returns[:count] = wealth - 1.0006
        report = self._compare_on(monkeypatch, returns, (5.0, gamma))
        for method in METHODS:
            assert report.cells[(gamma, method)].error == (
                f"the utility {stat} overflows the float range")
            assert np.isfinite(dataclasses.astuple(report.cells[(5.0, method)].stats)).all()
        assert len(report.ecdfs) == 2 * len(METHODS)
        dumps_json(comparison_report_dict(report))

    def test_too_few_finite_utilities_fail_the_cell(self, monkeypatch):
        # One of two draws overflows: one finite utility is too few for the
        # statistics, which fail their cell instead of the whole run.
        report = self._compare_on(monkeypatch, [[-1.000599], [0.01]])
        for method in METHODS:
            assert report.cells[(200.0, method)].error == (
                "1 of 2 draws has a finite utility; the statistics need at least 2")
        assert not report.ecdfs

    def test_a_failed_cell_reads_failed_in_every_row_of_the_table(self, monkeypatch):
        # Every draw is infeasible, so each cell fails before its counts are
        # measured; the table must not print them as 0.
        report = self._compare_on(monkeypatch, [[-2.0], [-3.0], [-1.5]], (5.0,))
        for method in METHODS:
            assert report.cells[(5.0, method)].error == "every scenario yields non-positive wealth"
        lines = human_comparison_table(report).splitlines()
        assert lines[2:8] == [label.ljust(10) + "failed".rjust(16) * 3 for label in
                              ("mean", "sd", "median", "mad", "infeasible", "nonfinite")]

    def test_a_wealth_of_exactly_zero_is_infeasible(self, monkeypatch):
        # 1.0006 - 1.0006 is 0.0 exactly: the cell's count of its sorted
        # wealths and evaluate_strategy's mask both take W <= 0.
        returns = [[-1.0006], [0.01], [0.02]]
        outcome = evaluate_strategy(ScenarioSet(returns=returns, seed=0), [1.0],
                                    RiskAversion(5.0), 1.0006)
        assert outcome.wealths[0] == 0.0 and np.isnan(outcome.utilities[0])
        assert outcome.infeasible_count == 1
        report = self._compare_on(monkeypatch, returns, (5.0,))
        for method in METHODS:
            cell = report.cells[(5.0, method)]
            assert (cell.infeasible_count, cell.nonfinite_count) == (1, 0)
            assert cell.stats == summarize(outcome.utilities[1:])

    def test_no_positive_wealth_fails_every_cell(self, monkeypatch):
        returns = [[-1.0006], [-1.5], [-1.0007]]
        with pytest.raises(AllScenariosInfeasible, match="every scenario yields non-positive"):
            evaluate_strategy(ScenarioSet(returns=returns, seed=0), [1.0],
                              RiskAversion(5.0), 1.0006)
        report = self._compare_on(monkeypatch, returns, (5.0, 200.0))
        assert len(report.cells) == 2 * len(METHODS)
        for cell in report.cells.values():
            assert cell.error == "every scenario yields non-positive wealth"
        assert not report.ecdfs

    def test_risk_ordering_on_benchmark_market(self, benchmark_params):
        report = compare(benchmark_params, [5.0, 15.0], n=150_000, seed=13, gd_cfg=GD_BUDGET)
        for g in (5.0, 15.0):
            sd_analytical = report.cells[(g, "analytical")].stats.sd
            sd_gd = report.cells[(g, "gd")].stats.sd
            mad_analytical = report.cells[(g, "analytical")].stats.mad
            mad_gd = report.cells[(g, "gd")].stats.mad
            assert sd_analytical >= sd_gd
            assert mad_analytical >= mad_gd


class TestSolveMethod:
    def test_default_configs_match_compare_cells(self, benchmark_params):
        report = compare(benchmark_params, [10.0], n=5_000, seed=23)
        scenarios = simulate(benchmark_params, 5_000, 23)
        ra = RiskAversion(10.0)
        solved = simulation.solve_methods(METHODS, benchmark_params, scenarios, ra)
        assert list(solved) == list(METHODS)
        for method, outcome in solved.items():
            np.testing.assert_array_equal(outcome.weights, report.cells[(10.0, method)].weights)

    def test_gd_without_config_matches_dispatch(self, benchmark_params):
        scenarios = simulate(benchmark_params, 5_000, 23)
        ra = RiskAversion(10.0)
        direct = gd_solve(scenarios, ra, benchmark_params.gross_rf)
        dispatched = simulation.solve_methods(("gd",), benchmark_params, scenarios, ra)["gd"]
        np.testing.assert_array_equal(direct.weights, dispatched.weights)
        assert direct.iterations == dispatched.iterations

    # Each iterative table entry's default setting and one that stops it short.
    ITERATIVE = {
        "taylor": (TaylorConfig(), TaylorConfig(max_iter=2)),
        "gd": (GdConfig(), GdConfig(eta=0.1, max_iter=5)),
    }

    @pytest.mark.parametrize("method", ["taylor", "gd"])
    def test_converged_exactly_when_the_residual_is_within_tol(self, benchmark_params, method):
        assert set(self.ITERATIVE) == set(METHODS) - {"analytical"}
        scenarios = simulate(benchmark_params, 2_000, 6)
        ra = RiskAversion(8.0)
        converged = []
        for cfg in self.ITERATIVE[method]:
            # Passed as both configs: each entry reads only its own.
            report = simulation.solve_methods((method,), benchmark_params, scenarios, ra,
                                              cfg, cfg)[method]
            if isinstance(report, NotConverged):
                report = report.report
            assert report.converged == (report.stopping_residual <= cfg.tol)
            converged.append(report.converged)
        assert converged == [True, False]

    def test_unknown_method(self, benchmark_params, monkeypatch):
        # Every name is checked before the first solve runs.
        def never(*args):
            raise AssertionError("gd ran before the names were checked")

        monkeypatch.setitem(METHODS, "gd", never)
        with pytest.raises(ValidationError, match="unknown method 'newton'"):
            simulation.solve_methods(("gd", "newton"), benchmark_params, None,
                                     RiskAversion(10.0))

    def test_failed_solve_maps_to_its_error_in_the_given_order(self, benchmark_params,
                                                               monkeypatch):
        error = NonFiniteIterate("Taylor solve failed")

        def fail(*args):
            raise error

        monkeypatch.setitem(METHODS, "taylor", fail)
        solved = simulation.solve_methods(("taylor", "analytical"), benchmark_params, None,
                                          RiskAversion(10.0))
        assert list(solved) == ["taylor", "analytical"]
        assert solved["taylor"] is error
        assert solved["analytical"].weights.shape == (3,)
        with pytest.raises(GammaBelowBound):
            simulation.solve_methods(("analytical",), benchmark_params, None, RiskAversion(1.05))

    def test_taylor_cannot_move_gd(self, benchmark_params, monkeypatch):
        # gd uses nothing of the Taylor solver: with every Taylor solve
        # failing, the gd cells and ECDFs are bitwise those of a normal run.
        gammas = (5.0, 10.0)
        normal = compare(benchmark_params, gammas, n=5_000, seed=23, gd_cfg=GD_BUDGET)

        def taylor_solve(*args, **kwargs):
            raise NonFiniteIterate("Taylor solve failed")

        monkeypatch.setattr(simulation, "taylor_solve", taylor_solve)
        broken = compare(benchmark_params, gammas, n=5_000, seed=23, gd_cfg=GD_BUDGET)
        for g in gammas:
            assert broken.cells[(g, "taylor")].error == "Taylor solve failed"
            cell, expected = broken.cells[(g, "gd")], normal.cells[(g, "gd")]
            assert np.array_equal(_bits(cell.weights), _bits(expected.weights))
            assert _same_stats(cell.stats, expected.stats)
            assert (cell.infeasible_count, cell.nonfinite_count, cell.error) == (
                expected.infeasible_count, expected.nonfinite_count, None)
            for kind in ("wealth", "utility"):
                assert np.array_equal(_bits(broken.ecdfs[(g, "gd", kind)]),
                                      _bits(normal.ecdfs[(g, "gd", kind)]))


class TestConcurrentSolve:
    GAMMAS = (5.0, 10.0, 15.0, 20.0)

    def test_worker_count_follows_tasks_and_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert simulation.worker_count(1) == 1
        assert simulation.worker_count(10_000) == cpus

    @pytest.mark.parametrize("cpu_count, workers", [(3, 3), (None, 1)])
    def test_worker_count_without_cpu_affinity(self, monkeypatch, cpu_count, workers):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert simulation.worker_count(8) == workers

    @pytest.mark.parametrize("n", [20_000, 2 * FOLD + 5])
    def test_bitwise_equal_for_any_worker_count(self, benchmark_params, monkeypatch, n):
        # More workers than CPUs and frequent thread switches: every cell
        # must still be solved exactly once and land in its own slot.
        solved_cells = []
        for method, solve in list(METHODS.items()):
            def counted(p, scenarios, ra, gd_cfg, taylor_cfg, method=method, solve=solve):
                solved_cells.append((ra.gamma, method))
                return solve(p, scenarios, ra, gd_cfg, taylor_cfg)

            monkeypatch.setitem(METHODS, method, counted)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(simulation, "worker_count", lambda tasks, w=workers: w)
                solved_cells.clear()
                reports.append(compare(benchmark_params, self.GAMMAS, n=n, seed=21,
                                       gd_cfg=GD_BUDGET))
                assert sorted(solved_cells) == sorted((g, m) for g in self.GAMMAS for m in METHODS)
        finally:
            sys.setswitchinterval(interval)
        first = reports[0]
        for other in reports[1:]:
            assert list(other.cells) == list(first.cells)
            for key, cell in first.cells.items():
                np.testing.assert_array_equal(other.cells[key].weights, cell.weights)
                assert other.cells[key].stats == cell.stats
                assert other.cells[key].error == cell.error
            assert list(other.ecdfs) == list(first.ecdfs)
            for key, table in first.ecdfs.items():
                np.testing.assert_array_equal(other.ecdfs[key], table)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_sink_gets_each_gammas_tables_once_and_the_report_keeps_none(
        self, benchmark_params, monkeypatch, workers
    ):
        monkeypatch.setattr(simulation, "worker_count", lambda tasks: workers)
        kept = compare(benchmark_params, self.GAMMAS, n=2_000, seed=25, gd_cfg=GD_BUDGET)
        calls, active, most_active = [], [], []

        def sink(ecdfs):
            active.append(ecdfs)
            most_active.append(len(active))
            time.sleep(0.001)  # long enough for another worker to call too
            calls.append(ecdfs)
            active.remove(ecdfs)

        streamed = compare(benchmark_params, self.GAMMAS, n=2_000, seed=25, gd_cfg=GD_BUDGET,
                           ecdf_sink=sink)
        assert streamed.ecdfs == {}
        assert max(most_active) == 1  # one call at a time
        # One call per gamma, with that gamma's tables only.
        assert sorted(tuple({g for g, _, _ in ecdfs}) for ecdfs in calls) == [
            (g,) for g in self.GAMMAS]
        received = {key: table for ecdfs in calls for key, table in ecdfs.items()}
        assert sorted(received) == sorted(kept.ecdfs)
        for key, table in kept.ecdfs.items():
            np.testing.assert_array_equal(received[key], table)
        for key, cell in kept.cells.items():
            np.testing.assert_array_equal(streamed.cells[key].weights, cell.weights)
            assert streamed.cells[key].stats == cell.stats

    @staticmethod
    def _two_workers(monkeypatch):
        """Run compare on two workers.  The returned ``in_helper()`` holds
        each worker until the other has called it too, then tells whether
        it runs in the worker that is not the calling thread."""
        caller = threading.get_ident()
        both_started = threading.Barrier(2)
        monkeypatch.setattr(simulation, "worker_count", lambda tasks: 2)

        def in_helper() -> bool:
            both_started.wait(timeout=60)
            return threading.get_ident() != caller

        return in_helper

    def _gd_failing_in_helper(self, monkeypatch, error):
        """Two workers, each held until the other has a gamma; gd raises
        ``error(gamma)`` in whichever worker is not the calling thread."""
        in_helper = self._two_workers(monkeypatch)
        real_gd = simulation.gd_solve

        def gd(scenarios, ra, gross_rf, cfg):
            if in_helper():
                raise error(f"helper failed at gamma={ra.gamma:g}")
            return real_gd(scenarios, ra, gross_rf, cfg)

        monkeypatch.setattr(simulation, "gd_solve", gd)

    def test_package_error_in_helper_lands_on_its_own_cell(
        self, benchmark_params, monkeypatch
    ):
        self._gd_failing_in_helper(monkeypatch, StepIntoInfeasible)
        report = compare(benchmark_params, (5.0, 10.0), n=5_000, seed=22, gd_cfg=GD_BUDGET)
        failed = [key for key, cell in report.cells.items() if cell.failed]
        assert len(failed) == 1
        (g, method), = failed
        assert method == "gd"
        assert report.cells[(g, method)].error == f"helper failed at gamma={g:g}"
        assert (g, "gd", "wealth") not in report.ecdfs
        assert len(report.ecdfs) == 2 * 5

    def test_other_error_in_helper_propagates(self, benchmark_params, monkeypatch):
        self._gd_failing_in_helper(monkeypatch, RuntimeError)
        with pytest.raises(RuntimeError, match="helper failed at gamma="):
            compare(benchmark_params, (5.0, 10.0), n=5_000, seed=22, gd_cfg=GD_BUDGET)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_evaluation_error_keeps_its_cell_weights(self, benchmark_params, monkeypatch,
                                                     workers):
        # The cell's utilities come from simulation._utilities, which sees
        # the gamma (as lam = 1 - gamma) but not the method.  One worker
        # evaluates a gamma's cells in METHODS order, so gd is the gamma's
        # n-th call, n its place in METHODS, whichever worker makes it.
        monkeypatch.setattr(simulation, "worker_count", lambda tasks: workers)
        failing, gd_call = 10.0, list(METHODS).index("gd") + 1
        real_utilities, calls = simulation._utilities, {}

        def utilities(x, lam):
            calls[lam] = calls.get(lam, 0) + 1
            if lam == 1.0 - failing and calls[lam] == gd_call:
                raise AllScenariosInfeasible(f"gd failed at gamma={1.0 - lam:g}")
            return real_utilities(x, lam)

        monkeypatch.setattr(simulation, "_utilities", utilities)
        report = compare(benchmark_params, (5.0, 10.0), n=5_000, seed=22, gd_cfg=GD_BUDGET)
        failed = [key for key, cell in report.cells.items() if cell.failed]
        assert failed == [(failing, "gd")]
        cell = report.cells[(failing, "gd")]
        assert cell.error == f"gd failed at gamma={failing:g}"
        assert cell.stats is None
        solved = gd_solve(simulate(benchmark_params, 5_000, 22), RiskAversion(failing),
                          benchmark_params.gross_rf, GD_BUDGET)
        np.testing.assert_array_equal(cell.weights, solved.weights)
        assert (failing, "gd", "wealth") not in report.ecdfs
        assert len(report.ecdfs) == 2 * 5

    @pytest.mark.parametrize("workers", [2, 5])
    def test_other_error_while_evaluating_hands_its_buffer_back(self, benchmark_params,
                                                                monkeypatch, workers):
        # _compare_gamma catches only package errors.  Any other error must
        # still free its buffer: with two workers the other one needs that
        # buffer for its next gamma and would otherwise wait for it forever.
        monkeypatch.setattr(simulation, "worker_count", lambda tasks: workers)
        real_utilities, raised = simulation._utilities, []

        def utilities(x, lam):
            if lam == 1.0 - 5.0:
                raise RuntimeError("evaluation failed at gamma=5")
            return real_utilities(x, lam)

        def run():
            try:
                compare(benchmark_params, self.GAMMAS, n=5_000, seed=22, gd_cfg=GD_BUDGET)
            except RuntimeError as exc:
                raised.append(str(exc))

        monkeypatch.setattr(simulation, "_utilities", utilities)
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "compare waits for a buffer that was never handed back"
        assert raised == ["evaluation failed at gamma=5"]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_workers_share_one_buffer_per_two(self, benchmark_params, monkeypatch, workers):
        # Every cell is evaluated exactly once, in one of ceil(W / 2)
        # buffers, and no buffer serves two cells at once.
        monkeypatch.setattr(simulation, "worker_count", lambda tasks: workers)
        gammas = (5.0, 8.0, 10.0, 12.0, 15.0, 20.0)
        real_evaluate_cell, lock = simulation._evaluate_cell, threading.Lock()
        busy, used, shared, most_busy, evaluated = set(), set(), [], 0, []

        def evaluate_cell(scenarios, weights, ra, gross_rf, ecdf_points, buf):
            nonlocal most_busy
            with lock:
                shared.append(id(buf) in busy)
                busy.add(id(buf))
                used.add(id(buf))
                most_busy = max(most_busy, len(busy))
                evaluated.append((ra.gamma, tuple(weights)))
            try:
                time.sleep(0.001)  # long enough for the other workers to want a buffer
                return real_evaluate_cell(scenarios, weights, ra, gross_rf, ecdf_points, buf)
            finally:
                with lock:
                    busy.discard(id(buf))

        monkeypatch.setattr(simulation, "_evaluate_cell", evaluate_cell)
        report = compare(benchmark_params, gammas, n=2_000, seed=24, gd_cfg=GD_BUDGET)
        pool = -(-workers // 2)
        assert not any(shared)
        assert len(used) == pool and most_busy <= pool
        assert sorted(evaluated) == sorted((g, tuple(report.cells[(g, m)].weights))
                                           for g in gammas for m in METHODS)

    def test_two_workers_share_one_evaluation_buffer(self, benchmark_params, monkeypatch):
        # Two workers hold the draws and one length-N buffer (plus a length-N
        # mask and each solve's fold blocks); a buffer per worker adds 8N bytes.
        n = 1_000_000
        monkeypatch.setattr(simulation, "worker_count", lambda tasks: 2)
        peak = _peak_bytes(lambda: compare(benchmark_params, (5.0, 10.0), n=n, seed=23,
                                           gd_cfg=GD_BUDGET))
        assert peak < (benchmark_params.k + 1.5) * n * 8
