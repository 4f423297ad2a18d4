"""Fourth-order-expansion fixed point: starting point, updates, convergence."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from crra_opt import (
    GdConfig,
    ValidationError,
    NonFiniteIterate,
    NotConverged,
    RiskAversion,
    ScenarioSet,
    SingularSecondMoment,
    TaylorConfig,
    gamma_lower_bound,
    gd_solve,
    make_params,
    simulate,
    suggest_eta,
    taylor_solve,
    taylor_step,
)
from crra_opt import taylor as taylor_mod
from crra_opt.gradient import _metric

# Frozen from the independent oracle: the fixed point of the exact-moment
# update for the k=1 market (mu=0.05, var=0.01, R_f=1, gamma=10) using
# E[R^3] = mu^3 + 3 mu var and E[R^4] = mu^4 + 6 mu^2 var + 3 var^2 ...
POPULATION_FIXPOINT_K1_G10 = 0.4753040906498136
# ... and the fixed point computed by a standalone implementation on the
# sampled instance simulate(k=1 market, n=200000, seed=777).
SAMPLE_FIXPOINT_K1_G10 = 0.4735363441670723


def _rank_one() -> np.ndarray:
    """401 multiples of one direction in three assets: M2 has rank one."""
    return np.outer(np.linspace(-1.0, 3.0, 401), [0.013, -0.0071, 0.0029])


def _near_rank_one(delta: float = 5e-12) -> np.ndarray:
    """400 draws of ``(r, 2r + delta z)``: M2's second eigenvalue shrinks like ``delta^2``."""
    r = np.random.default_rng(5).normal(0.01, 0.05, 400)
    z = np.random.default_rng(6).normal(0.0, 1.0, 400)
    return np.column_stack([r, 2.0 * r + delta * z])


@pytest.fixture
def symmetric_pairs() -> ScenarioSet:
    returns = np.array([[0.08, -0.02], [-0.08, 0.02], [0.01, 0.05], [-0.01, -0.05]])
    return ScenarioSet(returns=returns, seed=0)


class TestInitialPoint:
    def test_sample_variant_matches_moment_formula(self):
        rng = np.random.default_rng(3)
        returns = rng.normal(0.01, 0.03, size=(500, 2))
        scenarios = ScenarioSet(returns=returns, seed=0)
        ra = RiskAversion(6.0)
        w = taylor_step(scenarios, ra, 1.002, np.zeros(2))
        m2 = returns.T @ returns / len(returns)
        m1 = returns.mean(axis=0)
        expected = 1.002 / 6.0 * np.linalg.solve(m2, m1)
        np.testing.assert_allclose(w, expected, rtol=1e-12)

    def test_symmetric_sample_starts_at_zero(self, symmetric_pairs):
        w = taylor_step(symmetric_pairs, RiskAversion(4.0), 1.0, np.zeros(2))
        np.testing.assert_array_equal(w, np.zeros(2))

    @pytest.mark.parametrize("gamma", [1.5, 5.0, 20.0, 80.0])
    def test_solve_starts_without_a_scenario_pass(self, benchmark_params, monkeypatch, gamma):
        # taylor_solve reads its start from m1; it equals the update at zero
        # bit for bit, and every fold pass is one update.
        scenarios = simulate(benchmark_params, 5_000, 3)
        ra = RiskAversion(gamma)
        start = taylor_step(scenarios, ra, benchmark_params.gross_rf, np.zeros(3))
        steps, folds = [], []
        real_m2_solve, real_fold = taylor_mod._m2_solve, ScenarioSet.fold
        monkeypatch.setattr(taylor_mod, "_m2_solve",
                            lambda *args: steps.append(real_m2_solve(*args)) or steps[-1])
        monkeypatch.setattr(ScenarioSet, "fold",
                            lambda *args, **kw: folds.append(1) or real_fold(*args, **kw))
        report = taylor_solve(scenarios, ra, benchmark_params.gross_rf)
        assert np.array_equal(steps[0].view(np.uint64), start.view(np.uint64))
        assert len(folds) == report.iterations == len(steps) - 1

    def test_rank_one_sample_is_singular(self):
        returns = np.tile(np.array([[0.02, 0.01]]), (50, 1))
        scenarios = ScenarioSet(returns=returns, seed=0)
        with pytest.raises(SingularSecondMoment):
            taylor_step(scenarios, RiskAversion(5.0), 1.0, np.zeros(2))
        with pytest.raises(SingularSecondMoment):
            taylor_solve(scenarios, RiskAversion(5.0), 1.0)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("order_seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("sample", [_rank_one, _near_rank_one],
                             ids=["rank_one", "near_rank_one"])
    def test_rank_one_sample_is_singular_at_any_scale_and_row_order(self, sample, scale,
                                                                    order_seed):
        # M2 has rank one, or its second eigenvalue lies below the rounding
        # left in it; that rounding depends on the scale and on the order in
        # which the rows are summed (None keeps the drawn order).
        returns = sample()
        if order_seed is not None:
            returns = returns[np.random.default_rng(order_seed).permutation(len(returns))]
        scenarios = ScenarioSet(returns=scale * returns, seed=0)
        with pytest.raises(SingularSecondMoment):
            taylor_step(scenarios, RiskAversion(5.0), 1.0, np.zeros(scenarios.k))

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_singular_exactly_where_gd_steps_euclidean(self, scale):
        # Taylor refuses a set exactly when gd's metric leaves a direction of
        # M2 unresolved (Euclidean), and, as the second column nears twice
        # the first, once it refuses it refuses every closer one.
        refused = []
        for delta in (1e-6, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 1e-10):
            scenarios = ScenarioSet(returns=scale * _near_rank_one(delta), seed=0)
            metric = _metric(scenarios)[1]
            lam = np.linalg.eigvalsh(scenarios.m2)
            euclidean = bool(np.any((metric == 1.0) & (lam < lam[-1])))
            try:
                taylor_step(scenarios, RiskAversion(5.0), 1.0, np.zeros(2))
            except SingularSecondMoment:
                refused.append(True)
            else:
                refused.append(False)
            assert refused[-1] == euclidean, delta
        assert refused == sorted(refused)
        assert (refused[0], refused[-1]) == (False, True)


class TestStep:
    def test_symmetric_sample_keeps_odd_moments_only(self, symmetric_pairs):
        # With paired +/- scenarios m1 = 0 and the quadratic term cancels,
        # so the update reduces to the pure cubic correction.
        ra = RiskAversion(4.0)
        w = np.array([0.7, -0.3])
        stepped = taylor_step(symmetric_pairs, ra, 1.0, w)
        returns = symmetric_pairs.returns
        x = returns @ w
        m2 = returns.T @ returns / len(returns)
        cube = returns.T @ (x**3) / len(returns)
        g = ra.gamma
        expected = np.linalg.solve(m2, -(g * (g + 1) * (g + 2) / 6.0) * cube) / g
        np.testing.assert_allclose(stepped, expected, rtol=1e-12)

    def test_symmetric_sample_zero_is_fixed_point(self, symmetric_pairs):
        stepped = taylor_step(symmetric_pairs, RiskAversion(4.0), 1.0, np.zeros(2))
        np.testing.assert_array_equal(stepped, np.zeros(2))

    def test_overflowing_update_is_a_non_finite_iterate(self):
        # (w'R)^3 overflows to inf in the cubic term; the update reports a
        # NonFiniteIterate, which compare records on its cell.
        scenarios = simulate(make_params([0.001], [[0.0005]], 0.0006), 1000, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIterate):
                taylor_step(scenarios, RiskAversion(5.0), 1.0006, np.array([1e110]))

    def test_overflowing_update_warns_nothing(self):
        scenarios = simulate(make_params([0.001], [[0.0005]], 0.0006), 1000, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate):
                taylor_step(scenarios, RiskAversion(5.0), 1.0006, np.array([1e110]))


class TestSolve:
    def test_symmetric_sample_converges_immediately(self, symmetric_pairs):
        report = taylor_solve(symmetric_pairs, RiskAversion(4.0), 1.0)
        assert report.converged
        assert report.iterations <= 2
        np.testing.assert_array_equal(report.weights, np.zeros(2))

    def test_sampled_fixpoint_matches_standalone_oracle(self, single_asset_params):
        scenarios = simulate(single_asset_params, 200_000, 777)
        report = taylor_solve(scenarios, RiskAversion(10.0), 1.0)
        assert report.converged
        assert report.weights[0] == pytest.approx(SAMPLE_FIXPOINT_K1_G10, abs=1e-8)
        # large-sample fixed point sits near the exact-moment fixed point
        assert report.weights[0] == pytest.approx(POPULATION_FIXPOINT_K1_G10, abs=0.02)

    def test_fixed_point_residual_within_tol(self, benchmark_params):
        scenarios = simulate(benchmark_params, 60_000, 45)
        ra = RiskAversion(12.0)
        cfg = TaylorConfig(tol=1e-10)
        report = taylor_solve(scenarios, ra, benchmark_params.gross_rf, cfg)
        again = taylor_step(scenarios, ra, benchmark_params.gross_rf, report.weights)
        assert np.linalg.norm(again - report.weights) <= cfg.tol

    def test_deterministic(self, benchmark_params):
        scenarios = simulate(benchmark_params, 60_000, 46)
        ra = RiskAversion(7.0)
        first = taylor_solve(scenarios, ra, benchmark_params.gross_rf)
        second = taylor_solve(scenarios, ra, benchmark_params.gross_rf)
        np.testing.assert_array_equal(first.weights, second.weights)
        assert (first.iterations, first.converged) == (second.iterations, second.converged)

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_equals_a_chain_of_public_steps(self, make_random_params, k):
        # taylor_solve reuses two work arrays across its updates; each
        # public call allocates its own, so they must agree bit for bit.
        p = make_random_params(np.random.default_rng(k), k)
        scenarios = simulate(p, 20_000, 17)
        ra, cfg = RiskAversion(2.0 * max(gamma_lower_bound(p), 2.0)), TaylorConfig()
        solved = taylor_solve(scenarios, ra, p.gross_rf, cfg)
        w = taylor_step(scenarios, ra, p.gross_rf, np.zeros(k))
        for iteration in range(1, cfg.max_iter + 1):
            update = taylor_step(scenarios, ra, p.gross_rf, w) - w
            w = w + update
            if float(np.linalg.norm(update)) <= cfg.tol:
                break
        assert solved.iterations == iteration > 1
        assert np.array_equal(solved.weights.view(np.uint64), w.view(np.uint64))

    def test_not_converged_carries_partial_report(self, benchmark_params):
        scenarios = simulate(benchmark_params, 20_000, 47)
        cfg = TaylorConfig(tol=1e-14, max_iter=1)
        with pytest.raises(NotConverged) as excinfo:
            taylor_solve(scenarios, RiskAversion(9.0), benchmark_params.gross_rf, cfg)
        report = excinfo.value.report
        assert (report.iterations, report.converged) == (1, False)
        assert report.stopping_residual > cfg.tol

    def test_diverging_solve_is_a_non_finite_iterate_not_a_warning(self):
        # At gamma = 0.5 the update grows like w^3: its length overflows
        # before the update itself does, and neither overflow may warn.
        scenarios = simulate(make_params([0.1], [[0.01]], 0.0), 50, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate, match=r"non-finite weights: \[nan\]"):
                taylor_solve(scenarios, RiskAversion(0.5), 1.0)

    def test_non_contracting_update_is_not_converged(self):
        # On this sample the update cycles instead of contracting; the solve
        # says so rather than stopping on a shortened step.
        scenarios = ScenarioSet(returns=[[0.79], [0.17], [-0.01]], seed=0)
        ra = RiskAversion(1.2)
        cfg = TaylorConfig()
        with pytest.raises(NotConverged) as excinfo:
            taylor_solve(scenarios, ra, 1.0, cfg)
        report = excinfo.value.report
        assert (report.iterations, report.converged) == (cfg.max_iter, False)
        again = taylor_step(scenarios, ra, 1.0, report.weights)
        assert np.linalg.norm(again - report.weights) > cfg.tol

    def test_close_to_gradient_solution_on_small_variance_market(self, benchmark_params):
        scenarios = simulate(benchmark_params, 200_000, 48)
        gross_rf = benchmark_params.gross_rf
        for gamma in (5.0, 20.0):
            ra = RiskAversion(gamma)
            w_taylor = taylor_solve(scenarios, ra, gross_rf).weights
            # gd takes 4 steps at gamma 5 and 3 at gamma 20.
            w_gd = gd_solve(scenarios, ra, gross_rf,
                            GdConfig(eta=suggest_eta(scenarios, ra), max_iter=50)).weights
            assert np.max(np.abs(w_taylor - w_gd)) <= 5e-3


class TestTaylorConfig:
    @pytest.mark.parametrize("kwargs", [dict(tol=0.0), dict(tol=-1.0), dict(max_iter=0),
                                        dict(tol=np.inf), dict(max_iter=2.5)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            TaylorConfig(**kwargs)
