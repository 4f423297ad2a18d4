"""Sampled-utility objective, gradient, and fixed-step ascent."""

from __future__ import annotations

import numpy as np
import pytest

from crra_opt import (
    GdConfig,
    NonPositiveWealthScenario,
    NotConverged,
    RiskAversion,
    ScenarioSet,
    gd_solve,
    simulate,
    solve_analytical,
    suggest_eta,
    taylor_solve,
    v0,
    v0_gradient,
    v0_hessian,
)


@pytest.fixture
def symmetric_pair() -> ScenarioSet:
    return ScenarioSet(returns=np.array([[0.1], [-0.1]]), seed=0)


class TestV0:
    def test_degenerate_sample(self):
        scenarios = ScenarioSet(returns=np.zeros((7, 2)), seed=0)
        ra = RiskAversion(5.0)
        assert v0(scenarios, np.array([0.3, -0.2]), ra, 1.0) == pytest.approx(
            1.0 / (1.0 - 5.0), rel=1e-15
        )

    def test_symmetric_pair_zero_weight(self, symmetric_pair):
        assert v0(symmetric_pair, np.zeros(1), RiskAversion(2.0), 1.0) == -1.0

    def test_symmetric_pair_unit_weight(self, symmetric_pair):
        value = v0(symmetric_pair, np.ones(1), RiskAversion(2.0), 1.0)
        assert value == pytest.approx(-(1.0 / 1.1 + 1.0 / 0.9) / 2.0, rel=1e-15)

    def test_nonpositive_wealth_names_first_scenario(self):
        returns = np.array([[0.1], [0.2], [0.1], [-2.0], [-3.0]])
        scenarios = ScenarioSet(returns=returns, seed=0)
        with pytest.raises(NonPositiveWealthScenario) as excinfo:
            v0(scenarios, np.ones(1), RiskAversion(2.0), 1.0)
        assert excinfo.value.index == 3


class TestV0Gradient:
    def test_zero_sample_gives_zero_gradient(self):
        scenarios = ScenarioSet(returns=np.zeros((5, 3)), seed=0)
        grad = v0_gradient(scenarios, np.zeros(3), RiskAversion(4.0), 1.0)
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_symmetric_pair_is_stationary_at_zero(self, symmetric_pair):
        grad = v0_gradient(symmetric_pair, np.zeros(1), RiskAversion(2.0), 1.0)
        assert grad[0] == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-7
        for _ in range(10):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(50, 400))
            returns = rng.normal(0.01, 0.02, size=(n, k))
            scenarios = ScenarioSet(returns=returns, seed=0)
            ra = RiskAversion(float(rng.uniform(2.0, 8.0)))
            w = rng.normal(scale=0.3, size=k)
            grad = v0_gradient(scenarios, w, ra, 1.001)
            fd = np.empty(k)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd[i] = (
                    v0(scenarios, w + e, ra, 1.001) - v0(scenarios, w - e, ra, 1.001)
                ) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * max(np.linalg.norm(grad), 1e-12)


class TestV0Hessian:
    def test_concavity_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            returns = rng.normal(0.005, 0.02, size=(200, k))
            scenarios = ScenarioSet(returns=returns, seed=0)
            ra = RiskAversion(float(rng.uniform(1.5, 12.0)))
            w = rng.normal(scale=0.2, size=k)
            hess = v0_hessian(scenarios, w, ra, 1.0005)
            assert np.linalg.eigvalsh(hess)[-1] <= 1e-12


class TestGdSolve:
    def test_starts_at_optimum_takes_zero_iterations(self, symmetric_pair):
        report = gd_solve(symmetric_pair, RiskAversion(2.0), 1.0, GdConfig())
        assert report.converged
        assert report.iterations == 0
        assert report.weights[0] == 0.0
        assert report.objective == -1.0

    def test_matches_golden_section_oracle(self, single_asset_params):
        scenarios = simulate(single_asset_params, 50_000, 914)
        ra = RiskAversion(10.0)
        gross_rf = 1.0
        report = gd_solve(scenarios, ra, gross_rf,
                          GdConfig(eta=suggest_eta(scenarios, ra), tol=1e-10))
        lo, hi = 0.0, 1.5
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        c1, c2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        f1 = v0(scenarios, np.array([c1]), ra, gross_rf)
        f2 = v0(scenarios, np.array([c2]), ra, gross_rf)
        for _ in range(120):
            if f1 < f2:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + phi * (hi - lo)
                f2 = v0(scenarios, np.array([c2]), ra, gross_rf)
            else:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - phi * (hi - lo)
                f1 = v0(scenarios, np.array([c1]), ra, gross_rf)
        w_oracle = (lo + hi) / 2.0
        assert report.converged
        assert report.weights[0] == pytest.approx(w_oracle, abs=1e-5)

    def test_objective_non_decreasing_along_iterations(self, benchmark_params):
        # Prefixes of the deterministic iteration expose the ascent path.
        scenarios = simulate(benchmark_params, 4000, 5)
        ra = RiskAversion(6.0)
        eta = suggest_eta(scenarios, ra)
        values = []
        for budget in range(1, 26):
            cfg = GdConfig(eta=eta, tol=1e-14, max_iter=budget)
            try:
                report = gd_solve(scenarios, ra, benchmark_params.gross_rf, cfg)
            except NotConverged as exc:
                report = exc.report
            values.append(report.objective)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_not_converged_carries_partial_report(self, benchmark_params):
        scenarios = simulate(benchmark_params, 2000, 6)
        cfg = GdConfig(eta=0.1, tol=1e-12, max_iter=3)
        with pytest.raises(NotConverged) as excinfo:
            gd_solve(scenarios, RiskAversion(8.0), benchmark_params.gross_rf, cfg)
        report = excinfo.value.report
        assert report.iterations == 3
        assert not report.converged
        assert report.final_gradient_norm > 1e-12

    def test_infeasible_start_rejected(self, symmetric_pair):
        cfg = GdConfig(initial_weights=np.array([20.0]))
        with pytest.raises(NonPositiveWealthScenario):
            gd_solve(symmetric_pair, RiskAversion(2.0), 1.0, cfg)

    def test_closed_form_overweights_on_large_j_market(self, single_asset_params):
        # The log-normal proxy behind the closed form scales positions by
        # roughly gamma/(gamma-1) relative to the sampled-utility optimum,
        # which is material when J = mu'sigma^-1 mu is large (here 0.25).
        scenarios = simulate(single_asset_params, 100_000, 915)
        ra = RiskAversion(10.0)
        report = gd_solve(scenarios, ra, 1.0,
                          GdConfig(eta=suggest_eta(scenarios, ra)))
        w_closed = solve_analytical(single_asset_params, ra).weights
        assert report.weights[0] < w_closed[0]
        assert report.weights[0] == pytest.approx(
            w_closed[0] * (ra.gamma - 1.0) / ra.gamma, rel=0.10
        )

    def test_dominates_other_solvers_on_shared_sample(self, benchmark_params):
        scenarios = simulate(benchmark_params, 100_000, 8)
        ra = RiskAversion(10.0)
        gross_rf = benchmark_params.gross_rf
        report = gd_solve(scenarios, ra, gross_rf,
                          GdConfig(eta=suggest_eta(scenarios, ra)))
        w_closed = solve_analytical(benchmark_params, ra).weights
        w_taylor = taylor_solve(scenarios, ra, gross_rf).weights
        assert report.objective >= v0(scenarios, w_closed, ra, gross_rf) - 1e-6
        assert report.objective >= v0(scenarios, w_taylor, ra, gross_rf) - 1e-6


class TestGdConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(eta=0.0), dict(eta=-1.0), dict(tol=0.0), dict(max_iter=0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GdConfig(**kwargs)


class TestSuggestEta:
    def test_scales_inversely_with_gamma(self, benchmark_params):
        scenarios = simulate(benchmark_params, 50_000, 9)
        eta5 = suggest_eta(scenarios, RiskAversion(5.0))
        eta20 = suggest_eta(scenarios, RiskAversion(20.0))
        assert eta5 > 0.0
        assert eta5 == pytest.approx(4.0 * eta20, rel=1e-12)

    def test_eta_none_takes_suggested_step(self, benchmark_params):
        scenarios = simulate(benchmark_params, 20_000, 9)
        ra = RiskAversion(10.0)
        auto = gd_solve(scenarios, ra, benchmark_params.gross_rf, GdConfig(eta=None))
        pinned = gd_solve(scenarios, ra, benchmark_params.gross_rf,
                          GdConfig(eta=suggest_eta(scenarios, ra)))
        np.testing.assert_array_equal(auto.weights, pinned.weights)
        assert auto.iterations == pinned.iterations

    def test_enables_fast_convergence(self, benchmark_params):
        scenarios = simulate(benchmark_params, 50_000, 10)
        ra = RiskAversion(15.0)
        cfg = GdConfig(eta=suggest_eta(scenarios, ra), max_iter=2000)
        report = gd_solve(scenarios, ra, benchmark_params.gross_rf, cfg)
        assert report.converged
        assert report.iterations < 2000
