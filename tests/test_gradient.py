"""Sampled-utility objective, gradient, and fixed-step ascent."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crra_opt import (
    GdConfig,
    NonPositiveWealthScenario,
    NotConverged,
    RiskAversion,
    ScenarioSet,
    StepIntoInfeasible,
    ValidationError,
    gamma_lower_bound,
    gd_solve,
    make_params,
    simulate,
    solve_analytical,
    suggest_eta,
    taylor_solve,
    v0,
    v0_gradient,
    v0_hessian,
)
from crra_opt.simulation import _FOLD_BLOCK


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

    @pytest.mark.parametrize("first", [3, _FOLD_BLOCK + 3], ids=["first-block", "second-block"])
    @pytest.mark.parametrize("fn", [v0, v0_gradient, v0_hessian],
                             ids=["v0", "v0_gradient", "v0_hessian"])
    def test_nonpositive_wealth_names_first_scenario(self, fn, first):
        returns = np.full((first + 5, 1), 0.1)
        returns[first], returns[first + 1] = -2.0, -3.0
        scenarios = ScenarioSet(returns=returns, seed=0)
        with pytest.raises(NonPositiveWealthScenario) as excinfo:
            fn(scenarios, np.ones(1), RiskAversion(2.0), 1.0)
        assert excinfo.value.index == first


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

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_matches_the_dense_product(self, k):
        rng = np.random.default_rng(24 + k)
        scenarios = ScenarioSet(returns=rng.normal(0.002, 0.02, size=(5_000, k)), seed=0)
        ra = RiskAversion(6.0)
        w = rng.normal(scale=0.3, size=k)
        cols = scenarios.cols
        v = scenarios.wealth(w, 1.001) ** (-(1.0 + ra.gamma))
        dense = -(ra.gamma / scenarios.n) * ((cols * v) @ cols.T)
        hess = v0_hessian(scenarios, w, ra, 1.001)
        np.testing.assert_array_equal(hess, hess.T)
        assert np.max(np.abs(hess - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_peak_memory_holds_no_k_by_n_temporary(self):
        # A few block-length rows at a time; a (cols * v) temporary would
        # add k N floats.
        n, k = 100_000, 16
        scenarios = ScenarioSet(
            returns=np.random.default_rng(25).normal(0.002, 0.02, size=(n, k)), seed=0)
        w = np.full(k, 0.05)
        tracemalloc.start()
        try:
            v0_hessian(scenarios, w, RiskAversion(6.0), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * 8


class TestGdSolve:
    def test_starts_at_optimum_takes_zero_iterations(self, symmetric_pair):
        report = gd_solve(symmetric_pair, RiskAversion(2.0), 1.0, GdConfig(max_iter=1))
        assert report.converged
        assert report.iterations == 0
        assert report.weights[0] == 0.0
        assert report.objective == -1.0

    def test_matches_golden_section_oracle(self, single_asset_params):
        scenarios = simulate(single_asset_params, 50_000, 914)
        ra = RiskAversion(10.0)
        gross_rf = 1.0
        report = gd_solve(scenarios, ra, gross_rf,
                          GdConfig(eta=suggest_eta(scenarios, ra), tol=1e-10, max_iter=100))
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
        assert report.stopping_residual > 1e-12

    def test_zero_sample_is_stationary_at_the_start(self):
        # M2 = 0: the metric is Euclidean and the gradient zero everywhere.
        scenarios = ScenarioSet(returns=np.zeros((7, 2)), seed=0)
        report = gd_solve(scenarios, RiskAversion(5.0), 1.0, GdConfig(eta=0.1, max_iter=1))
        assert (report.converged, report.iterations, report.stopping_residual) == (
            True, 0, 0.0)

    def test_rank_one_sample_is_the_one_asset_problem(self):
        # The second asset is twice the first, so M2 has rank one: gd moves
        # only along (1, 2) and solves the one-asset problem in w1 + 2 w2.
        r = np.random.default_rng(32).normal(0.01, 0.05, size=400)
        ra, cfg = RiskAversion(5.0), GdConfig(max_iter=50)
        pair = gd_solve(ScenarioSet(returns=np.column_stack([r, 2.0 * r]), seed=0), ra, 1.0, cfg)
        single = gd_solve(ScenarioSet(returns=r[:, None], seed=0), ra, 1.0, cfg)
        assert pair.converged and pair.iterations == single.iterations
        assert pair.weights[1] == pytest.approx(2.0 * pair.weights[0], rel=1e-12)
        assert pair.weights[0] + 2.0 * pair.weights[1] == pytest.approx(single.weights[0],
                                                                       rel=1e-12)

    def test_infeasible_start_rejected(self, symmetric_pair):
        # The zero start's wealth is R_f in every scenario.
        with pytest.raises(NonPositiveWealthScenario):
            gd_solve(symmetric_pair, RiskAversion(2.0), 0.0)

    def test_step_that_never_stays_feasible_is_step_into_infeasible(self):
        # eta = 1e20 overshoots the wealth boundary by far more than 60
        # halvings can take back; no numpy warning comes first.
        scenarios = simulate(make_params([0.1], [[0.01]], 0.0), 200, 1)
        with pytest.raises(StepIntoInfeasible, match="60 halvings at iteration 0"):
            gd_solve(scenarios, RiskAversion(6.0), 1.0, GdConfig(eta=1e20))

    def test_overflowing_gradient_is_step_into_infeasible(self):
        # The pinned first step lands at w = 3.1, where the crash draw's
        # wealth 0.07 to the power -400 overflows: the next step is
        # infinite, and no halving makes it finite.
        scenarios = ScenarioSet(returns=[[0.1]] * 100 + [[-0.3]], seed=0)
        ra = RiskAversion(400.0)
        eta = 3.1 / v0_gradient(scenarios, np.zeros(1), ra, 1.0)[0]
        with np.errstate(over="ignore"), pytest.raises(StepIntoInfeasible,
                                                       match="halvings at iteration 1"):
            gd_solve(scenarios, ra, 1.0, GdConfig(eta=eta))

    @pytest.mark.parametrize("c", [1e-2, 1.0, 1e2])
    def test_rescaled_returns_give_rescaled_weights(self, benchmark_params, c):
        # R -> cR maps the optimum to w / c; from the zero start the auto
        # step and the stopping norm make every iterate w(i) / c as well.
        scenarios = simulate(benchmark_params, 20_000, 33)
        ra = RiskAversion(10.0)
        gross_rf, cfg = benchmark_params.gross_rf, GdConfig(max_iter=40)
        unit = gd_solve(scenarios, ra, gross_rf, cfg)
        scaled = gd_solve(ScenarioSet(returns=c * scenarios.returns, seed=0), ra, gross_rf, cfg)
        assert (scaled.converged, scaled.iterations) == (unit.converged, unit.iterations)
        np.testing.assert_allclose(c * scaled.weights, unit.weights, rtol=1e-10, atol=0.0)

    @pytest.mark.xfail(strict=True, raises=NotConverged, reason=(
        "gd converges; it does not, see the CHANGES.md FOUND line 'fixed-step gd cannot "
        "converge when the sampled optimum sits next to the wealth boundary'"))
    def test_converges_next_to_the_wealth_boundary(self):
        # A hundred +10% draws and one -30% draw: the optimum, w = 2.61,
        # leaves the crash draw a wealth of 0.22, where the Hessian is far
        # steeper than at the zero start.
        scenarios = ScenarioSet(returns=[[0.1]] * 100 + [[-0.3]], seed=0)
        assert gd_solve(scenarios, RiskAversion(2.0), 1.0, GdConfig(max_iter=1_000)).converged

    @pytest.mark.xfail(strict=True, raises=NotConverged, reason=(
        "gd converges in 1000 steps; it does not, see the CHANGES.md FOUND line 'the M2 "
        "metric is the Hessian at w = 0, and at large gamma it no longer matches the "
        "Hessian at the optimum'"))
    def test_converges_on_a_large_gamma_market(self):
        # Seed 176 of a 300-seed scan in the ranges of random_markets: k = 4
        # and gamma = 63.4, where gd needs 2,049 steps.  9 of the 300
        # markets end NotConverged at 1000 steps.
        rng = np.random.default_rng(176)
        k = int(rng.integers(1, 17))
        a = rng.uniform(-0.03, 0.03, (k, k))
        sigma = a @ a.T + np.diag(rng.uniform(0.5e-4, 1.5e-4, k))
        p = make_params(rng.uniform(-0.015, 0.015, k), sigma, float(rng.uniform(0.0, 0.005)))
        ra = RiskAversion(float(rng.uniform(1.2, 4.0)) * max(gamma_lower_bound(p), 2.0))
        assert (k, round(ra.gamma, 1)) == (4, 63.4)
        scenarios = simulate(p, 2_000, 176)
        assert gd_solve(scenarios, ra, p.gross_rf, GdConfig(max_iter=1_000)).converged

    @pytest.mark.xfail(strict=True, raises=NotConverged, reason=(
        "gd converges in 1000 steps; it does not, see the CHANGES.md FOUND line 'solve --method "
        "gd below gamma 1 grinds to the iteration cap': the M2 metric misfits the Hessian"))
    def test_converges_when_gamma_is_below_one(self):
        # Fifty draws from -0.171 to 0.312 at gamma = 0.5: the optimum,
        # w = 5.8305, leaves the worst draw a wealth of 0.0023, where the
        # Hessian is -2.63 against gamma M2 = 0.0085.
        scenarios = simulate(make_params([0.1], [[0.01]], 0.0), 50, 1)
        assert gd_solve(scenarios, RiskAversion(0.5), 1.0, GdConfig(max_iter=1_000)).converged

    def test_closed_form_overweights_on_large_j_market(self, single_asset_params):
        # The log-normal proxy behind the closed form scales positions by
        # roughly gamma/(gamma-1) relative to the sampled-utility optimum,
        # which is material when J = mu'sigma^-1 mu is large (here 0.25).
        scenarios = simulate(single_asset_params, 100_000, 915)
        ra = RiskAversion(10.0)
        report = gd_solve(scenarios, ra, 1.0,
                          GdConfig(eta=suggest_eta(scenarios, ra), max_iter=70))
        w_closed = solve_analytical(single_asset_params, ra).weights
        assert report.weights[0] < w_closed[0]
        assert report.weights[0] == pytest.approx(
            w_closed[0] * (ra.gamma - 1.0) / ra.gamma, rel=0.10
        )

    def test_ill_conditioned_wide_market_takes_few_steps(self, make_random_params):
        # The M2 metric makes every direction progress alike; a Euclidean
        # step needs 779 steps on this sample (M2's condition number is 49).
        p = make_random_params(np.random.default_rng(3), k=16)
        scenarios = simulate(p, 20_000, 7)
        ra = RiskAversion(2.0 * max(gamma_lower_bound(p), 2.0))
        report = gd_solve(scenarios, ra, p.gross_rf, GdConfig(max_iter=100))
        assert report.converged
        assert report.iterations <= 40

    def test_isotropic_second_moment_takes_euclidean_steps(self):
        # Whitened draws: M2 = 0.0025 I up to rounding, so the metric is
        # Euclidean and gd must follow the plain eta * grad path.
        z = np.random.default_rng(41).normal(0.01, 0.05, size=(400, 4))
        chol = np.linalg.cholesky(z.T @ z / 400)
        scenarios = ScenarioSet(returns=0.05 * np.linalg.solve(chol, z.T).T, seed=0)
        ra = RiskAversion(5.0)
        eta = suggest_eta(scenarios, ra)
        # gd's stopping norm, sqrt(g' M2^-1 g); the path takes 15 steps.
        m2_inv = np.linalg.inv(scenarios.m2)
        path = [np.zeros(4)]
        while len(path) <= 60 and (math.sqrt(
                (grad := v0_gradient(scenarios, path[-1], ra, 1.0)) @ m2_inv @ grad)
                > GdConfig.tol):
            step = eta * grad
            while scenarios.wealth(path[-1] + step, 1.0).min() <= 0.0:
                step = 0.5 * step
            path.append(path[-1] + step)
        assert 10 < len(path) <= 60
        report = gd_solve(scenarios, ra, 1.0, GdConfig(max_iter=60))
        assert report.iterations == len(path) - 1
        for budget in range(1, len(path)):
            try:
                weights = gd_solve(scenarios, ra, 1.0, GdConfig(max_iter=budget)).weights
            except NotConverged as exc:
                weights = exc.report.weights
            np.testing.assert_allclose(weights, path[budget], rtol=0.0,
                                       atol=1e-14 * np.max(np.abs(path[budget])))

    def test_dominates_other_solvers_on_shared_sample(self, benchmark_params):
        scenarios = simulate(benchmark_params, 100_000, 8)
        ra = RiskAversion(10.0)
        gross_rf = benchmark_params.gross_rf
        report = gd_solve(scenarios, ra, gross_rf,
                          GdConfig(eta=suggest_eta(scenarios, ra), max_iter=40))
        w_closed = solve_analytical(benchmark_params, ra).weights
        w_taylor = taylor_solve(scenarios, ra, gross_rf).weights
        assert report.objective >= v0(scenarios, w_closed, ra, gross_rf) - 1e-6
        assert report.objective >= v0(scenarios, w_taylor, ra, gross_rf) - 1e-6


@st.composite
def random_markets(draw):
    """A PD market in the ranges of the ``make_random_params`` fixture."""
    k = draw(st.integers(1, 16))

    def floats(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    a = floats(-0.03, 0.03, k * k).reshape(k, k)
    sigma = a @ a.T + np.diag(floats(0.5e-4, 1.5e-4, k))
    mu = floats(-0.015, 0.015, k)
    if float(mu @ np.linalg.solve(sigma, mu)) < 1e-10:
        mu = mu + 0.003
    return make_params(mu, sigma, draw(st.floats(0.0, 0.005)))


def _newton_answer(scenarios, w, ra: RiskAversion, gross_rf: float) -> np.ndarray:
    """Undamped Newton steps on V0 from ``w`` while the gradient norm falls."""
    grad = v0_gradient(scenarios, w, ra, gross_rf)
    for _ in range(50):
        cand = w - np.linalg.solve(v0_hessian(scenarios, w, ra, gross_rf), grad)
        cand_grad = v0_gradient(scenarios, cand, ra, gross_rf)
        if np.linalg.norm(cand_grad) >= np.linalg.norm(grad):
            break  # at rounding level
        w, grad = cand, cand_grad
    return w


@settings(max_examples=40, deadline=None)
@given(p=random_markets(), gamma_scale=st.floats(1.2, 4.0), seed=st.integers(0, 2**32 - 1))
def test_gd_lands_next_to_the_newton_answer(p, gamma_scale, seed):
    # gd stops once sqrt(g' M2^+ g) <= tol, so |g| <= sqrt(lambda_max(M2)) tol,
    # and its answer lies within about |g| / lambda_min(-H) of the optimum.
    scenarios = simulate(p, 2_000, seed)
    ra = RiskAversion(gamma_scale * max(gamma_lower_bound(p), 2.0))
    cfg = GdConfig()
    report = gd_solve(scenarios, ra, p.gross_rf, cfg)
    assert report.converged
    newton = _newton_answer(scenarios, report.weights, ra, p.gross_rf)
    lam_min = float(np.linalg.eigvalsh(-v0_hessian(scenarios, newton, ra, p.gross_rf))[0])
    lam_max = float(np.linalg.eigvalsh(scenarios.m2)[-1])
    bound = 4.0 * math.sqrt(lam_max) * cfg.tol / lam_min
    assert np.max(np.abs(report.weights - newton)) <= bound


class TestGdConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(eta=0.0), dict(eta=-1.0), dict(tol=0.0), dict(max_iter=0),
         dict(eta=math.inf), dict(tol=math.inf), dict(max_iter=2.5), dict(max_iter=10.0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
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
        auto = gd_solve(scenarios, ra, benchmark_params.gross_rf, GdConfig(eta=None, max_iter=40))
        pinned = gd_solve(scenarios, ra, benchmark_params.gross_rf,
                          GdConfig(eta=suggest_eta(scenarios, ra), max_iter=40))
        np.testing.assert_array_equal(auto.weights, pinned.weights)
        assert auto.iterations == pinned.iterations

    def test_enables_fast_convergence(self, benchmark_params):
        scenarios = simulate(benchmark_params, 50_000, 10)
        ra = RiskAversion(15.0)
        cfg = GdConfig(eta=suggest_eta(scenarios, ra), max_iter=2000)
        report = gd_solve(scenarios, ra, benchmark_params.gross_rf, cfg)
        assert report.converged
        assert report.iterations < 2000
