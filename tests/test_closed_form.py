"""Closed-form solver: frozen oracle values, identities, root selection."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import BENCHMARK_BOUND, scale_roots
from crra_opt import cli, market
from crra_opt import (
    DegenerateMu,
    GammaBelowBound,
    GdConfig,
    NonPositiveGrossMean,
    RiskAversion,
    SingularDenominator,
    approx_expected_utility,
    compare,
    gamma_lower_bound,
    make_params,
    objective_g,
    objective_g_gradient,
    solve_analytical,
    tangency,
    write_params_json,
)

# Frozen from the independent oracle for the k=1 market (mu=0.05, var=0.01,
# R_f=1, gamma=10): np.roots on the first-order quadratic, and a grid
# maximization of the reduced objective over [0, 2] with step 1e-5.
K1_C = 0.11774900609143764
K1_WEIGHT = 0.5887450304571882
K1_FRONTIER = (0.02943725152285941, 0.003466207108880354)


class TestSingleAssetOracle:
    def test_scale_and_weight(self, single_asset_params):
        sol = solve_analytical(single_asset_params, RiskAversion(10.0))
        assert sol.c == pytest.approx(K1_C, rel=1e-12)
        assert sol.weights[0] == pytest.approx(K1_WEIGHT, rel=1e-12)
        assert abs(sol.foc_residual) <= 1e-10

    def test_matches_quadratic_roots_oracle(self, single_asset_params):
        p, gamma = single_asset_params, 10.0
        j = 0.25
        rf = p.gross_rf
        roots = np.sort(np.roots([j * j, 2 * rf * j + (1 - gamma) * rf, rf * rf]))
        sol = solve_analytical(p, RiskAversion(gamma))
        assert sol.c == pytest.approx(float(roots[0]), rel=1e-10)

    def test_matches_grid_maximization_oracle(self, single_asset_params):
        ra = RiskAversion(10.0)
        grid = np.arange(0.0, 2.0 + 1e-5, 1e-5)
        m = 1.0 + grid * 0.05
        g_vals = np.log(m) + 0.5 * (1.0 - ra.gamma) * (grid**2 * 0.01) / m**2
        w_grid = grid[np.argmax(g_vals)]
        sol = solve_analytical(single_asset_params, ra)
        assert abs(sol.weights[0] - w_grid) <= 1e-4

    def test_minus_root_beats_plus_root(self, single_asset_params):
        ra = RiskAversion(10.0)
        c_minus, c_plus = scale_roots(0.25, 10.0, 1.0)
        g_minus = objective_g(single_asset_params, np.array([5 * c_minus]), ra)
        g_plus = objective_g(single_asset_params, np.array([5 * c_plus]), ra)
        assert g_minus > g_plus

    def test_frontier_point(self, single_asset_params):
        sol = solve_analytical(single_asset_params, RiskAversion(10.0))
        mean, variance = sol.expected_excess_return, sol.variance
        assert mean == pytest.approx(K1_FRONTIER[0], rel=1e-12)
        assert variance == pytest.approx(K1_FRONTIER[1], rel=1e-12)
        assert mean**2 == pytest.approx(0.25 * variance, rel=1e-12)


class TestBoundCases:
    def test_at_bound_weights_and_excess_return(self, single_asset_params):
        # gamma = 1 + 4J = 2: double root, w = R_f sigma^-1 mu / J = 20,
        # and the portfolio excess return equals R_f.
        sol = solve_analytical(single_asset_params, RiskAversion(2.0))
        assert sol.weights[0] == pytest.approx(20.0, rel=1e-13)
        assert sol.expected_excess_return == pytest.approx(1.0, rel=1e-13)
        assert sol.D == 0.0

    @pytest.mark.parametrize("j", [0.1, 1.0, 5.0, 25.0, 100.0, 1000.0])
    @pytest.mark.parametrize("below", [0.0, "ulp", 5e-13])
    def test_gamma_admitted_below_the_bound_gives_the_double_root(self, j, below):
        # The bound test admits gamma up to BOUND_TOL below 1 + 4J, where D
        # rounds to a tiny or negative value: the double root, D = 0.
        p = make_params([np.sqrt(0.01 * j)], [[0.01]], 0.0)
        bound = gamma_lower_bound(p)
        gamma = float(np.nextafter(bound, 0.0)) if below == "ulp" else bound - below
        sol = solve_analytical(p, RiskAversion(gamma))
        assert sol.D == 0.0
        assert sol.c == p.gross_rf / ((gamma - 1.0) / 2.0 - sol.J)

    def test_below_bound_rejected_with_bound(self, benchmark_params):
        with pytest.raises(GammaBelowBound) as excinfo:
            solve_analytical(benchmark_params, RiskAversion(1.05))
        assert excinfo.value.bound == pytest.approx(BENCHMARK_BOUND, rel=1e-12)
        assert excinfo.value.gamma == 1.05

    def test_gamma_in_zero_one_rejected(self, single_asset_params):
        with pytest.raises(GammaBelowBound):
            solve_analytical(single_asset_params, RiskAversion(0.5))

    def test_degenerate_mu(self):
        p = make_params([0.0], [[0.01]], 0.0)
        with pytest.raises(DegenerateMu):
            solve_analytical(p, RiskAversion(5.0))


class TestObjectiveG:
    def test_zero_weights(self, benchmark_params):
        ra = RiskAversion(5.0)
        value = objective_g(benchmark_params, np.zeros(3), ra)
        assert value == pytest.approx(np.log(1.0006), rel=1e-15)

    def test_zero_weights_unit_gross(self, single_asset_params):
        assert objective_g(single_asset_params, np.zeros(1), RiskAversion(5.0)) == 0.0

    def test_nonpositive_gross_mean(self, single_asset_params):
        with pytest.raises(NonPositiveGrossMean):
            objective_g(single_asset_params, np.array([-30.0]), RiskAversion(5.0))

    def test_gradient_matches_central_differences(self, make_random_params):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(25):
            p = make_random_params(rng)
            ra = RiskAversion(float(rng.uniform(2.0, 25.0)))
            w = rng.normal(scale=0.5, size=p.k)
            grad = objective_g_gradient(p, w, ra)
            fd = np.empty(p.k)
            for i in range(p.k):
                e = np.zeros(p.k)
                e[i] = h
                fd[i] = (objective_g(p, w + e, ra) - objective_g(p, w - e, ra)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)

    def test_gradient_vanishes_at_solution(self, make_random_params):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = make_random_params(rng)
            bound = gamma_lower_bound(p)
            ra = RiskAversion(bound + float(rng.uniform(0.5, 20.0)))
            sol = solve_analytical(p, ra)
            grad = objective_g_gradient(p, sol.weights, ra)
            assert np.linalg.norm(grad) <= 1e-8


class TestApproxExpectedUtility:
    def test_risk_free_only(self, single_asset_params):
        ra = RiskAversion(5.0)
        value = approx_expected_utility(single_asset_params, np.zeros(1), ra)
        assert value == pytest.approx(1.0 / (1.0 - 5.0), rel=1e-15)

    def test_risk_free_gross_return(self):
        p = make_params([0.001], [[1e-4]], 0.0006)
        value = approx_expected_utility(p, np.zeros(1), RiskAversion(5.0))
        assert value == pytest.approx(1.0006 ** (-4.0) / (-4.0), rel=1e-15)

    def test_monotone_transform_of_objective(self, benchmark_params):
        # Ranking candidate weights by G must match ranking by the utility.
        rng = np.random.default_rng(21)
        ra = RiskAversion(7.0)
        base = solve_analytical(benchmark_params, ra).weights
        candidates = [base * s for s in (0.25, 0.5, 1.0, 1.5, 2.0)]
        candidates += [base + rng.normal(scale=0.2, size=3) for _ in range(5)]
        g_vals = [objective_g(benchmark_params, w, ra) for w in candidates]
        u_vals = [approx_expected_utility(benchmark_params, w, ra) for w in candidates]
        assert np.array_equal(np.argsort(g_vals), np.argsort(u_vals))


class TestTangency:
    def test_single_asset(self, single_asset_params):
        result = tangency(single_asset_params)
        np.testing.assert_allclose(result.weights, [1.0], rtol=1e-14)
        assert result.gamma_tgc == pytest.approx(6.5125, rel=1e-13)

    def test_round_trip_through_solver(self, single_asset_params):
        result = tangency(single_asset_params)
        sol = solve_analytical(single_asset_params, RiskAversion(result.gamma_tgc))
        assert float(np.sum(sol.weights)) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_two_asset_market(self):
        p = make_params([0.01, 0.01], [[2e-4, 5e-5], [5e-5, 2e-4]], 0.001)
        np.testing.assert_allclose(tangency(p).weights, [0.5, 0.5], rtol=1e-12)

    def test_gamma_tgc_dominates_bound(self, make_random_params):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            p = make_random_params(rng)
            s = float(np.sum(p.sigma_inv_mu))
            if s <= 0.0:  # sum(w*) = c s < 0 at every admissible gamma
                with pytest.raises(SingularDenominator, match="not numerically positive"):
                    tangency(p)
                continue
            result = tangency(p)
            assert float(np.sum(result.weights)) == pytest.approx(1.0, abs=1e-12)
            assert result.gamma_tgc >= gamma_lower_bound(p) - 1e-12
            checked += 1

    def test_singular_denominator(self):
        # Returns scaled by a scale mu by a and sigma by a^2.
        for scale in (1e-4, 1.0, 1e4):
            p = make_params([0.01 * scale, -0.01 * scale], np.eye(2) * 1e-4 * scale**2, 0.0)
            with pytest.raises(SingularDenominator):
                tangency(p)

    def test_denominator_test_is_scale_free(self):
        # 1' sigma^-1 mu = 2e-140 here, all of it signal: the weights are
        # exactly [0.5, 0.5], and gamma_tgc = 2e180 though its a^2 overflows.
        p = make_params([1e160, 1e160], [[1e300, 0.0], [0.0, 1e300]], 0.0)
        result = tangency(p)
        np.testing.assert_array_equal(result.weights, [0.5, 0.5])
        assert result.gamma_tgc == pytest.approx(2e180, rel=1e-15)


class TestClosedFormProperties:
    def test_foc_parabola_positivity_direction(self, make_random_params):
        rng = np.random.default_rng(99)
        for _ in range(150):
            p = make_random_params(rng)
            bound = gamma_lower_bound(p)
            gamma = bound + float(rng.uniform(0.0, 30.0))
            sol = solve_analytical(p, RiskAversion(gamma))
            rf2 = p.gross_rf**2
            assert abs(sol.foc_residual) <= 1e-10 * rf2
            assert sol.expected_excess_return**2 == pytest.approx(
                sol.J * sol.variance, rel=1e-10
            )
            assert p.gross_rf + sol.expected_excess_return > 0.0
            # weights are a positive multiple of sigma^-1 mu
            direction = p.sigma_inv_mu
            np.testing.assert_allclose(sol.weights, sol.c * direction, rtol=1e-10)
            assert sol.c > 0.0

    def test_mean_and_variance_decrease_in_gamma(self, single_asset_params):
        gammas = np.linspace(2.0, 30.0, 57)
        sols = [solve_analytical(single_asset_params, RiskAversion(float(g))) for g in gammas]
        means = np.array([sol.expected_excess_return for sol in sols])
        variances = np.array([sol.variance for sol in sols])
        assert np.all(np.diff(means) < 0.0)
        assert np.all(np.diff(variances) < 0.0)

    def test_direction_independent_of_gamma(self, benchmark_params):
        sol_a = solve_analytical(benchmark_params, RiskAversion(5.0))
        sol_b = solve_analytical(benchmark_params, RiskAversion(25.0))
        unit_a = sol_a.weights / np.linalg.norm(sol_a.weights)
        unit_b = sol_b.weights / np.linalg.norm(sol_b.weights)
        np.testing.assert_allclose(unit_a, unit_b, rtol=1e-12)

    def test_root_ordering_under_objective(self, make_random_params):
        rng = np.random.default_rng(100)
        for _ in range(100):
            p = make_random_params(rng)
            sol = p.sigma_inv_mu
            j = float(p.mu @ sol)
            bound = 1.0 + 4.0 * j
            gamma = bound + float(rng.uniform(1e-6, 30.0))
            ra = RiskAversion(gamma)
            c_minus, c_plus = scale_roots(j, gamma, p.gross_rf)
            g_minus = objective_g(p, c_minus * sol, ra)
            g_plus = objective_g(p, c_plus * sol, ra)
            assert g_minus >= g_plus - 1e-12


def _bits(x):
    """``x`` as a comparable value that tells apart any two bit patterns."""
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    return float(x).hex() if isinstance(x, float) else x


def test_sigma_inv_mu_is_solved_once_per_market(benchmark_params, tmp_path, monkeypatch):
    # With the market's one solve done, every closed-form answer reads its
    # sigma^-1 mu: taking the solver away changes no bit of any of them.
    p, gammas = benchmark_params, [5.0, 20.0]
    params = tmp_path / "params.json"
    write_params_json(p, params)

    def answers():
        # gd takes 17 and 18 steps on these 200 draws.
        cells = compare(p, gammas, n=200, seed=1, gd_cfg=GdConfig(max_iter=100)).cells
        out = tmp_path / "frontier.csv"
        assert cli.main(["frontier", "--params", str(params), "--gamma-from", "2",
                         "--gamma-to", "20", "--steps", "7", "--out", str(out)]) == 0
        return _bits([gamma_lower_bound(p), solve_analytical(p, RiskAversion(5.0)),
                      tangency(p), [cells[g, "analytical"] for g in gammas],
                      out.read_bytes()])

    unpatched = answers()

    def no_solve(*args):
        raise AssertionError("cho_solve called after the market was built")

    monkeypatch.setattr(market, "cho_solve", no_solve)
    monkeypatch.setattr(cli, "read_params_json", lambda path: p)
    assert answers() == unpatched
