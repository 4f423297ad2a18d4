"""Market parameter validation, estimation, and file formats."""

from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np
import pytest

from conftest import BENCHMARK_BOUND
from crra_opt import (
    AsymmetricSigma,
    DimensionMismatch,
    GammaBelowBound,
    InvalidParamsFile,
    InvalidPriceSeries,
    InvalidRiskAversion,
    InvalidRiskFreeRate,
    NonFiniteInput,
    NotPositiveDefinite,
    PriceSeries,
    RiskAversion,
    TooFewObservations,
    estimate_params,
    gamma_lower_bound,
    make_params,
    read_params_json,
    read_price_csv,
    solve_analytical,
    write_params_json,
)
from crra_opt.cli import EXIT_GAMMA_BOUND, EXIT_OK, main
from crra_opt.market import cho_solve, require_admissible_gamma
from crra_opt.simulation import compare


def _series(prices, start=dt.date(2024, 1, 1), names=None):
    prices = np.atleast_2d(np.asarray(prices, dtype=float).T).T
    t, k = prices.shape
    names = names or tuple(f"a{i}" for i in range(k))
    dates = tuple(start + dt.timedelta(weeks=i) for i in range(t))
    return PriceSeries(dates=dates, prices=prices, asset_names=names)


class TestMakeParams:
    def test_benchmark_market_is_valid(self, benchmark_params):
        assert benchmark_params.k == 3
        assert benchmark_params.gross_rf == pytest.approx(1.0006, abs=0)
        np.testing.assert_allclose(benchmark_params.sigma, benchmark_params.sigma.T)

    def test_single_asset(self):
        p = make_params([0.05], [[0.01]], 0.0)
        assert p.k == 1 and p.gross_rf == 1.0

    def test_indefinite_sigma_rejected(self):
        # eigenvalues {3, -1}
        with pytest.raises(NotPositiveDefinite):
            make_params([0.1, 0.1], [[1.0, 2.0], [2.0, 1.0]], 0.0)

    def test_small_asymmetry_is_symmetrized(self):
        sigma = np.array([[1.0, 0.2 + 1e-10], [0.2, 1.0]])
        p = make_params([0.1, 0.1], sigma, 0.0)
        np.testing.assert_array_equal(p.sigma, (sigma + sigma.T) / 2.0)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(AsymmetricSigma):
            make_params([0.1, 0.1], [[1.0, 0.3], [0.2, 1.0]], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_params([0.1, 0.2], [[1.0]], 0.0)
        with pytest.raises(DimensionMismatch):
            make_params([0.1], [[1.0]], 0.0, asset_names=("a", "b"))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            make_params([np.nan], [[1.0]], 0.0)
        with pytest.raises(NonFiniteInput):
            make_params([0.1], [[np.inf]], 0.0)

    def test_gross_rf_must_be_positive(self):
        with pytest.raises(InvalidRiskFreeRate):
            make_params([0.1], [[1.0]], -1.5)

    def test_arrays_are_read_only(self, benchmark_params):
        with pytest.raises(ValueError):
            benchmark_params.mu[0] = 0.0


class TestRiskAversion:
    @pytest.mark.parametrize("gamma", [0.0, -2.0, 1.0, np.nan])
    def test_invalid(self, gamma):
        with pytest.raises(InvalidRiskAversion):
            RiskAversion(gamma)

    def test_valid(self):
        assert RiskAversion(0.5).gamma == 0.5
        assert RiskAversion(20).gamma == 20.0


class TestEstimateParams:
    def test_constant_return_has_zero_variance(self):
        with pytest.raises(NotPositiveDefinite):
            estimate_params(_series([100.0, 110.0, 121.0]), 0.0)

    def test_two_point_sample(self):
        p = estimate_params(_series([100.0, 110.0, 99.0]), 0.0)
        np.testing.assert_allclose(p.mu, [0.0], atol=1e-15)
        np.testing.assert_allclose(p.sigma, [[0.02]], rtol=1e-12)

    def test_excess_rate_subtracted(self):
        p0 = estimate_params(_series([100.0, 110.0, 99.0]), 0.0)
        p1 = estimate_params(_series([100.0, 110.0, 99.0]), 0.004)
        np.testing.assert_allclose(p1.mu, p0.mu - 0.004, rtol=1e-12)
        np.testing.assert_allclose(p1.sigma, p0.sigma, rtol=1e-15)

    def test_invariance_to_date_shift_and_price_scaling(self):
        rng = np.random.default_rng(5)
        prices = 100.0 * np.cumprod(1.0 + rng.normal(0.001, 0.02, size=(40, 2)), axis=0)
        base = estimate_params(_series(prices), 0.001)
        shifted = estimate_params(_series(prices * np.array([3.0, 0.25]),
                                          start=dt.date(2030, 6, 1)), 0.001)
        np.testing.assert_allclose(shifted.mu, base.mu, rtol=1e-12)
        np.testing.assert_allclose(shifted.sigma, base.sigma, rtol=1e-12)

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            _series([100.0, 101.0])


class TestPriceSeries:
    def test_nonpositive_price_rejected(self):
        with pytest.raises(InvalidPriceSeries):
            _series([100.0, -1.0, 102.0])

    def test_price_check_edges(self):
        # The smallest positive double is a price; zero is not.
        assert _series([100.0, 5e-324, 102.0]).prices[1, 0] == 5e-324
        with pytest.raises(InvalidPriceSeries, match="strictly positive"):
            _series([100.0, 0.0, 102.0])

    def test_dates_must_increase(self):
        with pytest.raises(InvalidPriceSeries):
            PriceSeries(
                dates=(dt.date(2024, 1, 8), dt.date(2024, 1, 1), dt.date(2024, 1, 15)),
                prices=np.array([[1.0], [2.0], [3.0]]),
                asset_names=("a",),
            )


class TestGammaLowerBound:
    def test_benchmark_value_pinned(self, benchmark_params):
        assert gamma_lower_bound(benchmark_params) == pytest.approx(
            BENCHMARK_BOUND, rel=1e-12
        )

    def test_single_asset(self, single_asset_params):
        # J = mu^2 / var = 0.25
        assert gamma_lower_bound(single_asset_params) == pytest.approx(2.0, rel=1e-14)

    def test_zero_mu(self):
        p = make_params([0.0, 0.0], np.eye(2) * 0.01, 0.0)
        assert gamma_lower_bound(p) == 1.0

    def test_j_nonnegative_and_basis_invariant(self, make_random_params):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = make_random_params(rng)
            bound = gamma_lower_bound(p)
            assert bound >= 1.0
            a = rng.normal(size=(p.k, p.k)) + np.eye(p.k) * 2.0
            q = make_params(a @ p.mu, a @ p.sigma @ a.T, p.r_f)
            assert gamma_lower_bound(q) == pytest.approx(bound, rel=1e-7)


class TestSigmaInvMu:
    def test_solved_once_and_frozen(self, benchmark_params):
        p = benchmark_params
        np.testing.assert_allclose(p.sigma_inv_mu, np.linalg.solve(p.sigma, p.mu), rtol=1e-12)
        assert p.J == float(p.mu @ p.sigma_inv_mu)
        assert not p.sigma_inv_mu.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.J = 0.0


class TestChoSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(17)
        for k in (1, 2, 5, 16):
            a = rng.normal(size=(k, k))
            m = a @ a.T + k * np.eye(k)
            chol = np.linalg.cholesky(m)
            for b in (rng.normal(size=k), rng.normal(size=(k, 3))):
                x = cho_solve(chol, b)
                assert x.shape == b.shape
                np.testing.assert_allclose(x, np.linalg.solve(m, b), rtol=1e-12, atol=1e-14)

    def test_does_not_modify_its_arguments(self, benchmark_params):
        b = np.array(benchmark_params.mu)
        cho_solve(benchmark_params.chol_lower, b)
        np.testing.assert_array_equal(b, benchmark_params.mu)


class TestAdmissibleGamma:
    """One bound test serves the closed form, the study and the frontier."""

    def _solve(self, p, gamma, tmp_path):
        solve_analytical(p, RiskAversion(gamma))

    def _compare(self, p, gamma, tmp_path):
        compare(p, [gamma], n=200, seed=3)

    def _frontier(self, p, gamma, tmp_path):
        path = tmp_path / "params.json"
        write_params_json(p, path)
        code = main(["frontier", "--params", str(path), "--gamma-from", repr(gamma),
                     "--gamma-to", "20", "--steps", "2", "--out", str(tmp_path / "f.csv")])
        if code == EXIT_GAMMA_BOUND:
            raise GammaBelowBound(gamma, gamma_lower_bound(p))
        assert code == EXIT_OK

    @pytest.mark.parametrize("path", ["_solve", "_compare", "_frontier"])
    def test_every_path_rejects_below_and_accepts_the_bound(
        self, path, benchmark_params, tmp_path
    ):
        run = getattr(self, path)
        bound = gamma_lower_bound(benchmark_params)
        with pytest.raises(GammaBelowBound) as excinfo:
            run(benchmark_params, bound - 2e-12, tmp_path)
        assert excinfo.value.bound == bound
        run(benchmark_params, bound, tmp_path)

    def test_helper_tolerance(self):
        require_admissible_gamma(3.0, 3.0)
        require_admissible_gamma(3.0 - 5e-13, 3.0)
        with pytest.raises(GammaBelowBound):
            require_admissible_gamma(3.0 - 2e-12, 3.0)


class TestPriceCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(
            tmp_path,
            "date,one,two\n2024-01-01,100,50\n2024-01-08,101,49\n2024-01-15,103,51\n",
        )
        series = read_price_csv(path)
        assert series.asset_names == ("one", "two")
        assert series.t == 3 and series.k == 2
        assert series.dates[0] == dt.date(2024, 1, 1)
        np.testing.assert_allclose(series.prices[2], [103.0, 51.0])

    def test_missing_cell_is_hard_error(self, tmp_path):
        path = self._write(
            tmp_path,
            "date,one,two\n2024-01-01,100,50\n2024-01-08,,49\n2024-01-15,103,51\n",
        )
        with pytest.raises(InvalidPriceSeries):
            read_price_csv(path)

    def test_bad_date(self, tmp_path):
        path = self._write(
            tmp_path,
            "date,one\n01/02/2024,100\n2024-01-08,101\n2024-01-15,103\n",
        )
        with pytest.raises(InvalidPriceSeries):
            read_price_csv(path)

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "one,two\n1,2\n")
        with pytest.raises(InvalidPriceSeries):
            read_price_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_price_csv(tmp_path / "nope.csv")

    def test_latin1_file_is_invalid_price_series(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("date,Acme,Société\n2024-01-01,100,50\n2024-01-08,101,49\n"
                         "2024-01-15,103,51\n".encode("latin-1"))
        with pytest.raises(InvalidPriceSeries, match="latin1.csv: not UTF-8"):
            read_price_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "date,one,two\n2024-01-01,100,50\n2024-01-08,101,49\n2024-01-15,103,51\n"
        plain = read_price_csv(self._write(tmp_path, text))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        marked = read_price_csv(path)
        assert marked.asset_names == plain.asset_names == ("one", "two")
        assert marked.dates == plain.dates
        np.testing.assert_array_equal(marked.prices, plain.prices)

    @pytest.mark.parametrize("text, match", [
        ("", "empty price file"),
        ("date,one,two\n2024-01-01,100,50\n2024-01-08,101\n", ":3: expected 3 cells, got 2"),
        ("date,one\n2024-01-01,100\n2024-01-08,1O1\n", ":3: bad price '1O1' for 'one'"),
    ], ids=["empty", "short-row", "bad-price"])
    def test_malformed_file_is_hard_error(self, tmp_path, text, match):
        with pytest.raises(InvalidPriceSeries, match=match):
            read_price_csv(self._write(tmp_path, text))


class TestParamsJson:
    def test_bit_exact_round_trip(self, tmp_path, benchmark_params):
        path = tmp_path / "params.json"
        write_params_json(benchmark_params, path)
        again = read_params_json(path)
        np.testing.assert_array_equal(again.mu, benchmark_params.mu)
        np.testing.assert_array_equal(again.sigma, benchmark_params.sigma)
        assert again.r_f == benchmark_params.r_f
        assert again.asset_names == benchmark_params.asset_names

    def test_uneven_floats_survive(self, tmp_path):
        p = make_params([0.1 + 1e-17, 1 / 3], np.diag([0.007, 1 / 7]), 1e-5 / 3)
        path = tmp_path / "params.json"
        write_params_json(p, path)
        again = read_params_json(path)
        np.testing.assert_array_equal(again.mu, p.mu)
        np.testing.assert_array_equal(again.sigma, p.sigma)
        assert again.r_f == p.r_f

    def test_non_ascii_name_is_written_as_utf8(self, tmp_path):
        p = make_params([0.001, 0.002], np.diag([1e-4, 2e-4]), 0.0006,
                        asset_names=("Acme", "Société"))
        path = tmp_path / "params.json"
        write_params_json(p, path)
        assert '"Société"'.encode("utf-8") in path.read_bytes()
        assert read_params_json(path).asset_names == ("Acme", "Société")

    def test_utf16_file_is_invalid_params_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"mu": [0.1], "sigma": [[1.0]], "r_f": 0.0}'
                         .encode("utf-16-le"))
        with pytest.raises(InvalidParamsFile, match="utf16.json: not valid JSON"):
            read_params_json(path)

    def test_byte_order_mark_is_skipped(self, tmp_path, benchmark_params):
        path = tmp_path / "params.json"
        write_params_json(benchmark_params, path)
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        again = read_params_json(marked)
        np.testing.assert_array_equal(again.mu, benchmark_params.mu)
        np.testing.assert_array_equal(again.sigma, benchmark_params.sigma)
        assert again.r_f == benchmark_params.r_f
        assert again.asset_names == benchmark_params.asset_names

    @pytest.mark.parametrize("text, match", [
        ("[0.1, [[1.0]], 0.0]", "top-level JSON object expected"),
        ('{"mu": "abc", "sigma": [[1.0]], "r_f": 0.0}', "malformed parameter payload"),
        ('{"mu": [0.001], "sigma": [[0.0005]], "r_f": false}', "r_f holds a JSON boolean"),
        ('{"mu": [0.001, 0.002], "sigma": [[0.0005, 0.0], [0.0, true]], "r_f": 0.0}',
         "sigma holds a JSON boolean"),
    ], ids=["top-level-array", "non-numeric-mu", "boolean-rate", "boolean-in-sigma"])
    def test_malformed_payload(self, tmp_path, text, match):
        path = tmp_path / "params.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidParamsFile, match=match):
            read_params_json(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"mu": [0.1]}', encoding="utf-8")
        with pytest.raises(InvalidParamsFile):
            read_params_json(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(InvalidParamsFile):
            read_params_json(path)

    def test_numeric_string_rate_reads_as_make_params(self, tmp_path):
        # MarketParams converts r_f with float() before its finiteness check.
        path = tmp_path / "params.json"
        path.write_text(
            '{"mu": [0.00134, 0.00231], "sigma": [[0.000545, 0.000319], [0.000319, 0.00041]],'
            ' "r_f": "0.0006", "asset_names": ["dax", "nasdaq_fut"]}',
            encoding="utf-8",
        )
        got = read_params_json(path)
        want = make_params([0.00134, 0.00231], [[0.000545, 0.000319], [0.000319, 0.00041]],
                           0.0006, asset_names=("dax", "nasdaq_fut"))
        np.testing.assert_array_equal(got.mu, want.mu)
        np.testing.assert_array_equal(got.sigma, want.sigma)
        assert got.r_f == want.r_f and type(got.r_f) is float
        assert got.asset_names == want.asset_names == ("dax", "nasdaq_fut")

    def test_invalid_params_propagate(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(
            '{"mu": [0.1, 0.1], "sigma": [[1.0, 2.0], [2.0, 1.0]], "r_f": 0.0}',
            encoding="utf-8",
        )
        with pytest.raises(NotPositiveDefinite):
            read_params_json(path)
