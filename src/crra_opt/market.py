"""Market model: parameter containers, validation, and moment estimation.

The market is a k-asset single-period model.  Excess returns (net asset
return minus the net risk-free rate) are described by a mean vector ``mu``
and a positive-definite covariance ``sigma``; the risk-free leg earns the
gross return ``R_f = 1 + r_f``.  End-of-period wealth for weights ``w`` on
the risky assets is ``W = W0 * (R_f + w' R)``.

All containers are frozen and hold read-only arrays; every operation is a
pure function, safe to share across threads.  The file formats end the
module, with :func:`dumps_json`, which writes every JSON file of the package.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricSigma,
    DimensionMismatch,
    GammaBelowBound,
    InvalidParamsFile,
    InvalidPriceSeries,
    InvalidRiskAversion,
    InvalidRiskFreeRate,
    NonFiniteInput,
    NotPositiveDefinite,
    TooFewObservations,
    ValidationError,
)

# Relative asymmetry of a covariance input beyond this is rejected outright;
# anything smaller is symmetrized to (A + A') / 2 before the Cholesky check.
SYMMETRY_RTOL = 1e-8

# Slack when testing gamma against the bound 1 + 4J, so that a gamma set to
# the bound itself passes whatever rounding its computation picked up.
BOUND_TOL = 1e-12


def cho_solve(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L') x = b`` for the lower Cholesky factor ``L``.

    One forward substitution for ``L y = b``, one back substitution for
    ``L' x = y``; ``b`` is a vector or a ``(k, m)`` matrix of right-hand
    sides and is not modified.  A non-finite ``b`` gives a non-finite ``x``.
    """
    lower = np.asarray(chol_lower, dtype=float)
    x = np.array(b, dtype=float)
    k = lower.shape[0]
    for i in range(k):
        x[i] = (x[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    for i in reversed(range(k)):
        x[i] = (x[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return x


def _asset_names(names, k: int) -> tuple[str, ...]:
    """The names of k assets as a tuple of ``str``; one string, such as ``"AB"``, is refused."""
    if isinstance(names, str):
        raise ValidationError(f"asset_names must be {k} names, not one string")
    names = tuple(str(n) for n in names)
    if len(names) != k:
        raise DimensionMismatch(f"{len(names)} names for {k} assets")
    return names


def as_weights(weights, k: int) -> np.ndarray:
    """``weights`` as a float array: the one weights check of the package,
    :class:`DimensionMismatch` unless ``(k,)``, :class:`NonFiniteInput` unless finite."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,):
        raise DimensionMismatch(f"weights must have shape ({k},), got {w.shape}")
    if not np.isfinite(w).all():
        raise NonFiniteInput("weights must be finite")
    return w


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MarketParams:
    """Validated market parameters.

    ``sigma`` is symmetrized to ``(A + A')/2`` (rejecting asymmetry beyond
    ``SYMMETRY_RTOL`` relative) and must admit a Cholesky factorization.

    Attributes
    ----------
    mu : ndarray, shape (k,)
        Per-period mean of excess returns.
    sigma : ndarray, shape (k, k)
        Per-period covariance of excess returns (symmetric positive definite).
    r_f : float
        Per-period net risk-free rate; the gross return is ``1 + r_f > 0``.
    asset_names : tuple of str, optional
        Labels carried through estimation and serialization.
    chol_lower, sigma_inv_mu : ndarray
        Lower Cholesky factor ``L`` of ``sigma``, and ``sigma^-1 mu`` solved
        once with it; every closed-form quantity reads the latter.
    J : float
        ``mu' sigma^-1 mu``.

    Raises
    ------
    NotPositiveDefinite
        If ``sigma`` has no Cholesky factor or ``sigma^-1 mu`` is not finite.
    DimensionMismatch, NonFiniteInput, AsymmetricSigma, InvalidRiskFreeRate,
    ValidationError
    """

    mu: np.ndarray
    sigma: np.ndarray
    r_f: float
    asset_names: tuple[str, ...] | None = None
    chol_lower: np.ndarray = field(init=False, repr=False, compare=False)
    sigma_inv_mu: np.ndarray = field(init=False, repr=False, compare=False)
    J: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "r_f", float(self.r_f))
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.ndim != 1 or mu.shape[0] < 1:
            raise DimensionMismatch(f"mu must be a non-empty vector, got shape {mu.shape}")
        k = mu.shape[0]
        if sigma.shape != (k, k):
            raise DimensionMismatch(f"sigma must have shape ({k}, {k}), got {sigma.shape}")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all() and np.isfinite(self.r_f)):
            raise NonFiniteInput("mu, sigma and r_f must all be finite")
        scale = float(np.abs(sigma).max())
        asym = float(np.abs(sigma - sigma.T).max())
        if scale > 0.0 and asym > SYMMETRY_RTOL * scale:
            raise AsymmetricSigma(
                f"sigma asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} relative"
            )
        sigma = (sigma + sigma.T) / 2.0
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("sigma has no Cholesky factorization") from None
        with np.errstate(all="ignore"):
            sigma_inv_mu = cho_solve(chol, mu)
            J = float(mu @ sigma_inv_mu)
        if not np.isfinite(J):  # nor is J when an entry of sigma^-1 mu is not finite
            raise NotPositiveDefinite("sigma^-1 mu is not finite: sigma is near singular along mu")
        if not 1.0 + self.r_f > 0.0:
            raise InvalidRiskFreeRate(f"gross risk-free return 1 + {self.r_f} is not positive")
        for name, value in (("mu", mu), ("sigma", sigma), ("chol_lower", chol),
                            ("sigma_inv_mu", sigma_inv_mu)):
            object.__setattr__(self, name, _readonly(value))
        object.__setattr__(self, "J", J)
        if self.asset_names is not None:
            object.__setattr__(self, "asset_names", _asset_names(self.asset_names, k))

    @property
    def k(self) -> int:
        return self.mu.shape[0]

    @property
    def gross_rf(self) -> float:
        """Gross risk-free return 1 + r_f."""
        return 1.0 + self.r_f


@dataclass(frozen=True)
class RiskAversion:
    """Relative risk aversion coefficient for the power utility
    ``U(W) = W^(1-gamma) / (1-gamma)``; requires gamma > 0 and gamma != 1."""

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not np.isfinite(g) or g <= 0.0 or g == 1.0:
            raise InvalidRiskAversion(f"gamma must be positive and != 1, got {self.gamma}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class PriceSeries:
    """Ordered price history for k assets.

    Requires at least three rows (two return observations), strictly
    increasing dates and strictly positive, finite prices.
    """

    dates: tuple[dt.date, ...]
    prices: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 2:
            raise DimensionMismatch(f"prices must be 2-D (T, k), got shape {prices.shape}")
        t, k = prices.shape
        if t < 3:
            raise TooFewObservations(f"need at least 3 price rows, got {t}")
        if len(self.dates) != t:
            raise DimensionMismatch(f"{len(self.dates)} dates for {t} price rows")
        names = _asset_names(self.asset_names, k)
        if not np.isfinite(prices).all():
            raise NonFiniteInput("prices must be finite")
        if not (prices > 0.0).all():
            raise InvalidPriceSeries("all prices must be strictly positive")
        dates = tuple(self.dates)
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise InvalidPriceSeries("dates must be strictly increasing")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "prices", _readonly(prices))
        object.__setattr__(self, "asset_names", names)

    @property
    def t(self) -> int:
        return self.prices.shape[0]

    @property
    def k(self) -> int:
        return self.prices.shape[1]


# The public constructor name; it validates exactly as MarketParams does.
make_params = MarketParams


def estimate_params(series: PriceSeries, r_f: float) -> MarketParams:
    """Estimate unconditional excess-return moments from a price history.

    Simple net returns ``P_t / P_{t-1} - 1`` are computed per asset, the
    net risk-free rate is subtracted, and the sample mean and the unbiased
    (n-1 denominator) sample covariance are wrapped via :func:`make_params`.

    The estimator only consumes price ratios, so it is agnostic to the price
    convention (adjusted closes, futures settlements, total-return indexes);
    pick one convention per file and keep it consistent across assets.
    """
    prices = np.asarray(series.prices, dtype=float)
    returns = prices[1:] / prices[:-1] - 1.0
    excess = returns - float(r_f)
    mu = excess.mean(axis=0)
    centered = excess - mu
    sigma = centered.T @ centered / (excess.shape[0] - 1)
    return make_params(mu, sigma, r_f, asset_names=series.asset_names)


def gamma_lower_bound(p: MarketParams) -> float:
    """Smallest admissible risk aversion, ``1 + 4J`` with the market's ``J = mu' sigma^-1 mu``."""
    return 1.0 + 4.0 * p.J


def require_admissible_gamma(gamma: float, bound: float) -> None:
    """Raise :class:`GammaBelowBound` if ``gamma < bound - BOUND_TOL``.

    The one admissibility test shared by the closed form, the comparison
    study and the frontier sweep; ``gamma == bound`` is always accepted.
    """
    if gamma < bound - BOUND_TOL:
        raise GammaBelowBound(gamma, bound)


# ---------------------------------------------------------------------------
# File formats: price CSV, params JSON and the JSON encoder
# ---------------------------------------------------------------------------

def dumps_json(obj) -> str:
    """``obj`` as indented JSON (RFC 8259), with a final newline.

    Floats are written as their shortest round-trip ``repr``, strings as
    UTF-8 text with only the escapes JSON requires, and numpy arrays and
    scalars as their ``tolist()``.  A NaN or infinite float, which JSON
    cannot hold, raises ``ValueError``; any other type raises ``TypeError``.
    """
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False,
                      default=_plain) + "\n"


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r} as JSON")


def write_text(path, text: str) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_price_csv(path) -> PriceSeries:
    """Read a price history CSV with header ``date,<name1>,...,<namek>``.

    Dates are ISO-8601, prices use '.' as the decimal point, the file is
    UTF-8 (a leading byte-order mark is skipped).  Missing or unparsable
    cells, and bytes that are not UTF-8, are a hard error; no imputation.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise InvalidPriceSeries(f"{path}: not UTF-8 text ({exc})") from None
    rows = [r for r in rows if r]
    if not rows:
        raise InvalidPriceSeries(f"{path}: empty price file")
    header = rows[0]
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise InvalidPriceSeries(f"{path}: header must be 'date,<name1>,...,<namek>'")
    names = tuple(h.strip() for h in header[1:])
    dates: list[dt.date] = []
    prices: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InvalidPriceSeries(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            dates.append(dt.date.fromisoformat(row[0].strip()))
        except ValueError:
            raise InvalidPriceSeries(f"{path}:{lineno}: bad ISO date {row[0]!r}") from None
        cells = []
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if not cell:
                raise InvalidPriceSeries(f"{path}:{lineno}: missing price for {name!r}")
            try:
                cells.append(float(cell))
            except ValueError:
                raise InvalidPriceSeries(f"{path}:{lineno}: bad price {cell!r} for {name!r}") from None
        prices.append(cells)
    return PriceSeries(dates=tuple(dates), prices=np.asarray(prices, dtype=float), asset_names=names)


def write_params_json(p: MarketParams, path) -> None:
    """Write parameters as :func:`dumps_json` does: shortest round-trip
    floats, asset names as UTF-8."""
    payload: dict = {"mu": p.mu, "sigma": p.sigma, "r_f": p.r_f}
    if p.asset_names is not None:
        payload["asset_names"] = p.asset_names
    write_text(path, dumps_json(payload))


def read_params_json(path) -> MarketParams:
    """Read parameters written by :func:`write_params_json`; a file that is not UTF-8
    JSON (BOM skipped) or has a boolean in a number raises :class:`InvalidParamsFile`."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidParamsFile(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise InvalidParamsFile(f"{path}: top-level JSON object expected")
    missing = [key for key in ("mu", "sigma", "r_f") if key not in payload]
    if missing:
        raise InvalidParamsFile(f"{path}: missing keys {missing}")
    for key in ("mu", "sigma", "r_f"):
        if any(type(x) is bool for x in np.ravel(np.asarray(payload[key], dtype=object))):
            raise InvalidParamsFile(f"{path}: {key} holds a JSON boolean, not a number")
    try:
        return make_params(
            payload["mu"], payload["sigma"], payload["r_f"],
            asset_names=payload.get("asset_names"),
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidParamsFile(f"{path}: malformed parameter payload ({exc})") from None
