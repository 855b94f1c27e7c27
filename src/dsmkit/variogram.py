"""Semivariogram estimation and theoretical model fitting.

The experimental variogram uses the classical Matheron estimator over
equal-width isotropic lag bins. Three theoretical models are supported
(spherical, gaussian, exponential), all parameterized by nugget, partial
sill and range with the practical-range convention for the exponential
forms (gamma reaches ~95% of the sill at h = a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acquisition import PointSet, UtmCrs
from .errors import ConfigError, DataError

MODEL_KINDS = ("spherical", "gaussian", "exponential")


@dataclass(frozen=True)
class ExperimentalVariogram:
    """Binned Matheron estimates: lag centers (m), semivariances (m^2),
    pair counts, plus the max_lag the estimate was computed with."""

    lags: np.ndarray
    gammas: np.ndarray
    pair_counts: np.ndarray
    max_lag: float

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        gammas = np.asarray(self.gammas, dtype=float)
        counts = np.asarray(self.pair_counts, dtype=np.int64)
        if not (len(lags) == len(gammas) == len(counts)):
            raise DataError("variogram bin arrays must have equal length")
        if len(lags) and np.any(np.diff(lags) <= 0):
            raise DataError("lag centers must be strictly increasing")
        if np.any(counts < 1):
            raise DataError("every reported bin needs at least one pair")
        if np.any(gammas < 0):
            raise DataError("semivariance cannot be negative")
        for arr in (lags, gammas, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "pair_counts", counts)

    def __len__(self):
        return len(self.lags)


@dataclass(frozen=True)
class VariogramModel:
    """Theoretical semivariogram: gamma(0) = 0 with a nugget jump at 0+."""

    kind: str
    nugget: float
    partial_sill: float
    range_: float

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown variogram kind {self.kind!r}; expected {MODEL_KINDS}")
        if not (self.nugget >= 0 and math.isfinite(self.nugget)):
            raise ConfigError(f"nugget must be >= 0, got {self.nugget}")
        if not (self.partial_sill >= 0 and math.isfinite(self.partial_sill)):
            raise ConfigError(f"partial sill must be >= 0, got {self.partial_sill}")
        if not (self.range_ > 0 and math.isfinite(self.range_)):
            raise ConfigError(f"range must be > 0, got {self.range_}")

    @property
    def sill(self) -> float:
        return self.nugget + self.partial_sill


def bin_width(max_lag: float, n_bins: int) -> float:
    """max_lag / n_bins, which must be a normal float so that 1 / width is finite."""
    if not (max_lag > 0 and math.isfinite(max_lag)):
        raise ConfigError(f"max_lag must be positive, got {max_lag}")
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    width = max_lag / n_bins
    if not width >= np.finfo(float).tiny:
        raise ConfigError(f"bin width {max_lag!r} / {n_bins} is below the smallest normal float")
    return width


def empirical_variogram(samples: PointSet, max_lag: float, n_bins: int = 15) -> ExperimentalVariogram:
    """Matheron estimator over equal-width bins covering [0, max_lag).

    gamma_hat(bin) = sum (z_i - z_j)^2 / (2 N_bin) over pairs whose planar
    separation d = np.hypot(dx, dy) is below max_lag, in bin
    trunc(d / width). Empty bins are omitted. Requires projected (UTM)
    samples so distances are meters.
    """
    if not isinstance(samples.crs, UtmCrs):
        raise DataError("empirical variogram needs projected (UTM) samples")
    if len(samples) < 2:
        raise DataError(f"need at least 2 samples, got {len(samples)}")
    width = bin_width(max_lag, n_bins)

    # contiguous copies: every row reads slices of these
    x = np.ascontiguousarray(samples.x)
    y = np.ascontiguousarray(samples.y)
    z = samples.z
    n = len(z)
    scale = 1.0 / width
    stops = _row_stops(y, max_lag).tolist()
    # A pair's bin is trunc(q), q = sqrt(t*t + u*u) with t = dx * scale and
    # u = dy * scale, clamped at top; bin n_bins is a spill bin that is cut
    # off. Unless a square overflows or underflows, q is a few ulps from
    # Q = np.hypot(dx, dy) / width, far less than `edge`. So for q at least
    # `edge` from every integer, trunc(q) == trunc(Q), and trunc(q) < n_bins
    # exactly when d < max_lag. An overflow makes q = inf: spilled, as that
    # large a Q must be. An underflow matters only for q near 0. Every q
    # within `edge` of an integer is redone with np.hypot and kept only if
    # d < max_lag.
    top = n_bins + 0.5
    edge = 1e-12 * (n_bins + 1)

    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    # per-row buffers, allocated once; row i uses the first stop - i - 1
    t_buf = np.empty(n)
    u_buf = np.empty(n)
    sq_buf = np.empty(n)
    bin_buf = np.empty(n, dtype=np.int64)
    # one bincount per row, rows in order: the sums stay bit-identical to a
    # scan over every pair
    with np.errstate(over="ignore"):
        for i, stop in enumerate(stops[:-1]):
            m = stop - i - 1
            if m <= 0:
                continue
            t, u, q, b = t_buf[:m], u_buf[:m], sq_buf[:m], bin_buf[:m]
            np.subtract(x[i + 1 : stop], x[i], out=t)
            np.subtract(y[i + 1 : stop], y[i], out=u)
            np.subtract(z[i + 1 : stop], z[i], out=q)
            np.multiply(q, q, out=q)
            np.multiply(t, scale, out=t)
            np.multiply(u, scale, out=u)
            np.multiply(t, t, out=t)
            np.multiply(u, u, out=u)
            np.add(t, u, out=t)
            np.sqrt(t, out=t)
            np.minimum(t, top, out=t)
            np.copyto(b, t, casting="unsafe")
            np.rint(t, out=u)
            np.subtract(t, u, out=u)
            np.abs(u, out=u)
            near = np.flatnonzero(u < edge)
            if len(near):
                j = near + (i + 1)
                d = np.hypot(x[j] - x[i], y[j] - y[i])
                b[near] = np.where(d < max_lag, d / width, top).astype(np.int64)
            sums += np.bincount(b, weights=q, minlength=n_bins + 1)[:n_bins]
            counts += np.bincount(b, minlength=n_bins + 1)[:n_bins]

    filled = counts > 0
    if not filled.any():
        raise DataError(f"no sample pairs within max_lag = {max_lag}")
    centers = (np.arange(n_bins) + 0.5) * width
    gammas = sums[filled] / (2.0 * counts[filled])
    return ExperimentalVariogram(centers[filled], gammas, counts[filled], max_lag)


def _row_stops(y: np.ndarray, max_lag: float) -> np.ndarray:
    """For each row i, an index past which every sample j has
    |y_j - y_i| > max_lag, so its pair with i lies outside every bin.

    The suffix minima and maxima of y are monotone, so one searchsorted on
    each finds where the remaining samples all lie above or all below the
    row's northing window. Correct for any order; it only prunes work when
    the samples come sorted by northing, as a lattice scan does. The window
    is widened by a relative 1e-9 and two ulps of the largest |y| so that
    rounding in the comparison can never cut a pair that is in range.
    """
    reach = max_lag * (1.0 + 1e-9) + 2.0 * np.spacing(np.abs(y).max())
    suffix_min = np.minimum.accumulate(y[::-1])[::-1]
    suffix_max = np.maximum.accumulate(y[::-1])[::-1]
    above = np.searchsorted(suffix_min, y + reach, side="right")
    below = np.searchsorted(-suffix_max, reach - y, side="right")
    return np.minimum(above, below)


def model_gamma(model: VariogramModel, h):
    """Evaluate the theoretical semivariogram at lag h (scalar or array).

    Returns exactly 0 at h = 0; the nugget applies for any h > 0.
    """
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise DataError("lag distance must be non-negative")
    values = model.nugget + model.partial_sill * _unit_shape(model.kind, h_arr, model.range_)
    values = np.where(h_arr == 0.0, 0.0, values)
    if np.isscalar(h) or np.ndim(h) == 0:
        return float(values)
    return values


def _unit_shape(kind: str, h: np.ndarray, a: float) -> np.ndarray:
    # model with c0 = 0, c = 1; model_gamma sets h = 0 to 0
    if kind == "spherical":
        t = np.minimum(h / a, 1.0)
        return 1.5 * t - 0.5 * t**3
    if kind == "gaussian":
        return 1.0 - np.exp(-3.0 * (h / a) ** 2)
    return 1.0 - np.exp(-3.0 * h / a)


def _wls_for_range(kind, h, g, w, a):
    """Best (c0, c) >= 0 for a fixed range; returns (sse, c0, c)."""
    v = _unit_shape(kind, h, a)
    sw = w.sum()
    swv = (w * v).sum()
    swvv = (w * v * v).sum()
    swg = (w * g).sum()
    swvg = (w * v * g).sum()

    candidates = []
    det = sw * swvv - swv * swv
    if det > 1e-15 * max(sw * swvv, 1.0):
        c0 = (swvv * swg - swv * swvg) / det
        c = (sw * swvg - swv * swg) / det
        if c0 >= 0.0 and c >= 0.0:
            candidates.append((c0, c))
    # constrained edges
    c_only = swvg / swvv if swvv > 0 else 0.0
    candidates.append((0.0, max(0.0, c_only)))
    c0_only = swg / sw if sw > 0 else 0.0
    candidates.append((max(0.0, c0_only), 0.0))
    candidates.append((0.0, 0.0))

    best = None
    for c0, c in candidates:
        resid = g - (c0 + c * v)
        sse = float((w * resid * resid).sum())
        if best is None or sse < best[0] - 1e-18:
            best = (sse, c0, c)
    return best


def fit_model(ev: ExperimentalVariogram, kind: str = "spherical") -> VariogramModel:
    """Weighted least squares fit of a theoretical model to binned estimates.

    Weights are the per-bin pair counts. The range is found by a
    deterministic coarse grid over (0, 2 max_lag] followed by golden-section
    refinement; nugget and partial sill solve in closed form for each
    candidate range (non-negativity by active set).
    """
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown variogram kind {kind!r}; expected {MODEL_KINDS}")
    if len(ev) < 3:
        raise DataError(f"model fitting needs at least 3 bins, got {len(ev)}")

    h = ev.lags
    g = ev.gammas
    w = ev.pair_counts.astype(float)

    if np.all(g == 0.0):
        return VariogramModel(kind, 0.0, 0.0, ev.max_lag)

    a_max = 2.0 * ev.max_lag
    grid = np.linspace(0.0, a_max, 257)[1:]
    sse = np.array([_wls_for_range(kind, h, g, w, a)[0] for a in grid])
    k = int(np.argmin(sse))
    lo = grid[k - 1] if k > 0 else grid[0] / 2.0
    hi = grid[k + 1] if k < len(grid) - 1 else a_max

    # golden-section refinement of the profiled objective
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = _wls_for_range(kind, h, g, w, x1)[0]
    f2 = _wls_for_range(kind, h, g, w, x2)[0]
    for _ in range(120):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = _wls_for_range(kind, h, g, w, x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = _wls_for_range(kind, h, g, w, x2)[0]

    a_best = 0.5 * (lo + hi)
    _, c0, c = _wls_for_range(kind, h, g, w, a_best)
    return VariogramModel(kind, float(c0), float(c), float(a_best))
