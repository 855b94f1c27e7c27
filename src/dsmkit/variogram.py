"""Semivariogram estimation and theoretical model fitting.

The experimental variogram uses the classical Matheron estimator over
equal-width isotropic lag bins. Three theoretical models are supported
(spherical, gaussian, exponential), all parameterized by nugget, partial
sill and range with the practical-range convention for the exponential
forms (gamma reaches ~95% of the sill at h = a).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .acquisition import PointSet, UtmCrs
from .errors import ConfigError, DataError

MODEL_KINDS = ("spherical", "gaussian", "exponential")

# cells of the (rows x columns) rectangle empirical_variogram bins at a time
_BLOCK_PAIRS = 1 << 15
# golden-section steps whose branches fit_model profiles ahead in one _wls
# call: x1, x2 and each branch's new point, at most 2^(_AHEAD+1) ranges
_AHEAD = 4

logger = logging.getLogger(__name__)


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
        # NaN passes every comparison test below, so finiteness comes first
        if not np.all(np.isfinite(lags)):
            raise DataError("lag centers must be finite")
        if not np.all(np.isfinite(gammas)):
            raise DataError("semivariances must be finite")
        if not (self.max_lag > 0 and math.isfinite(self.max_lag)):
            raise DataError(f"max_lag must be positive and finite, got {self.max_lag}")
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


def check_model_kind(kind: str) -> None:
    """Raise ConfigError unless kind is one of MODEL_KINDS."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown variogram kind {kind!r}; expected {MODEL_KINDS}")


@dataclass(frozen=True)
class VariogramModel:
    """Theoretical semivariogram: gamma(0) = 0 with a nugget jump at 0+."""

    kind: str
    nugget: float
    partial_sill: float
    range_: float

    def __post_init__(self):
        check_model_kind(self.kind)
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

    x, y, z = samples.x, samples.y, samples.z
    n = len(z)
    stops = _row_stops(y, max_lag)
    # row i pairs with the samples in [i + 1, stop_i)
    row_pairs = stops - np.arange(1, n + 1)
    scanned = int(row_pairs.sum())
    top = np.float32(n_bins + 0.5)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    redone = 0
    # block buffers, allocated once; a block of rows [i, k) works on the
    # rectangle of columns [i + 1, end) and uses the first (k - i) * (end - i - 1)
    cap = max(_BLOCK_PAIRS, int(row_pairs.max()))
    t_buf = np.empty(cap, dtype=np.float32)
    u_buf = np.empty(cap, dtype=np.float32)
    sq_buf = np.empty(cap)
    bin_buf = np.empty(cap, dtype=np.intp)
    ok_buf = np.empty(cap, dtype=bool)
    stop_list = stops.tolist()
    lower = {}  # block height -> np.tril_indices of its lower triangle
    # A pair's bin is trunc(q), where q is its distance in bin widths,
    # computed in float32 from coordinates centred on the bounding-box
    # midpoint and scaled by 1/width:
    #   X = fl32((x - m) / width), t = fl32(X_j - X_i) (likewise Y, u),
    #   q = fl32(sqrt(fl32(fl32(t*t) + fl32(u*u)))),
    # with q clamped at top = n_bins + 0.5; bin n_bins is a spill bin that
    # is cut off. Every pair with frac = |q - rint(q)| < edge is redone
    # with np.hypot and kept only if d < max_lag, and
    #   edge = c * e * (R + N),  c = 8,  e = 2**-24,  N = n_bins + 1,
    # R = the largest |scaled centred coordinate|. Proof that every other
    # pair gets the oracle's bin trunc(Q), Q = np.hypot(dx, dy) / width,
    # kept exactly when d < max_lag:
    # - Coordinates. With xi = (x - m) / width exact, the two float64 steps
    #   and the float32 rounding give |X - xi| <= 1.001 e |xi| + 2**-149
    #   (the last term for float32 subnormals), and |xi| <= 1.001 R.
    #   Centring keeps R, and with it edge, as small as the extent allows.
    # - Differences. With D the exact distance in bin widths and T =
    #   xi_j - xi_i, t = (X_j - X_i)(1 + d1), |d1| <= e (a subnormal
    #   difference is exact), so |t - T| <= 2.01 e R + e |T| + 2**-147,
    #   and the vector (t, u) is within 2.85 e R + e D + 2**-146 of (T, U).
    # - Square root. The square, sum and root are each rounded once
    #   (relative e), so q is within (2e + e*e) of |(t, u)|; an underflowed
    #   square moves q by at most 2**-74. Hence
    #   |q - D| <= 3.01 e D + 2.86 e R + 2**-73.
    #   Q is within 5 * 2**-53 D of D (hypot within 1 ulp, one division),
    #   so |q - Q| <= 3.02 e D + 2.86 e R + 2**-73.
    # - Pairs with D <= N: |q - Q| < 3.1 e (R + N) < edge / 2, also after
    #   edge is rounded to float32. frac >= edge then puts no integer
    #   between q and Q, so trunc(q) == trunc(Q). A Q below n_bins is then
    #   at least edge / 2 > 3 * 2**-53 n_bins below it, which makes
    #   d < max_lag: trunc(q) < n_bins exactly when the oracle bins the
    #   pair (d < max_lag and trunc(Q) < n_bins).
    # - Pairs with D > N: the oracle drops them (Q > n_bins). If edge > 1/2
    #   every pair is redone, since frac <= 1/2. Otherwise e R <= 1/16 and
    #   D <= 2.84 R, so q >= D - 11.5 e R - 2**-73 > N - 0.72 > n_bins:
    #   spilled.
    # - The constant: edge = c e (R + N) needs c > 3.1 for the first case
    #   and c > 11.5 / 2 for the second; c = 8 covers both with room for
    #   the rounding of edge itself.
    # - Overflow. An X that rounds to inf needs R > 2**127, and a square
    #   that overflows needs R > 2**62; either makes edge > 1/2, so every
    #   pair is redone. inf - inf gives a NaN q, and frac NaN, which the
    #   test ~(frac >= edge) also redoes; it runs before the clamp. For
    #   n_bins >= 2**23, where top is not a float32, edge > 1/2 as well.
    # - The tail. A cell of row i at or past the row's stop pairs i with a
    #   sample whose |dy| exceeds max_lag (see _row_stops), which the oracle
    #   drops (d >= max_lag). The cases above spill it unmasked: with
    #   frac >= edge, D <= N gives trunc(q) == trunc(Q) >= n_bins and D > N
    #   gives q > n_bins; any other is redone, and np.hypot's d >= max_lag
    #   sends it to top. So only each block's lower triangle, the self pairs
    #   and the pairs of earlier rows, is masked; the redo tally counts the
    #   pairs inside each row's window only, tail redos left out.
    # frac itself is exact (Sterbenz), and the z terms stay float64.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = (x - (0.5 * x.min() + 0.5 * x.max())) / width
        ys = (y - (0.5 * y.min() + 0.5 * y.max())) / width
        reach = max(np.abs(xs).max(), np.abs(ys).max())
        xs = xs.astype(np.float32)
        ys = ys.astype(np.float32)
        edge = np.float32(8.0 * 2.0**-24 * (reach + n_bins + 1))
        for i, k, end in _row_blocks(stop_list, cap):
            shape = (k - i, end - i - 1)
            size = shape[0] * shape[1]
            t = t_buf[:size].reshape(shape)
            u = u_buf[:size].reshape(shape)
            sq = sq_buf[:size].reshape(shape)
            b = bin_buf[:size].reshape(shape)
            ok = ok_buf[:size].reshape(shape)
            np.subtract(xs[i + 1 : end], xs[i:k, None], out=t)
            np.subtract(ys[i + 1 : end], ys[i:k, None], out=u)
            np.multiply(t, t, out=t)
            np.multiply(u, u, out=u)
            np.add(t, u, out=t)
            np.sqrt(t, out=t)
            np.rint(t, out=u)
            np.subtract(t, u, out=u)
            np.abs(u, out=u)
            np.minimum(t, top, out=t)
            np.copyto(b, t, casting="unsafe")
            # row r of the block pairs with columns [r, hi): its cells left
            # of r (its self pair and pairs of earlier rows) are spilled and
            # never redone; its tail, [hi, end), needs no mask (see above)
            if k - i not in lower:
                lower[k - i] = np.tril_indices(k - i, -1)
            low_rows, low_cols = lower[k - i]
            low = low_rows * shape[1] + low_cols
            u_buf[low] = np.inf
            bin_buf[low] = n_bins
            np.greater_equal(u, edge, out=ok)
            if not ok.all():
                near = np.flatnonzero(~ok)
                rows, cols = np.divmod(near, shape[1])
                rows += i
                cols += i + 1
                d = np.hypot(x[cols] - x[rows], y[cols] - y[rows])
                bin_buf[near] = np.where(d < max_lag, d / width, top).astype(np.intp)
                redone += int(np.count_nonzero(cols < stops[rows]))
            np.subtract(z[i + 1 : end], z[i:k, None], out=sq)
            np.multiply(sq, sq, out=sq)
            # one bincount per row, rows in order: the sums stay
            # bit-identical to a scan over every pair
            for r, hi in enumerate(stop - i - 1 for stop in stop_list[i:k]):
                if hi > r:
                    row = np.bincount(b[r, r:hi], weights=sq[r, r:hi], minlength=n_bins + 1)
                    sums += row[:n_bins]
            counts += np.bincount(bin_buf[:size], minlength=n_bins + 1)[:n_bins]

    logger.debug(
        "variogram: %d samples, %d pairs scanned, %d binned, %d redone with np.hypot",
        n, scanned, counts.sum(), redone,
    )
    filled = counts > 0
    if not filled.any():
        raise DataError(f"no sample pairs within max_lag = {max_lag}")
    centers = (np.arange(n_bins) + 0.5) * width
    gammas = sums[filled] / (2.0 * counts[filled])
    return ExperimentalVariogram(centers[filled], gammas, counts[filled], max_lag)


def _row_blocks(stops: list, cap: int):
    """Blocks (i, k, end) of consecutive rows [i, k) that have pairs, each
    grown while its rectangle of columns [i + 1, end), end the largest stop
    of its rows, has at most `cap` cells. A row longer than `cap` is a
    block of its own."""
    last = len(stops) - 1
    i = 0
    while i < last:
        end, k = stops[i], i + 1
        while k < last and (k + 1 - i) * (max(end, stops[k]) - i - 1) <= cap:
            end = max(end, stops[k])
            k += 1
        if end > i + 1:
            yield i, k, end
        i = k


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
    """Evaluate the theoretical semivariogram at lag h: a float for a
    scalar or 0-d h, else a new array of h's shape (any shape, any
    strides; h is left as it is).

    Returns exactly 0 at h = 0; the nugget applies for any h > 0. A scalar
    runs through the same ufunc loops as an array, so it gets the bits it
    would get as an element of one.
    """
    h_arr = np.asarray(h, dtype=float)
    v = _gamma(model, h_arr, np.empty_like(h_arr))
    return float(v) if v.ndim == 0 else v


def _gamma(model: VariogramModel, h: np.ndarray, out: np.ndarray, scratch=None):
    """model_gamma of the lags h, into out and scratch as _unit_shape
    evaluates them; out may be h itself. A NaN or negative lag raises."""
    lo = h.min(initial=np.inf)
    if not lo >= 0.0:
        raise DataError(f"lag distance must be non-negative, got {lo}")
    zero = h == 0.0 if lo == 0.0 else None  # before out, maybe h, is written
    _unit_shape(model.kind, h, model.range_, out, scratch)
    np.add(np.multiply(out, model.partial_sill, out=out), model.nugget, out=out)
    if zero is not None:
        np.copyto(out, 0.0, where=zero)
    return out


def _unit_shape(kind: str, h, a, out: np.ndarray, scratch=None):
    """The model with c0 = 0, c = 1 at range a (a float, or a column of
    ranges) at the lags h, in place in out, an array of the result's shape
    (h itself, say), and, for the spherical cube, in scratch (allocated if
    None); model_gamma sets h = 0 to 0. The operations, in this order:
      spherical    t = min(h / a, 1),  1.5 t - 0.5 np.power(t, 3)
      gaussian     1 - exp(-3 np.square(h / a))
      exponential  1 - exp(-3 h / a)"""
    if kind == "spherical":
        t = np.minimum(np.divide(h, a, out=out), 1.0, out=out)
        cube = np.power(t, 3, out=scratch)
        cube *= 0.5
        return np.subtract(np.multiply(t, 1.5, out=out), cube, out=out)
    if kind == "gaussian":
        v = np.multiply(np.square(np.divide(h, a, out=out), out=out), -3.0, out=out)
    else:
        v = np.divide(np.multiply(h, -3.0, out=out), a, out=out)
    return np.subtract(1.0, np.exp(v, out=out), out=out)


def _wls(kind, h, g, w, a):
    """Best (c0, c) >= 0 for each range of the 1-D array a, all at once;
    returns the arrays (sse, c0, c).

    Each range's candidates are, in order, the unconstrained least-squares
    solution (when its normal equations are regular and it is >= 0, else c
    alone in its place), c alone, c0 alone and (0, 0); a later candidate
    replaces the best so far only when its sse is smaller by more than
    1e-18. Every sum runs along a contiguous row of bins, as a 1-D sum
    would, so each range's result is the same whatever else a holds."""
    v = _unit_shape(kind, h, a[:, None], np.empty((len(a), len(h))))
    wv = w * v
    sw = w.sum()
    swv = wv.sum(axis=1)
    swvv = (wv * v).sum(axis=1)
    swg = (w * g).sum()
    swvg = (wv * g).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = sw * swvv - swv * swv
        c0_free = (swvv * swg - swv * swvg) / det
        c_free = (sw * swvg - swv * swg) / det
        c_only = np.where(swvv > 0, swvg / swvv, 0.0)
    free = (det > 1e-15 * np.maximum(sw * swvv, 1.0)) & (c0_free >= 0.0) & (c_free >= 0.0)
    c_only = np.where(c_only > 0.0, c_only, 0.0)

    # candidate j of every range in row j
    c0s = np.zeros((4, len(a)))
    cs = np.zeros((4, len(a)))
    c0s[0] = np.where(free, c0_free, 0.0)
    cs[0] = np.where(free, c_free, c_only)
    cs[1] = c_only
    c0s[2] = max(0.0, swg / sw if sw > 0 else 0.0)
    resid = g - (c0s[:, :, None] + cs[:, :, None] * v)
    sse = (w * resid * resid).sum(axis=2)
    pick = np.zeros(len(a), dtype=np.intp)
    best = sse[0]
    for j in (1, 2, 3):
        take = sse[j] < best - 1e-18
        best = np.where(take, sse[j], best)
        pick[take] = j
    ranges = np.arange(len(a))
    return best, c0s[pick, ranges], cs[pick, ranges]


def fit_model(ev: ExperimentalVariogram, kind: str = "spherical") -> VariogramModel:
    """Weighted least squares fit of a theoretical model to binned estimates.

    Weights are the per-bin pair counts. The range is found by a
    deterministic coarse grid over (0, 2 max_lag] followed by golden-section
    refinement; nugget and partial sill solve in closed form for each
    candidate range (non-negativity by active set). The 256 grid ranges are
    profiled in one array pass of _wls; the refinement is one golden-section
    loop whose _wls calls each prefetch the ranges of its next _AHEAD + 1
    steps, so the formulas exist once.
    """
    check_model_kind(kind)
    if len(ev) < 3:
        raise DataError(f"model fitting needs at least 3 bins, got {len(ev)}")

    h = ev.lags
    g = ev.gammas
    w = ev.pair_counts.astype(float)

    if np.all(g == 0.0):
        return VariogramModel(kind, 0.0, 0.0, ev.max_lag)

    a_max = 2.0 * ev.max_lag
    grid = np.linspace(0.0, a_max, 257)[1:]
    k = int(np.argmin(_wls(kind, h, g, w, grid)[0]))
    lo = grid[k - 1] if k > 0 else grid[0] / 2.0
    hi = grid[k + 1] if k < len(grid) - 1 else a_max

    # golden-section refinement of the profiled objective. step is the one
    # step formula: keep [lo, x2] or [x1, hi] of the bracket (lo, hi, x1, x2)
    # and place the new point. When x1 or x2 has no sse yet, one _wls call
    # profiles both and the new point of every branch of the next _AHEAD
    # steps, so the loop runs _AHEAD + 1 steps per call
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def step(bracket, keep_left):
        lo, hi, x1, x2 = bracket
        if keep_left:
            return lo, x2, x2 - inv_phi * (x2 - lo), x1
        return x1, hi, x2, x1 + inv_phi * (hi - x1)

    bracket = (lo, hi, hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo))
    sse = {}
    for _ in range(120):
        lo, hi, x1, x2 = bracket
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        if x1 not in sse or x2 not in sse:
            points, branches = [x1, x2], [bracket]
            for _ in range(_AHEAD):
                branches = [step(b, keep) for b in branches for keep in (True, False)]
                points += [p for b in branches for p in b[2:]]
            points = [p for p in dict.fromkeys(points) if p not in sse]
            sse.update(zip(points, _wls(kind, h, g, w, np.array(points))[0].tolist()))
        bracket = step(bracket, sse[x1] <= sse[x2])

    a_best = 0.5 * (bracket[0] + bracket[1])
    _, c0, c = _wls(kind, h, g, w, np.array([a_best]))
    return VariogramModel(kind, float(c0[0]), float(c[0]), float(a_best))
