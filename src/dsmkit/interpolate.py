"""Elevation prediction at arbitrary planar locations.

Neighbour search: a GridIndex buckets the samples into square cells (about
two samples per cell) and answers k-nearest queries for many targets at
once (Friedman, Bentley & Finkel 1977). A query lays the samples of a square
window of cells around each target's cell out as that target's own row,
padded to the widest window of its batch with a sentinel sample at infinity,
and sorts every row by squared distance, then sample index. It accepts the
window only when the k-th candidate's squared distance is strictly below the
squared distance to the window's nearest side with unsearched samples beyond
it; otherwise the window grows by one ring. Targets are batched in order of
window size, so a batch's padding stays small and its padded size within a
byte budget. Squared distances use the same expression as a scan over all
samples, so the result is exactly the first k entries of the (distance,
index) order over all samples, ties included; with k at or above the sample
count it is that whole order. That order is also the one nearest-sample rule:
every predictor snaps a target to the first sample of its kNN row, taking
that sample's value exactly, when their hypot distance is below
COINCIDENT_TOL.

Universal kriging solves the bordered semivariogram system (weights
constrained to reproduce the drift basis at the target) by dense LU, in one
form for every system: the semivariogram at unit sill (nugget and partial
sill over the sill), and x/y drift columns divided by a length. Weights do
not change when either is scaled, so no prediction changes, but the matrix
and the verdict on it do not depend on the elevation unit; multipliers and
variance are scaled back. A local (k-nearest) neighbourhood differs per
target: coordinates are centered on it, the length is its k-th neighbour's
distance, and the drift multipliers are reported in the original basis. One
kNN query serves all targets, and targets are processed in chunks that slice
its rows: a chunk's local systems are assembled as one (chunk, k+m, k+m)
stack and solved by one call of numpy's stacked LAPACK solve, in which a
system that LU rejects fails alone (see _lapack). The chunk size is a fixed
byte budget divided by the size of one system. The semivariogram block is
symmetric bit for bit, so each slab of rows is evaluated in place from its
diagonal rightwards and mirrored below it: every pair's semivariogram is
computed once.

One rule, for local stacks and the global system alike and at every width,
fails a system whose degree-1 drift border is collinear (its centred
coordinates' spread ratio under 1e-3, from their 2 x 2 scatter matrix), that
LU finds singular, or that is ill-conditioned (2-norm condition number above
1e12); it fails only its own targets, with a message naming the cause and
the measured value. The border test runs first, so any other failure is the
variogram's. A system's condition number is bounded from above by two small
Cholesky factorisations, not by an SVD or an inverse: one of the unit-sill
covariance block K = J - G (J = 11^T), shifted by 1/1024, and one of the
drift Gram matrix F^T F. Their proven eigenvalue floors tau_K and tau_F
give, through the null-space form of the saddle-point inverse,
cond(A) <= ||A||_F (b + max(1/tau_K, 1, k/tau_F)), with k = ||K||_F and
b = (1 + k/tau_K) / sqrt(tau_F) (see _factor_bound). A system passes on that
bound when it is at most 1e11; every other system, a failed factor included,
gets the SVD's condition number, so failures and their messages are the
SVD's.

A global neighbourhood (all samples) gives every target the same system once
it is centered on the sample centroid, so predictions solve it once, in dual
form (Royer & Vieira 1984; Cressie 1993, 3.4): alpha = A^-1 [z; 0], and
z(x0) = gamma(|x_i - x0|) . alpha_w + f(x0) . alpha_mu, with gamma at unit
sill. Its drift length is the samples' half-span. If that system fails,
every target off the samples fails. uk_solve, which reports weights and
variance, always solves the target-centered system.

IDW implements the classic Shepard weighting on the same index and chunks.
A UK lift's IDW fallback runs on the kriging system's own index and samples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .acquisition import PointSet, UtmCrs
from .errors import ConfigError, DataError, NumericalError
from .geometry import coordinate_array
from .mesh import TriMesh
from .variogram import VariogramModel, _gamma

logger = logging.getLogger(__name__)

COINCIDENT_TOL = 1e-9  # meters; closer targets snap to the sample value
_COND_LIMIT = 1e12  # largest 2-norm condition number a system may have
# a system passes on its proven bound, which carries its own rounding, up to
# a tenth of the limit: the SVD's relative error there (about w u 1e11, w the
# width) is far under the gap, so a certified system also passes the SVD rule
_BOUND_LIMIT = _COND_LIMIT / 10
_BOUND_WIDTH = 1 << 15  # widest system whose rounding _factor_bound proves
# least spread ratio of a degree-1 drift border, which alone puts cond near
# 1/r^2: scattered samples measured 0.2 and above, samples on a line 1e-5
_SPREAD_LIMIT = 1e-3
_CHUNK_BYTES = 1 << 20  # float64 work per chunk of targets
_SLAB_ELEMS = 1 << 14  # float64 elements per semivariogram-block temporary
_CELL_OCCUPANCY = 2.0  # mean samples per grid cell


def drift_terms(degree: int) -> int:
    """The number of drift terms of a drift degree: 1 for degree 0 ([1]),
    3 for degree 1 ([1, x, y]); any other degree is a ConfigError."""
    if degree not in (0, 1):
        raise ConfigError(f"unsupported drift degree {degree}; only 0 and 1 are available")
    return 1 + 2 * degree


def least_samples(degree: int) -> int:
    """The fewest samples kriging with a drift of this degree solves from:
    one more than its drift terms."""
    return drift_terms(degree) + 1


def check_sample_count(count: int, degree: int) -> None:
    """DataError unless `count` samples are enough to krige with a drift of
    this degree (least_samples)."""
    need = least_samples(degree)
    if count < need:
        raise DataError(f"need at least {need} samples for drift degree {degree}, got {count}")


def check_neighborhood(neighborhood: int | None, drift_degree: int | None = None) -> None:
    """ConfigError unless `neighborhood` is None (every sample) or at least the
    samples one system needs: least_samples(drift_degree), 1 for IDW (None)."""
    least = 1 if drift_degree is None else least_samples(drift_degree)
    if neighborhood is not None and neighborhood < least:
        method = "IDW" if drift_degree is None else f"drift degree {drift_degree}"
        raise ConfigError(f"neighborhood {neighborhood} too small for {method} (needs >= {least})")


def check_positive_sill(model: VariogramModel) -> None:
    """DataError unless the sill is positive: at zero every system is singular."""
    if not model.sill > 0:
        raise DataError(
            "the variogram has zero sill, so kriging is undefined; use method = idw or an "
            "explicit model (variogram_c0, variogram_c, variogram_a) with a positive sill"
        )


def coincident(distances: np.ndarray) -> np.ndarray:
    """Mask of the distances (meters) at which two positions coincide."""
    return distances < COINCIDENT_TOL


def drift_basis(degree: int, x) -> np.ndarray:
    """Polynomial drift terms at planar locations x of shape (..., 2), one
    (2,) point or a stack: [1] of shape (..., 1) or [1, x, y] of (..., 3)."""
    x = np.asarray(x, dtype=float)
    ones = np.ones(x.shape[:-1] + (1,))
    return ones if drift_terms(degree) == 1 else np.concatenate([ones, x], axis=-1)


def _chunk_size(bytes_per_target: int) -> int:
    return max(1, _CHUNK_BYTES // bytes_per_target)


class GridIndex:
    """Exact k-nearest-neighbour queries over fixed 2D sample locations."""

    def __init__(self, locations: np.ndarray):
        self.locations = locations
        n = len(locations)
        self.lo = locations.min(axis=0)
        span = locations.max(axis=0) - self.lo
        # the second bound keeps thin, nearly collinear sets at O(n) cells
        h = max(
            math.sqrt(_CELL_OCCUPANCY * float(span[0] * span[1]) / n),
            _CELL_OCCUPANCY * float(span.max()) / n,
        )
        self.h = h if h > 0 else 1.0
        self.shape = (span // self.h).astype(np.intp) + 1
        cells = self._cells(locations)
        flat = cells[:, 0] * self.shape[1] + cells[:, 1]
        self.order = np.argsort(flat, kind="stable")  # by cell, then index
        n_cells = int(self.shape.prod())
        # one extra, always empty cell stands for window cells off the grid
        self.counts = np.bincount(flat, minlength=n_cells + 1)
        self.starts = np.concatenate([[0], np.cumsum(self.counts)])
        # summed-area table: samples in any rectangle of cells in O(1)
        self.area_sums = np.zeros(self.shape + 1, dtype=np.intp)
        self.area_sums[1:, 1:] = self.counts[:-1].reshape(self.shape).cumsum(0).cumsum(1)
        # rounding slack (meters) when bounding distances by cell boundaries
        self.slack = 1e-12 * (float(np.abs(self.lo).max() + span.max()) + self.h)
        # coordinate columns with a sentinel sample n at infinity, which pads
        # the candidate rows of a query
        self._x = np.append(locations[:, 0], np.inf)
        self._y = np.append(locations[:, 1], np.inf)
        self.scanned = 0  # candidates examined by all queries so far

    def _cells(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates, clipped onto the grid."""
        c = np.floor((points - self.lo) / self.h)
        return np.clip(c, 0, self.shape - 1).astype(np.intp)

    def knn(self, targets: np.ndarray, k: int | None) -> np.ndarray:
        """(len(targets), min(k, n)) sample indices: each row is the start of
        that target's (squared distance, index) order over all samples.

        With k at or above n every row is a full sort: every sample is a
        candidate, and the window search, whose windows would have to grow
        over the whole grid, gave the same rows 2.6 to 3 times slower over
        351 and 3,403 samples."""
        locs = self.locations
        n = len(locs)
        out = np.empty((len(targets), n if k is None else min(k, n)), dtype=np.intp)
        if k is None or k >= n:
            # about four (targets, n) float64 temporaries
            block = _chunk_size(32 * n)
            self.scanned += len(targets) * n
            for s in range(0, len(targets), block):
                t = targets[s : s + block]
                d2 = (locs[:, 0] - t[:, :1]) ** 2 + (locs[:, 1] - t[:, 1:]) ** 2
                out[s : s + block] = np.argsort(d2, axis=1, kind="stable")
            return out
        cells = self._cells(targets)
        # a ring r window holds about (2r+1)^2 * occupancy samples
        occupancy = n / (len(self.counts) - 1)
        ring = max(1, math.ceil(math.sqrt(k / (math.pi * occupancy))))
        todo = np.arange(len(targets))
        while len(todo):
            lo = np.maximum(cells[todo] - ring, 0)
            hi = np.minimum(cells[todo] + ring + 1, self.shape)
            sums = self.area_sums
            found = sums[hi[:, 0], hi[:, 1]] - sums[lo[:, 0], hi[:, 1]]
            found += sums[lo[:, 0], lo[:, 1]] - sums[hi[:, 0], lo[:, 1]]
            # a part is padded to its widest window, so take the targets by
            # window size: a part [s, e) is then padded to found[e - 1].
            # Bytes per target: about ten 8-byte entries per padded candidate
            # and four per window cell; fits[i] targets padded to found[i]
            # stay in budget, and fits only shrinks, so the part from s ends
            # at the last e with e - fits[e - 1] <= s
            by_size = np.argsort(found, kind="stable")
            todo, found = todo[by_size], found[by_size]
            fits = np.maximum(1, _CHUNK_BYTES // (80 * found + 32 * (2 * ring + 1) ** 2))
            last = np.arange(1, len(todo) + 1) - fits
            left = []
            s = 0
            while s < len(todo):
                e = int(np.searchsorted(last, s, side="right"))
                part = todo[s:e]
                done, nearest = self._window(targets[part], cells[part], ring, k)
                out[part[done]] = nearest
                left.append(part[~done])
                s = e
            todo = np.concatenate(left)
            ring += max(1, ring // 2)
        return out

    def _window(self, targets, cells, ring, k):
        """Certified k nearest within a (2 ring + 1)^2 window of cells."""
        nx, ny = self.shape
        t = len(targets)
        off = np.arange(-ring, ring + 1)
        gx = cells[:, :1] + off
        gy = cells[:, 1:] + off
        inside = ((gx >= 0) & (gx < nx))[:, :, None] & ((gy >= 0) & (gy < ny))[:, None, :]
        window = np.where(inside, gx[:, :, None] * ny + gy[:, None, :], nx * ny).reshape(-1)

        counts = self.counts[window]
        per_target = counts.reshape(t, -1).sum(axis=1)
        width = int(per_target.max())
        self.scanned += int(per_target.sum())
        if width < k:
            return np.zeros(t, dtype=bool), np.empty((0, k), dtype=np.intp)
        # one row per target, padded with the sentinel sample n at infinity:
        # its squared distance is inf and its index the largest, so padding
        # sorts after every candidate, inf distances included
        ends = np.cumsum(counts)
        flat = np.arange(ends[-1])
        pos = np.repeat(self.starts[window] - ends + counts, counts) + flat
        seg = np.cumsum(per_target) - per_target
        slot = np.repeat(np.arange(t) * width - seg, per_target) + flat
        cand = np.full(t * width, len(self.locations), dtype=np.intp)
        cand[slot] = self.order[pos]
        cand = cand.reshape(t, width)
        d2 = (self._x[cand] - targets[:, :1]) ** 2 + (self._y[cand] - targets[:, 1:]) ** 2
        srt = np.lexsort((cand, d2), axis=-1)
        kth = d2[np.arange(t), srt[:, k - 1]]

        # distance to the nearest window side that has cells beyond it
        low = np.where(cells - ring > 0, targets - (self.lo + (cells - ring) * self.h), np.inf)
        high = np.where(
            cells + ring < self.shape - 1,
            self.lo + (cells + ring + 1) * self.h - targets,
            np.inf,
        )
        gap = np.minimum(low, high).min(axis=1) - self.slack - 1e-12 * np.abs(targets).max(axis=1)
        gap = np.maximum(gap, 0.0)
        # a window that covers the grid holds every sample, whatever the
        # (possibly overflowing) distances say
        done = (per_target >= k) & ((kth < gap * gap) | (ring >= self.shape.max() - 1))
        return done, np.take_along_axis(cand[done], srt[done, :k], axis=1)


def _check_distinct(index: GridIndex):
    """Raise DataError when two samples coincide."""
    locs = index.locations
    own = np.arange(len(locs))
    # each sample's two nearest include itself or a coincident twin
    pair = index.knn(locs, 2)
    other = np.where(pair[:, 0] == own, pair[:, 1], pair[:, 0])
    close = coincident(np.hypot(locs[:, 0] - locs[other, 0], locs[:, 1] - locs[other, 1]))
    if close.any():
        lo = np.minimum(own, other)[close]
        hi = np.maximum(own, other)[close]
        first = np.lexsort((lo, hi))[0]
        raise DataError(f"samples {lo[first]} and {hi[first]} coincide within {COINCIDENT_TOL} m")


@dataclass(frozen=True)
class KrigingSystem:
    """Samples plus variogram model and solver configuration.

    neighborhood: None for a global system, or the number of nearest samples
    to rebuild the system from per target (ties by sample index).
    Frozen, and it keeps read-only copies of the locations and values: the
    checks below and the neighbour index stay true of what it solves with.
    """

    locations: np.ndarray
    values: np.ndarray
    model: VariogramModel
    drift_degree: int = 1
    neighborhood: int | None = 16
    index: GridIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        locs, vals = _samples(self.locations, self.values)
        check_sample_count(len(locs), self.drift_degree)
        check_neighborhood(self.neighborhood, self.drift_degree)
        check_positive_sill(self.model)
        locs, vals = locs.copy(), vals.copy()
        locs.setflags(write=False)
        vals.setflags(write=False)
        index = GridIndex(locs)
        _check_distinct(index)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "values", vals)

    @property
    def n_drift_terms(self) -> int:
        return drift_terms(self.drift_degree)

    @property
    def unit_model(self) -> VariogramModel:
        """The model at unit sill, from which every kriging system is built."""
        m = self.model
        return VariogramModel(m.kind, m.nugget / m.sill, m.partial_sill / m.sill, m.range_)


@dataclass(frozen=True)
class KrigingSolution:
    """One solved prediction: weights and drift multipliers follow the order
    of sample_indices (the samples the local system was built from)."""

    weights: np.ndarray
    drift_multipliers: np.ndarray
    prediction: float
    variance: float
    sample_indices: np.ndarray


@dataclass(frozen=True)
class IdwConfig:
    """Shepard inverse-distance weighting: positive power, optional
    k-nearest neighborhood (None = use all samples)."""

    power: float = 2.0
    neighborhood: int | None = None

    def __post_init__(self):
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ConfigError(f"IDW power must be positive, got {self.power}")
        check_neighborhood(self.neighborhood)


@dataclass(frozen=True)
class UkConfig:
    """Universal kriging lift configuration."""

    model: VariogramModel
    drift_degree: int = 1
    neighborhood: int | None = 16


# the cause of every failure past the border test, and the remedy a lift
# abort names when it is every failure's cause under a model without a
# nugget: such a model (a gaussian fit, say) is numerically singular once
# samples lie much closer together than its range (Posa 1989)
_VARIOGRAM_CAUSE = "the variogram produced a singular coefficient block"
_VARIOGRAM_REMEDY = "give the variogram a nugget (variogram_c0 > 0) or use another variogram kind"


def _spread_ratio(xy: np.ndarray) -> np.ndarray:
    """Per border of the stack xy (L, 2, n), its x and y drift rows: the
    smaller-to-larger singular value ratio of the centred coordinates, from
    their scatter matrix [[a, e], [e, d]], whose eigenvalues have
    l1 = (a + d)/2 + hypot((a - d)/2, e) and l1 l2 = ad - e^2 (clipped at 0)."""
    c = xy - xy.mean(axis=2, keepdims=True)
    S = np.matmul(c, c.transpose(0, 2, 1))
    a, d, e = S[:, 0, 0], S[:, 1, 1], S[:, 0, 1]
    l1 = 0.5 * (a + d) + np.hypot(0.5 * (a - d), e)
    return np.sqrt(np.maximum(a * d - e * e, 0.0)) / l1


def _samples(locations, values) -> tuple[np.ndarray, np.ndarray]:
    """Sample locations (n, 2) and values (n,) as float arrays, all finite."""
    locs = coordinate_array(locations, "sample")
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(locs),):
        raise DataError("values length must match locations")
    if not np.all(np.isfinite(vals)):
        raise DataError("non-finite sample data")
    return locs, vals


def _bordered(model: VariogramModel, d: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Stack of bordered semivariogram matrices [[G, F], [F^T, 0]] for the
    sample coordinates d (stack, n, 2) and drift columns F (stack, n, m)."""
    L, n, m = F.shape
    A = np.zeros((L, n + m, n + m))
    # fill the semivariogram block a few rows at a time, in two slab
    # buffers allocated once: full-size temporaries, freed after every
    # target of a large system, made the allocator hand their pages back
    # and fault them in again per target.
    # G is symmetric bit for bit (x - y == -(y - x) and hypot ignores
    # signs), so a slab of rows [r, r + s) is evaluated at the columns >= r
    # only and its transpose fills the columns [r, r + s) below it
    slab = max(1, _SLAB_ELEMS // max(1, L * n))
    dx = np.ascontiguousarray(d[..., 0])
    dy = np.ascontiguousarray(d[..., 1])
    g_buf = np.empty(L * min(slab, n) * n)
    e_buf = np.empty_like(g_buf)
    for r in range(0, n, slab):
        s = slice(r, min(r + slab, n))
        shape = (L, s.stop - r, n - r)
        size = shape[0] * shape[1] * shape[2]
        g = g_buf[:size].reshape(shape)
        e = e_buf[:size].reshape(shape)
        np.subtract(dx[:, s, None], dx[:, None, r:], out=g)
        np.subtract(dy[:, s, None], dy[:, None, r:], out=e)
        _gamma(model, np.hypot(g, e, out=g), g, e)
        A[:, s, r:n] = g
        A[:, r:n, s] = g.transpose(0, 2, 1)
    A[:, :n, n:] = F
    A[:, n:, :n] = F.transpose(0, 2, 1)
    return A


def _lapack(gufunc, *stacks, out=None) -> np.ndarray:
    """Apply one of numpy's stacked float64 LAPACK gufuncs (solve,
    cholesky_lo) to every system of the stacks, into out if given.

    np.linalg.solve and np.linalg.cholesky call these same gufuncs, but they
    raise LinAlgError for the whole stack when one system fails (a zero LU
    pivot, a non-positive Cholesky pivot). Called directly, the gufunc fills
    a failed system's output with NaN and raises nothing, so every other
    system of the stack keeps its result, bit for bit the wrappers' result.
    The floating-point flags are ignored: the wrappers ignore overflow,
    underflow and division, and the invalid flag only reports the NaN fill."""
    with np.errstate(all="ignore"):
        return gufunc(*stacks, signature="d" * len(stacks) + "->d", out=out)


def _solve_or_fail(A: np.ndarray, b: np.ndarray, m: int, targets: list | None, tally=None):
    """Solve a stack of bordered kriging systems A x = b (m drift terms), as
    _bordered builds them in the one form, under the one failure rule;
    targets holds each system's target, or is None for the one system over
    all samples. Returns (ok, sol, value, failed): ok masks the systems that
    passed, sol holds their solutions (the LU solution of an ill-conditioned
    system too, zeros for any other failure), value is an upper bound on each
    solved system's 2-norm condition number (from _factor_bound, exact where
    that fails; NaN elsewhere) and failed maps a stack position to its
    reason. tally, a dict, counts the systems failed by their drift border
    ("border"), cleared by their factors ("certified") and judged by an SVD
    ("svd").

    One pass, the same at every width: the border test at drift degree 1;
    one batched LU solve of the rest, whose NaN rows mark the systems LU
    rejected; the certificate on the solved systems; the SVD for the rest."""
    L, w = b.shape
    n = w - m
    failed = {}

    def where(j):
        return "over all samples" if targets is None else f"at target {tuple(targets[j])}"

    ok = np.ones(L, dtype=bool)
    if m == 3:
        r = _spread_ratio(A[:, n + 1 :, :n])
        ok = r >= _SPREAD_LIMIT
        for j in np.flatnonzero(~ok):
            failed[int(j)] = (
                f"collinear drift border in the kriging system {where(j)}: "
                f"spread ratio {r[j]:.2g} < {_SPREAD_LIMIT:g}"
            )
    sol = np.zeros((L, w))
    sol[ok] = _lapack(_umath_linalg.solve, A if ok.all() else A[ok], b[ok][..., None])[..., 0]
    solved = ok & ~np.isnan(sol).all(axis=1)
    value = np.full(L, np.nan)
    value[solved] = _factor_bound(A if solved.all() else A[solved], m)
    certified = value <= _BOUND_LIMIT
    rest = np.flatnonzero(solved & ~certified)
    if len(rest):
        value[rest] = np.linalg.cond(A[rest])
    if tally is not None:
        tally["border"] += L - int(ok.sum())
        tally["certified"] += int(certified.sum())
        tally["svd"] += len(rest)
    for j in np.flatnonzero(ok & ~(value <= _COND_LIMIT)):
        kind, measured = (
            ("ill-conditioned", f"cond {value[j]:.3g} > {_COND_LIMIT:g}") if solved[j]
            else ("singular", "LU found a zero pivot")
        )
        failed[int(j)] = f"{kind} kriging system {where(j)}: {measured}; {_VARIOGRAM_CAUSE}"
    sol[ok & ~solved] = 0.0
    return ok & (value <= _COND_LIMIT), sol, value, failed


def _factor_bound(A: np.ndarray, m: int) -> np.ndarray:
    """Per system of the stack A of bordered kriging systems: a proven upper
    bound on its 2-norm condition number, or inf where none is proven.

    A = [[G, F], [F^T, 0]] must be symmetric, as _bordered builds it, with
    F's first column all ones, and at most _BOUND_WIDTH wide; G is the
    semivariogram at unit sill, though the bound holds for any symmetric G.
    The bound rests on two Cholesky factors per system, of the covariance
    block K = J - G (J = 11^T) and of the drift Gram matrix F^T F, both by
    _chol_completes (LAPACK's potrf on the stack).

    The bound. Let lmin(K) >= tau_K > 0 and lmin(F^T F) >= tau_F > 0, and
    h = 1/tau_K, rho = tau_F^-1/2, k >= ||K||_F, b = rho (1 + h k). Then
    ||A^-1||_2 <= b + max(h, 1, rho^2 k), so cond(A) <= ||A||_F times that.
    Proof (the null-space form of a saddle-point inverse; Benzi, Golub &
    Liesen 2005, Acta Numerica 14:1, section 6). Let F = QR (tau_F > 0, so
    R is invertible) and Z an orthonormal basis of the null space of F^T.
    As 1 = F e1, Z^T 1 = 0 and Z^T G = -Z^T K. Solving A (x, y) = (r, t):
    x = Q R^-T t + Z v, and Z^T (G x + F y) = Z^T r gives
    v = -M^-1 Z^T (r + K Q R^-T t) with M = Z^T K Z, lmin(M) >= tau_K. So
      (1,1) block of A^-1: -Z M^-1 Z^T, norm <= h;
      (1,2) block: (I - P) Q R^-T, P = Z M^-1 Z^T K, norm <= (1 + h k) rho;
      (2,2) block: -R^-1 Q^T G (I - P) Q R^-T. J Z = 0 gives J (I - P) = J
      and R^-1 Q^T 1 = e1, so it is -e1 e1^T + R^-1 Q^T C Q R^-T with
      C = K - K Z M^-1 Z^T K = K^1/2 (I - W) K^1/2, W the orthogonal
      projector onto the range of K^1/2 Z: C is PSD with ||C|| <= k, and a
      difference of two PSD matrices has norm <= max(1, rho^2 k).
    A^-1 is symmetric, and the 2-norm of a block matrix is at most that of
    its matrix of block norms, [[h, b], [b, c]]: at most max(h, c) + b.
    tau_F > 0 also proves the drift border has full rank.

    Proving tau_K and tau_F. If a floating-point Cholesky factorisation of
    a symmetric n x n B runs to completion (every pivot positive and
    finite), then R^T R = B + E with |E| <= g |R^T| |R|, g = gamma_(n+2) =
    (n+2) u / (1 - (n+2) u), u = 2^-53: the proof of Higham 2002, Thm 10.3,
    needs only the completion, and holds in any order of summation, with or
    without fused multiply-adds, and with one more rounding where a division
    is a product with a rounded reciprocal, as in LAPACK. The column norms
    of R are then <= (b_ii / (1 - g))^1/2, so ||E||_2 <= (g / (1 - g))
    tr(B) and lmin(B) >= -1.01 (n+2) u tr(B) (Rump 2006, BIT 46:433).
    Underflow adds at most 2^-1022 to a product or quotient (flushed or
    not), so at most n (n+1) 2^-1022 (1 + max b_ii) to ||E||_2 (r_ii <=
    1 + b_ii scales a quotient's). So B is factored shifted by c, and
    Weyl's inequality adds up the rounding: in K~ = fl(1 - G) (u |K| per
    entry), in F^T F (gamma_n ||F||_F^2), in the shift (u per diagonal
    entry), in the factorisation, and their underflow. With mag the
    Frobenius norm of K~ (tr(B) <= 1.01 sqrt(n) mag), or the trace of the
    computed F^T F, all of it is under 4 w^2 u (mag + c) + w^2 2^-1022, half
    of slack = w^2 (8 u (mag + c) + 2^-1021) (w = n + m, the system width,
    any with (n+2) u < 0.001), and tau = fl(c - slack) <= c - slack / 2
    (slack >= 2 u c) is proven.
    K is shifted by 1 / 1024; a system whose factor does not complete gets
    no bound (inf), and the SVD judges it. F^T F (3 x 3) is shifted by
    det / (2 e2), e2 the sum of its principal 2 x 2 minors: e2 >= l2 l3, the
    product of its two larger eigenvalues, so in exact arithmetic the shift
    is at most lmin / 2.

    The final bound takes a factor 1 + 2^-20 for the rounding of the norms
    (relative 1.01 w^2 u <= 2^-22.9 up to width _BOUND_WIDTH = 2^15, the one
    limit on the width: a wider system gets no bound) and of its own few
    operations, and 2^-495 on k for underflowed squares (k loses under
    n 2^-511; ||A||_F >= 1, from the ones column, needs no such term)."""
    L, w, _ = A.shape
    n = w - m
    if w > _BOUND_WIDTH:
        return np.full(L, np.inf)
    u = 2.0**-53

    def slack(mag, c):
        return w * w * (8.0 * u * (mag + c) + 2.0**-1021)

    with np.errstate(all="ignore"):
        if m == 1:
            tau_F = np.full(L, float(n))  # F = 1 exactly: F^T F = n
        else:
            P = np.matmul(A[:, n:, :n], A[:, :n, n:])
            lower = ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2))
            a, b, c, d, e, f = (P[:, i, j] for i, j in lower)
            m11, m12, m13 = d * f - e * e, b * f - c * e, b * e - c * d
            det = a * m11 - b * m12 + c * m13
            shift = det / (2.0 * (m11 + (a * f - c * c) + (a * d - b * b)))
            trace = a + d + f  # before _chol_completes shifts a, d, f with P
            tau_F = np.where(_chol_completes(P, shift), shift - slack(trace, shift), np.nan)
        rho2 = 1.0 / tau_F
        rho = np.sqrt(rho2)
        norm_A = np.sqrt(np.einsum("ijk,ijk->i", A, A))
        k = np.empty(L)
        tau_K = np.full(L, np.nan)
        step = max(1, _SLAB_ELEMS // (w * w))
        for lo in range(0, L, step):
            sl = slice(lo, min(lo + step, L))
            K = 1.0 - A[sl, :n, :n]
            k[sl] = np.sqrt(np.einsum("ijk,ijk->i", K, K)) + 2.0**-495
            shift = np.full(len(K), 1.0 / 1024.0)
            tau_K[sl] = np.where(_chol_completes(K, shift), shift - slack(k[sl], shift), np.nan)
        h = 1.0 / tau_K
        b = rho * (1.0 + h * k)
        bound = (1.0 + 2.0**-20) * norm_A * (b + np.maximum(h, np.maximum(1.0, rho2 * k)))
    proven = (tau_K > 0) & (tau_F > 0) & (bound < np.inf)
    return np.where(proven, bound, np.inf)


def _chol_completes(B: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether the floating-point Cholesky factorisation of each B_j -
    shift_j I runs to completion, as a mask. B is shifted in place (einsum's
    diagonal is a writeable view), then overwritten by its factor."""
    np.einsum("ijj->ij", B)[...] -= shift[:, None]
    # a failed factor is all NaN, and a NaN or inf anywhere in a completed
    # one reaches a later pivot
    diag = np.einsum("ijj->ij", _lapack(_umath_linalg.cholesky_lo, B, out=B))
    return (diag.min(axis=1) > 0) & (diag.max(axis=1) < np.inf)


def _krige_chunk(sys: KrigingSystem, x0: np.ndarray, idx: np.ndarray, tally=None):
    """Assemble and solve the target-centered UK systems of targets x0 from
    their kNN rows idx (tally as for _solve_or_fail).

    Returns (sample_indices, weights, drift_multipliers, prediction,
    variance, errors, value): one row per target up to errors, which maps a
    failed row to its message (its prediction is NaN); value holds the
    condition bound of each system solved (NaN elsewhere).
    """
    locs = sys.locations[idx]
    vals = sys.values[idx]
    t, n = idx.shape
    m = sys.n_drift_terms
    weights = np.zeros((t, n))
    mu = np.zeros((t, m))
    prediction = np.full(t, np.nan)
    variance = np.zeros(t)

    # the one form: drift columns [1, dx/l, dy/l], centered on the target, l
    # its k-th neighbour's distance; rhs [gamma/sill, 1, 0, 0]
    d = locs - x0[:, None, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    snap = coincident(dist[:, 0])
    weights[snap, 0] = 1.0
    prediction[snap] = vals[snap, 0]

    live = np.flatnonzero(~snap)
    d, length = d[live], dist[live, -1:]
    unit = sys.unit_model
    A = _bordered(unit, d, drift_basis(sys.drift_degree, d / length[..., None]))
    b = np.zeros((len(live), n + m))
    g = dist[live]
    b[:, :n] = _gamma(unit, g, g)
    b[:, n] = 1.0
    ok, sol, value, failed = _solve_or_fail(A, b, m, x0[live].tolist(), tally)
    errors = {int(live[j]): why for j, why in failed.items()}
    live, b, sol, length = live[ok], b[ok], sol[ok], length[ok]

    w = sol[:, :n]
    weights[live] = w
    mult = sys.model.sill * sol[:, n:]
    if sys.drift_degree == 1:
        # express multipliers in the uncentered, unscaled basis [1, x, y]
        mult[:, 1:] /= length
        mult[:, 0] -= mult[:, 1] * x0[live, 0] + mult[:, 2] * x0[live, 1]
    mu[live] = mult
    prediction[live] = _rowdot(w, vals[live])
    variance[live] = sys.model.sill * (_rowdot(w, b[:, :n]) + sol[:, n])
    return idx, weights, mu, prediction, variance, errors, value


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each summed as a 1-D `a @ b` would be."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _krige_global(sys: KrigingSystem, targets: np.ndarray):
    """Dual-form predictions from one system over all samples; returns
    what _krige returns."""
    locs = sys.locations
    n, m = len(locs), sys.n_drift_terms
    center = locs.mean(axis=0)
    c = locs - center
    # distinct samples, at least two: the span is positive
    half = 0.5 * float((locs.max(axis=0) - locs.min(axis=0)).max())
    out = np.full(len(targets), np.nan)

    nearest = sys.index.knn(targets, 1)[:, 0]
    gap = np.hypot(targets[:, 0] - locs[nearest, 0], targets[:, 1] - locs[nearest, 1])
    snap = coincident(gap)
    out[snap] = sys.values[nearest[snap]]
    live = np.flatnonzero(~snap)

    unit = sys.unit_model
    A = _bordered(unit, c[None], drift_basis(sys.drift_degree, c / half)[None])
    rhs = np.concatenate([sys.values, np.zeros(m)])
    ok, sol, value, failed = _solve_or_fail(A, rhs[None], m, None)
    if not ok[0]:
        return out, dict.fromkeys(live.tolist(), failed[0]), f"global neighbourhood, {failed[0]}"
    alpha = sol[0]

    # a chunk's semivariograms are evaluated in place, in two (chunk, n)
    # float64 buffers allocated once: a quarter of its budget of 64 bytes
    # per target-sample pair
    step = _chunk_size(64 * n)
    cx, cy = np.ascontiguousarray(c.T)
    g_buf = np.empty((min(step, len(live)), n))
    e_buf = np.empty_like(g_buf)
    for s in range(0, len(live), step):
        rows = live[s : s + step]
        t = targets[rows] - center
        g, e = g_buf[: len(rows)], e_buf[: len(rows)]
        np.subtract(cx, t[:, :1], out=g)
        np.subtract(cy, t[:, 1:], out=e)
        _gamma(unit, np.hypot(g, e, out=g), g, e)
        z = g @ alpha[:n] + alpha[n]
        if m == 3:
            z += t @ alpha[n + 1 :] / half
        out[rows] = z
    return out, {}, f"global neighbourhood, cond ≤ {value[0]:.3g}"


def _krige(sys: KrigingSystem, targets: np.ndarray) -> tuple[np.ndarray, dict, str]:
    """Predictions for many targets, {target position: error message}, and
    a one-line note naming the path and its worst condition bound."""
    n = len(sys.locations)
    if sys.neighborhood is None or sys.neighborhood >= n:
        return _krige_global(sys, targets)
    width = sys.neighborhood + sys.n_drift_terms
    step = _chunk_size(8 * width * width)
    out = np.empty(len(targets))
    errors = {}
    worst = np.nan
    tally = {"border": 0, "certified": 0, "svd": 0}
    idx = sys.index.knn(targets, sys.neighborhood)
    for s in range(0, len(targets), step):
        *_, prediction, _, chunk_errors, value = _krige_chunk(
            sys, targets[s : s + step], idx[s : s + step], tally
        )
        out[s : s + step] = prediction
        errors.update((s + row, msg) for row, msg in chunk_errors.items())
        worst = np.fmax.reduce(value, initial=worst)
    return out, errors, (
        f"local neighbourhood of {sys.neighborhood}, worst cond ≤ {worst:.3g}, "
        f"{tally['border']} collinear drift borders, "
        f"{tally['certified']} systems certified by their factors, {tally['svd']} by SVD"
    )


def uk_solve(sys: KrigingSystem, target) -> KrigingSolution:
    """Solve the universal kriging system for one target location."""
    x0 = coordinate_array(target, "target", ndims=(1,))
    idx, weights, mu, prediction, variance, errors, *_ = _krige_chunk(
        sys, x0, sys.index.knn(x0, sys.neighborhood)
    )
    if errors:
        raise NumericalError(errors[0])
    return KrigingSolution(weights[0], mu[0], float(prediction[0]), float(variance[0]), idx[0])


def uk_predict(sys: KrigingSystem, targets) -> np.ndarray:
    """Kriging predictions for many targets, in input order."""
    out, errors, _ = _krige(sys, coordinate_array(targets, "target", ndims=(1, 2)))
    if errors:
        i = min(errors)
        raise NumericalError(f"target {i}: {errors[i]}")
    return out


def idw_predict(locations, values, targets, cfg: IdwConfig = IdwConfig()) -> np.ndarray:
    """Shepard inverse-distance-weighted predictions for many targets.

    A target within the coincidence tolerance of a sample returns that
    sample's value exactly (lowest index wins ties).
    """
    locs, values = _samples(locations, values)
    if len(locs) == 0:
        raise DataError("IDW needs at least one sample")
    targets = coordinate_array(targets, "target", ndims=(1, 2))
    return _idw(GridIndex(locs), values, targets, cfg.power, cfg.neighborhood)


def _idw(index: GridIndex, values: np.ndarray, targets: np.ndarray, power: float, k):
    """idw_predict on checked samples, indexed by index, and checked targets;
    k is the neighborhood (None = all samples)."""
    locs = index.locations
    width = len(locs) if k is None else min(k, len(locs))
    step = _chunk_size(64 * width)  # about eight (chunk, width) arrays
    out = np.empty(len(targets))
    for s in range(0, len(targets), step):
        t = targets[s : s + step]
        idx = index.knn(t, k)
        d = np.hypot(locs[idx, 0] - t[:, :1], locs[idx, 1] - t[:, 1:])
        vals = values[idx]
        chunk = vals[:, 0].copy()
        live = ~coincident(d[:, 0])
        dl = d[live]
        # normalize by the smallest distance so huge powers cannot overflow
        w = (dl[:, :1] / dl) ** power
        chunk[live] = _rowdot(w, vals[live]) / w.sum(axis=1)
        out[s : s + step] = chunk
    return out


@dataclass(frozen=True)
class LiftSummary:
    """Lift outcome: elevation range and the vertices where kriging fell
    back to IDW."""

    z_min: float
    z_max: float
    fallback_vertices: tuple = field(default=())


def lift_mesh(planar: TriMesh, samples: PointSet, method) -> tuple[TriMesh, LiftSummary]:
    """Assign elevations to every vertex of a planar mesh.

    samples must be a projected (UTM) PointSet in the same zone as the mesh
    coordinates. method is a UkConfig or IdwConfig. A vertex whose kriging
    system fails (collinear drift border, singular or ill-conditioned) falls
    back to IDW and is flagged, and a warning names the first failed
    vertex's reason; when more than 1% fail, NumericalError aborts the lift
    with that reason instead, and names a remedy when a variogram without a
    nugget made every failed system ill-conditioned.
    """
    if not isinstance(samples.crs, UtmCrs):
        raise DataError("lift_mesh needs projected (UTM) samples")

    xy = samples.coords()
    z = samples.altitudes()
    verts = coordinate_array(planar.vertices, "planar vertex")
    fallbacks = []

    if isinstance(method, IdwConfig):
        heights = idw_predict(xy, z, verts, method)
    elif isinstance(method, UkConfig):
        sys = KrigingSystem(xy, z, method.model, method.drift_degree, method.neighborhood)
        scanned = sys.index.scanned
        heights, errors, note = _krige(sys, verts)
        fallbacks = sorted(errors)
        logger.debug(
            "uk lift: %d samples, %d vertices, %s, %d fallbacks, %d kNN candidates scanned",
            len(xy), len(verts), note, len(fallbacks), sys.index.scanned - scanned,
        )
        if fallbacks:
            first = f"vertex {fallbacks[0]}: {errors[fallbacks[0]]}"
            if len(fallbacks) > 0.01 * len(verts):
                if method.model.nugget == 0 and all(
                    errors[v].startswith("ill-conditioned") for v in fallbacks
                ):
                    first += f"; {_VARIOGRAM_REMEDY}"
                raise NumericalError(
                    f"kriging failed at {len(fallbacks)} of {len(verts)} vertices "
                    f"(first: {fallbacks[:5]}); {first}"
                )
            heights[fallbacks] = _idw(
                sys.index, sys.values, verts[fallbacks], 2.0, method.neighborhood
            )
            logger.warning(
                "kriging fell back to IDW at %d vertices: %s; %s",
                len(fallbacks), fallbacks[:10], first,
            )
    else:
        raise ConfigError(f"unknown lift method {method!r}")

    lifted = planar.with_vertices(np.column_stack([verts, heights]))
    summary = LiftSummary(float(heights.min()), float(heights.max()), tuple(fallbacks))
    return lifted, summary
