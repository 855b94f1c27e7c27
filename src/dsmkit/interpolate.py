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
count it is that whole order.

Universal kriging solves the bordered semivariogram system (weights
constrained to reproduce the drift basis at the target) by dense LU. A local
(k-nearest) neighbourhood differs per target: coordinates are centered on
the target before assembly for conditioning, and the drift multipliers are
reported in the original basis. Targets are processed in chunks: a chunk's
local systems are assembled as one (chunk, k+m, k+m) stack and solved by one
call of numpy's stacked LAPACK solve, in which a system that LU rejects fails
alone (see _lapack). The chunk size is a fixed byte budget divided by the
size of one system. The semivariogram block is symmetric bit for bit, so
each slab of rows is evaluated from its diagonal rightwards and mirrored
below it: every pair's semivariogram is computed once. One rule, for local
stacks and the global system alike, fails a system whose degree-1 drift
border is rank-deficient, that LU finds singular, or that is ill-conditioned
(2-norm condition number above 1e12 up to width 200, relative residual above
1e-6 beyond); it fails only its own targets, with a message naming the cause
and the measured value. A kriging system's condition number is bounded from
above by two small Cholesky factorisations, not by an SVD or an inverse: one
of the covariance block K = sJ - G (s the sill, J = 11^T), shifted by s/1024,
and one of the drift Gram matrix F^T F. Their proven eigenvalue floors tau_K
and tau_F give, through the null-space form of the saddle-point inverse,
cond(A) <= ||A||_F (b + max(1/tau_K, s, k/tau_F)), with k = ||K||_F and
b = (1 + k/tau_K) / sqrt(tau_F) (see _factor_bound). A system passes on that
bound when it is at most 1e10; every other system, a failed factor included,
gets the SVD's condition number, so failures and their messages are the
SVD's. tau_F > 0 proves a full-rank drift border, so a stack's border ranks
are computed once, for the systems the bound does not clear (beyond width
200, every system).

A global neighbourhood (all samples) gives every target the same system once
it is centered on the sample centroid, so predictions solve it once, in dual
form (Royer & Vieira 1984; Cressie 1993, 3.4): alpha = A^-1 [z; 0], and
z(x0) = gamma(|x_i - x0|) . alpha_w + f(x0) . alpha_mu. The x/y drift
columns are scaled by the samples' half-span so the border is O(1). If that
system fails, every target off the samples fails. uk_solve, which reports
weights and variance, always solves the target-centered system.

IDW implements the classic Shepard weighting on the same index and chunks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .acquisition import PointSet, UtmCrs
from .errors import ConfigError, DataError, NumericalError
from .mesh import TriMesh, MeshQuality, mesh_quality
from .variogram import VariogramModel, model_gamma

logger = logging.getLogger(__name__)

COINCIDENT_TOL = 1e-9  # meters; closer targets snap to the sample value
_COND_LIMIT = 1e12  # largest 2-norm condition number a system may have
# a system passes on a proven condition bound only this far under the limit,
# which leaves room for the rounding in the bound itself
_BOUND_LIMIT = _COND_LIMIT / 100
_CHUNK_BYTES = 1 << 20  # float64 work per chunk of targets
_SLAB_ELEMS = 1 << 14  # float64 elements per semivariogram-block temporary
_CELL_OCCUPANCY = 2.0  # mean samples per grid cell


def drift_basis(degree: int, x) -> np.ndarray:
    """Polynomial drift terms at a planar location: [1] or [1, x, y]."""
    if degree == 0:
        return np.array([1.0])
    if degree == 1:
        return np.array([1.0, float(x[0]), float(x[1])])
    raise ConfigError(f"unsupported drift degree {degree}; only 0 and 1 are available")


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
        that target's (squared distance, index) order over all samples."""
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


def _check_distinct(index: GridIndex, tol: float = COINCIDENT_TOL):
    """Raise DataError when two samples lie within tol of each other."""
    locs = index.locations
    own = np.arange(len(locs))
    # each sample's two nearest include itself or a coincident twin
    pair = index.knn(locs, 2)
    other = np.where(pair[:, 0] == own, pair[:, 1], pair[:, 0])
    close = np.hypot(locs[:, 0] - locs[other, 0], locs[:, 1] - locs[other, 1]) < tol
    if close.any():
        lo = np.minimum(own, other)[close]
        hi = np.maximum(own, other)[close]
        first = np.lexsort((lo, hi))[0]
        raise DataError(f"samples {lo[first]} and {hi[first]} coincide within {tol} m")


@dataclass
class KrigingSystem:
    """Samples plus variogram model and solver configuration.

    neighborhood: None for a global system, or the number of nearest samples
    to rebuild the system from per target (ties by sample index).
    """

    locations: np.ndarray
    values: np.ndarray
    model: VariogramModel
    drift_degree: int = 1
    neighborhood: int | None = 16
    index: GridIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        locs, vals = _samples(self.locations, self.values)
        if self.drift_degree not in (0, 1):
            raise ConfigError(
                f"unsupported drift degree {self.drift_degree}; only 0 and 1 are available"
            )
        need = self.n_drift_terms + 1
        if len(locs) < need:
            raise DataError(
                f"need at least {need} samples for drift degree {self.drift_degree}, "
                f"got {len(locs)}"
            )
        if self.neighborhood is not None and self.neighborhood < need:
            raise ConfigError(
                f"neighborhood {self.neighborhood} too small for drift degree "
                f"{self.drift_degree} (needs >= {need})"
            )
        self.index = GridIndex(locs)
        _check_distinct(self.index)
        self.locations = locs
        self.values = vals

    @property
    def n_drift_terms(self) -> int:
        return 1 if self.drift_degree == 0 else 3


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
        if self.neighborhood is not None and self.neighborhood < 1:
            raise ConfigError(f"neighborhood must be >= 1, got {self.neighborhood}")


@dataclass(frozen=True)
class UkConfig:
    """Universal kriging lift configuration."""

    model: VariogramModel
    drift_degree: int = 1
    neighborhood: int | None = 16


def _diagnose_singular(border: np.ndarray) -> str:
    """Name the likely cause of a failed system from its drift border
    (n, m). Centred coordinates whose smallest-to-largest singular value
    ratio r is at most 1/sqrt(_COND_LIMIT) are collinear: a border alone
    puts the condition number near 1/r^2."""
    if border.shape[1] == 3:
        c = border[:, 1:] - border[:, 1:].mean(axis=0)
        s = np.linalg.svd(c, compute_uv=False)
        tol = s[0] / math.sqrt(_COND_LIMIT)
        if s[1] <= tol:
            term = "x" if np.linalg.norm(c[:, 0]) <= tol else "y"
            return (
                f"drift term '{term}' is linearly dependent on the previous terms "
                f"(collinear samples: spread ratio {s[1] / s[0]:.2g})"
            )
    return "the variogram produced a singular coefficient block"


def _samples(locations, values) -> tuple[np.ndarray, np.ndarray]:
    """Sample locations (n, 2) and values (n,) as float arrays, all finite."""
    locs = np.asarray(locations, dtype=float)
    vals = np.asarray(values, dtype=float)
    if locs.ndim != 2 or locs.shape[1] != 2:
        raise DataError(f"locations must be (n, 2), got {locs.shape}")
    if vals.shape != (len(locs),):
        raise DataError("values length must match locations")
    if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(vals))):
        raise DataError("non-finite sample data")
    return locs, vals


def _targets(targets) -> np.ndarray:
    t = np.asarray(targets, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(t)):
        raise DataError("non-finite target location")
    return t


def _bordered(model: VariogramModel, d: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Stack of bordered semivariogram matrices [[G, F], [F^T, 0]] for the
    sample coordinates d (stack, n, 2) and drift columns F (stack, n, m)."""
    L, n, m = F.shape
    A = np.zeros((L, n + m, n + m))
    # fill the semivariogram block a few rows at a time: full-size
    # temporaries, freed after every target of a large system, made the
    # allocator hand their pages back and fault them in again per target.
    # G is symmetric bit for bit (x - y == -(y - x) and hypot ignores
    # signs), so a slab of rows [r, r + s) is evaluated at the columns >= r
    # only and its transpose fills the columns [r, r + s) below it
    slab = max(1, _SLAB_ELEMS // max(1, L * n))
    for r in range(0, n, slab):
        s = slice(r, min(r + slab, n))
        pair_dist = np.hypot(
            d[:, s, None, 0] - d[:, None, r:, 0], d[:, s, None, 1] - d[:, None, r:, 1]
        )
        g = model_gamma(model, pair_dist)
        A[:, s, r:n] = g
        A[:, r:n, s] = g.transpose(0, 2, 1)
    A[:, :n, n:] = F
    A[:, n:, :n] = F.transpose(0, 2, 1)
    return A


def _lapack(gufunc, *stacks) -> np.ndarray:
    """Apply one of numpy's stacked float64 LAPACK gufuncs (solve,
    cholesky_lo) to every system of the stacks.

    np.linalg.solve and np.linalg.cholesky call these same gufuncs, but they
    raise LinAlgError for the whole stack when one system fails (a zero LU
    pivot, a non-positive Cholesky pivot). Called directly, the gufunc fills
    a failed system's output with NaN and raises nothing, so every other
    system of the stack keeps its result, bit for bit the wrappers' result.
    The floating-point flags are ignored: the wrappers ignore overflow,
    underflow and division, and the invalid flag only reports the NaN fill."""
    with np.errstate(all="ignore"):
        return gufunc(*stacks, signature="d" * len(stacks) + "->d")


def _solve_or_fail(
    A: np.ndarray, b: np.ndarray, m: int, targets: list | None, sill=None, tally=None
):
    """Solve a stack of bordered systems A x = b (m drift terms) under the
    one failure rule; targets holds each system's target, or is None for the
    one system over all samples. Returns (ok, sol, measure, value, failed):
    ok masks the systems that passed, sol holds their solutions (the LU
    solution of an ill-conditioned system too, zeros for a singular one),
    value is the conditioning measure per solved system (NaN elsewhere),
    measure names it for a log note ("cond ≤": an upper bound from
    _factor_bound, exact where it fails; or "residual") and failed maps a
    stack position to its reason.

    sill, the semivariogram model's sill, declares A a stack of kriging
    systems as _bordered builds them, which _factor_bound may clear; without
    it every system up to width 200 is judged by the SVD. tally, a dict,
    counts the systems cleared by their factors ("certified") and those
    judged by an SVD ("svd").

    One pass: one batched LU solve, whose NaN rows mark the systems LU
    rejected; the certificate on the solved systems; one rank check of the
    degree-1 drift border F (n, 3) over every system not certified, since a
    border of rank below 3 fails its system though LU may "solve" it with a
    tiny pivot (a certified system has a proven tau_F > 0, so a full-rank
    border; the residual test beyond width 200 cannot tell, so there every
    system is checked); then the SVD or the residual for the rest."""
    L, w = b.shape
    n = w - m
    failed = {}

    def fail(j, kind, measured):
        where = "over all samples" if targets is None else f"at target {tuple(targets[j])}"
        cause = _diagnose_singular(A[j, :n, n:])
        failed[int(j)] = f"{kind} kriging system {where}: {measured}; {cause}"

    sol = _lapack(_umath_linalg.solve, A, b[..., None])[..., 0]
    solved = ~np.isnan(sol).all(axis=1)
    ok = solved.copy()
    value = np.full(L, np.nan)
    if w <= 200 and sill is not None:
        value[ok] = _factor_bound(A if ok.all() else A[ok], m, sill)
    certified = value <= _BOUND_LIMIT
    if w <= 200 and tally is not None:
        tally["certified"] += int(certified.sum())
        tally["svd"] += int((solved & ~certified).sum())

    rest = np.flatnonzero(~certified)
    if m == 3 and len(rest):
        rank = np.linalg.matrix_rank(A[rest, :n, n:])
        for j, r in zip(rest[rank < 3], rank[rank < 3]):
            fail(j, "singular", f"drift border of rank {r}")
        ok[rest[rank < 3]] = False
        rest = rest[rank == 3]
    for j in rest[~solved[rest]]:
        fail(j, "singular", "LU found a zero pivot")
    sol[~ok] = 0.0
    value[~ok] = np.nan
    rest = rest[solved[rest]]

    if w <= 200:
        measure, name, limit = "cond ≤", "cond", _COND_LIMIT
        if len(rest):
            value[rest] = np.linalg.cond(A[rest])
    else:
        measure = name = "residual"
        limit = 1e-6
        Ao, bo = A[ok], b[ok]
        resid = np.linalg.norm(np.matmul(Ao, sol[ok, :, None])[..., 0] - bo, axis=-1)
        value[ok] = resid / np.maximum(1.0, np.linalg.norm(bo, axis=-1))
    for j in np.flatnonzero(ok & ~(value <= limit)):
        ok[j] = False
        fail(j, "ill-conditioned", f"{name} {value[j]:.3g} > {limit:g}")
    return ok, sol, measure, value, failed


def _factor_bound(A: np.ndarray, m: int, sill) -> np.ndarray:
    """Per system of the stack A of bordered kriging systems: a proven upper
    bound on its 2-norm condition number, or inf where none is proven.

    A = [[G, F], [F^T, 0]] must be symmetric, as _bordered builds it, with
    F's first column all ones; sill is a number s >= 0.
    The bound rests on two Cholesky factors per system, of the covariance
    block K = sJ - G (J = 11^T) and of the drift Gram matrix F^T F.

    The bound. Let lmin(K) >= tau_K > 0 and lmin(F^T F) >= tau_F > 0, and
    h = 1/tau_K, rho = tau_F^-1/2, k >= ||K||_F, b = rho (1 + h k). Then
    ||A^-1||_2 <= b + max(h, s, rho^2 k), so cond(A) <= ||A||_F times that.
    Proof (the null-space form of a saddle-point inverse; Benzi, Golub &
    Liesen 2005, Acta Numerica 14:1, section 6). Let F = QR (tau_F > 0, so
    R is invertible) and Z an orthonormal basis of the null space of F^T.
    As 1 = F e1, Z^T 1 = 0 and Z^T G = -Z^T K. Solving A (x, y) = (r, t):
    x = Q R^-T t + Z v, and Z^T (G x + F y) = Z^T r gives
    v = -M^-1 Z^T (r + K Q R^-T t) with M = Z^T K Z, lmin(M) >= tau_K. So
      (1,1) block of A^-1: -Z M^-1 Z^T, norm <= h;
      (1,2) block: (I - P) Q R^-T, P = Z M^-1 Z^T K, norm <= (1 + h k) rho;
      (2,2) block: -R^-1 Q^T G (I - P) Q R^-T. J Z = 0 gives J (I - P) = J
      and R^-1 Q^T 1 = e1, so it is -s e1 e1^T + R^-1 Q^T C Q R^-T with
      C = K - K Z M^-1 Z^T K = K^1/2 (I - W) K^1/2, W the orthogonal
      projector onto the range of K^1/2 Z: C is PSD with ||C|| <= k, and a
      difference of two PSD matrices has norm <= max(s, rho^2 k).
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
    Underflow adds at most 2^-1022 to a product or quotient, so under
    2^-1005 (1 + max b_ii) to ||E||_2 for n <= 200. So B is factored
    shifted by c, and Weyl's inequality adds up the rounding: in K~ = fl(s
    - G) (u |K| per entry), in F^T F (gamma_n ||F||_F^2), in the shift (u
    per diagonal entry) and in the factorisation. With mag the Frobenius
    norm of K~, or the trace of the computed F^T F, all of it is below half
    of
      slack = 8 w^2 u (mag + c) + 2^-999    (w = n + m, the system width),
    and tau = fl(c - slack) <= c - slack / 2 (slack >= 2 u c) is proven.
    K is shifted by s / 1024; a system whose factor does not complete gets
    no bound (inf), and the SVD judges it. F^T F (3 x 3) is shifted by
    det / (2 e2), e2 the sum of its principal 2 x 2 minors: e2 >= l2 l3, the
    product of its two larger eigenvalues, so in exact arithmetic the shift
    is at most lmin / 2.

    The final bound takes a factor 1 + 2^-20 for the rounding of the norms
    (relative 1.01 w^2 u <= 2^-37 up to width 200) and of its own few
    operations, and 2^-500 on k for underflowed squares (||A||_F >= 1, from
    the ones column, needs no such term)."""
    L, w, _ = A.shape
    n = w - m
    s = np.full(L, float(sill))
    u = 2.0**-53

    def slack(mag, c):
        return 8.0 * w * w * u * (mag + c) + 2.0**-999

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
            tau_F = np.where(_chol3_completes(P, shift), shift - slack(a + d + f, shift), np.nan)
        rho2 = 1.0 / tau_F
        rho = np.sqrt(rho2)
        norm_A = np.sqrt(np.einsum("ijk,ijk->i", A, A))
        k = np.empty(L)
        tau_K = np.full(L, np.nan)
        step = max(1, _SLAB_ELEMS // (w * w))
        for lo in range(0, L, step):
            sl = slice(lo, min(lo + step, L))
            G, sv = A[sl, :n, :n], s[sl]
            K = sv[:, None, None] - G
            k[sl] = np.sqrt(np.einsum("ijk,ijk->i", K, K)) + 2.0**-500
            shift = sv / 1024.0
            tau_K[sl] = np.where(_chol_completes(K, shift), shift - slack(k[sl], shift), np.nan)
        h = 1.0 / tau_K
        b = rho * (1.0 + h * k)
        bound = (1.0 + 2.0**-20) * norm_A * (b + np.maximum(h, np.maximum(s, rho2 * k)))
    return np.where((tau_K > 0) & (tau_F > 0) & (s >= 0) & (bound < np.inf), bound, np.inf)


def _chol_completes(K: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether the floating-point Cholesky factorisation of each K_j -
    shift_j I runs to completion, as a mask. K is shifted in place (einsum's
    diagonal is a writeable view)."""
    np.einsum("ijj->ij", K)[...] -= shift[:, None]
    # a failed factor is all NaN, and a NaN or inf anywhere in a completed
    # one reaches a later pivot
    diag = np.einsum("ijj->ij", _lapack(_umath_linalg.cholesky_lo, K))
    return (diag.min(axis=1) > 0) & (diag.max(axis=1) < np.inf)


def _chol3_completes(P: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether the Cholesky recurrences on each 3 x 3 P_j - shift_j I run to
    completion in floating point (lower triangle)."""
    l11 = np.sqrt(P[:, 0, 0] - shift)
    l21 = P[:, 1, 0] / l11
    l31 = P[:, 2, 0] / l11
    l22 = np.sqrt(P[:, 1, 1] - shift - l21 * l21)
    l32 = (P[:, 2, 1] - l31 * l21) / l22
    l33 = np.sqrt(P[:, 2, 2] - shift - l31 * l31 - l32 * l32)
    diag = np.stack([l11, l22, l33])
    return (diag.min(axis=0) > 0) & (diag.max(axis=0) < np.inf)


def _krige_chunk(sys: KrigingSystem, x0: np.ndarray, tally=None):
    """Assemble and solve the target-centered UK systems of targets x0
    (tally as for _solve_or_fail).

    Returns (sample_indices, weights, drift_multipliers, prediction,
    variance, errors, measure, value): one row per target up to errors,
    which maps a failed row to its message (its prediction is NaN); value
    holds the conditioning measure of each system solved (NaN elsewhere).
    """
    idx = sys.index.knn(x0, sys.neighborhood)
    locs = sys.locations[idx]
    vals = sys.values[idx]
    t, n = idx.shape
    m = sys.n_drift_terms
    weights = np.zeros((t, n))
    mu = np.zeros((t, m))
    prediction = np.full(t, np.nan)
    variance = np.zeros(t)

    # center on the target: drift columns become [1, dx, dy], rhs [1, 0, 0]
    d = locs - x0[:, None, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    nearest = dist.argmin(axis=1)
    snap = dist[np.arange(t), nearest] < COINCIDENT_TOL
    rows = np.flatnonzero(snap)
    weights[rows, nearest[rows]] = 1.0
    prediction[rows] = vals[rows, nearest[rows]]

    live = np.flatnonzero(~snap)
    F = np.ones((len(live), n, 1))
    if sys.drift_degree == 1:
        F = np.concatenate([F, d[live]], axis=2)
    A = _bordered(sys.model, d[live], F)
    b = np.zeros((len(live), n + m))
    b[:, :n] = model_gamma(sys.model, dist[live])
    b[:, n] = 1.0
    ok, sol, measure, value, failed = _solve_or_fail(
        A, b, m, x0[live].tolist(), sys.model.sill, tally
    )
    errors = {int(live[j]): why for j, why in failed.items()}
    live, b, sol = live[ok], b[ok], sol[ok]

    w = sol[:, :n]
    weights[live] = w
    mult = sol[:, n:].copy()
    if sys.drift_degree == 1:
        # express multipliers in the uncentered basis [1, x, y]
        mult[:, 0] -= mult[:, 1] * x0[live, 0] + mult[:, 2] * x0[live, 1]
    mu[live] = mult
    prediction[live] = _rowdot(w, vals[live])
    variance[live] = _rowdot(w, b[:, :n]) + sol[:, n]
    return idx, weights, mu, prediction, variance, errors, measure, value


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
    F = np.ones((n, m))
    if m == 3:
        F[:, 1:] = c / half
    out = np.full(len(targets), np.nan)

    nearest = sys.index.knn(targets, 1)[:, 0]
    gap = np.hypot(targets[:, 0] - locs[nearest, 0], targets[:, 1] - locs[nearest, 1])
    snap = gap < COINCIDENT_TOL
    out[snap] = sys.values[nearest[snap]]
    live = np.flatnonzero(~snap)

    A = _bordered(sys.model, c[None], F[None])
    rhs = np.concatenate([sys.values, np.zeros(m)])
    ok, sol, measure, value, failed = _solve_or_fail(A, rhs[None], m, None, sys.model.sill)
    if not ok[0]:
        return out, dict.fromkeys(live.tolist(), failed[0]), f"global neighbourhood, {failed[0]}"
    alpha = sol[0]

    # about eight (chunk, n) float64 temporaries per chunk of targets
    step = _chunk_size(64 * n)
    for s in range(0, len(live), step):
        rows = live[s : s + step]
        t = targets[rows] - center
        g = model_gamma(sys.model, np.hypot(c[:, 0] - t[:, :1], c[:, 1] - t[:, 1:]))
        z = g @ alpha[:n] + alpha[n]
        if m == 3:
            z += t @ alpha[n + 1 :] / half
        out[rows] = z
    return out, {}, f"global neighbourhood, {measure} {value[0]:.3g}"


def _krige(sys: KrigingSystem, targets: np.ndarray) -> tuple[np.ndarray, dict, str]:
    """Predictions for many targets, {target position: error message}, and
    a one-line note naming the path and its worst conditioning measure."""
    n = len(sys.locations)
    if sys.neighborhood is None or sys.neighborhood >= n:
        return _krige_global(sys, targets)
    width = sys.neighborhood + sys.n_drift_terms
    step = _chunk_size(8 * width * width)
    out = np.empty(len(targets))
    errors = {}
    worst = np.nan
    tally = {"certified": 0, "svd": 0}
    for s in range(0, len(targets), step):
        *_, prediction, _, chunk_errors, measure, value = _krige_chunk(
            sys, targets[s : s + step], tally
        )
        out[s : s + step] = prediction
        errors.update((s + row, msg) for row, msg in chunk_errors.items())
        worst = np.fmax.reduce(value, initial=worst)
    return out, errors, (
        f"local neighbourhood of {sys.neighborhood}, worst {measure} {worst:.3g}, "
        f"{tally['certified']} systems certified by their factors, {tally['svd']} by SVD"
    )


def uk_solve(sys: KrigingSystem, target) -> KrigingSolution:
    """Solve the universal kriging system for one target location."""
    x0 = np.asarray(target, dtype=float)
    if x0.shape != (2,):
        raise DataError(f"target must be a 2D location, got shape {x0.shape}")
    idx, weights, mu, prediction, variance, errors, *_ = _krige_chunk(sys, _targets(x0))
    if errors:
        raise NumericalError(errors[0])
    return KrigingSolution(weights[0], mu[0], float(prediction[0]), float(variance[0]), idx[0])


def uk_predict(sys: KrigingSystem, targets) -> np.ndarray:
    """Kriging predictions for many targets, in input order."""
    out, errors, _ = _krige(sys, _targets(targets))
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
    targets = _targets(targets)
    index = GridIndex(locs)
    k = len(locs) if cfg.neighborhood is None else min(cfg.neighborhood, len(locs))
    step = _chunk_size(64 * k)  # about eight (chunk, k) arrays
    out = np.empty(len(targets))
    for s in range(0, len(targets), step):
        t = targets[s : s + step]
        idx = index.knn(t, cfg.neighborhood)
        d = np.hypot(locs[idx, 0] - t[:, :1], locs[idx, 1] - t[:, 1:])
        vals = values[idx]
        chunk = vals[:, 0].copy()
        live = d[:, 0] >= COINCIDENT_TOL
        dl = d[live]
        # normalize by the smallest distance so huge powers cannot overflow
        w = (dl[:, :1] / dl) ** cfg.power
        chunk[live] = _rowdot(w, vals[live]) / w.sum(axis=1)
        out[s : s + step] = chunk
    return out


@dataclass(frozen=True)
class LiftSummary:
    """Lift outcome: elevation range, post-lift quality, and the vertices
    where kriging fell back to IDW."""

    method: str
    z_min: float
    z_max: float
    quality: MeshQuality
    fallback_vertices: tuple = field(default=())


def lift_mesh(planar: TriMesh, samples: PointSet, method) -> tuple[TriMesh, LiftSummary]:
    """Assign elevations to every vertex of a planar mesh.

    samples must be a projected (UTM) PointSet in the same zone as the mesh
    coordinates. method is a UkConfig or IdwConfig. A vertex whose kriging
    system fails (rank-deficient drift, singular or ill-conditioned) falls
    back to IDW and is flagged, and a warning names the first failed
    vertex's reason; when more than 1% fail, NumericalError aborts the lift
    with that reason instead.
    """
    if planar.is_3d:
        raise DataError("lift_mesh expects a planar (2D) mesh")
    if not isinstance(samples.crs, UtmCrs):
        raise DataError("lift_mesh needs projected (UTM) samples")
    if len(samples) == 0:
        raise DataError("no samples to interpolate from")

    xy = samples.coords()
    z = samples.altitudes()
    verts = _targets(planar.vertices)
    fallbacks = []

    if isinstance(method, IdwConfig):
        heights = idw_predict(xy, z, verts, method)
        name = "idw"
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
                raise NumericalError(
                    f"kriging failed at {len(fallbacks)} of {len(verts)} vertices "
                    f"(first: {fallbacks[:5]}); {first}"
                )
            idw_cfg = IdwConfig(power=2.0, neighborhood=method.neighborhood)
            heights[fallbacks] = idw_predict(xy, z, verts[fallbacks], idw_cfg)
            logger.warning(
                "kriging fell back to IDW at %d vertices: %s; %s",
                len(fallbacks), fallbacks[:10], first,
            )
        name = "uk"
    else:
        raise ConfigError(f"unknown lift method {method!r}")

    lifted = planar.with_vertices(np.column_stack([verts, heights]))
    summary = LiftSummary(
        method=name,
        z_min=float(heights.min()),
        z_max=float(heights.max()),
        quality=mesh_quality(lifted),
        fallback_vertices=tuple(fallbacks),
    )
    return lifted, summary
