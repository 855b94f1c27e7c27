"""Independent verification helpers used by the test suite.

These deliberately avoid the package's own predicates/solvers: circumcircles
are computed from explicit circumcenters, kriging systems are solved by a
local Gaussian elimination, and variogram values are evaluated from scratch.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np

from dsmkit.errors import DataError


def uniform_reference(seed: int, n: int, low: float, high: float) -> np.ndarray:
    """numpy's own `default_rng(seed).uniform(low, high, n)`: the PCG64
    stream that mesh seeding reproduces without numpy.random."""
    return np.random.default_rng(seed).uniform(low, high, n)


def circumcircle_violations(points: np.ndarray, triangles: np.ndarray, rel_tol=1e-9) -> int:
    """Count (triangle, point) pairs where a non-vertex point lies strictly
    inside a triangle's circumcircle, via explicit circumcenters."""
    P = np.asarray(points, dtype=float)
    T = np.asarray(triangles, dtype=int)
    a, b, c = P[T[:, 0]], P[T[:, 1]], P[T[:, 2]]
    d = 2.0 * (
        a[:, 0] * (b[:, 1] - c[:, 1])
        + b[:, 0] * (c[:, 1] - a[:, 1])
        + c[:, 0] * (a[:, 1] - b[:, 1])
    )
    a2 = (a**2).sum(axis=1)
    b2 = (b**2).sum(axis=1)
    c2 = (c**2).sum(axis=1)
    ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
    uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
    r2 = (a[:, 0] - ux) ** 2 + (a[:, 1] - uy) ** 2
    dist2 = (P[None, :, 0] - ux[:, None]) ** 2 + (P[None, :, 1] - uy[:, None]) ** 2
    inside = dist2 < r2[:, None] * (1.0 - rel_tol)
    for k in range(3):
        inside[np.arange(len(T)), T[:, k]] = False
    return int(inside.sum())


def euler_characteristic(n_vertices: int, triangles: np.ndarray) -> int:
    """V - E + F with the unbounded outer face counted."""
    T = np.asarray(triangles, dtype=int)
    edges = np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    return n_vertices - len(edges) + (len(T) + 1)


def edges_reference(triangles: np.ndarray) -> np.ndarray:
    """TriMesh.edges by a row-wise unique of the sorted edge pairs."""
    t = np.asarray(triangles, dtype=np.int64)
    if not len(t):
        return np.empty((0, 2), dtype=np.int64)
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def triangle_min_angles(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Smallest interior angle per triangle, in degrees, from first principles."""
    V = np.asarray(vertices, dtype=float)
    T = np.asarray(triangles, dtype=int)
    out = np.empty(len(T))
    for i, (ia, ib, ic) in enumerate(T):
        a, b, c = V[ia], V[ib], V[ic]
        angles = []
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            u = q - p
            w = r - p
            cosv = np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
            angles.append(np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0))))
        out[i] = min(angles)
    return out


def gauss_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Gaussian elimination with partial pivoting (no numpy.linalg)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if A[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def spherical_gamma(c0: float, c: float, a: float, h):
    """Spherical semivariogram evaluated independently (scalar or array)."""
    h = np.asarray(h, dtype=float)
    inside = c0 + c * (1.5 * h / a - 0.5 * (h / a) ** 3)
    out = np.where(h <= a, inside, c0 + c)
    return np.where(h == 0.0, 0.0, out)


def unit_shape_reference(kind, h, a):
    """The model with c0 = 0, c = 1 at range a and lags h, as one allocating
    expression per kind: a new array for every operation."""
    if kind == "spherical":
        t = np.minimum(h / a, 1.0)
        return 1.5 * t - 0.5 * t**3
    if kind == "gaussian":
        return 1.0 - np.exp(-3.0 * (h / a) ** 2)
    return 1.0 - np.exp(-3.0 * h / a)


def model_gamma_reference(model, h):
    """variogram.model_gamma from unit_shape_reference, with np.where for
    the zero lag."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise DataError("lag distance must be non-negative")
    shape = unit_shape_reference(model.kind, h_arr, model.range_)
    values = np.where(h_arr == 0.0, 0.0, model.nugget + model.partial_sill * shape)
    if np.isscalar(h) or np.ndim(h) == 0:
        return float(values)
    return values


def assemble_uk_system(locations, values, gamma_fn, target, drift_degree):
    """Assemble the bordered kriging matrix in original coordinates."""
    locs = np.asarray(locations, dtype=float)
    n = len(locs)
    if drift_degree == 0:
        F = np.ones((n, 1))
        f0 = np.array([1.0])
    else:
        F = np.column_stack([np.ones(n), locs[:, 0], locs[:, 1]])
        f0 = np.array([1.0, target[0], target[1]])
    m = F.shape[1]
    D = np.sqrt(((locs[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2))
    A = np.zeros((n + m, n + m))
    A[:n, :n] = gamma_fn(D)
    A[:n, n:] = F
    A[n:, :n] = F.T
    b = np.zeros(n + m)
    b[:n] = gamma_fn(np.sqrt(((locs - np.asarray(target)) ** 2).sum(axis=1)))
    b[n:] = f0
    return A, b


# ---------------------------------------------------------------------------
# Per-target references for the batched interpolation engine. These are the
# one-target-at-a-time implementations the engine replaced: a full lexsort
# per target for the neighbour search, one assembled and LU-solved system per
# target, and one IDW call per target.

COINCIDENT_TOL = 1e-9


def nearest_subset(locations: np.ndarray, target, k) -> np.ndarray:
    """Indices of the k nearest samples, distance then index order
    (all samples when k is None or k >= n)."""
    d2 = (locations[:, 0] - target[0]) ** 2 + (locations[:, 1] - target[1]) ** 2
    order = np.lexsort((np.arange(len(locations)), d2))
    if k is None or k >= len(locations):
        return order
    return order[:k]


class SingularSystem(Exception):
    """The reference solver's failure: the message names the cause."""


def spread_ratio_reference(xy: np.ndarray) -> np.ndarray:
    """Per border of the stack xy (L, n, 2): the smaller-to-larger singular
    value ratio of the centred coordinates, by numpy's SVD."""
    s = np.linalg.svd(xy - xy.mean(axis=1, keepdims=True), compute_uv=False)
    return s[:, 1] / s[:, 0]


def uk_solve_reference(locations, values, model, drift_degree, k, target):
    """One target's universal kriging solution, assembled and solved alone
    in the one form: the semivariogram at unit sill, and the x/y drift
    columns divided by the distance to the last of the k nearest samples.

    Returns (weights, drift_multipliers, prediction, variance, indices) or
    raises SingularSystem when the drift border's spread ratio is under
    1e-3, LU fails or the solved system is ill-conditioned."""
    x0 = np.asarray(target, dtype=float)
    idx = nearest_subset(locations, x0, k)
    locs = locations[idx]
    vals = values[idx]
    n = len(locs)
    m = 1 if drift_degree == 0 else 3

    dist = np.hypot(locs[:, 0] - x0[0], locs[:, 1] - x0[1])
    nearest = int(np.argmin(dist))
    if dist[nearest] < COINCIDENT_TOL:
        weights = np.zeros(n)
        weights[nearest] = 1.0
        return weights, np.zeros(m), float(vals[nearest]), 0.0, idx

    sill = model.nugget + model.partial_sill
    unit = dataclasses.replace(
        model, nugget=model.nugget / sill, partial_sill=model.partial_sill / sill
    )
    length = dist[-1]
    d = locs - x0
    pair_dist = np.hypot(d[:, 0, None] - d[None, :, 0], d[:, 1, None] - d[None, :, 1])
    A = np.zeros((n + m, n + m))
    A[:n, :n] = model_gamma_reference(unit, pair_dist)
    if drift_degree == 0:
        F = np.ones((n, 1))
    else:
        F = np.column_stack([np.ones(n), d[:, 0] / length, d[:, 1] / length])
        if spread_ratio_reference(F[None, :, 1:])[0] < 1e-3:
            raise SingularSystem(f"collinear drift border at target {tuple(x0)}")
    A[:n, n:] = F
    A[n:, :n] = F.T
    b = np.zeros(n + m)
    b[:n] = model_gamma_reference(unit, dist)
    b[n] = 1.0
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise SingularSystem(f"singular kriging system at target {tuple(x0)}") from None
    # an ill-conditioned system (2-norm condition number above 1e12) fails
    # like a singular one
    if not np.linalg.cond(A) <= 1e12:
        raise SingularSystem(f"ill-conditioned kriging system at target {tuple(x0)}")

    weights = sol[:n]
    mu = sill * sol[n:]
    if drift_degree == 1:
        mu[1:] /= length
        mu[0] -= mu[1] * x0[0] + mu[2] * x0[1]
    return weights, mu, float(weights @ vals), float(sill * (weights @ b[:n] + sol[n])), idx


def solve_or_fail_reference(A: np.ndarray, b: np.ndarray, m: int, targets):
    """interpolate._solve_or_fail's rule with numpy's SVD alone: a degree-1
    system whose drift border has a spread ratio under 1e-3 (by SVD) fails
    by that border; the rest are solved by LU, and np.linalg.cond (an SVD)
    of every solved system fails it above 1e12. Returns (ok, sol, value,
    failed)."""
    L, w = b.shape
    n = w - m
    failed = {}

    def where(j):
        return "over all samples" if targets is None else f"at target {tuple(targets[j])}"

    def fail(j, kind, measured):
        failed[int(j)] = (
            f"{kind} kriging system {where(j)}: {measured}; "
            "the variogram produced a singular coefficient block"
        )

    ok = np.ones(L, dtype=bool)
    if m == 3:
        r = spread_ratio_reference(A[:, :n, n + 1 :])
        for j in np.flatnonzero(~(r >= 1e-3)):
            failed[int(j)] = (
                f"collinear drift border in the kriging system {where(j)}: "
                f"spread ratio {r[j]:.2g} < 0.001"
            )
        ok = r >= 1e-3
    sol = np.zeros((L, w))
    value = np.full(L, np.nan)
    for j in np.flatnonzero(ok):
        try:
            sol[j] = np.linalg.solve(A[j], b[j])
        except np.linalg.LinAlgError:
            ok[j] = False
            fail(j, "singular", "LU found a zero pivot")
            continue
        value[j] = np.linalg.cond(A[j])
        if not value[j] <= 1e12:
            ok[j] = False
            fail(j, "ill-conditioned", f"cond {value[j]:.3g} > 1e+12")
    return ok, sol, value, failed


def cond_bound_reference(A: np.ndarray) -> np.ndarray:
    """interpolate._solve_or_fail's condition bound before the factor
    certificate: per system of the stack A, an upper bound on its 2-norm
    condition number, or inf where the bound cannot be proven.

    With X an inverse computed in floating point and r = ||XA - I||_F <= 1/2,
    A^-1 = (XA)^-1 X and a Neumann series give ||A^-1|| <= ||X|| / (1 - r);
    with ||.||_2 <= ||.||_F, cond(A) <= ||A||_F ||X||_F / (1 - r)."""
    from dsmkit.interpolate import _SLAB_ELEMS

    L, w, _ = A.shape
    bound = np.full(L, np.inf)
    eye = np.eye(w)
    step = max(1, _SLAB_ELEMS // (w * w))
    # an inverse with inf entries makes r and the bound inf or NaN
    with np.errstate(all="ignore"):
        for s in range(0, L, step):
            As = A[s : s + step]
            try:
                X = np.linalg.inv(As)
            except np.linalg.LinAlgError:
                continue
            r = np.linalg.norm(np.matmul(X, As) - eye, axis=(1, 2))
            norms = np.linalg.norm(As, axis=(1, 2)) * np.linalg.norm(X, axis=(1, 2))
            bound[s : s + step] = np.where(r <= 0.5, norms / (1.0 - r), np.inf)
    return bound


def idw_reference(locations, values, targets, power, k) -> np.ndarray:
    """Shepard IDW, one target at a time."""
    out = np.empty(len(targets))
    for i, t in enumerate(targets):
        idx = nearest_subset(locations, t, k)
        d = np.hypot(locations[idx, 0] - t[0], locations[idx, 1] - t[1])
        if d[0] < COINCIDENT_TOL:
            out[i] = values[idx[0]]
            continue
        w = (d[0] / d) ** power
        out[i] = float((w @ values[idx]) / w.sum())
    return out


def uk_lift_reference(locations, values, model, drift_degree, k, targets):
    """Per-vertex UK lift: (heights, fallback vertices), a failing vertex
    taking its IDW (power 2, same neighbourhood) value instead."""
    heights = np.empty(len(targets))
    fallbacks = []
    for i, t in enumerate(targets):
        try:
            heights[i] = uk_solve_reference(locations, values, model, drift_degree, k, t)[2]
        except SingularSystem:
            heights[i] = idw_reference(locations, values, [t], 2.0, k)[0]
            fallbacks.append(i)
    return heights, fallbacks


# ---------------------------------------------------------------------------
# Input-order reference for the Delaunay engine: the Bowyer-Watson it
# replaced. Points go in by input order, the seed triangle is (0, 1, first
# point off their line), every strictly positive in-circle test enlarges the
# cavity (so a cocircular tie is resolved by insertion order), and uncertain
# float signs are decided with `Fraction`.

_DT_EPS = 2.220446049250313e-16
_DT_ORIENT_BOUND = (3.0 + 16.0 * _DT_EPS) * _DT_EPS
_DT_INCIRCLE_BOUND = (10.0 + 96.0 * _DT_EPS) * _DT_EPS
REF_GHOST = -1


def _sign(v):
    return (v > 0) - (v < 0)


def orient_fraction(ax, ay, bx, by, cx, cy):
    """Exact orientation sign in rational arithmetic."""
    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle_fraction(ax, ay, bx, by, cx, cy, dx, dy):
    """Exact in-circle sign in rational arithmetic."""
    adx, ady = Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy)
    bdx, bdy = Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy)
    cdx, cdy = Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy)
    return _sign(
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _ref_orient(ax, ay, bx, by, cx, cy):
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if det > _DT_ORIENT_BOUND * detsum:
        return 1
    if -det > _DT_ORIENT_BOUND * detsum:
        return -1
    return orient_fraction(ax, ay, bx, by, cx, cy)


def incircle_filter_reference(ax, ay, bx, by, cx, cy, dx, dy):
    """Shewchuk's in-circle float filter, bounded by the permanent: the
    determinant's sign where the bound makes it certain, else 0."""
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    bdxcdy, cdxbdy, alift = bdx * cdy, cdx * bdy, adx * adx + ady * ady
    cdxady, adxcdy, blift = cdx * ady, adx * cdy, bdx * bdx + bdy * bdy
    adxbdy, bdxady, clift = adx * bdy, bdx * ady, cdx * cdx + cdy * cdy
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    errbound = _DT_INCIRCLE_BOUND * permanent
    if det > errbound:
        return 1
    if -det > errbound:
        return -1
    return 0


def _ref_incircle(ax, ay, bx, by, cx, cy, dx, dy):
    sign = incircle_filter_reference(ax, ay, bx, by, cx, cy, dx, dy)
    return sign or incircle_fraction(ax, ay, bx, by, cx, cy, dx, dy)


def _ref_within_open_segment(pa, pb, q):
    # assumes q collinear with a-b; True iff q lies strictly between them
    if pa[0] != pb[0]:
        lo, hi = (pa[0], pb[0]) if pa[0] < pb[0] else (pb[0], pa[0])
        return lo < q[0] < hi
    lo, hi = (pa[1], pb[1]) if pa[1] < pb[1] else (pb[1], pa[1])
    return lo < q[1] < hi


class _RefTriangulation:
    """Triangle soup with neighbour links, ghosts included."""

    def __init__(self, pts):
        self.pts = pts
        self.tris = []  # vertex index triples; ghosts carry REF_GHOST at slot 2
        self.nbrs = []  # nbrs[t][i]: triangle across edge (tris[t][i], tris[t][(i+1)%3])
        self.alive = []
        self.last_real = 0

    def _new_tri(self, a, b, c):
        self.tris.append((a, b, c))
        self.nbrs.append([None, None, None])
        self.alive.append(True)
        return len(self.tris) - 1

    def _wire(self, tri_ids):
        edge_of = {}
        for t in tri_ids:
            a, b, c = self.tris[t]
            for i, e in enumerate(((a, b), (b, c), (c, a))):
                edge_of[e] = (t, i)
        for (u, v), (t, i) in edge_of.items():
            other = edge_of.get((v, u))
            if other is not None:
                self.nbrs[t][i] = other[0]

    def seed(self, i0, i1, i2):
        if _ref_orient(*self.pts[i0], *self.pts[i1], *self.pts[i2]) < 0:
            i1, i2 = i2, i1
        t = self._new_tri(i0, i1, i2)
        g0 = self._new_tri(i1, i0, REF_GHOST)
        g1 = self._new_tri(i2, i1, REF_GHOST)
        g2 = self._new_tri(i0, i2, REF_GHOST)
        self._wire([t, g0, g1, g2])
        self.last_real = t

    def _in_disk(self, t, p):
        a, b, c = self.tris[t]
        pa, pb = self.pts[a], self.pts[b]
        if c == REF_GHOST:
            o = _ref_orient(pa[0], pa[1], pb[0], pb[1], p[0], p[1])
            if o != 0:
                return o > 0
            return _ref_within_open_segment(pa, pb, p)
        pc = self.pts[c]
        return _ref_incircle(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], p[0], p[1]) > 0

    def _locate(self, p):
        t = self.last_real
        for _ in range(4 * len(self.tris) + 64):
            tri = self.tris[t]
            if tri[2] == REF_GHOST:
                return t
            for i in range(3):
                pu, pv = self.pts[tri[i]], self.pts[tri[(i + 1) % 3]]
                if _ref_orient(pu[0], pu[1], pv[0], pv[1], p[0], p[1]) < 0:
                    t = self.nbrs[t][i]
                    break
            else:
                return t
        for t in range(len(self.tris)):
            if self.alive[t] and self._in_disk(t, p):
                return t
        raise DataError("point location failed")

    def insert(self, pid):
        p = self.pts[pid]
        t0 = self._locate(p)
        if not self._in_disk(t0, p):
            raise DataError(f"cannot insert point {pid}: coincides with an existing vertex")
        cavity, in_cavity, stack = [t0], {t0}, [t0]
        while stack:
            t = stack.pop()
            for n in self.nbrs[t]:
                if n not in in_cavity and self._in_disk(n, p):
                    in_cavity.add(n)
                    cavity.append(n)
                    stack.append(n)
        boundary = []  # (u, v, outside triangle)
        for t in cavity:
            tri = self.tris[t]
            for i in range(3):
                n = self.nbrs[t][i]
                if n not in in_cavity:
                    boundary.append((tri[i], tri[(i + 1) % 3], n))
        for t in cavity:
            self.alive[t] = False
        new_ids, outside_of = [], {}
        for u, v, out in boundary:
            if v == REF_GHOST:
                nt = self._new_tri(pid, u, REF_GHOST)
            elif u == REF_GHOST:
                nt = self._new_tri(v, pid, REF_GHOST)
            else:
                nt = self._new_tri(u, v, pid)
            new_ids.append(nt)
            outside_of[(u, v)] = out
        edge_of = {}
        for t in new_ids:
            a, b, c = self.tris[t]
            for i, e in enumerate(((a, b), (b, c), (c, a))):
                edge_of[e] = (t, i)
        for (u, v), (t, i) in edge_of.items():
            internal = edge_of.get((v, u))
            if internal is not None:
                self.nbrs[t][i] = internal[0]
                continue
            out = outside_of[(u, v)]
            self.nbrs[t][i] = out
            out_tri = self.tris[out]
            for j in range(3):
                if out_tri[j] == v and out_tri[(j + 1) % 3] == u:
                    self.nbrs[out][j] = t
                    break
        for t in new_ids:
            if self.tris[t][2] != REF_GHOST:
                self.last_real = t
                break


def triangulate_reference(points):
    """Input-order Delaunay triangulation of unique 2D points: (CCW triangles
    in creation order, per-vertex hull mask)."""
    n = len(points)
    if n < 3:
        raise DataError(f"triangulation needs at least 3 points, got {n}")
    seed_third = next(
        (k for k in range(2, n) if _ref_orient(*points[0], *points[1], *points[k]) != 0), None
    )
    if seed_third is None:
        raise DataError("all points are collinear; cannot triangulate")
    tr = _RefTriangulation(points)
    tr.seed(0, 1, seed_third)
    for pid in range(2, n):
        if pid != seed_third:
            tr.insert(pid)
    triangles, hull_mask = [], [False] * n
    for t, tri in enumerate(tr.tris):
        if not tr.alive[t]:
            continue
        if tri[2] == REF_GHOST:
            hull_mask[tri[0]] = hull_mask[tri[1]] = True
        else:
            triangles.append(tri)
    return triangles, hull_mask


def rotation_canonical(triangles) -> set:
    """Triangles as a set of triples, each rotated to start at its smallest index."""
    out = set()
    for a, b, c in triangles:
        a, b, c = int(a), int(b), int(c)
        m = min(a, b, c)
        while a != m:
            a, b, c = b, c, a
        out.add((a, b, c))
    return out


# ---------------------------------------------------------------------------
# Planar mesh products on (n, 2) rows of vertices: smoothing, quality and the
# neighbour table as the package computed them before it gathered coordinate
# columns, with the edges and the boundary found by a row-wise unique.


def vertex_neighbors_reference(n_vertices, triangles):
    """TriMesh.vertex_neighbors by a lexsort of both directions of every
    edge: (indptr, indices)."""
    e = edges_reference(triangles)
    both = np.concatenate([e, e[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    counts = np.bincount(both[:, 0], minlength=n_vertices)
    return np.concatenate([[0], np.cumsum(counts)]), both[:, 1].copy()


def _doubled_area_rows(a, b, c):
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )


def laplacian_smooth_reference(vertices, triangles, iterations) -> np.ndarray:
    """laplacian_smooth's vertices after `iterations` Jacobi sweeps on rows:
    the same guard per corner and the same revert loop."""
    verts = np.array(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    n = len(verts)
    e = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    edges, held = np.unique(e, axis=0, return_counts=True)
    interior = np.ones(n, dtype=bool)
    interior[edges[held == 1]] = False
    indptr, indices = vertex_neighbors_reference(n, tris)
    counts = np.diff(indptr).astype(float)
    counts[counts == 0] = 1.0
    src = np.repeat(np.arange(n), np.diff(indptr))

    for _ in range(iterations):
        sums = np.column_stack([
            np.bincount(src, weights=verts[indices, c], minlength=n) for c in range(2)
        ])
        proposal = sums / counts[:, None]
        candidate = verts.copy()
        candidate[interior] = proposal[interior]
        rejected = np.zeros(n, dtype=bool)
        for corner in range(3):
            moved = tris[:, corner]
            o1 = tris[:, (corner + 1) % 3]
            o2 = tris[:, (corner + 2) % 3]
            bad = _doubled_area_rows(candidate[moved], verts[o1], verts[o2]) <= 0.0
            rejected[moved[bad]] = True
        accept = interior & ~rejected
        new_verts = verts.copy()
        new_verts[accept] = proposal[accept]
        moved_mask = accept.copy()
        while True:
            bad_tris = np.nonzero(_doubled_area_rows(*new_verts[tris.T]) <= 0.0)[0]
            if not len(bad_tris):
                break
            culprits = np.unique(tris[bad_tris].ravel())
            culprits = culprits[moved_mask[culprits]]
            if not len(culprits):
                break
            new_verts[culprits] = verts[culprits]
            moved_mask[culprits] = False
        verts = new_verts
    return verts


def mesh_quality_reference(vertices, triangles) -> tuple:
    """mesh_quality on rows, with np.linalg.norm and np.cross: (min angle,
    mean min angle, worst aspect ratio, degenerate triangle indices)."""
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64)
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    lab = np.linalg.norm(b - a, axis=1)
    lbc = np.linalg.norm(c - b, axis=1)
    lca = np.linalg.norm(a - c, axis=1)
    if v.shape[1] == 3:
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    else:
        area = 0.5 * np.abs(_doubled_area_rows(a, b, c))
    good = area > 0.0

    def angle(opposite, s1, s2):
        cosv = (s1**2 + s2**2 - opposite**2) / (2.0 * s1 * s2)
        return np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))

    ab, bc, ca = lab[good], lbc[good], lca[good]
    min_angles = np.minimum(np.minimum(angle(bc, ab, ca), angle(ca, ab, bc)), angle(ab, bc, ca))
    inradius = area[good] / (0.5 * (ab + bc + ca))
    aspect = np.maximum(np.maximum(ab, bc), ca) / (2.0 * inradius)
    degenerate = tuple(int(i) for i in np.nonzero(~good)[0])
    return float(min_angles.min()), float(min_angles.mean()), float(aspect.max()), degenerate


# ---------------------------------------------------------------------------
# Mesh products after the lift: the per-triangle walks that the edge table of
# TriMesh replaced, each pairing edges in a dict of its own.


def dihedral_roughness_reference(m) -> float:
    """Mean angle (degrees) between the normals of the two triangles of each
    shared edge, by a dict walk over the half-edges in triangle order."""
    tris = m.triangles
    v = m.vertices
    normals = np.cross(v[tris[:, 1]] - v[tris[:, 0]], v[tris[:, 2]] - v[tris[:, 0]])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    normals = normals / norms

    edge_owner = {}
    angles = []
    for t, tri in enumerate(tris):
        for k in range(3):
            e = (int(tri[k]), int(tri[(k + 1) % 3]))
            key = (min(e), max(e))
            other = edge_owner.pop(key, None)
            if other is None:
                edge_owner[key] = t
            else:
                cosv = float(np.clip(normals[t] @ normals[other], -1.0, 1.0))
                angles.append(math.degrees(math.acos(cosv)))
    return float(np.mean(angles)) if angles else 0.0


def contours_reference(m, levels) -> list:
    """extract_contours by a loop over the crossed triangles of each level,
    cutting each edge the first time a triangle meets it; the nudge of
    vertices exactly at a level is the same."""
    levels = [float(l) for l in levels]
    if not levels:
        return []
    diffs = np.diff(sorted(set(levels)))
    spacing = float(diffs.min()) if len(diffs) else 1.0
    nudge = 1e-9 * (spacing if spacing > 0 else 1.0)

    tris = m.triangles
    z = m.vertices[:, 2]
    x = m.vertices[:, 0].tolist()
    y = m.vertices[:, 1].tolist()
    out = []
    for level in levels:
        s_arr = z - level
        s_arr = np.where(s_arr == 0.0, nudge, s_arr)
        s_tri = s_arr[tris]
        s = s_arr.tolist()
        segments = []
        edge_points = {}
        crossed = ~(np.all(s_tri > 0.0, axis=1) | np.all(s_tri < 0.0, axis=1))
        for tri in tris[crossed].tolist():
            cuts = []
            for k in range(3):
                u = tri[k]
                v = tri[(k + 1) % 3]
                su = s[u]
                sv = s[v]
                if (su > 0.0) == (sv > 0.0):
                    continue
                key = (u, v) if u < v else (v, u)
                if key not in edge_points:
                    t = su / (su - sv)
                    edge_points[key] = (x[u] + t * (x[v] - x[u]), y[u] + t * (y[v] - y[u]))
                cuts.append(key)
            if len(cuts) == 2:
                segments.append((cuts[0], cuts[1]))
        out.append(_chain_reference(segments, edge_points))
    return out


def _chain_reference(segments, edge_points):
    """Segments (pairs of (lo, hi) edge keys) joined into polylines: open
    chains from their sorted degree-1 ends first, then closed loops."""
    adjacency = {}
    for e1, e2 in segments:
        adjacency.setdefault(e1, []).append(e2)
        adjacency.setdefault(e2, []).append(e1)
    visited = set()
    polylines = []

    def walk(start):
        path = [start]
        visited.add(start)
        current = start
        while True:
            nxt = next((c for c in adjacency[current] if c not in visited), None)
            if nxt is None:
                return path
            visited.add(nxt)
            path.append(nxt)
            current = nxt

    keys = sorted(adjacency)
    for key in keys:
        if key not in visited and len(adjacency[key]) == 1:
            polylines.append((walk(key), False))
    for key in keys:
        if key not in visited:
            polylines.append((walk(key), True))
    result = []
    for path, closed in polylines:
        pts = [edge_points[k] for k in path]
        if closed and len(pts) > 2:
            pts.append(pts[0])
        result.append(np.array(pts))
    return result


# ---------------------------------------------------------------------------
# Sample side: the scalar UTM series, the list-based clip/convert and the
# row-loop variogram that the array code paths replaced.


def wgs84_to_utm_reference(latitude, longitude, zone, hemisphere):
    """(easting, northing) of one point in the frame of `zone` and
    `hemisphere` by the scalar Krüger series: the southern false northing
    when the frame is southern, whichever side of the equator the point is."""
    from dsmkit.geodesy import (
        _ALPHA,
        _RECTIFYING_RADIUS,
        FALSE_EASTING,
        FALSE_NORTHING_SOUTH,
        UTM_SCALE,
        normalize_longitude,
        zone_central_meridian,
    )

    lat = math.radians(latitude)
    lam = math.radians(normalize_longitude(longitude - zone_central_meridian(zone)))
    taup = _tau_prime_reference(math.tan(lat))
    cos_lam = math.cos(lam)
    sin_lam = math.sin(lam)
    xi_p = math.atan2(taup, cos_lam)
    eta_p = math.asinh(sin_lam / math.hypot(taup, cos_lam))
    xi = xi_p
    eta = eta_p
    for j, alpha in enumerate(_ALPHA, start=1):
        xi += alpha * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
        eta += alpha * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)
    easting = FALSE_EASTING + UTM_SCALE * _RECTIFYING_RADIUS * eta
    northing = UTM_SCALE * _RECTIFYING_RADIUS * xi
    if hemisphere == "south":
        northing += FALSE_NORTHING_SOUTH
    return easting, northing


def utm_to_wgs84_reference(easting, northing, zone, hemisphere):
    """(latitude, longitude) of one UTM point by the scalar inverse series."""
    from dsmkit.geodesy import (
        _BETA,
        _E,
        _RECTIFYING_RADIUS,
        FALSE_EASTING,
        FALSE_NORTHING_SOUTH,
        UTM_SCALE,
        normalize_longitude,
        zone_central_meridian,
    )

    if hemisphere == "south":
        northing -= FALSE_NORTHING_SOUTH
    xi = northing / (UTM_SCALE * _RECTIFYING_RADIUS)
    eta = (easting - FALSE_EASTING) / (UTM_SCALE * _RECTIFYING_RADIUS)
    xi_p = xi
    eta_p = eta
    for j, beta in enumerate(_BETA, start=1):
        xi_p -= beta * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
        eta_p -= beta * math.cos(2 * j * xi) * math.sinh(2 * j * eta)
    sinh_eta = math.sinh(eta_p)
    cos_xi = math.cos(xi_p)
    taup = math.sin(xi_p) / math.hypot(sinh_eta, cos_xi)
    lam = math.atan2(sinh_eta, cos_xi)

    # Newton on tau' = tau sqrt(1+sigma^2) - sigma sqrt(1+tau^2)
    e2 = _E * _E
    tau = taup / math.sqrt(1.0 - e2)
    for _ in range(8):
        taup_i = _tau_prime_reference(tau)
        dtau = (
            (taup - taup_i)
            * (1.0 + (1.0 - e2) * tau * tau)
            / ((1.0 - e2) * math.hypot(1.0, taup_i) * math.hypot(1.0, tau))
        )
        tau += dtau
        if abs(dtau) < 1e-16 * max(1.0, abs(tau)):
            break
    latitude = math.degrees(math.atan(tau))
    longitude = normalize_longitude(math.degrees(lam) + zone_central_meridian(zone))
    return latitude, longitude


def _tau_prime_reference(tau):
    from dsmkit.geodesy import _E

    sigma = math.sinh(_E * math.atanh(_E * tau / math.hypot(1.0, tau)))
    return tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau)


def clip_to_region_reference(ps, rect):
    """The points of ps inside rect (boundary inclusive), one at a time."""
    from dsmkit.acquisition import PointSet, Wgs84Crs

    if isinstance(ps.crs, Wgs84Crs):
        kept = [p for p in ps if rect.contains(p.longitude, p.latitude)]
    else:
        kept = [p for p in ps if rect.contains(p.easting, p.northing)]
    return PointSet(kept, ps.crs)


def convert_pointset_reference(ps, target):
    """A WGS-84 point set in the UTM frame `target` (a UtmCrs), or a UTM
    point set in WGS-84 (`target` None), one point at a time."""
    from dsmkit.acquisition import WGS84, PointSet
    from dsmkit.geodesy import GeoPoint, UtmPoint

    if target is None:
        geo = []
        for p in ps:
            lat, lon = utm_to_wgs84_reference(p.easting, p.northing, p.zone, p.hemisphere)
            geo.append(GeoPoint(lat, lon, p.altitude))
        return PointSet(geo, WGS84)
    out = []
    for g in ps:
        e, n = wgs84_to_utm_reference(g.latitude, g.longitude, target.zone, target.hemisphere)
        out.append(UtmPoint(e, n, target.zone, target.hemisphere, g.altitude))
    return PointSet(out, target)


def empirical_variogram_reference(samples, max_lag, n_bins):
    """(lag centers, gammas, pair counts) of the filled bins, by one masked
    bincount per sample over every later sample."""
    xy = samples.coords()
    z = samples.altitudes()
    width = max_lag / n_bins
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    for i in range(len(xy) - 1):
        d = np.hypot(xy[i + 1 :, 0] - xy[i, 0], xy[i + 1 :, 1] - xy[i, 1])
        sq = (z[i + 1 :] - z[i]) ** 2
        keep = d < max_lag
        if not keep.any():
            continue
        bins = (d[keep] / width).astype(np.int64)
        sums += np.bincount(bins, weights=sq[keep], minlength=n_bins)[:n_bins]
        counts += np.bincount(bins, minlength=n_bins)[:n_bins]
    filled = counts > 0
    centers = (np.arange(n_bins) + 0.5) * width
    return centers[filled], sums[filled] / (2.0 * counts[filled]), counts[filled]


def _wls_for_range_reference(kind, h, g, w, a):
    """Best (c0, c) >= 0 for one fixed range; returns (sse, c0, c)."""
    v = unit_shape_reference(kind, h, a)
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


def fit_model_reference(ev, kind):
    """variogram.fit_model with the profiled least squares solved one range
    at a time: the 256-range grid, then golden-section refinement."""
    from dsmkit.variogram import VariogramModel

    h = ev.lags
    g = ev.gammas
    w = ev.pair_counts.astype(float)
    if np.all(g == 0.0):
        return VariogramModel(kind, 0.0, 0.0, ev.max_lag)

    a_max = 2.0 * ev.max_lag
    grid = np.linspace(0.0, a_max, 257)[1:]
    sse = np.array([_wls_for_range_reference(kind, h, g, w, a)[0] for a in grid])
    k = int(np.argmin(sse))
    lo = grid[k - 1] if k > 0 else grid[0] / 2.0
    hi = grid[k + 1] if k < len(grid) - 1 else a_max

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = _wls_for_range_reference(kind, h, g, w, x1)[0]
    f2 = _wls_for_range_reference(kind, h, g, w, x2)[0]
    for _ in range(120):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = _wls_for_range_reference(kind, h, g, w, x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = _wls_for_range_reference(kind, h, g, w, x2)[0]

    a_best = 0.5 * (lo + hi)
    _, c0, c = _wls_for_range_reference(kind, h, g, w, a_best)
    return VariogramModel(kind, float(c0), float(c), float(a_best))


def cli_parser_reference(commands: dict):
    """dsmkit's argument parser as built before its subcommands shared one
    parent: each subcommand adds the common options itself. commands maps
    each subcommand's name to its help text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dsmkit",
        description="Build discrete surface models from scattered elevation samples.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--input", metavar="PATH", help="point file, or 'synthetic'")
        p.add_argument("--method", metavar="uk|idw", help="interpolation method")
        p.add_argument("--power", metavar="P", help="IDW power parameter")
        p.add_argument(
            "--variogram",
            metavar="spherical|gaussian|exponential",
            help="theoretical variogram kind",
        )
        p.add_argument("--drift", metavar="0|1", help="kriging drift degree")
        p.add_argument("--neighbors", metavar="N|global", help="neighborhood size")
        p.add_argument("--spacing", metavar="M", help="mesh vertex spacing, meters")
        p.add_argument("--smooth-iters", metavar="K", help="Laplacian sweeps")
        p.add_argument("--seed", metavar="S", help="RNG seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--format", metavar="LIST", help="comma list from obj,vtk,csv")
    return parser
