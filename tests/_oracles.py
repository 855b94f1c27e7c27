"""Independent verification helpers used by the test suite.

These deliberately avoid the package's own predicates/solvers: circumcircles
are computed from explicit circumcenters, kriging systems are solved by a
local Gaussian elimination, and variogram values are evaluated from scratch.
"""

import numpy as np


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
_DRIFT_NAMES = ("1", "x", "y")


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


def _diagnose_singular(locs: np.ndarray, degree: int) -> str:
    if degree == 1:
        F = np.column_stack([np.ones(len(locs)), locs[:, 0], locs[:, 1]])
        for col in range(1, 3):
            if np.linalg.matrix_rank(F[:, : col + 1]) <= col:
                return (
                    f"drift term '{_DRIFT_NAMES[col]}' is linearly dependent on the "
                    "previous terms (degenerate sample geometry, e.g. collinear samples)"
                )
    return "the variogram produced a singular coefficient block"


def uk_solve_reference(locations, values, model, drift_degree, k, target):
    """One target's universal kriging solution, assembled and solved alone.

    Returns (weights, drift_multipliers, prediction, variance, indices) or
    raises SingularSystem with the package's message text."""
    from dsmkit.variogram import model_gamma

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

    def singular():
        return SingularSystem(
            f"singular kriging system at target {tuple(x0)}: "
            + _diagnose_singular(locs, drift_degree)
        )

    d = locs - x0
    pair_dist = np.hypot(d[:, 0, None] - d[None, :, 0], d[:, 1, None] - d[None, :, 1])
    A = np.zeros((n + m, n + m))
    A[:n, :n] = model_gamma(model, pair_dist)
    if drift_degree == 0:
        F = np.ones((n, 1))
        f0 = np.array([1.0])
    else:
        F = np.column_stack([np.ones(n), d[:, 0], d[:, 1]])
        f0 = np.array([1.0, 0.0, 0.0])
        if np.linalg.matrix_rank(F) < 3:
            raise singular()
    A[:n, n:] = F
    A[n:, :n] = F.T
    b = np.concatenate([model_gamma(model, dist), f0])
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise singular() from None

    weights = sol[:n]
    mu = sol[n:].copy()
    if drift_degree == 1:
        mu[0] -= mu[1] * x0[0] + mu[2] * x0[1]
    return weights, mu, float(weights @ vals), float(weights @ b[:n] + sol[n:] @ f0), idx


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
