"""Planar triangular meshes: seeding, Delaunay triangulation, Laplacian
smoothing, quality metrics, and contour extraction."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import delaunay
from .errors import ConfigError, DataError
from .geometry import Rect

logger = logging.getLogger(__name__)

SEED_STRATEGIES = ("grid", "jittered")

# Seeds beyond this many would exhaust memory long before triangulation ends.
MAX_SEEDS = 5_000_000


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable indexed triangle mesh.

    vertices: (n, 2) or (n, 3) float positions in meters; triangles: (m, 3)
    vertex-index triples, counter-clockwise in plan view; boundary_flags:
    per-vertex markers (computed from edge incidence when not supplied).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] not in (2, 3):
            raise DataError(f"vertices must be (n, 2) or (n, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("vertices contain non-finite coordinates")
        if t.ndim != 2 or t.shape[1] != 3:
            raise DataError(f"triangles must be (m, 3), got {t.shape}")
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise DataError("triangle index out of range")
        if len(t):
            bad = np.nonzero(_doubled_area(*v[t.T]) <= 0.0)[0]
            if len(bad):
                raise DataError(
                    f"{len(bad)} triangles are degenerate or clockwise in plan view "
                    f"(first: index {bad[0]})"
                )
        if self.boundary_flags is None:
            flags = self._hull_flags(v, t)
        else:
            flags = np.asarray(self.boundary_flags, dtype=bool)
            if flags.shape != (len(v),):
                raise DataError("boundary_flags length must match vertex count")
        v.setflags(write=False)
        t.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary_flags", flags)

    @staticmethod
    def _hull_flags(v, t):
        flags = np.zeros(len(v), dtype=bool)
        if not len(t):
            return flags
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        outer = uniq[counts == 1]
        flags[outer.ravel()] = True
        return flags

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def is_3d(self) -> bool:
        return self.vertices.shape[1] == 3

    def edges(self) -> np.ndarray:
        """Unique undirected edges, shape (E, 2), each row sorted."""
        if not len(self.triangles):
            return np.empty((0, 2), dtype=np.int64)
        n = self.n_vertices
        a = self.triangles.ravel()
        b = self.triangles[:, [1, 2, 0]].ravel()
        # lo * n + hi orders edges as their sorted (lo, hi) rows do, since hi < n
        key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        # sort and drop repeats: np.unique's first 1-D call imports numpy.ma,
        # which costs more than this whole method
        key = key[np.concatenate([[True], key[1:] != key[:-1]])]
        return np.column_stack([key // n, key % n])

    def vertex_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge-connected neighbors in CSR layout (indptr, indices)."""
        e = self.edges()
        both = np.concatenate([e, e[:, ::-1]])
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=self.n_vertices)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return indptr, both[:, 1].copy()

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        return TriMesh(vertices, self.triangles, self.boundary_flags)


@dataclass(frozen=True)
class MeshQuality:
    """Shape metrics: worst and mean smallest interior angle (degrees) and
    the worst aspect ratio (longest edge over twice the inradius)."""

    min_angle: float
    mean_min_angle: float
    worst_aspect_ratio: float
    degenerate: tuple = field(default=())


def delaunay_triangulate(points) -> TriMesh:
    """Delaunay triangulation of 2D points.

    Exact duplicates are removed (keeping first occurrences) and reported via
    a warning. Fewer than 3 unique points, or an entirely collinear set,
    raises DataError.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError(f"expected (n, 2) points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("points contain non-finite coordinates")

    seen = {}
    unique = []
    duplicates = 0
    for x, y in arr:
        key = (float(x), float(y))
        if key in seen:
            duplicates += 1
        else:
            seen[key] = len(unique)
            unique.append(key)
    if duplicates:
        logger.warning(
            "deduplicated %d duplicate points (%d unique remain)", duplicates, len(unique)
        )
    tris, hull, stats = delaunay.triangulate(unique)
    logger.debug(
        "delaunay: %(points)d points, %(rounds)d BRIO rounds, %(created)d triangles "
        "created, exact fallbacks %(exact_orient)d orient / %(exact_incircle)d "
        "incircle, %(ties)d cocircular ties decided by input index",
        stats,
    )
    return TriMesh(
        np.array(unique, dtype=float),
        np.array(tris, dtype=np.int64),
        np.array(hull, dtype=bool),
    )


def seed_grid_shape(rect: Rect, target_spacing: float) -> tuple[int, int]:
    """(rows, columns) of the seed grid seed_region lays over rect; raises
    ConfigError when the spacing does not fit the rectangle or the grid
    would exceed MAX_SEEDS."""
    if not (target_spacing > 0):
        raise ConfigError(f"spacing must be positive, got {target_spacing}")
    if target_spacing >= rect.width or target_spacing >= rect.height:
        raise ConfigError(
            f"spacing {target_spacing} too large for a "
            f"{rect.width:.6g} x {rect.height:.6g} region"
        )
    # in floats first: a tiny spacing must not overflow int(round(...))
    estimate = (rect.width / target_spacing + 1.0) * (rect.height / target_spacing + 1.0)
    if estimate > MAX_SEEDS:
        raise ConfigError(
            f"spacing {target_spacing} over a {rect.width:.6g} x {rect.height:.6g} region "
            f"needs about {estimate:.3g} mesh vertices, more than {MAX_SEEDS:,}"
        )
    ncols = max(2, int(round(rect.width / target_spacing)) + 1)
    nrows = max(2, int(round(rect.height / target_spacing)) + 1)
    return nrows, ncols


def seed_region(
    rect: Rect, target_spacing: float, strategy: str = "jittered", seed: int = 42
) -> np.ndarray:
    """Vertex seeds covering a rectangle: corners, evenly spaced boundary
    vertices exactly on the edges, and a grid interior.

    strategy "jittered" offsets interior vertices by a uniform perturbation
    of up to 0.3 of the per-axis step, drawn from a seeded generator.
    """
    if strategy not in SEED_STRATEGIES:
        raise ConfigError(f"unknown seeding strategy {strategy!r}")
    nrows, ncols = seed_grid_shape(rect, target_spacing)
    xs = np.linspace(rect.x_min, rect.x_max, ncols)
    ys = np.linspace(rect.y_min, rect.y_max, nrows)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    if strategy == "jittered":
        step_x = rect.width / (ncols - 1)
        step_y = rect.height / (nrows - 1)
        jj, ii = np.meshgrid(np.arange(ncols), np.arange(nrows))
        interior = (
            (ii.ravel() > 0) & (ii.ravel() < nrows - 1) & (jj.ravel() > 0) & (jj.ravel() < ncols - 1)
        )
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-0.3, 0.3, size=(int(interior.sum()), 2))
        pts[interior, 0] += offsets[:, 0] * step_x
        pts[interior, 1] += offsets[:, 1] * step_y
    return pts


def _doubled_area(a, b, c):
    """Twice the signed plan-view area of the triangles with corners a, b, c
    (rows of x, y[, z]): positive when counter-clockwise, (b-a) x (c-a)."""
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )


def laplacian_smooth(m: TriMesh, iterations: int) -> TriMesh:
    """Jacobi-style Laplacian smoothing of interior vertices.

    Each sweep simultaneously moves every interior vertex to the mean of its
    edge-connected neighbors, computed from the pre-sweep positions. Boundary
    vertices never move. A move that would flip or flatten any incident
    triangle is rejected for that vertex for that sweep; if simultaneous
    accepted moves still produce a flipped triangle, the involved vertices
    are reverted until the mesh is valid again.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    if m.is_3d:
        raise DataError("laplacian_smooth expects a planar (2D) mesh")
    if iterations == 0 or m.n_triangles == 0:
        return m

    verts = m.vertices.copy()
    tris = m.triangles
    interior = ~m.boundary_flags
    indptr, indices = m.vertex_neighbors()
    counts = np.diff(indptr).astype(float)
    counts[counts == 0] = 1.0
    src = np.repeat(np.arange(m.n_vertices), np.diff(indptr))

    for _ in range(iterations):
        sums = np.zeros_like(verts)
        np.add.at(sums, src, verts[indices])
        proposal = sums / counts[:, None]

        candidate = verts.copy()
        candidate[interior] = proposal[interior]

        # per-vertex guard against the pre-sweep positions of the others
        rejected = np.zeros(m.n_vertices, dtype=bool)
        for corner in range(3):
            moved = tris[:, corner]
            o1 = tris[:, (corner + 1) % 3]
            o2 = tris[:, (corner + 2) % 3]
            bad = _doubled_area(candidate[moved], verts[o1], verts[o2]) <= 0.0
            rejected[moved[bad]] = True

        accept = interior & ~rejected
        new_verts = verts.copy()
        new_verts[accept] = proposal[accept]

        # simultaneous moves can conspire against a shared triangle: revert
        moved_mask = accept.copy()
        while True:
            bad_tris = np.nonzero(_doubled_area(*new_verts[tris.T]) <= 0.0)[0]
            if not len(bad_tris):
                break
            culprits = np.unique(tris[bad_tris].ravel())
            culprits = culprits[moved_mask[culprits]]
            if not len(culprits):  # pre-existing degenerate input; give up
                break
            new_verts[culprits] = verts[culprits]
            moved_mask[culprits] = False
        verts = new_verts

    return TriMesh(verts, tris, m.boundary_flags)


def mesh_quality(m: TriMesh) -> MeshQuality:
    """Per-triangle smallest interior angle and aspect ratio, aggregated.

    Works on planar and lifted meshes (angles are measured in the vertex
    dimension). Degenerate (zero-area) triangles are excluded from the
    aggregates and reported by index.
    """
    if m.n_triangles == 0:
        raise DataError("mesh has no triangles")
    v = m.vertices
    t = m.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    lab = np.linalg.norm(b - a, axis=1)
    lbc = np.linalg.norm(c - b, axis=1)
    lca = np.linalg.norm(a - c, axis=1)

    if v.shape[1] == 3:
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    else:
        area = 0.5 * np.abs(_doubled_area(a, b, c))

    good = area > 0.0
    degenerate = tuple(int(i) for i in np.nonzero(~good)[0])
    if degenerate:
        logger.warning("mesh has %d degenerate triangles: %s", len(degenerate), degenerate[:10])
    if not np.any(good):
        raise DataError("all triangles are degenerate")

    def angle(opposite, s1, s2):
        cosv = (s1**2 + s2**2 - opposite**2) / (2.0 * s1 * s2)
        return np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))

    ang_a = angle(lbc[good], lab[good], lca[good])
    ang_b = angle(lca[good], lab[good], lbc[good])
    ang_c = angle(lab[good], lbc[good], lca[good])
    min_angles = np.minimum(np.minimum(ang_a, ang_b), ang_c)

    semi = 0.5 * (lab[good] + lbc[good] + lca[good])
    inradius = area[good] / semi
    longest = np.maximum(np.maximum(lab[good], lbc[good]), lca[good])
    aspect = longest / (2.0 * inradius)

    return MeshQuality(
        min_angle=float(min_angles.min()),
        mean_min_angle=float(min_angles.mean()),
        worst_aspect_ratio=float(aspect.max()),
        degenerate=degenerate,
    )


def extract_contours(m: TriMesh, levels) -> list:
    """Marching-triangles contour extraction from a lifted mesh.

    For each level, edges whose endpoint elevations straddle the level are
    cut by linear interpolation and the cut segments are chained into
    polylines (closed loops repeat their first point at the end). Vertices
    exactly at a level are nudged up by 1e-9 of the level spacing first.
    Returns one list of (k, 2) plan-view polyline arrays per level.
    """
    if not m.is_3d:
        raise DataError("contour extraction needs a lifted (3D) mesh")
    levels = [float(l) for l in levels]
    if not levels:
        return []
    if len(levels) > 1:
        diffs = np.diff(sorted(set(levels)))  # not np.unique: see TriMesh.edges
        spacing = float(diffs.min()) if len(diffs) else 1.0
    else:
        spacing = 1.0
    nudge = 1e-9 * (spacing if spacing > 0 else 1.0)

    tris = m.triangles
    z = m.vertices[:, 2]
    # the loop below reads Python floats and ints: indexing an array one
    # element at a time makes a numpy scalar each time, several times slower
    x = m.vertices[:, 0].tolist()
    y = m.vertices[:, 1].tolist()
    out = []
    for level in levels:
        s_arr = z - level
        s_arr = np.where(s_arr == 0.0, nudge, s_arr)
        s_tri = s_arr[tris]
        s = s_arr.tolist()

        segments = []  # pairs of edge keys
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

        out.append(_chain_segments(segments, edge_points))
    return out


def _chain_segments(segments, edge_points):
    """Join crossing segments (pairs of edge keys) into ordered polylines."""
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
            nxt = None
            for cand in adjacency[current]:
                if cand not in visited:
                    nxt = cand
                    break
            if nxt is None:
                break
            visited.add(nxt)
            path.append(nxt)
            current = nxt
        return path

    keys_in_order = sorted(adjacency.keys())
    # open chains start at degree-1 nodes
    for key in keys_in_order:
        if key not in visited and len(adjacency[key]) == 1:
            polylines.append((walk(key), False))
    # what remains are closed loops
    for key in keys_in_order:
        if key not in visited:
            polylines.append((walk(key), True))

    result = []
    for path, closed in polylines:
        pts = [edge_points[k] for k in path]
        if closed and len(pts) > 2:
            pts.append(pts[0])
        result.append(np.array(pts))
    return result
