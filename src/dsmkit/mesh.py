"""Planar triangular meshes: seeding, Delaunay triangulation, Laplacian
smoothing, quality metrics, and a lifted mesh's contours and roughness."""

from __future__ import annotations

import copy
import logging
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import delaunay
from .errors import ConfigError, DataError
from .geodesy import elementwise
from .geometry import Rect

logger = logging.getLogger(__name__)

SEED_STRATEGIES = ("grid", "jittered")

# Seeds beyond this many would exhaust memory long before triangulation ends.
MAX_SEEDS = 5_000_000


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable indexed triangle mesh.

    vertices: (n, 2) or (n, 3) float positions in meters; triangles: (m, 3)
    vertex-index triples, counter-clockwise in plan view, no edge shared by
    more than two triangles. The edge table pairs half-edges 3t + k (corner
    k to k+1 of triangle t) by one stable sort of their keys lo * n + hi
    (delaunay.half_edges): per edge, in key order (an edge's id is its rank), `_edge_key` holds its
    key and `_edge_halves` its lower and higher half-edge (-1 if none).
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.triangles)
        # int64 would truncate a fractional entry and wrap a non-finite one
        if t.dtype.kind == "f" and not np.all((np.trunc(t) == t) & (np.abs(t) < 2.0**62)):
            raise DataError("triangle entries must be whole numbers")
        t = np.asarray(t, dtype=np.int64)
        v = _checked_vertices(self.vertices, t)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

        _, _, key = delaunay.half_edges(t, len(v))
        # stable, so each edge's half-edges stay in triangle order
        order = np.argsort(key, kind="stable")
        key = key[order]
        # not np.unique: its first 1-D call imports numpy.ma, which costs
        # more than this whole table
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        counts = np.diff(np.append(starts, len(key)))
        if len(counts) and counts.max() > 2:
            e = int(np.argmax(counts))
            lo, hi = divmod(int(key[starts[e]]), len(v))
            raise DataError(f"edge ({lo}, {hi}) is shared by {counts[e]} triangles")
        higher = np.full(len(starts), -1)
        shared = counts == 2
        higher[shared] = order[starts[shared] + 1]
        object.__setattr__(self, "_edge_key", key[starts])
        object.__setattr__(self, "_edge_halves", np.column_stack([order[starts], higher]))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def is_3d(self) -> bool:
        return self.vertices.shape[1] == 3

    @cached_property
    def boundary_flags(self) -> np.ndarray:
        """Per-vertex flags, read-only: True on an edge held by one triangle."""
        flags = np.zeros(self.n_vertices, dtype=bool)
        flags[self.edges()[self._edge_halves[:, 1] < 0]] = True
        flags.setflags(write=False)
        return flags

    def edges(self) -> np.ndarray:
        """Unique undirected edges, shape (E, 2), each row sorted."""
        return np.column_stack(np.divmod(self._edge_key, self.n_vertices))

    def vertex_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge-connected neighbors in CSR layout (indptr, indices), each
        vertex's in ascending order: its lower neighbours, then its higher.

        The edges (lo, hi) come sorted by lo, then hi, so each vertex's
        higher neighbours are one run of them in order; a stable sort by hi
        puts each vertex's lower neighbours in one run, in order, too."""
        n = self.n_vertices
        lo, hi = np.divmod(self._edge_key, n)
        below = np.bincount(hi, minlength=n)
        above = np.bincount(lo, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(below + above, out=indptr[1:])
        # the k-th edge in (lo, hi) order is preceded, in its vertex's run
        # of higher neighbours, by all edges of smaller lo; the lower
        # neighbours of lo and of every smaller vertex come before it too
        k = np.arange(len(lo))
        indices = np.empty(2 * len(lo), dtype=np.int64)
        indices[k + np.cumsum(below)[lo]] = hi
        order = np.argsort(hi, kind="stable")
        up = hi[order]
        indices[k + (np.cumsum(above) - above)[up]] = lo[order]
        return indptr, indices

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """New positions of the same vertices, checked as the constructor
        checks them; shares the edge table and any boundary flags read."""
        v = _checked_vertices(vertices, self.triangles)
        if len(v) != self.n_vertices:
            raise DataError(f"expected {self.n_vertices} vertices, got {len(v)}")
        m = copy.copy(self)
        object.__setattr__(m, "vertices", v)
        return m


def _checked_vertices(vertices, t) -> np.ndarray:
    """vertices as a read-only float array, checked: (n, 2) or (n, 3), finite,
    and every triangle of t in range and counter-clockwise in plan view."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] not in (2, 3):
        raise DataError(f"vertices must be (n, 2) or (n, 3), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError("vertices contain non-finite coordinates")
    if t.ndim != 2 or t.shape[1] != 3:
        raise DataError(f"triangles must be (m, 3), got {t.shape}")
    if len(t) and (t.min() < 0 or t.max() >= len(v)):
        raise DataError("triangle index out of range")
    if len(t):
        a, b, c = t.T
        x, y = v[:, 0], v[:, 1]
        # products over- or underflow at extreme spans: a doubled area that
        # is not positive and finite is decided again, exactly
        with np.errstate(over="ignore", invalid="ignore"):
            area = _doubled_area(x[a], y[a], x[b], y[b], x[c], y[c])
        (bad,) = np.nonzero(~((area > 0.0) & (area < math.inf)))
        if len(bad):
            bad = bad[delaunay._Predicates(v[:, :2]).orient_signs(a[bad], b[bad], c[bad]) <= 0]
        if len(bad):
            raise DataError(
                f"{len(bad)} triangles are degenerate or clockwise in plan view "
                f"(first: index {bad[0]})"
            )
    v.setflags(write=False)
    return v


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
    arr = delaunay.checked_points(points)
    unique = arr[delaunay.first_coincident(arr) == np.arange(len(arr))]
    duplicates = len(arr) - len(unique)
    if duplicates:
        logger.warning(
            "deduplicated %d duplicate points (%d unique remain)", duplicates, len(unique)
        )
    tris, stats = delaunay._triangulate(unique)
    logger.debug(
        "delaunay: %(points)d points, %(rounds)d flip rounds, %(flips)d flips, "
        "exact fallbacks %(exact_orient)d orient / %(exact_incircle)d "
        "incircle, %(ties)d cocircular ties decided by input index",
        stats,
    )
    return TriMesh(unique, tris)


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


def check_seeding(strategy: str, seed) -> None:
    """Raise ConfigError unless strategy is one of SEED_STRATEGIES and seed a
    non-negative integer, under grid seeding too, which ignores the seed."""
    if strategy not in SEED_STRATEGIES:
        raise ConfigError(f"unknown seeding strategy {strategy!r}; expected {SEED_STRATEGIES}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def seed_region(
    rect: Rect, target_spacing: float, strategy: str = "jittered", seed: int = 42
) -> np.ndarray:
    """Vertex seeds covering a rectangle: corners, evenly spaced boundary
    vertices exactly on the edges, and a grid interior.

    strategy "jittered" offsets interior vertices by a uniform perturbation
    of up to 0.3 of the per-axis step: x then y per vertex, in row-major
    order, from the stream of numpy's `default_rng(seed).uniform(-0.3, 0.3)`
    (PCG64), drawn bit for bit by `_pcg64_uniform` without numpy.random.
    check_seeding checks the strategy and the seed.
    """
    check_seeding(strategy, seed)
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
        offsets = _pcg64_uniform(int(seed), 2 * int(interior.sum()), -0.3, 0.3).reshape(-1, 2)
        pts[interior, 0] += offsets[:, 0] * step_x
        pts[interior, 1] += offsets[:, 1] * step_y
    return pts


# numpy's PCG64 (O'Neill 2014, XSL-RR 128/64) as seeded by its SeedSequence.
# The 128-bit arithmetic runs in Python ints for scalars and in (hi, lo)
# uint64 halves for arrays; every array constant is an np.uint64, so array
# products wrap silently and promote alike under numpy 1.x and 2.x.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# draws per vectorised block: bounds the temporaries at about 2 MB
_PCG_BLOCK = 1 << 14
_U11, _U32, _U58, _U63, _U64 = (np.uint64(s) for s in (11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


def _pcg64_first_state(seed: int) -> tuple[int, int]:
    """(state of the first draw, increment) of numpy's PCG64(SeedSequence(seed)).

    SeedSequence hashes the seed's 32-bit words into a pool of four, takes
    four 64-bit words from the pool, and PCG64 seeds from them: state from
    the first two (high, low), increment from the last two.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state32 = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state32.append(value ^ value >> 16)
    w = [state32[2 * k] | state32[2 * k + 1] << 32 for k in range(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    # srandom: step from 0, add the initial state, step; a draw steps first
    state = (inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc
    return (state * _PCG_MULT + inc) & _MASK128, inc


def _mul_add(hi, lo, a: int, c: int):
    """(x * a + c) mod 2**128 for the uint64 halves (hi, lo) of an array x;
    the high half of lo * a's low word comes from 32-bit limbs."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _MASK64)
    a1, a0 = np.uint64(a >> 32 & _MASK32), np.uint64(a & _MASK32)
    x1, x0 = lo >> _U32, lo & _LOW32
    p01, p10 = x0 * a1, x1 * a0
    mid = (x0 * a0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    out_hi = x1 * a1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    out_hi += hi * a_lo + lo * a_hi + np.uint64(c >> 64)
    c_lo = np.uint64(c & _MASK64)
    out_lo = lo * a_lo + c_lo
    out_hi += out_lo < c_lo
    return out_hi, out_lo


def _pcg64_uniform(seed: int, n: int, low: float, high: float) -> np.ndarray:
    """numpy's `default_rng(seed).uniform(low, high, n)`, bit for bit.

    The first block of states is filled by doubling, X[m:2m] = A_m X[:m] + C_m
    with (A_m, C_m) the LCG's m-step jump; each later block is the one
    before it jumped by the block length.
    """
    state, inc = _pcg64_first_state(seed)
    mult = _PCG_MULT
    out = np.empty(n)
    size = min(n, _PCG_BLOCK)
    hi, lo = np.empty(size, np.uint64), np.empty(size, np.uint64)
    if size:
        hi[0], lo[0] = np.uint64(state >> 64), np.uint64(state & _MASK64)
    m = 1
    while m < size:
        k = min(m, size - m)
        hi[m : m + k], lo[m : m + k] = _mul_add(hi[:k], lo[:k], mult, inc)
        mult, inc = mult * mult & _MASK128, (mult + 1) * inc & _MASK128
        m += k
    # a full first block has a power-of-two length, so (mult, inc) now jump by it
    for start in range(0, n, _PCG_BLOCK):
        if start:
            hi, lo = _mul_add(hi, lo, mult, inc)
        k = min(size, n - start)
        # XSL-RR: the halves' xor, rotated right by the state's top 6 bits
        x = hi[:k] ^ lo[:k]
        rot = hi[:k] >> _U58
        x = x >> rot | x << ((_U64 - rot) & _U63)
        out[start : start + k] = x >> _U11
    # (x >> 11) * 2**-53, then low + (high - low) * u, as numpy rounds them
    out *= 2.0**-53
    out *= high - low
    out += low
    return out


def _unit_exponent(v) -> int:
    """The k for which 2**-k puts the largest |coordinate| of v in [0.5, 1)
    (0 when all are 0). Smoothing and quality run on coordinates scaled by
    2**-k, so their areas and lengths neither underflow nor overflow at any
    span; a power-of-two scale is exact, so on any other mesh they compute
    the same values times a power of two, and the same ratios and angles."""
    return math.frexp(float(np.abs(v).max()))[1]


def _doubled_area(ax, ay, bx, by, cx, cy):
    """Twice the signed plan-view area of the triangles with corners a, b, c
    (coordinate columns): positive when counter-clockwise, (b-a) x (c-a)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def laplacian_smooth(m: TriMesh, iterations: int) -> TriMesh:
    """Jacobi-style Laplacian smoothing of interior vertices.

    Each sweep simultaneously moves every interior vertex to the mean of its
    edge-connected neighbors, computed from the pre-sweep positions. Boundary
    vertices never move. A move that would flip or flatten any incident
    triangle is rejected for that vertex for that sweep; if simultaneous
    accepted moves still produce a flipped triangle, the involved vertices
    are reverted until the mesh is valid again. The sweeps gather from 1-D
    x and y columns, scaled by a power of two (_unit_exponent) so that the
    guard's areas hold at any span.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    if m.is_3d:
        raise DataError("laplacian_smooth expects a planar (2D) mesh")
    if iterations == 0 or m.n_triangles == 0:
        return m

    n = m.n_vertices
    shift = _unit_exponent(m.vertices)
    x0 = x = np.ldexp(m.vertices[:, 0], -shift)
    y0 = y = np.ldexp(m.vertices[:, 1], -shift)
    tris = m.triangles
    corners = a, b, c = tris.T
    interior = ~m.boundary_flags
    indptr, indices = m.vertex_neighbors()
    counts = np.diff(indptr).astype(float)
    counts[counts == 0] = 1.0
    src = np.repeat(np.arange(n), np.diff(indptr))

    for _ in range(iterations):
        # bincount adds each vertex's neighbours in order, as np.add.at does
        px = np.bincount(src, weights=x[indices], minlength=n) / counts
        py = np.bincount(src, weights=y[indices], minlength=n) / counts
        cx = np.where(interior, px, x)
        cy = np.where(interior, py, y)

        # per-vertex guard against the pre-sweep positions of the others
        rejected = np.zeros(n, dtype=bool)
        for k in range(3):
            moved, o1, o2 = corners[k], corners[(k + 1) % 3], corners[(k + 2) % 3]
            bad = _doubled_area(cx[moved], cy[moved], x[o1], y[o1], x[o2], y[o2]) <= 0.0
            rejected[moved[bad]] = True

        accept = interior & ~rejected
        nx = np.where(accept, px, x)
        ny = np.where(accept, py, y)

        # simultaneous moves can conspire against a shared triangle: revert
        while True:
            area = _doubled_area(nx[a], ny[a], nx[b], ny[b], nx[c], ny[c])
            bad_tris = np.nonzero(area <= 0.0)[0]
            if not len(bad_tris):
                break
            culprits = np.unique(tris[bad_tris].ravel())
            culprits = culprits[accept[culprits]]
            if not len(culprits):  # pre-existing degenerate input; give up
                break
            nx[culprits] = x[culprits]
            ny[culprits] = y[culprits]
            accept[culprits] = False
        x, y = nx, ny

    # a vertex that never moved keeps its bits, even one so much smaller
    # than the largest that the scaling rounded it
    moved = ((x != x0) | (y != y0))[:, None]
    return m.with_vertices(np.where(moved, np.ldexp(np.column_stack([x, y]), shift), m.vertices))


def mesh_quality(m: TriMesh) -> MeshQuality:
    """Per-triangle smallest interior angle and aspect ratio, aggregated.

    Works on planar and lifted meshes (angles are measured in the vertex
    dimension), on coordinates scaled by a power of two (_unit_exponent).
    Degenerate (zero-area) triangles are excluded from the aggregates and
    reported by index.
    """
    if m.n_triangles == 0:
        raise DataError("mesh has no triangles")
    v = np.ldexp(m.vertices, -_unit_exponent(m.vertices))
    # the corners' coordinate columns: a[k] is coordinate k of each first corner
    a, b, c = ([col[i] for col in v.T] for i in m.triangles.T)
    lab = _lengths(a, b)
    lbc = _lengths(b, c)
    lca = _lengths(c, a)

    if m.is_3d:
        u = [q - p for p, q in zip(a, b)]
        w = [q - p for p, q in zip(a, c)]
        # the cross product u x w, component by component, as np.cross forms it
        normal = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
        area = 0.5 * np.sqrt(_squares(normal))
    else:
        area = 0.5 * np.abs(_doubled_area(*a, *b, *c))

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


def _squares(components):
    """The sum of squares of a list of columns, added in order, as
    np.linalg.norm(..., axis=1) adds a row's."""
    total = components[0] * components[0]
    for d in components[1:]:
        total = total + d * d
    return total


def _lengths(p, q):
    """Euclidean distances between the points of coordinate columns p and q."""
    return np.sqrt(_squares([qk - pk for pk, qk in zip(p, q)]))


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
    diffs = np.diff(sorted(set(levels)))  # not np.unique: see TriMesh
    spacing = float(diffs.min()) if len(diffs) else 1.0
    nudge = 1e-9 * (spacing if spacing > 0 else 1.0)

    a, b, key = delaunay.half_edges(m.triangles, m.n_vertices)
    edge_of = np.searchsorted(m._edge_key, key)
    x, y, z = m.vertices.T
    # an edge is cut along its lower half-edge: the orientation of the
    # lowest-numbered triangle that holds it
    lower = m._edge_halves[:, 0]
    u, w = a[lower], b[lower]
    xu, yu = x[u], y[u]
    dx, dy = x[w] - xu, y[w] - yu
    out = []
    for level in levels:
        s = z - level
        s = np.where(s == 0.0, nudge, s)
        above = s > 0.0
        cut = above[a] != above[b]
        edges = np.flatnonzero(cut[lower])
        su, sw = s[u[edges]], s[w[edges]]
        t = su / (su - sw)
        cx, cy = np.empty((2, len(lower)))
        cx[edges] = xu[edges] + t * dx[edges]
        cy[edges] = yu[edges] + t * dy[edges]

        # a triangle the level crosses is cut on exactly two of its edges;
        # its segment joins them in corner order
        cut = cut.reshape(-1, 3)
        crossed = np.flatnonzero(cut.any(axis=1))
        first = 3 * crossed + np.where(cut[crossed, 0], 0, 1)
        second = 3 * crossed + np.where(cut[crossed, 2], 2, 1)
        segments = zip(edge_of[first].tolist(), edge_of[second].tolist())
        out.append(_chain_segments(segments, cx, cy))
    return out


def _chain_segments(segments, cx, cy):
    """Join crossing segments (pairs of edge ids) into polylines of the cut
    points (cx, cy) of their edges: open chains from their ends first, then
    closed loops, each started at its lowest edge id (edge ids follow the
    (lo, hi) order of the edges). A closed loop repeats its first point."""
    adjacency = {}
    for e1, e2 in segments:
        adjacency.setdefault(e1, []).append(e2)
        adjacency.setdefault(e2, []).append(e1)

    visited = set()
    result = []
    for closed in (False, True):
        for start in sorted(adjacency):
            if start in visited or (not closed and len(adjacency[start]) != 1):
                continue
            path = [start]
            visited.add(start)
            while True:
                nxt = next((e for e in adjacency[path[-1]] if e not in visited), None)
                if nxt is None:
                    break
                visited.add(nxt)
                path.append(nxt)
            if closed and len(path) > 2:
                path.append(start)
            result.append(np.column_stack([cx[path], cy[path]]))
    return result


def dihedral_roughness(m: TriMesh) -> float:
    """Mean angle (degrees) between normals of triangles sharing an edge."""
    if not m.is_3d:
        raise DataError("roughness needs a lifted (3D) mesh")
    tris = m.triangles
    v = m.vertices
    normals = np.cross(v[tris[:, 1]] - v[tris[:, 0]], v[tris[:, 2]] - v[tris[:, 0]])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    normals = normals / norms

    lower, higher = m._edge_halves[m._edge_halves[:, 1] >= 0].T
    # averaged in the order of the higher half-edges, as a walk over the
    # triangles meets each shared edge the second time
    order = np.argsort(higher)
    t1, t2 = higher[order] // 3, lower[order] // 3
    # (k, 1, 3) @ (k, 3, 1) sums each product as a 1-D `@` does
    dots = normals[t1][:, None, :] @ normals[t2][:, :, None]
    # math's acos (see geodesy.elementwise); math.degrees multiplies by 180/pi
    angles = elementwise(math.acos, np.clip(dots.ravel(), -1.0, 1.0)) * (180.0 / math.pi)
    return float(np.mean(angles)) if len(angles) else 0.0
