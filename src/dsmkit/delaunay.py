"""Incremental Delaunay triangulation (Bowyer-Watson) with robust predicates.

Orientation and in-circle tests run as floating-point computations guarded by
forward error bounds; uncertain signs fall back to exact integer arithmetic
(every float is an integer multiple of a power of two), so cocircular and
collinear configurations are decided exactly. The hull is represented by
ghost triangles (third vertex GHOST), which makes insertion outside the
current hull the same cavity operation as an interior insertion.

Insertion order: a biased randomized insertion order (BRIO; Amenta, Choi &
Rote 2003). A shuffle with a fixed seed is cut into rounds that double in
size, and each round is sorted along a Hilbert curve, so every point is found
by a short walk from the previous one and opens a small cavity.

Determinism: an exact in-circle tie (four cocircular points) is decided as if
every point were lifted off the paraboloid by an infinitesimal amount that
grows with its input index, the larger index dominating (simulation of
simplicity; Edelsbrunner & Mücke 1990). The triangle set therefore does not
depend on the insertion order. Triangles are emitted counter-clockwise,
rotated to start at their smallest vertex index, in sorted order, so the
output depends on the point set alone. The ghosts are not emitted: the hull
is the edges that only one triangle holds, which TriMesh works out.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

GHOST = -1

_EPS = 2.220446049250313e-16
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

# the insertion order must not depend on the run's seed: it is fixed
_BRIO_SEED = 0x5EED
_FIRST_ROUND = 64
_HILBERT_BITS = 16


def _integers(*coords):
    """The coordinates as integers over their common power-of-two denominator."""
    ratios = [c.as_integer_ratio() for c in coords]
    shift = max(d for _, d in ratios).bit_length()
    return [n << (shift - d.bit_length()) for n, d in ratios]


def _orient_exact(ax, ay, bx, by, cx, cy):
    ax, ay, bx, by, cx, cy = _integers(ax, ay, bx, by, cx, cy)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def orient2d(ax, ay, bx, by, cx, cy, tally=None):
    """Sign of the signed area of triangle (a, b, c): +1 CCW, -1 CW, 0 collinear.

    tally, when given, is a dict whose "exact_orient" entry counts the calls
    the float filter could not decide.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if det > _ORIENT_BOUND * detsum:
        return 1
    if -det > _ORIENT_BOUND * detsum:
        return -1
    if tally is not None:
        tally["exact_orient"] += 1
    return _orient_exact(ax, ay, bx, by, cx, cy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy):
    ax, ay, bx, by, cx, cy, dx, dy = _integers(ax, ay, bx, by, cx, cy, dx, dy)
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


def incircle(ax, ay, bx, by, cx, cy, dx, dy, tally=None):
    """+1 iff d lies strictly inside the circumcircle of CCW triangle (a, b, c),
    -1 strictly outside, 0 on it. tally as for orient2d ("exact_incircle")."""
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    errbound = _INCIRCLE_BOUND * permanent
    if det > errbound:
        return 1
    if -det > errbound:
        return -1
    if tally is not None:
        tally["exact_incircle"] += 1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _hilbert_keys(xy):
    """Position of each point along a Hilbert curve over the points' bounding
    square, on a 2**_HILBERT_BITS grid per side."""
    side = 1 << _HILBERT_BITS
    lo = xy.min(axis=0)
    span = float((xy.max(axis=0) - lo).max()) or 1.0
    q = np.minimum((xy - lo) * (side / span), side - 1).astype(np.int64)
    x, y = q[:, 0], q[:, 1]
    keys = np.zeros(len(xy), dtype=np.int64)
    s = side >> 1
    while s:
        rx = (x & s) > 0
        ry = (y & s) > 0
        keys += s * s * ((3 * rx) ^ ry)
        flip = rx & ~ry
        x = np.where(flip, side - 1 - x, x)
        y = np.where(flip, side - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return keys


def _brio_order(points):
    """Insertion order and its number of rounds: a fixed-seed shuffle cut into
    rounds that double in size (the last holds half the points), each round
    sorted along the Hilbert curve."""
    n = len(points)
    perm = np.random.default_rng(_BRIO_SEED).permutation(n)
    keys = _hilbert_keys(np.asarray(points, dtype=float))
    cuts = [n]
    while cuts[-1] > _FIRST_ROUND:
        cuts.append(cuts[-1] // 2)
    cuts.append(0)
    cuts.reverse()
    rounds = [perm[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    order = np.concatenate([r[np.argsort(keys[r], kind="stable")] for r in rounds])
    return order.tolist(), len(rounds)


class _Triangulation:
    """Triangles with neighbour links, ghosts included, in flat lists.

    Triangle t has vertices verts[3t:3t+3] (ghosts carry GHOST in the last
    slot) and nbrs[3t+i] is the triangle across the edge from slot i to slot
    (i+1) % 3. An insertion reuses the slots of the triangles it destroys, so
    every slot holds a live triangle.
    """

    def __init__(self, points):
        self.xs = [p[0] for p in points]
        self.ys = [p[1] for p in points]
        self.verts = []
        self.nbrs = []
        self.last = 0  # a real triangle near the last insertion: walks start here
        self.tally = {"created": 0, "exact_orient": 0, "exact_incircle": 0, "ties": 0}

    def seed(self, i0, i1, i2):
        xs, ys = self.xs, self.ys
        if orient2d(xs[i0], ys[i0], xs[i1], ys[i1], xs[i2], ys[i2], self.tally) < 0:
            i1, i2 = i2, i1
        # triangle 0 and the ghosts across its edges (i0,i1), (i1,i2), (i2,i0)
        self.verts = [i0, i1, i2, i1, i0, GHOST, i2, i1, GHOST, i0, i2, GHOST]
        self.nbrs = [1, 2, 3, 0, 3, 2, 0, 1, 3, 0, 2, 1]
        self.tally["created"] += 4

    def _in_disk(self, t, p):
        """Whether p lies in the (perturbed) circumdisk of triangle t; for a
        ghost, the open half-plane beyond its hull edge plus the open edge."""
        verts, xs, ys = self.verts, self.xs, self.ys
        a = verts[3 * t]
        b = verts[3 * t + 1]
        c = verts[3 * t + 2]
        px = xs[p]
        py = ys[p]
        if c == GHOST:
            # stored (a, b, GHOST) for hull edge (b, a): outside is left of a->b
            o = orient2d(xs[a], ys[a], xs[b], ys[b], px, py, self.tally)
            if o:
                return o > 0
            return _within_open_segment(xs[a], ys[a], xs[b], ys[b], px, py)
        s = incircle(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py, self.tally)
        if s:
            return s > 0
        # Cocircular: lift point i by eps**f(i), f growing with i. The largest
        # index decides; its term is orient(b, c, p) for a, orient(c, a, p)
        # for b, orient(a, b, p) for c and -orient(a, b, c) < 0 for p. Three
        # distinct cocircular points are never collinear, so the term is
        # never zero.
        self.tally["ties"] += 1
        top = max(a, b, c)
        if p > top:
            return False
        if top == a:
            a, b, c = b, c, a
        elif top == b:
            a, b, c = c, a, b
        return orient2d(xs[a], ys[a], xs[b], ys[b], px, py, self.tally) > 0

    def _locate(self, p):
        """A triangle whose closure holds p, or a ghost whose half-plane does."""
        verts, nbrs, xs, ys, tally = self.verts, self.nbrs, self.xs, self.ys, self.tally
        px = xs[p]
        py = ys[p]
        t = self.last
        for _ in range(len(verts) + 64):
            k = 3 * t
            a = verts[k]
            b = verts[k + 1]
            c = verts[k + 2]
            if c == GHOST:
                return t
            if orient2d(xs[a], ys[a], xs[b], ys[b], px, py, tally) < 0:
                t = nbrs[k]
            elif orient2d(xs[b], ys[b], xs[c], ys[c], px, py, tally) < 0:
                t = nbrs[k + 1]
            elif orient2d(xs[c], ys[c], xs[a], ys[a], px, py, tally) < 0:
                t = nbrs[k + 2]
            else:
                return t
        # walk did not settle (should not happen on a Delaunay mesh): scan
        for t in range(len(verts) // 3):
            if self._in_disk(t, p):
                return t
        raise DataError(f"point location failed for point {p}")

    def insert(self, p):
        verts, nbrs = self.verts, self.nbrs
        t0 = self._locate(p)

        # grow the cavity: every triangle whose circumdisk holds p; collect its
        # boundary edges (u, v) with the triangle outside each
        cavity = [t0]
        inside = {t0}
        outside = set()
        edges = []
        stack = [t0]
        while stack:
            t = stack.pop()
            for i in range(3):
                n = nbrs[3 * t + i]
                if n in inside:
                    continue
                if n not in outside and self._in_disk(n, p):
                    inside.add(n)
                    cavity.append(n)
                    stack.append(n)
                else:
                    outside.add(n)
                    edges.append((verts[3 * t + i], verts[3 * t + (i + 1) % 3], n))

        # one new triangle per boundary edge (u, v): (u, v, p), or a ghost
        # when u or v is GHOST; the cavity's slots are reused, two appended
        free = cavity + [len(verts) // 3, len(verts) // 3 + 1]
        verts.extend((0, 0, 0, 0, 0, 0))
        nbrs.extend((0, 0, 0, 0, 0, 0))
        into_p = {}  # v -> flat slot of edge (v, p)
        from_p = {}  # u -> flat slot of edge (p, u)
        for (u, v, out), nt in zip(edges, free, strict=True):
            k = 3 * nt
            if v == GHOST:
                verts[k : k + 3] = (p, u, GHOST)
                outer, into_p[v], from_p[u] = k + 1, k + 2, k
            elif u == GHOST:
                verts[k : k + 3] = (v, p, GHOST)
                outer, into_p[v], from_p[u] = k + 2, k, k + 1
            else:
                verts[k : k + 3] = (u, v, p)
                outer, into_p[v], from_p[u] = k, k + 1, k + 2
                self.last = nt
            nbrs[outer] = out
            m = 3 * out
            if verts[m] == v:
                nbrs[m] = nt
            elif verts[m + 1] == v:
                nbrs[m + 1] = nt
            else:
                nbrs[m + 2] = nt
        for x, k in into_p.items():
            j = from_p[x]
            nbrs[k] = j // 3
            nbrs[j] = k // 3
        self.tally["created"] += len(edges)


def _within_open_segment(ax, ay, bx, by, qx, qy):
    # assumes q collinear with a-b; True iff q lies strictly between them
    if ax != bx:
        return min(ax, bx) < qx < max(ax, bx)
    return min(ay, by) < qy < max(ay, by)


def triangulate(points, _order=None):
    """Delaunay-triangulate unique 2D points.

    points: sequence of (x, y) float pairs, all distinct.
    Returns (triangles, stats): CCW vertex-index triples, each starting at
    its smallest index, in sorted order, and a dict of counts (points,
    rounds, created triangles, exact orient and incircle fallbacks, ties).
    _order, a permutation of the indices, replaces the BRIO order (tests).
    """
    n = len(points)
    if n < 3:
        raise DataError(f"triangulation needs at least 3 points, got {n}")
    first = {}
    for i, p in enumerate(points):
        j = first.setdefault((p[0], p[1]), i)
        if j != i:
            raise DataError(f"cannot insert point {i}: coincides with point {j}")

    if _order is None:
        order, rounds = _brio_order(points)
    else:
        order, rounds = list(_order), 1
    tr = _Triangulation(points)
    xs, ys = tr.xs, tr.ys
    i0, i1 = order[0], order[1]
    for k in range(2, n):
        i2 = order[k]
        if orient2d(xs[i0], ys[i0], xs[i1], ys[i1], xs[i2], ys[i2], tr.tally):
            break
    else:
        raise DataError("all points are collinear; cannot triangulate")

    tr.seed(i0, i1, i2)
    for p in order[2:]:
        if p != i2:
            tr.insert(p)

    triangles = []
    verts = tr.verts
    for k in range(0, len(verts), 3):
        a, b, c = verts[k], verts[k + 1], verts[k + 2]
        if c == GHOST:
            continue
        if a < b and a < c:
            triangles.append((a, b, c))
        elif b < c:
            triangles.append((b, c, a))
        else:
            triangles.append((c, a, b))
    triangles.sort()
    stats = {"points": n, "rounds": rounds, **tr.tally}
    return triangles, stats
