"""Delaunay triangulation by rounds of Lawson flips from a lattice start or a
radial sweep, with robust predicates.

Orientation and in-circle tests run as floating-point computations guarded by
forward error bounds (Shewchuk 1997); uncertain signs fall back to exact
integer arithmetic, so cocircular and collinear configurations are decided
exactly. The integers are made once per triangulation, at its first exact
test: every coordinate is an integer multiple of one power of two, found
from the smallest nonzero |coordinate| (as_integer_ratio serves when that
scale overflows a float).
The filters' error bounds hold only while no product underflows or
overflows; coordinates whose exponents allow that send every test to the
exact predicates (_filters_sound), a choice made once per triangulation.
The in-circle filter bounds Shewchuk's permanent by the products of the
lifts (see _INCIRCLE_LIFT_BOUND): fewer operations, and every sign it decides
the permanent's filter decides the same way.

`triangulate` runs in two phases.
- The start. Points laid out as a row-major lattice whose border lies on
  the sides of an axis-aligned rectangle, as seed_region lays out its seeds,
  start from the lattice itself (_lattice_start): each cell splits along a
  diagonal whose two triangles are counter-clockwise by exact tests, and
  the docstring there shows that this triangulates the points. Any other
  points, or points that fail those checks, take the radial sweep.
- The sweep (S-hull; Sinclair 2010) adds the points in order of their
  distance from the circumcentre of a small seed triangle, so each lies
  outside the hull of those before it, and joins each to every hull edge it
  sees. A hash of pseudo-angles around that centre names a hull vertex near
  the point to start from, and the orientation filter decides what it sees.
  The sweep makes no in-circle test. A point found in or on the hull (float
  distances can misorder points; `_order` can put any point anywhere) is
  inserted by an exact split of the triangle or edge that holds it.
- Lawson flips (Lawson 1977) then run as numpy rounds (_flip_rounds): the
  queued edges are tested with the in-circle filter in bounded chunks, and
  the illegal edges that do not share a triangle with a smaller illegal edge
  are flipped at once. The quads a chunk's filter leaves open go to one
  batch decision as index arrays: _incircle_exact decides each, and the
  cocircular ties among them are settled on arrays by the index-lifting rule
  below, whose orientation tests go exact only where the orientation filter
  leaves the sign open.

Determinism: an exact in-circle tie (four cocircular points) is decided as if
every point were lifted off the paraboloid by an infinitesimal amount that
grows with its input index, the larger index dominating (simulation of
simplicity; Edelsbrunner & Mücke 1990). No four points are then cocircular,
so the Delaunay triangulation is unique, and Lawson's flips reach it from
any triangulation of the points: the triangle set depends on neither the
start, the insertion order nor the order of the flips. Triangles are emitted
counter-clockwise, rotated to start at their smallest vertex index, in sorted
order, so the output depends on the point set alone. The hull is the edges
that only one triangle holds, which TriMesh works out.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

_EPS = 2.220446049250313e-16
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# The in-circle filter's bound B' * (alift*blift + blift*clift + clift*alift)
# covers Shewchuk's B * permanent, where the permanent is
#   (|bdx cdy| + |cdx bdy|) alift + (|cdx ady| + |adx cdy|) blift
#     + (|adx bdy| + |bdx ady|) clift.
# - Exactly, on the float differences: |x y| <= (x*x + y*y) / 2, so
#   |bdx cdy| + |cdx bdy| <= (blift + clift) / 2 and likewise for the other
#   two pairs; summed, the permanent is at most S = alift blift + blift clift
#   + clift alift.
# - In floats: with no product underflowing or overflowing (_filters_sound;
#   a product of two lifts is a product of four differences, the range it
#   covers), each operation is exact to a factor in [1 - u, 1 + u], u =
#   2**-53. The float permanent's longest chain has seven roundings (product,
#   sum of two, the lift's square and sum, the product with the lift, two
#   sums), so it is at most (1 + u)**7 S; the float S has at most seven along
#   each of its terms (a lift's two, the product, two sums), so it is at
#   least (1 - u)**7 S.
# - ((1 + u) / (1 - u))**7 < 1 + 16 u = 1 + 8 _EPS, and B' is the float
#   nearest B (1 + 16 _EPS), at least B (1 + 16 _EPS)(1 - u) > B (1 + 8 _EPS).
#   Hence B' * float S >= B * float permanent, and as rounding is monotone
#   the float bound is at least the permanent's float bound: whenever
#   det > bound (or -det > bound) here, the permanent's filter says so too.
_INCIRCLE_LIFT_BOUND = _INCIRCLE_BOUND * (1.0 + 16.0 * _EPS)

# edges per batch of the flip rounds' in-circle filter: bounds the temporaries
_CHUNK = 1 << 12


def _exponents(values):
    """frexp exponents of the smallest and the largest nonzero |value| of a
    1-D float array (53 and 53 when every value is zero)."""
    mag = np.abs(values)
    nonzero = mag[mag > 0]
    if not len(nonzero):
        return 53, 53
    return int(np.frexp(nonzero.min())[1]), int(np.frexp(nonzero.max())[1])


def _exact_integers(values):
    """The floats of a 1-D array as Python ints on one power-of-two scale.

    A float of frexp exponent e is a multiple of 2**(e - 53), and so is every
    float of larger magnitude (subnormals are multiples of 2**-1074). With e
    taken from the smallest nonzero |value|, every value times 2**(53 - e) is
    therefore an integer, and np.ldexp scales by a power of two exactly. When
    that overflows (values spanning more than the float range), the integers
    come from as_integer_ratio over the largest denominator instead.
    """
    e = _exponents(values)[0]
    with np.errstate(over="ignore"):
        scaled = np.ldexp(values, 53 - e)
    if np.isfinite(scaled).all():
        return [int(v) for v in scaled.tolist()]
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios]


def _filters_sound(values):
    """Whether the float filters' error bounds hold for every test on the
    coordinates in the 1-D array values.

    The bounds assume that no product underflows or overflows (a sum or
    difference whose result is subnormal is exact). Every coordinate is a
    multiple of q = 2**(lo - 53) and below 2**hi in magnitude, lo and hi the
    _exponents of the values, so a nonzero coordinate difference lies in
    [q, 2**(hi + 1)).
    - Underflow. A nonzero product of two differences is at least q**2. A
      float of at least q**2 is a multiple of q**2 * 2**-52, so a nonzero
      difference of two such products is at least that. Every product the
      filters form (two differences; a lift times a lift or a difference of
      products; a bound constant, at least 2**-52, times a sum of such
      products) is therefore 0 or at least min(q**2, q**4) * 2**-52, which
      is a normal float when 4 (lo - 53) - 52 >= -1022: lo >= -189.
    - Overflow. A lift, and a difference of two products, are below
      2**(2 hi + 3); the in-circle determinant and its bound are sums of
      three terms below 2**(4 hi + 6), so every value stays below
      2**(4 hi + 8), finite when hi <= 253."""
    lo, hi = _exponents(values)
    return lo >= -189 and hi <= 253


def _orient_exact(ax, ay, bx, by, cx, cy):
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of the signed area of triangle (a, b, c): +1 CCW, -1 CW, 0 collinear."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    values = np.array([ax, ay, bx, by, cx, cy], dtype=float)
    if _filters_sound(values):
        if det > _ORIENT_BOUND * detsum:
            return 1
        if -det > _ORIENT_BOUND * detsum:
            return -1
    return _orient_exact(*_exact_integers(values))


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy):
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


def _incircle_filter(ax, ay, bx, by, cx, cy, dx, dy):
    """The in-circle float filter: the sign of the determinant where its
    error bound makes it certain, else 0. Sound only where _filters_sound
    holds; the flip rounds run the same formula on arrays."""
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    bound = _INCIRCLE_LIFT_BOUND * (alift * blift + blift * clift + clift * alift)
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return 0


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """+1 iff d lies strictly inside the circumcircle of CCW triangle (a, b, c),
    -1 strictly outside, 0 on it."""
    values = np.array([ax, ay, bx, by, cx, cy, dx, dy], dtype=float)
    if _filters_sound(values):
        sign = _incircle_filter(ax, ay, bx, by, cx, cy, dx, dy)
        if sign:
            return sign
    return _incircle_exact(*_exact_integers(values))


def first_coincident(xy):
    """For each point of the (n, 2) array xy, the smallest index of a point
    equal to it (its own index when it is the first). One stable sort on
    (x, y) puts equal points next to each other in index order; -0.0 and 0.0
    compare equal, so they coincide."""
    n = len(xy)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    ranked = xy[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    head = order[np.maximum.accumulate(np.where(starts, np.arange(n), 0))]
    first = np.empty(n, dtype=np.int64)
    first[order] = head
    return first


def _unit_offsets(xy):
    """The points less their bounding box's centre, scaled by a power of two
    into [-1, 1]: finite float coordinates at any span, for the sweep's order
    and hash. Only those heuristics read them; no predicate does."""
    mid = xy.min(axis=0) / 2 + xy.max(axis=0) / 2
    with np.errstate(over="ignore"):
        off = xy - mid
    if not np.isfinite(off).all():
        # a span beyond the float range: halve first
        off = xy / 2 - mid / 2
    top = float(np.abs(off).max())
    return np.ldexp(off, -math.frexp(top)[1]) if top else off


def _circumcentres(u, i0, i1):
    """Offsets from u[i0] of the circumcentres of the triangles (i0, i1, k),
    for every row k of u (non-finite where they are collinear in floats)."""
    dx, dy = u[i1] - u[i0]
    ex = u[:, 0] - u[i0, 0]
    ey = u[:, 1] - u[i0, 1]
    bl = dx * dx + dy * dy
    cl = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = 0.5 / (dx * ey - dy * ex)
        return (ey * bl - dy * cl) * d, (dx * cl - ex * bl) * d


def _hash_keys(u, centre, size):
    """Each point's bucket of `size` by its pseudo-angle around centre, a
    monotone function of the angle that needs no trigonometry."""
    dx = u[:, 0] - centre[0]
    dy = u[:, 1] - centre[1]
    s = np.abs(dx) + np.abs(dy)
    p = dx / np.where(s > 0, s, 1.0)
    angle = np.where(dy > 0, 3.0 - p, 1.0 + p) / 4.0
    return np.minimum((angle * size).astype(np.int64), size - 1).tolist()


def _incircle_signs(x, y, a, b, c, d):
    """The in-circle float filter of _incircle_filter on arrays of point
    indices: +1 or -1 where its bound makes the sign certain, else 0. Sound
    only where _filters_sound holds."""
    dx = x[d]
    dy = y[d]
    adx = x[a] - dx
    ady = y[a] - dy
    bdx = x[b] - dx
    bdy = y[b] - dy
    cdx = x[c] - dx
    cdy = y[c] - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    bound = _INCIRCLE_LIFT_BOUND * (alift * blift + blift * clift + clift * alift)
    return (det > bound).view(np.int8) - (-det > bound).view(np.int8)


def _orient_signs(x, y, a, b, c, bound):
    """orient2d's float filter on arrays of point indices, with `bound` in
    place of _ORIENT_BOUND (inf decides nothing): +1 or -1 where the error
    bound makes the sign certain, else 0."""
    cx = x[c]
    cy = y[c]
    with np.errstate(over="ignore", invalid="ignore"):
        detleft = (x[a] - cx) * (y[b] - cy)
        detright = (y[a] - cy) * (x[b] - cx)
        det = detleft - detright
        bound = bound * (np.abs(detleft) + np.abs(detright))
        return (det > bound).view(np.int8) - (-det > bound).view(np.int8)


def _next(s):
    # the half-edge slot after s in its triangle
    return s - s % 3 + (s + 1) % 3


def _prev(s):
    return s - s % 3 + (s + 2) % 3


def _flip_rounds(tri, twin, pred):
    """Lawson flips to the Delaunay triangulation, in numpy rounds.

    tri[s] is the start vertex of half-edge slot s, which runs to the start
    of the next slot of its triangle (slots 3t, 3t+1, 3t+2 are triangle t,
    counter-clockwise); twin[s] is the opposite half-edge, -1 on the hull.
    Both are int32 arrays, updated in place. Each round tests the queued
    edges, once each, with the in-circle filter in chunks of _CHUNK. The
    quads it leaves open (with unsound filters, all of them) go to
    pred.in_disk(a, b, c, p) at once, one index array per corner, which
    returns their exact signs: +1 where p lies in the circumdisk of CCW
    triangle (a, b, c), else -1. The round flips the illegal edges that are
    the smallest illegal edge of both their triangles, so no triangle takes
    part in two flips of a round. The four outer edges of each flipped quad,
    and the illegal edges left waiting, make the next round's queue. Returns
    (rounds, flips).
    """
    m = len(tri)
    x, y = pred.x, pred.y
    # moved[s]: the slot that holds, after this round's flips, the edge slot
    # s held before them; the identity again between rounds
    moved = np.arange(m, dtype=np.int32)
    owner = np.full(m // 3, m, dtype=np.int32)  # a triangle's smallest illegal edge
    stamp = np.empty(m, dtype=np.int32)
    queue = np.flatnonzero(twin > moved).astype(np.int32)
    rounds = flips = 0
    while len(queue):
        rounds += 1
        illegal = []
        for lo in range(0, len(queue), _CHUNK):
            # edge a of triangle (a's start, the next, the previous) against
            # the point across it
            a = queue[lo : lo + _CHUNK]
            quad = tri[a], tri[_next(a)], tri[_prev(a)], tri[_prev(twin[a])]
            signs = _incircle_signs(x, y, *quad) if pred.sound else np.zeros(len(a), np.int8)
            (undecided,) = np.nonzero(signs == 0)
            if len(undecided):
                signs[undecided] = pred.in_disk(*(v[undecided] for v in quad))
            illegal.append(a[signs > 0])
        illegal = np.concatenate(illegal)
        if not len(illegal):
            break
        ta = illegal // 3
        tb = twin[illegal] // 3
        np.minimum.at(owner, ta, illegal)
        np.minimum.at(owner, tb, illegal)
        won = (owner[ta] == illegal) & (owner[tb] == illegal)
        owner[ta] = owner[tb] = m
        a = illegal[won]
        b = twin[a]
        flips += len(a)
        al, ar, br, bl = _next(a), _prev(a), _next(b), _prev(b)
        # triangle (pr, pl, p0) at a, al, ar and (pl, pr, p1) at b, br, bl
        # become (p1, pl, p0) and (p0, pr, p1): slot a takes the edge bl
        # held, slot b the edge ar held, and ar, bl hold the new diagonal
        p0, p1 = tri[ar], tri[bl]
        tri[a] = p1
        tri[b] = p0
        outer = np.concatenate([a, b, al, br])
        partner = np.concatenate([twin[bl], twin[ar], twin[al], twin[br]])
        moved[bl] = a
        moved[ar] = b
        inner = partner >= 0
        partner[inner] = moved[partner[inner]]
        twin[outer] = partner
        twin[partner[inner]] = outer[inner]
        twin[ar] = bl
        twin[bl] = ar
        queue = np.concatenate([outer, moved[illegal[~won]]])
        moved[bl] = bl
        moved[ar] = ar
        # each interior edge once, by its smaller slot
        other = twin[queue]
        queue = np.minimum(queue[other >= 0], other[other >= 0])
        k = np.arange(len(queue), dtype=np.int32)
        stamp[queue] = k
        queue = queue[stamp[queue] == k]
    return rounds, flips


class _Predicates:
    """The array and exact predicates of one triangulation, with their tallies.

    Where a product may underflow or overflow (_filters_sound fails), an
    infinite orient_bound sends every orientation test to the exact
    predicate (no det exceeds inf, nor the NaN of inf * 0) and the in-circle
    filter is skipped. The exact integers are made at the first exact test,
    so a triangulation that needs none never makes them.
    """

    def __init__(self, xy):
        self.xy = xy
        self.x = np.ascontiguousarray(xy[:, 0])
        self.y = np.ascontiguousarray(xy[:, 1])
        self.sound = _filters_sound(xy.ravel())
        self.orient_bound = _ORIENT_BOUND if self.sound else math.inf
        self.exact_orient = self.exact_incircle = self.ties = 0
        self._integers = None

    def integers(self):
        """(ix, iy): every point's x and y as Python ints on one scale."""
        if self._integers is None:
            exact = _exact_integers(self.xy.ravel())
            self._integers = exact[0::2], exact[1::2]
        return self._integers

    def orient_signs(self, a, b, c):
        """orient2d on arrays of point indices, the exact fallbacks counted."""
        signs = _orient_signs(self.x, self.y, a, b, c, self.orient_bound)
        (open_,) = np.nonzero(signs == 0)
        if len(open_):
            self.exact_orient += len(open_)
            ix, iy = self.integers()
            signs[open_] = [
                _orient_exact(ix[i], iy[i], ix[j], iy[j], ix[k], iy[k])
                for i, j, k in zip(a[open_].tolist(), b[open_].tolist(), c[open_].tolist())
            ]
        return signs

    def in_disk(self, a, b, c, p):
        """For arrays of quads the in-circle filter left open: +1 where p
        lies in the (perturbed) circumdisk of CCW triangle (a, b, c), else
        -1, decided in exact arithmetic."""
        self.exact_incircle += len(p)
        ix, iy = self.integers()
        signs = np.array(
            [
                _incircle_exact(ix[i], iy[i], ix[j], iy[j], ix[k], iy[k], ix[q], iy[q])
                for i, j, k, q in zip(a.tolist(), b.tolist(), c.tolist(), p.tolist())
            ],
            dtype=np.int8,
        )
        (tie,) = np.nonzero(signs == 0)
        if not len(tie):
            return signs
        # Cocircular: lift point i by eps**f(i), f growing with i. The largest
        # index decides; its term is orient(b, c, p) for a, orient(c, a, p)
        # for b, orient(a, b, p) for c and -orient(a, b, c) < 0 for p. Three
        # distinct cocircular points are never collinear, so the term is
        # never zero.
        self.ties += len(tie)
        a, b, c, p = a[tie], b[tie], c[tie], p[tie]
        top = np.maximum(np.maximum(a, b), c)
        u = np.where(top == a, b, np.where(top == b, c, a))
        v = np.where(top == a, c, np.where(top == b, a, b))
        (lifted,) = np.nonzero(p < top)
        side = np.full(len(tie), -1, dtype=np.int8)
        side[lifted] = self.orient_signs(u[lifted], v[lifted], p[lifted])
        signs[tie] = side
        return signs


def _lattice_start(xy, pred):
    """tri and twin (as in _flip_rounds) of the triangulation that a lattice
    of points already forms, or None when the points are not one.

    The lattice is row-major, rows by cols, cols the leading run of points at
    the first point's y, and its border lies on the sides of an axis-aligned
    rectangle: the first and the last row each at one y, the first and the
    last column each at one x, each of the four runs strictly increasing
    along its side. seed_region lays its seeds out so. Each cell (a, b, c,
    d), counter-clockwise from its lower left corner, splits along b-d, the
    diagonal the tie rule keeps on a square, where both its triangles are
    strictly counter-clockwise, else along a-c where those are; a cell with
    neither leaves the points to the sweep. The orientation tests are exact.

    Why the cells' triangles triangulate the points. Each edge inside the
    lattice is held by two triangles that run it in opposite directions, so
    around a point q on no edge the triangles' boundaries wind as often in
    sum as the lattice border, which runs once counter-clockwise round the
    rectangle: once for q inside it, never for q outside. A strictly
    counter-clockwise triangle winds once round the points inside it and
    never round the others, so each such q inside the rectangle lies in
    exactly one triangle and none outside it: the triangles' interiors are
    disjoint and they cover the rectangle, the points' hull. Every point is
    a corner of a cell and so of a triangle. No point lies inside a triangle
    or on an edge that does not end at it: the triangles at the point hold
    interior points right by it, which that triangle, or the triangles on
    the edge's two sides, would cover a second time. So Lawson's flips reach
    the Delaunay triangulation from this start as from the sweep's.
    """
    n = len(xy)
    x, y = pred.x, pred.y
    (off,) = np.nonzero(y != y[0])
    cols = int(off[0]) if len(off) else n
    if cols < 2 or n % cols or n < 2 * cols:
        return None
    rows = n // cols
    gx = x.reshape(rows, cols)
    gy = y.reshape(rows, cols)
    sides = (gy[0], gx[0]), (gy[-1], gx[-1]), (gx[:, 0], gy[:, 0]), (gx[:, -1], gy[:, -1])
    if not all((fixed == fixed[0]).all() and (np.diff(run) > 0).all() for fixed, run in sides):
        return None
    corner = np.arange(n, dtype=np.int32).reshape(rows, cols)
    a, b = corner[:-1, :-1].ravel(), corner[:-1, 1:].ravel()
    d, c = corner[1:, :-1].ravel(), corner[1:, 1:].ravel()
    across = (pred.orient_signs(a, b, d) <= 0) | (pred.orient_signs(b, c, d) <= 0)
    (k,) = np.nonzero(across)
    if len(k) and (
        (pred.orient_signs(a[k], b[k], c[k]) <= 0) | (pred.orient_signs(a[k], c[k], d[k]) <= 0)
    ).any():
        return None
    # triangles (a, b, d) and (b, c, d), or (a, b, c) and (a, c, d) across a-c
    tri = np.column_stack([a, b, np.where(across, c, d), np.where(across, a, b), c, d]).ravel()
    # an edge's two half-edges share a key; a hull edge's is alone. The keys
    # rise nearly cell by cell, and the stable sort takes such runs whole:
    # half the time of the default sort on mesh_grid, and less memory
    end = tri.reshape(-1, 3)[:, [1, 2, 0]].ravel()
    key = np.minimum(tri, end).astype(np.int64) * n + np.maximum(tri, end)
    order = np.argsort(key, kind="stable")
    (pair,) = np.nonzero(key[order[1:]] == key[order[:-1]])
    s, t = order[pair], order[pair + 1]
    twin = np.full(len(tri), -1, dtype=np.int32)
    twin[s] = t
    twin[t] = s
    return tri, twin


def _sweep(xy, pred, _order):
    """tri and twin (as in _flip_rounds) of a triangulation of the points by
    the radial sweep, with _order as in triangulate."""
    n = len(xy)
    xs = xy[:, 0].tolist()
    ys = xy[:, 1].tolist()
    orient_bound = pred.orient_bound

    def orient(a, b, c):
        # orient2d of points a, b and c, with the exact fallbacks counted
        detleft = (xs[a] - xs[c]) * (ys[b] - ys[c])
        detright = (ys[a] - ys[c]) * (xs[b] - xs[c])
        det = detleft - detright
        bound = orient_bound * (abs(detleft) + abs(detright))
        if det > bound:
            return 1
        if -det > bound:
            return -1
        pred.exact_orient += 1
        ix, iy = pred.integers()
        return _orient_exact(ix[a], iy[a], ix[b], iy[b], ix[c], iy[c])

    # The seed triangle: with no _order, the point nearest the box centre,
    # its nearest neighbour and the third point that makes the smallest
    # circumcircle with them (the first non-collinear one in that order);
    # the others follow by distance from its circumcentre, so nearly every
    # point lies outside the hull of those before it.
    u = _unit_offsets(xy)
    if _order is None:
        i0 = int(np.argmin((u * u).sum(axis=1)))
        gap = ((u - u[i0]) ** 2).sum(axis=1)
        gap[i0] = math.inf
        i1 = int(np.argmin(gap))
        cx, cy = _circumcentres(u, i0, i1)
        radius = cx * cx + cy * cy
        radius[~np.isfinite(radius)] = math.inf
        candidates = (int(k) for k in np.argsort(radius, kind="stable"))
    else:
        order = [int(k) for k in _order]
        i0, i1 = order[0], order[1]
        candidates = iter(order[2:])
    i2 = next((k for k in candidates if k != i0 and k != i1 and orient(i0, i1, k)), None)
    if i2 is None:
        raise DataError("all points are collinear; cannot triangulate")
    if orient(i0, i1, i2) < 0:
        i1, i2 = i2, i1
    cx, cy = _circumcentres(u[[i0, i1, i2]], 0, 1)
    centre = u[i0] + (cx[2], cy[2])
    if not (np.abs(centre) <= 2).all():
        centre = u[i0]
    if _order is None:
        gap = ((u - centre) ** 2).sum(axis=1)
        order = np.argsort(gap, kind="stable")
        rest = np.ones(n, dtype=bool)
        rest[[i0, i1, i2]] = False
        order = order[rest[order]].tolist()
    else:
        order = [k for k in order if k != i0 and k != i1 and k != i2]
    # 4 sqrt(n) buckets: with sqrt(n), the sweep over a 12,512-point grid
    # tested about five hull edges per point; with these, about one
    size = 4 * math.isqrt(n)
    keys = _hash_keys(u, centre, size)
    del u

    # The sweep. Half-edge slots as in _flip_rounds: tri[s] starts slot s,
    # twin[s] is its opposite (-1 on the hull). The hull is a CCW cycle of
    # vertices; hull_tri[v] is the slot of hull edge (v, hull_next[v]), and
    # hull_next[v] == v once v has left the hull. hull_hash maps a bucket of
    # pseudo-angles to a hull vertex, a place to start the search.
    tri = [0] * (6 * n)
    twin = [-1] * (6 * n)
    tri[:3] = i0, i1, i2
    top = 3
    hull_next = [-1] * n
    hull_prev = [-1] * n
    hull_tri = [0] * n
    hull_hash = [-1] * size
    for s, (v, w) in enumerate(((i0, i1), (i1, i2), (i2, i0))):
        hull_next[v] = w
        hull_prev[w] = v
        hull_tri[v] = s
        hull_hash[keys[v]] = v

    def link(s, t):
        # pair slots s and t, or make s a hull edge when t is -1
        twin[s] = t
        if t >= 0:
            twin[t] = s
        else:
            hull_tri[tri[s]] = s

    def split(p):
        # Insert p, in or on the hull, by an exact split of the triangle or
        # edge that holds it: 1 -> 3 inside a triangle, 2 -> 4 on an interior
        # edge, 1 -> 2 on a hull edge.
        nonlocal top
        for t in range(0, top, 3):
            a, b, c = tri[t : t + 3]
            sides = orient(a, b, p), orient(b, c, p), orient(c, a, p)
            if min(sides) >= 0:
                break
        else:
            raise DataError(f"point location failed for point {p}")
        if 0 not in sides:
            tb, tc = twin[t + 1], twin[t + 2]
            t1, t2 = top, top + 3
            top += 6
            tri[t + 2] = p
            tri[t1 : t1 + 3] = b, c, p
            tri[t2 : t2 + 3] = c, a, p
            link(t1, tb)
            link(t2, tc)
            link(t + 1, t1 + 2)
            link(t + 2, t2 + 1)
            link(t1 + 1, t2 + 2)
            return
        # p lies on the open edge (a, b) of triangle (a, b, c)
        k = sides.index(0)
        sab, sbc, sca = t + k, t + (k + 1) % 3, t + (k + 2) % 3
        a, b, c = tri[sab], tri[sbc], tri[sca]
        g, tbc, tca = twin[sab], twin[sbc], twin[sca]
        t1 = top
        top += 3
        tri[t : t + 3] = a, p, c
        tri[t1 : t1 + 3] = p, b, c
        link(t + 2, tca)
        link(t1 + 1, tbc)
        link(t + 1, t1 + 2)
        if g < 0:
            link(t, -1)
            link(t1, -1)
            hull_next[a] = hull_prev[b] = p
            hull_prev[p], hull_next[p] = a, b
            hull_hash[keys[p]] = p
            return
        # and on the open edge (b, a) of triangle (b, a, d) across it
        g0 = g - g % 3
        g1, g2 = g0 + (g + 1) % 3, g0 + (g + 2) % 3
        d = tri[g2]
        tad, tdb = twin[g1], twin[g2]
        t2 = top
        top += 3
        tri[g0 : g0 + 3] = b, p, d
        tri[t2 : t2 + 3] = p, a, d
        link(g0 + 2, tdb)
        link(t2 + 1, tad)
        link(t, t2)
        link(t1, g0)
        link(g0 + 1, t2 + 2)

    for p in order:
        # a live hull vertex near p's angle
        key = keys[p]
        for j in range(size):
            s = hull_hash[(key + j) % size]
            if s >= 0 and hull_next[s] != s:
                break
        # the first hull edge (e, hull_next[e]) p sees strictly, walking
        # forward from just before s; none when p is in or on the hull
        start = e = hull_prev[s]
        while orient(e, hull_next[e], p) >= 0:
            e = hull_next[e]
            if e == start:
                split(p)
                break
        else:
            # join p to every hull edge it sees, forward from e, then back
            # from e when the search started inside the visible chain
            v = hull_next[e]
            t = top
            top += 3
            tri[t : t + 3] = e, p, v
            link(t + 2, hull_tri[e])
            ep, pv = t, t + 1
            while True:
                w = hull_next[v]
                if orient(v, w, p) >= 0:
                    break
                t = top
                top += 3
                tri[t : t + 3] = v, p, w
                link(t, pv)
                link(t + 2, hull_tri[v])
                pv = t + 1
                hull_next[v] = v
                v = w
            if e == start:
                while True:
                    r = hull_prev[e]
                    if orient(r, e, p) >= 0:
                        break
                    t = top
                    top += 3
                    tri[t : t + 3] = r, p, e
                    link(t + 1, ep)
                    link(t + 2, hull_tri[r])
                    ep = t
                    hull_next[e] = e
                    e = r
            hull_next[e] = hull_prev[v] = p
            hull_prev[p], hull_next[p] = e, v
            hull_tri[e], hull_tri[p] = ep, pv
            hull_hash[keys[p]] = p
            hull_hash[keys[e]] = e

    return np.array(tri[:top], dtype=np.int32), np.array(twin[:top], dtype=np.int32)


def triangulate(points, _order=None):
    """Delaunay-triangulate unique 2D points.

    points: sequence of (x, y) float pairs, all distinct.
    Returns (triangles, stats): an (m, 3) int64 array of CCW vertex-index
    triples, each starting at its smallest index, in sorted order, and a dict
    of counts (points, flip rounds, flips, exact orient and incircle
    fallbacks, ties).
    The flips start from the lattice the points form when they form one
    (_lattice_start), else from the radial sweep.
    _order, a permutation of the indices, replaces the sweep's order (tests)
    and always takes the sweep: its first non-collinear triple is the seed
    triangle, and the other points are added in its order.
    """
    n = len(points)
    if n < 3:
        raise DataError(f"triangulation needs at least 3 points, got {n}")
    xy = np.asarray(points, dtype=float)
    first = first_coincident(xy)
    (repeated,) = np.nonzero(first != np.arange(n))
    if len(repeated):
        i = int(repeated[0])
        raise DataError(f"cannot insert point {i}: coincides with point {first[i]}")

    pred = _Predicates(xy)
    lattice = _lattice_start(xy, pred) if _order is None else None
    tri, twin = lattice if lattice is not None else _sweep(xy, pred, _order)
    rounds, flips = _flip_rounds(tri, twin, pred)

    tris = tri.reshape(-1, 3).astype(np.int64)
    start = tris.argmin(axis=1)
    tris = tris[np.arange(len(tris))[:, None], (start[:, None] + np.arange(3)) % 3]
    tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    stats = {
        "points": n,
        "rounds": rounds,
        "flips": flips,
        "exact_orient": pred.exact_orient,
        "exact_incircle": pred.exact_incircle,
        "ties": pred.ties,
    }
    return tris, stats
