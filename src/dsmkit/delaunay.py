"""Delaunay triangulation by rounds of Lawson flips from a lattice start or a
radial sweep, with robust predicates.

Orientation and in-circle tests run as floating-point computations guarded by
forward error bounds (Shewchuk 1997); uncertain signs fall back to exact
integer arithmetic, so cocircular and collinear configurations are decided
exactly. The integers are made once per triangulation, at its first exact
test or for the sweep's order: every coordinate is an integer multiple of
one power of two, found from the smallest nonzero |coordinate|
(as_integer_ratio serves when that scale overflows a float).
The filters' error bounds hold only while no product underflows or
overflows; coordinates whose exponents allow that send every test to the
exact predicates (_filters_sound), a choice made once per triangulation.
The in-circle filter bounds Shewchuk's permanent by the products of the
lifts (see _INCIRCLE_LIFT_BOUND): fewer operations, and every sign it decides
the permanent's filter decides the same way. Each filter exists once, on
arrays of point indices (_orient_signs, _incircle_signs), and _Predicates
backs it with the exact fallback; the public orient2d and incircle run
_Predicates on a three- or four-point array. Only the sweep keeps a scalar
orientation filter of its own, as it tests one point at a time.

`triangulate` runs in two phases.
- The start. Points laid out as a row-major lattice whose border lies on
  the sides of an axis-aligned rectangle, as seed_region lays out its seeds,
  start from the lattice itself (_lattice_start): each cell splits along a
  diagonal whose two triangles are counter-clockwise by exact tests, and
  the docstring there shows that this triangulates the points. On a
  rectilinear lattice (grid seeding) every cell splits, with no test, along
  the diagonal the tie rule keeps on every cell; that start is already the
  Delaunay triangulation, so no flip round runs. Any other points, or
  points that fail those checks, take the radial sweep.
- The sweep (S-hull; Sinclair 2010) adds the points in order of their exact
  distance from the point nearest the box centre, so each lies outside the
  closed hull of those before it (the proof is in _sweep's docstring), and
  joins each to every hull edge it sees. A hash of pseudo-angles around a
  point inside the seed triangle names a hull vertex near the point to start
  from, and the orientation filter decides what it sees. The sweep makes no
  in-circle test, has one insertion case and emits triangles only.
- Lawson flips (Lawson 1977) then run as numpy rounds (_flip_rounds) on
  every start but a rectilinear lattice, which is already Delaunay. The
  start's half-edges are paired once, by one sort of their keys lo * n + hi
  (_twins over half_edges, the key TriMesh pairs its edges by too). The
  queued edges are tested with the in-circle filter in bounded chunks, and
  the illegal edges that do not share a triangle with a smaller illegal
  edge are flipped at once. The quads a chunk's filter leaves open go to
  one batch decision as index arrays: _incircle_exact decides each, and the
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
from .geometry import coordinate_array

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


# the corners of a lone triangle or quad, as index arrays of one element
_CORNERS = tuple(np.arange(4)[:, None])


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of the signed area of triangle (a, b, c): +1 CCW, -1 CW, 0 collinear."""
    pred = _Predicates(np.array([[ax, ay], [bx, by], [cx, cy]], dtype=float))
    return int(pred.orient_signs(*_CORNERS[:3])[0])


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """+1 iff d lies strictly inside the circumcircle of CCW triangle (a, b, c),
    -1 strictly outside, 0 on it."""
    pred = _Predicates(np.array([[ax, ay], [bx, by], [cx, cy], [dx, dy]], dtype=float))
    return int(pred.incircle_signs(*_CORNERS)[0])


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
    """The in-circle float filter on arrays of point indices: +1 or -1 where
    its bound (_INCIRCLE_LIFT_BOUND) makes the sign of incircle(a, b, c, d)
    certain, else 0. Sound only where _filters_sound holds."""
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
    counter-clockwise); twin[s] is the opposite half-edge, -1 on the hull,
    as _twins pairs them for any start. Both are int32 arrays, updated in
    place. Each round tests the queued edges, once each, in chunks of
    _CHUNK: pred.incircle_signs(a, b, c, p), one index array per corner,
    runs the one in-circle filter and decides exactly the quads it leaves
    open (with unsound filters, all of them), and pred.tie_signs settles the
    cocircular ones. An edge is illegal where p lies in the (perturbed)
    circumdisk of CCW triangle (a, b, c). The round flips the illegal edges
    that are the smallest illegal edge of both their triangles, so no
    triangle takes part in two flips of a round. The four outer edges of
    each flipped quad, and the illegal edges left waiting, make the next
    round's queue. Returns (rounds, flips).
    """
    m = len(tri)
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
            signs = pred.incircle_signs(*quad)
            (tie,) = np.nonzero(signs == 0)
            if len(tie):
                signs[tie] = pred.tie_signs(*(v[tie] for v in quad))
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
    """The predicates of one triangulation on arrays of point indices, with
    their tallies: the one orientation and the one in-circle float filter,
    each backed by the exact predicate where it leaves the sign open.

    Where a product may underflow or overflow (_filters_sound fails), an
    infinite orient_bound sends every orientation test to the exact
    predicate (no det exceeds inf, nor the NaN of inf * 0) and the in-circle
    filter is skipped. The exact integers are made at the first exact test
    or for the sweep's order, so a lattice start that needs none never makes
    them.
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

    def incircle_signs(self, a, b, c, p):
        """incircle on arrays of point indices, the exact fallbacks counted."""
        if self.sound:
            signs = _incircle_signs(self.x, self.y, a, b, c, p)
        else:
            signs = np.zeros(len(p), dtype=np.int8)
        (open_,) = np.nonzero(signs == 0)
        if len(open_):
            self.exact_incircle += len(open_)
            ix, iy = self.integers()
            signs[open_] = [
                _incircle_exact(ix[i], iy[i], ix[j], iy[j], ix[k], iy[k], ix[q], iy[q])
                for i, j, k, q in zip(*(v[open_].tolist() for v in (a, b, c, p)))
            ]
        return signs

    def tie_signs(self, a, b, c, p):
        """For arrays of cocircular quads: +1 where p lies in the perturbed
        circumdisk of CCW triangle (a, b, c), else -1.

        Point i is lifted by eps**f(i), f growing with i. The largest index
        decides; its term is orient(b, c, p) for a, orient(c, a, p) for b,
        orient(a, b, p) for c and -orient(a, b, c) < 0 for p. Three distinct
        cocircular points are never collinear, so the term is never zero.
        """
        self.ties += len(p)
        top = np.maximum(np.maximum(a, b), c)
        u = np.where(top == a, b, np.where(top == b, c, a))
        v = np.where(top == a, c, np.where(top == b, a, b))
        (lifted,) = np.nonzero(p < top)
        side = np.full(len(p), -1, dtype=np.int8)
        side[lifted] = self.orient_signs(u[lifted], v[lifted], p[lifted])
        return side


def _lattice_start(xy, pred):
    """(tri, settled) of the triangulation that a lattice of points already
    forms, tri as in _flip_rounds, or None when the points are not one.
    settled says that the start is already the Delaunay triangulation, so
    that no flip round need run.

    The lattice is row-major, rows by cols, cols the leading run of points at
    the first point's y, and its border lies on the sides of an axis-aligned
    rectangle: the first and the last row each at one y, the first and the
    last column each at one x, each of the four runs strictly increasing
    along its side. seed_region lays its seeds out so. Each cell (a, b, c,
    d), counter-clockwise from its lower left corner, splits along b-d, the
    diagonal the tie rule keeps on every cell, where both its triangles are
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

    Why a rectilinear lattice is settled with no test: every row holds the
    first row's x values and every column the first column's y values, as
    grid seeding lays them out. With the side checks, x_0 < x_1 < ... and
    y_0 < y_1 < ..., so each cell [x_j, x_j+1] x [y_i, y_i+1] is an exact
    axis-aligned rectangle. Both triangles of its b-d split are strictly
    counter-clockwise (their doubled areas are (x_j+1 - x_j)(y_i+1 - y_i)
    > 0), so every cell splits along b-d. The cell's four corners lie on
    one circle, centred at the cell's centre, the circumcircle of both its
    triangles, and every other lattice point lies strictly outside it: its
    |dx| from the centre is at least half the cell's width and its |dy| at
    least half the cell's height, one of the two strictly, as the runs
    strictly increase. The point across a cell side is a corner of the next
    cell only, so every cell side is strictly legal, whatever the tie rule.
    On each b-d diagonal the point across from triangle (a, b, d) is c, the
    cell's largest index, so the tie rule keeps the diagonal whatever the
    cell's shape. Every edge is then legal, and the start is the unique
    Delaunay triangulation under the tie rule: the flip rounds would end
    after one round with no flip.
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
    settled = bool((gx == gx[0]).all() and (gy == gy[:, :1]).all())
    corner = np.arange(n, dtype=np.int32).reshape(rows, cols)
    a, b = corner[:-1, :-1].ravel(), corner[:-1, 1:].ravel()
    d, c = corner[1:, :-1].ravel(), corner[1:, 1:].ravel()
    if settled:
        across = np.zeros(len(a), dtype=bool)
    else:
        across = (pred.orient_signs(a, b, d) <= 0) | (pred.orient_signs(b, c, d) <= 0)
        (k,) = np.nonzero(across)
        if len(k) and (
            (pred.orient_signs(a[k], b[k], c[k]) <= 0) | (pred.orient_signs(a[k], c[k], d[k]) <= 0)
        ).any():
            return None
    # triangles (a, b, d) and (b, c, d), or (a, b, c) and (a, c, d) across a-c
    tri = np.column_stack([a, b, np.where(across, c, d), np.where(across, a, b), c, d]).ravel()
    return tri, settled


def half_edges(tri, n):
    """Each half-edge's start and end vertex and its key lo * n + hi (int64),
    for triangles tri of n points: an (m, 3) array, or the flat slots of
    _flip_rounds. Half-edge 3t + k runs from corner k of triangle t to
    corner k + 1; an edge's two half-edges share a key."""
    start = tri.ravel()
    end = tri.reshape(-1, 3)[:, [1, 2, 0]].ravel()
    key = np.minimum(start, end).astype(np.int64, copy=False) * n + np.maximum(start, end)
    return start, end, key


def _twins(tri, n):
    """twin (as in _flip_rounds) of the half-edges tri of a triangulation of
    n points: the two half-edges of a key pair up, a hull edge's is alone."""
    # A lattice start's keys rise nearly cell by cell, and the stable sort
    # takes such runs whole: half the time of the default sort on a
    # 12,512-point lattice, and less memory
    key = half_edges(tri, n)[2]
    order = np.argsort(key, kind="stable")
    (pair,) = np.nonzero(key[order[1:]] == key[order[:-1]])
    s, t = order[pair], order[pair + 1]
    twin = np.full(len(tri), -1, dtype=np.int32)
    twin[s] = t
    twin[t] = s
    return twin


def _sweep(xy, pred):
    """tri (as in _flip_rounds) of a triangulation of the points by the
    radial sweep, which joins each point to the hull edges it sees. It keeps
    the hull and no adjacency: _twins pairs the half-edges afterwards, as it
    does a lattice start's.

    The order is exact. i0 is the point nearest the bounding box's centre,
    and every point follows in order of its exact squared distance from i0,
    on the integers of pred (ties by index). i1 is the next point, i2 the
    first after it that is not collinear with i0 and i1, and the seed
    triangle (i0, i1, i2) is followed by the rest in that order.

    Why each later point lies outside the closed hull of those before it, so
    that it strictly sees a hull edge, the one case the sweep inserts. A
    point after i2 is at least as far from i0 as every point before it, so
    it lies on the boundary circle of a closed disk that holds them all,
    and it differs from each of them: a point of a circle is in the hull of
    points of its disk only if it is one of them. A point skipped while
    choosing i2 lies on the line through i0 and i1, and the points before
    it are i2 and points of that line, no farther from i0 than it and none
    equal to it; so it ends the segment they span, and it lies outside
    their hull, which meets the line only in that segment.
    """
    n = len(xy)
    xs = xy[:, 0].tolist()
    ys = xy[:, 1].tolist()
    ix, iy = pred.integers()
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
        return _orient_exact(ix[a], iy[a], ix[b], iy[b], ix[c], iy[c])

    u = _unit_offsets(xy)
    i0 = int(np.argmin((u * u).sum(axis=1)))
    x0, y0 = ix[i0], iy[i0]
    order = sorted(range(n), key=lambda k: (ix[k] - x0) ** 2 + (iy[k] - y0) ** 2)
    i1 = order[1]
    i2 = next((k for k in order[2:] if orient(i0, i1, k)), None)
    if i2 is None:
        raise DataError("all points are collinear; cannot triangulate")
    order = [k for k in order[2:] if k != i2]
    if orient(i0, i1, i2) < 0:
        i1, i2 = i2, i1
    # 4 sqrt(n) buckets of pseudo-angle around a point inside the seed
    # triangle: with sqrt(n), the sweep over a 12,512-point grid made about
    # 7.7 orientation tests per point; with these, about 4
    size = 4 * math.isqrt(n)
    keys = _hash_keys(u, u[[i0, i1, i2]].mean(axis=0), size)
    del u

    # The sweep. tri lists the triangles' corners, counter-clockwise. The
    # hull is a CCW cycle of vertices; hull_next[v] == v once v has left
    # it. hull_hash maps a bucket of pseudo-angles to a hull vertex, a place
    # to start the search.
    tri = [i0, i1, i2]
    hull_next = [-1] * n
    hull_prev = [-1] * n
    hull_hash = [-1] * size
    for v, w in ((i0, i1), (i1, i2), (i2, i0)):
        hull_next[v] = w
        hull_prev[w] = v
        hull_hash[keys[v]] = v

    for p in order:
        # a live hull vertex near p's angle
        key = keys[p]
        for j in range(size):
            s = hull_hash[(key + j) % size]
            if s >= 0 and hull_next[s] != s:
                break
        # the first hull edge (e, hull_next[e]) p sees strictly, walking
        # forward from just before s; the order makes sure there is one
        start = e = hull_prev[s]
        while orient(e, hull_next[e], p) >= 0:
            e = hull_next[e]
            if e == start:
                raise RuntimeError(f"internal error: point {p} sees no hull edge in the sweep")
        # join p to every hull edge it sees, forward from e, then back from
        # e when the search started inside the visible chain
        v = hull_next[e]
        tri += e, p, v
        while True:
            w = hull_next[v]
            if orient(v, w, p) >= 0:
                break
            tri += v, p, w
            hull_next[v] = v
            v = w
        if e == start:
            while True:
                r = hull_prev[e]
                if orient(r, e, p) >= 0:
                    break
                tri += r, p, e
                hull_next[e] = e
                e = r
        hull_next[e] = hull_prev[v] = p
        hull_prev[p], hull_next[p] = e, v
        hull_hash[keys[p]] = p
        hull_hash[keys[e]] = e

    return np.array(tri, dtype=np.int32)


def triangulate(points):
    """Delaunay-triangulate unique 2D points.

    points: (n, 2) finite float coordinates, all distinct.
    Returns (triangles, stats): an (m, 3) int64 array of CCW vertex-index
    triples, each starting at its smallest index, in sorted order, and a dict
    of counts (points, flip rounds, flips, exact orient and incircle
    fallbacks, ties).
    Points of another shape, non-finite or coincident points, or fewer
    than 3, raise DataError.
    """
    xy = coordinate_array(points, "point")
    first = first_coincident(xy)
    (repeated,) = np.nonzero(first != np.arange(len(xy)))
    if len(repeated):
        i = int(repeated[0])
        raise DataError(f"cannot insert point {i}: coincides with point {first[i]}")
    return _triangulate(xy)


def _triangulate(xy):
    """triangulate's work on an (n, 2) float array of distinct points, which
    its caller has checked (mesh.delaunay_triangulate drops coincident ones).

    The flips start from the lattice the points form when they form one
    (_lattice_start), else from the radial sweep (_sweep), over the
    half-edges _twins pairs; a rectilinear lattice is already Delaunay, and
    no flip round runs on it.
    """
    n = len(xy)
    if n < 3:
        raise DataError(f"triangulation needs at least 3 points, got {n}")
    pred = _Predicates(xy)
    lattice = _lattice_start(xy, pred)
    tri, settled = (_sweep(xy, pred), False) if lattice is None else lattice
    rounds, flips = (0, 0) if settled else _flip_rounds(tri, _twins(tri, n), pred)

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
