"""Incremental Delaunay triangulation (Bowyer-Watson) with robust predicates.

Orientation and in-circle tests run as floating-point computations guarded by
forward error bounds (Shewchuk 1997); uncertain signs fall back to exact
integer arithmetic, so cocircular and collinear configurations are decided
exactly. The integers are made once per triangulation: every coordinate is
an integer multiple of one power of two, found from the smallest nonzero
|coordinate| (as_integer_ratio serves when that scale overflows a float).
The filters' error bounds hold only while no product underflows or
overflows; coordinates whose exponents allow that send every test to the
exact predicates (_filters_sound), a choice made once per triangulation.
The in-circle filter bounds Shewchuk's permanent by the products of the
lifts (see _INCIRCLE_LIFT_BOUND): fewer operations, and every sign it decides
the permanent's filter decides the same way.
`triangulate` is one insertion loop whose hot float filters, the walk's
orientation and the cavity's in-circle test, are written inline. The hull is
represented by ghost triangles (third vertex GHOST), which makes insertion
outside the current hull the same cavity operation as an interior insertion.

Insertion order: a biased randomized insertion order (BRIO; Amenta, Choi &
Rote 2003). A shuffle, the order of a fixed-seed integer hash of each index
(splitmix64; no random generator), is cut into rounds that double in size,
and each round is sorted along a Hilbert curve, so every point is found by a
short walk from the previous one and opens a small cavity.

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

import math

import numpy as np

from .errors import DataError

GHOST = -1

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

# the insertion order must not depend on the run's seed: it is fixed
_BRIO_SEED = 0x5EED
_FIRST_ROUND = 64
_HILBERT_BITS = 16


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
    holds; triangulate's cavity runs the same formula inline."""
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


def _hilbert_keys(xy):
    """Position of each point along a Hilbert curve over the points' bounding
    square, on a 2**_HILBERT_BITS grid per side."""
    side = 1 << _HILBERT_BITS
    lo = xy.min(axis=0)
    span = float((xy.max(axis=0) - lo).max()) or 1.0
    # side / span overflows for a span below about 2**-1008, so a span below
    # 1/2 is first scaled into [1/2, 1) by 2**shift, and the offsets (at
    # most the span) with it. Both scalings are exact and side / (span *
    # 2**shift) is a normal float, so wherever side / span is finite each
    # product is the same real number as (xy - lo) * (side / span), rounded
    # the same way
    shift = max(0, -math.frexp(span)[1])
    scale = side / math.ldexp(span, shift)
    q = np.minimum(np.ldexp(xy - lo, shift) * scale, side - 1).astype(np.int64)
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


def _hash_shuffle(n):
    """A fixed permutation of range(n): the indices in the order of their
    splitmix64 hashes (Steele, Lea & Flood 2014) from _BRIO_SEED. Its
    finalizer is a bijection on 64-bit words, so no two hashes tie; uint64
    arithmetic wraps, as the hash intends. The stable sort is the one the
    Hilbert rounds use: numpy's default sort would load ~0.3 MB more code."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(_BRIO_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return np.argsort(z ^ (z >> np.uint64(31)), kind="stable")


def _brio_order(points):
    """Insertion order and its number of rounds: a fixed hash shuffle cut
    into rounds that double in size (the last holds half the points), each
    round sorted along the Hilbert curve."""
    n = len(points)
    perm = _hash_shuffle(n)
    keys = _hilbert_keys(np.asarray(points, dtype=float))
    cuts = [n]
    while cuts[-1] > _FIRST_ROUND:
        cuts.append(cuts[-1] // 2)
    cuts.append(0)
    cuts.reverse()
    rounds = [perm[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    order = np.concatenate([r[np.argsort(keys[r], kind="stable")] for r in rounds])
    return order.tolist(), len(rounds)


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


def _within_open_segment(ax, ay, bx, by, qx, qy):
    # assumes q collinear with a-b; True iff q lies strictly between them
    if ax != bx:
        return min(ax, bx) < qx < max(ax, bx)
    return min(ay, by) < qy < max(ay, by)


def triangulate(points, _order=None):
    """Delaunay-triangulate unique 2D points.

    points: sequence of (x, y) float pairs, all distinct.
    Returns (triangles, stats): an (m, 3) int64 array of CCW vertex-index
    triples, each starting at its smallest index, in sorted order, and a dict
    of counts (points, rounds, created triangles, exact orient and incircle
    fallbacks, ties).
    _order, a permutation of the indices, replaces the BRIO order (tests).
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

    if _order is None:
        order, rounds = _brio_order(xy)
    else:
        order, rounds = list(_order), 1
    xs = xy[:, 0].tolist()
    ys = xy[:, 1].tolist()
    exact = _exact_integers(xy.ravel())
    ix = exact[0::2]
    iy = exact[1::2]
    del exact
    # where a product may underflow or overflow, an infinite bound sends
    # every test to the exact predicates: no det exceeds inf, nor the NaN
    # of inf * 0
    orient_bound, incircle_bound = _ORIENT_BOUND, _INCIRCLE_LIFT_BOUND
    if not _filters_sound(xy.ravel()):
        orient_bound = incircle_bound = math.inf
    exact_orient = exact_incircle = ties = 0

    def orient(a, b, c):
        # orient2d of points a, b and c, with the exact fallbacks counted
        nonlocal exact_orient
        detleft = (xs[a] - xs[c]) * (ys[b] - ys[c])
        detright = (ys[a] - ys[c]) * (xs[b] - xs[c])
        det = detleft - detright
        bound = orient_bound * (abs(detleft) + abs(detright))
        if det > bound:
            return 1
        if -det > bound:
            return -1
        exact_orient += 1
        return _orient_exact(ix[a], iy[a], ix[b], iy[b], ix[c], iy[c])

    i0, i1 = order[0], order[1]
    for k in range(2, n):
        third = order[k]
        if orient(i0, i1, third):
            break
    else:
        raise DataError("all points are collinear; cannot triangulate")
    i2 = third
    if orient(i0, i1, i2) < 0:
        i1, i2 = i2, i1

    # Triangle t has vertices verts[3t:3t+3] (ghosts carry GHOST in the last
    # slot) and nbrs[3t+i] is the triangle across the edge from slot i to
    # slot (i+1) % 3. Each insertion adds two triangles, so the final count,
    # 2n - 2, is allocated up front; an insertion reuses the slots of the
    # triangles it destroys and takes the next two, fresh and fresh + 1.
    # Triangle 0 is the seed, 1-3 the ghosts across its edges (i0,i1),
    # (i1,i2), (i2,i0).
    slots = 2 * n - 2
    verts = [0] * (3 * slots)
    nbrs = [0] * (3 * slots)
    verts[:12] = (i0, i1, i2, i1, i0, GHOST, i2, i1, GHOST, i0, i2, GHOST)
    nbrs[:12] = (1, 2, 3, 0, 3, 2, 0, 1, 3, 0, 2, 1)
    fresh = 4
    last = 0  # a real triangle near the last insertion: walks start here
    created = 4
    # mark[t] is 2p + 1 while inserting point p once t is in p's cavity, 2p + 2
    # once t is known to be outside it: stamps, never cleared
    mark = [0] * slots
    # into_p[v] and from_p[v]: flat slots of the new edges (v, p) and (p, v);
    # GHOST indexes the last entry
    into_p = [0] * (n + 1)
    from_p = [0] * (n + 1)

    def in_disk(t, p):
        # Whether p lies in the (perturbed) circumdisk of triangle t, decided
        # in exact arithmetic; for a ghost, the open half-plane beyond its
        # hull edge plus the open edge. The cavity runs the in-circle float
        # filter itself and calls this for ghosts and the tests it leaves.
        nonlocal exact_incircle, ties
        a = verts[3 * t]
        b = verts[3 * t + 1]
        c = verts[3 * t + 2]
        if c == GHOST:
            # stored (a, b, GHOST) for hull edge (b, a): outside is left of a->b
            o = orient(a, b, p)
            if o:
                return o > 0
            return _within_open_segment(xs[a], ys[a], xs[b], ys[b], xs[p], ys[p])
        exact_incircle += 1
        s = _incircle_exact(ix[a], iy[a], ix[b], iy[b], ix[c], iy[c], ix[p], iy[p])
        if s:
            return s > 0
        # Cocircular: lift point i by eps**f(i), f growing with i. The largest
        # index decides; its term is orient(b, c, p) for a, orient(c, a, p)
        # for b, orient(a, b, p) for c and -orient(a, b, c) < 0 for p. Three
        # distinct cocircular points are never collinear, so the term is
        # never zero.
        ties += 1
        top = max(a, b, c)
        if p > top:
            return False
        if top == a:
            a, b = b, c
        elif top == b:
            a, b = c, a
        return orient(a, b, p) > 0

    for p in order[2:]:
        if p == third:
            continue
        px = xs[p]
        py = ys[p]

        # walk to a triangle whose closure holds p, or a ghost whose
        # half-plane does: step across the first edge p lies right of, an
        # edge (u, v) tested as orient(u, v, p) on differences to p that the
        # triangle's edges share
        t = last
        for _ in range(3 * fresh + 64):
            k = 3 * t
            c = verts[k + 2]
            if c == GHOST:
                break
            a = verts[k]
            b = verts[k + 1]
            adx = xs[a] - px
            ady = ys[a] - py
            bdx = xs[b] - px
            bdy = ys[b] - py
            detleft = adx * bdy
            detright = ady * bdx
            det = detleft - detright
            bound = orient_bound * (abs(detleft) + abs(detright))
            # not "det <= bound": a NaN from overflow must go to the exact test
            if not det > bound and (-det > bound or orient(a, b, p) < 0):
                t = nbrs[k]
                continue
            cdx = xs[c] - px
            cdy = ys[c] - py
            detleft = bdx * cdy
            detright = bdy * cdx
            det = detleft - detright
            bound = orient_bound * (abs(detleft) + abs(detright))
            if not det > bound and (-det > bound or orient(b, c, p) < 0):
                t = nbrs[k + 1]
                continue
            detleft = cdx * ady
            detright = cdy * adx
            det = detleft - detright
            bound = orient_bound * (abs(detleft) + abs(detright))
            if not det > bound and (-det > bound or orient(c, a, p) < 0):
                t = nbrs[k + 2]
                continue
            break
        else:
            # walk did not settle (should not happen on a Delaunay mesh): scan,
            # deciding every in-circle test exactly
            t = next((s for s in range(fresh) if in_disk(s, p)), None)
            if t is None:
                raise DataError(f"point location failed for point {p}")

        # grow the cavity: every triangle whose circumdisk holds p; collect its
        # boundary edges (u, v) with the triangle outside each
        inside = 2 * p + 1
        outside = inside + 1
        mark[t] = inside
        cavity = [t]
        edges = []
        stack = [t]
        while stack:
            t = stack.pop()
            k = 3 * t
            # edge i runs from slot i to slot (i + 1) % 3
            for i, j in ((0, 1), (1, 2), (2, 0)):
                nb = nbrs[k + i]
                m = mark[nb]
                if m == inside:
                    continue
                # the in-circle float filter of _incircle_filter; ghosts and
                # the tests it cannot decide go to in_disk
                hit = False
                if m != outside:
                    q = 3 * nb
                    c = verts[q + 2]
                    if c == GHOST:
                        hit = in_disk(nb, p)
                    else:
                        a = verts[q]
                        b = verts[q + 1]
                        adx = xs[a] - px
                        ady = ys[a] - py
                        bdx = xs[b] - px
                        bdy = ys[b] - py
                        cdx = xs[c] - px
                        cdy = ys[c] - py
                        alift = adx * adx + ady * ady
                        blift = bdx * bdx + bdy * bdy
                        clift = cdx * cdx + cdy * cdy
                        det = (
                            alift * (bdx * cdy - cdx * bdy)
                            + blift * (cdx * ady - adx * cdy)
                            + clift * (adx * bdy - bdx * ady)
                        )
                        bound = incircle_bound * (alift * blift + blift * clift + clift * alift)
                        if det > bound:
                            hit = True
                        elif not -det > bound:
                            hit = in_disk(nb, p)
                if hit:
                    mark[nb] = inside
                    cavity.append(nb)
                    stack.append(nb)
                else:
                    mark[nb] = outside
                    edges.append((verts[k + i], verts[k + j], nb))

        # one new triangle per boundary edge (u, v): (u, v, p), or a ghost
        # when u or v is GHOST; the cavity's slots are reused, two added
        cavity.append(fresh)
        cavity.append(fresh + 1)
        fresh += 2
        created += len(edges)
        for (u, v, out), nt in zip(edges, cavity, strict=True):
            k = 3 * nt
            if v == GHOST:
                verts[k : k + 3] = (p, u, GHOST)
                nbrs[k + 1], into_p[v], from_p[u] = out, k + 2, k
            elif u == GHOST:
                verts[k : k + 3] = (v, p, GHOST)
                nbrs[k + 2], into_p[v], from_p[u] = out, k, k + 1
            else:
                verts[k : k + 3] = (u, v, p)
                nbrs[k], into_p[v], from_p[u] = out, k + 1, k + 2
                last = nt
            m = 3 * out
            if verts[m] == v:
                nbrs[m] = nt
            elif verts[m + 1] == v:
                nbrs[m + 1] = nt
            else:
                nbrs[m + 2] = nt
        # the boundary is a cycle: each of its vertices ends one edge and
        # starts the next, so (v, p) and (p, v) are both new
        for _, v, _ in edges:
            k = into_p[v]
            j = from_p[v]
            nbrs[k] = j // 3
            nbrs[j] = k // 3

    tris = np.array(verts, dtype=np.int64).reshape(-1, 3)
    tris = tris[tris[:, 2] != GHOST]
    start = tris.argmin(axis=1)
    tris = tris[np.arange(len(tris))[:, None], (start[:, None] + np.arange(3)) % 3]
    tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    stats = {
        "points": n,
        "rounds": rounds,
        "created": created,
        "exact_orient": exact_orient,
        "exact_incircle": exact_incircle,
        "ties": ties,
    }
    return tris, stats
