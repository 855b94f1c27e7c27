"""Mesh tests: Delaunay property, seeding, smoothing, quality, contours."""

import contextlib
import logging
import math
import warnings
from dataclasses import astuple, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    circumcircle_violations,
    contours_reference,
    dihedral_roughness_reference,
    edges_reference,
    euler_characteristic,
    incircle_filter_reference,
    incircle_fraction,
    laplacian_smooth_reference,
    mesh_quality_reference,
    orient_fraction,
    rotation_canonical,
    triangle_min_angles,
    triangulate_reference,
    uniform_reference,
    vertex_neighbors_reference,
)
from dsmkit import delaunay, mesh
from dsmkit.errors import ConfigError, DataError
from dsmkit.geometry import Rect
from dsmkit.mesh import (
    TriMesh,
    delaunay_triangulate,
    dihedral_roughness,
    extract_contours,
    laplacian_smooth,
    mesh_quality,
    seed_region,
)
from dsmkit.pipeline import (
    PipelineConfig,
    build_planar_mesh,
    contour_levels,
    lift_surface,
    prepare_samples,
    variogram_model,
)


class TestTriMesh:
    def test_clockwise_rejected(self):
        with pytest.raises(DataError):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            TriMesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])

    def test_index_out_of_range(self):
        with pytest.raises(DataError):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])

    def test_boundary_flags_computed(self):
        # square fan around a center vertex: 4 hull vertices, center interior
        m = TriMesh(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
            [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
        )
        assert m.boundary_flags.tolist() == [True, True, True, True, False]

    def test_immutable(self):
        m = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.boundary_flags[0] = False

    def test_with_vertices_shares_the_triangles_facts(self):
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        m = TriMesh(square, [[0, 1, 2], [0, 2, 3]])
        assert "boundary_flags" not in vars(m)  # computed when first read
        assert m.boundary_flags.tolist() == [True] * 4
        lifted = m.with_vertices([[x, y, 1.0] for x, y in square])
        assert lifted.is_3d and lifted.boundary_flags is m.boundary_flags
        with pytest.raises(DataError, match="expected 4 vertices, got 5"):
            m.with_vertices([*square, [2, 2]])
        with pytest.raises(DataError, match="clockwise"):
            m.with_vertices(square[::-1])

    def test_edge_of_three_triangles_rejected(self):
        with pytest.raises(DataError, match=r"edge \(0, 1\) is shared by 3 triangles"):
            TriMesh(
                [[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.3, 2]],
                [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
            )

    def test_edges_and_neighbors(self):
        m = TriMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
        assert m.edges().tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]
        indptr, indices = m.vertex_neighbors()
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 2, 3]

    @pytest.mark.parametrize(
        "config", [{}, {"seed_strategy": "grid", "spacing": "3"}, None],
        ids=["demo", "mesh_grid", "empty"],
    )
    def test_edges_match_row_unique_reference(self, config):
        if config is None:
            m = TriMesh(np.zeros((0, 2)), np.zeros((0, 3)))
        else:
            m, _, _ = build_planar_mesh(PipelineConfig.from_mapping(config))
        got, want = m.edges(), edges_reference(m.triangles)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "config", [{}, {"seed_strategy": "grid", "spacing": "3"}, None, "isolated"],
        ids=["demo", "mesh_grid", "empty", "isolated"],
    )
    def test_neighbors_match_lexsort_reference(self, config):
        if config is None:
            m = TriMesh(np.zeros((0, 2)), np.zeros((0, 3)))
        elif config == "isolated":
            # vertices 0 and 5 on no triangle; 4 has neighbours on both sides
            m = TriMesh([[9, 9], [0, 0], [1, 0], [1, 1], [0, 1], [5, 5], [2, 0.5]],
                        [[1, 2, 4], [2, 3, 4], [2, 6, 3]])
        else:
            m, _, _ = build_planar_mesh(PipelineConfig.from_mapping(config))
        got = m.vertex_neighbors()
        want = vertex_neighbors_reference(m.n_vertices, m.triangles)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("span", [1e-200, 1e200])
    def test_extreme_spans_pass_the_orientation_check(self, span):
        # the float doubled areas underflow to 0 or overflow to inf and NaN
        # here, so the check decides those triangles exactly
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 2)) * span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = delaunay_triangulate(pts)
            # a clockwise triangle is still rejected, a counter-clockwise one kept
            with pytest.raises(DataError, match="1 triangles are degenerate or clockwise"):
                TriMesh([[0, 0], [span, 0], [0, span]], [[0, 2, 1]])
            TriMesh([[0, 0], [span, 0], [0, span]], [[0, 1, 2]])
        assert np.array_equal(m.triangles, delaunay.triangulate(pts)[0])


class TestDelaunay:
    def test_single_triangle(self):
        m = delaunay_triangulate([(0, 0), (1, 0), (0, 1)])
        assert m.n_triangles == 1
        assert sorted(m.triangles[0]) == [0, 1, 2]

    def test_unit_square_two_triangles(self):
        m = delaunay_triangulate([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert m.n_triangles == 2
        # either diagonal is a valid cocircular resolution; the shared edge
        # must be one of them
        e = {tuple(x) for x in m.edges().tolist()}
        assert ((0, 2) in e) != ((1, 3) in e)

    def test_duplicates_deduplicated_with_report(self, caplog):
        # -0.0 and 0.0 coincide; first occurrences are kept, in input order
        pts = [(0.0, 0.0), (1, 0), (0, 1), (-0.0, 0.0), (1, 0), (0.0, -0.0)]
        with caplog.at_level("WARNING", logger="dsmkit.mesh"):
            m = delaunay_triangulate(pts)
        assert m.vertices.tolist() == [[0, 0], [1, 0], [0, 1]]
        assert not np.signbit(m.vertices).any()
        assert [r.getMessage() for r in caplog.records] == [
            "deduplicated 3 duplicate points (3 unique remain)"
        ]

    def test_too_few_points(self):
        with pytest.raises(DataError):
            delaunay_triangulate([(0, 0), (1, 1)])

    def test_collinear_rejected(self):
        with pytest.raises(DataError):
            delaunay_triangulate([(0, 0), (1, 0), (2, 0), (3, 0)])

    def test_random_points_empty_circumcircle(self):
        # derived oracle: brute-force circumcenter check over all pairs
        rng = np.random.default_rng(2024)
        pts = rng.uniform(0, 100, size=(200, 2))
        m = delaunay_triangulate(pts)
        assert circumcircle_violations(m.vertices, m.triangles) == 0
        assert euler_characteristic(m.n_vertices, m.triangles) == 2

    def test_structured_grid_with_cocircular_ties(self):
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        m = delaunay_triangulate(pts)
        assert m.n_triangles == 2 * 7 * 5
        assert circumcircle_violations(m.vertices, m.triangles) == 0
        assert euler_characteristic(m.n_vertices, m.triangles) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-10, 10, size=(150, 2))
        m1 = delaunay_triangulate(pts)
        m2 = delaunay_triangulate(pts)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(m1.vertices, m2.vertices)

    def test_near_degenerate_cluster(self):
        # tight cluster plus far points: exact predicates must not crash
        pts = [(0, 0), (1e-12, 0), (0, 1e-12), (1, 0), (0, 1), (1, 1)]
        m = delaunay_triangulate(pts)
        assert circumcircle_violations(m.vertices, m.triangles) == 0

    def test_hull_flags_match_convex_hull(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(60, 2))
        m = delaunay_triangulate(pts)
        # hull vertices are exactly those on boundary edges (edges with one triangle)
        t = m.triangles
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        expected = np.zeros(m.n_vertices, dtype=bool)
        expected[uniq[counts == 1].ravel()] = True
        assert np.array_equal(m.boundary_flags, expected)


# A 6 x 6 lattice: most 4-subsets of its nodes are cocircular or contain a
# collinear triple, so in-circle ties and hull-edge cases are everywhere.
# Offsets and steps move it to UTM-sized coordinates and to a step that is
# not a binary fraction (nearly but not exactly cocircular nodes).
_LATTICE = [(i, j) for i in range(6) for j in range(6)]
_PLACEMENTS = [(0.0, 0.0, 1.0), (684321.0, 5398765.0, 3.0), (540000.0, 0.0, 0.1)]


def _triples(tris):
    # triangulate's (m, 3) array as a list of vertex-index tuples
    assert tris.dtype == np.int64 and tris.shape == (len(tris), 3)
    return [tuple(t) for t in tris.tolist()]


@contextlib.contextmanager
def _sweep_start():
    """triangulate with the lattice start switched off: every input takes
    the radial sweep."""
    with mock.patch.object(delaunay, "_lattice_start", lambda xy, pred: None):
        yield


@contextlib.contextmanager
def _sweeps():
    """A list that gets one entry each time triangulate enters the sweep."""
    calls = []
    sweep = delaunay._sweep
    with mock.patch.object(delaunay, "_sweep", lambda *a: calls.append(1) or sweep(*a)):
        yield calls


class TestDelaunayOrderIndependence:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_insertion_order_gives_the_reference_triangles(self, data):
        nodes = data.draw(
            st.lists(st.sampled_from(_LATTICE), min_size=3, max_size=len(_LATTICE), unique=True)
        )
        x0, y0, step = data.draw(st.sampled_from(_PLACEMENTS))
        # the nodes in a drawn input order: the sweep's order breaks distance
        # ties, and the tie rule cocircular ones, by input index
        order = data.draw(st.permutations(nodes))
        pts = [(x0 + step * i, y0 + step * j) for i, j in order]
        try:
            ref, ref_hull = triangulate_reference(pts)
        except DataError:
            with _sweep_start(), pytest.raises(DataError, match="collinear"):
                delaunay.triangulate(pts)
            return
        with _sweep_start():
            tris, stats = delaunay.triangulate(pts)
        triples = _triples(tris)
        assert len(tris) == len(ref)
        assert set(triples) == rotation_canonical(ref)
        assert TriMesh(pts, tris).boundary_flags.tolist() == ref_hull
        # canonical output: rotated to the smallest index, in sorted order
        assert triples == sorted(triples) and all(t[0] == min(t) for t in triples)
        assert stats["points"] == len(pts)

    @pytest.mark.parametrize("strategy, seed", [("grid", 0), ("jittered", 0), ("jittered", 7)])
    def test_brio_order_gives_the_reference_triangles(self, strategy, seed):
        # the radial sweep's own order on mesh seeds, with the lattice start
        # switched off
        rect = Rect(684000.0, 5400000.0, 684400.0, 5400300.0)
        pts = [tuple(p) for p in seed_region(rect, 10.0, strategy, seed).tolist()]
        ref, ref_hull = triangulate_reference(pts)
        with _sweep_start():
            tris, stats = delaunay.triangulate(pts)
        triples = _triples(tris)
        assert set(triples) == rotation_canonical(ref) and len(tris) == len(ref)
        assert TriMesh(pts, tris).boundary_flags.tolist() == ref_hull
        assert triples == sorted(triples) and all(t[0] == min(t) for t in triples)
        assert stats["rounds"] > 1 and stats["flips"] > 0

    @staticmethod
    def _assert_the_raw_sweep_triangulates(xy):
        # the sweep emits triangles and no adjacency, so before any flip
        # they must triangulate the points on their own: TriMesh accepts
        # them (counter-clockwise, no edge held thrice), every point is a
        # corner, and the edges one triangle holds run once round the convex
        # hull, counter-clockwise, every point on or left of each and none
        # strictly inside one; Euler's formula then counts the triangles
        n = len(xy)
        tri = delaunay._sweep(xy, delaunay._Predicates(xy))
        m = TriMesh(xy, tri.reshape(-1, 3))
        assert set(tri.tolist()) == set(range(n))
        start, end, _ = delaunay.half_edges(tri, n)
        lone = m._edge_halves[m._edge_halves[:, 1] < 0, 0]
        hull = dict(zip(start[lone].tolist(), end[lone].tolist()))
        assert len(hull) == len(lone)
        v = first = next(iter(hull))
        cycle = set()
        for _ in hull:
            cycle.add(v)
            v = hull[v]
        assert v == first and cycle == set(hull)
        q = xy.tolist()
        for a, b in hull.items():
            for k, p in enumerate(q):
                side = orient_fraction(*q[a], *q[b], *p)
                assert side >= 0
                if side == 0 and k not in (a, b):
                    # collinear with the edge, so beyond one of its ends
                    assert not all(min(u, w) <= c <= max(u, w) for u, w, c in zip(q[a], q[b], p))
        assert len(m.triangles) == 2 * n - len(hull) - 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_the_raw_sweep_triangulates_lattice_subsets(self, data):
        nodes = data.draw(
            st.lists(st.sampled_from(_LATTICE), min_size=3, max_size=len(_LATTICE), unique=True)
        )
        x0, y0, step = data.draw(st.sampled_from(_PLACEMENTS))
        xy = np.array([(x0 + step * i, y0 + step * j) for i, j in nodes])
        try:
            self._assert_the_raw_sweep_triangulates(xy)
        except DataError as e:
            assert "collinear" in str(e)

    def test_the_raw_sweep_triangulates(self):
        rng = np.random.default_rng(5)
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))
        for xy in [
            seed_region(Rect(0.0, 0.0, 60.0, 40.0), 10.0, "jittered", 3),
            np.column_stack([xs.ravel(), ys.ravel()])[::-1],
            rng.uniform(-1.0, 1.0, (200, 2)),
            np.concatenate([rng.uniform(-1.0, 1.0, (25, 2)) * 1e-200,
                            rng.uniform(-1.0, 1.0, (15, 2)) * 1e100]),
        ]:
            self._assert_the_raw_sweep_triangulates(xy)

    def test_errors_name_input_indices(self):
        with pytest.raises(DataError, match="point 4: coincides with point 1"):
            delaunay.triangulate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 2.0), (1.0, 0.0)])
        # the smallest repeated index, not the first repeat in sorted order
        with pytest.raises(DataError, match="point 3: coincides with point 1$"):
            delaunay.triangulate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-0.0, 0.0)])
        with pytest.raises(DataError, match="collinear"):
            delaunay.triangulate([(float(i), 2.0 * i) for i in range(40)])

    @staticmethod
    def _debug_line(caplog, pts):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dsmkit.mesh"):
            delaunay_triangulate(pts)
        (line,) = [m for m in caplog.messages if m.startswith("delaunay:")]
        return line

    def test_debug_line_reports_the_counts(self, caplog):
        # the engine's own tally: a change in the sequence of predicates it
        # evaluates (seed step, sweep, flip rounds, ties) shows up here.
        # Both inputs are lattices, so the sweep runs only when forced; the
        # 8 x 6 one is rectilinear, so its start evaluates nothing.
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))
        jittered = seed_region(Rect(684000.0, 5400000.0, 684400.0, 5400300.0), 10.0, "jittered", 7)
        for pts, sweep, lattice in [
            (np.column_stack([xs.ravel(), ys.ravel()]),
             "48 points, 3 flip rounds, 32 flips, "
             "exact fallbacks 44 orient / 35 incircle, 35 cocircular ties",
             "48 points, 0 flip rounds, 0 flips, "
             "exact fallbacks 0 orient / 0 incircle, 0 cocircular ties"),
            (jittered,
             "1271 points, 12 flip rounds, 3385 flips, "
             "exact fallbacks 136 orient / 3 incircle, 3 cocircular ties",
             "1271 points, 2 flip rounds, 601 flips, "
             "exact fallbacks 0 orient / 0 incircle, 0 cocircular ties"),
        ]:
            with _sweep_start():
                assert self._debug_line(caplog, pts) == f"delaunay: {sweep} decided by input index"
            assert self._debug_line(caplog, pts) == f"delaunay: {lattice} decided by input index"

    def test_debug_line_reports_the_grid_ties(self, caplog):
        # mesh_grid's seeds: every cell of the grid is a cocircular tie. The
        # sweep flips its way there; the lattice start splits every cell
        # along the diagonal the tie rule keeps, and as the lattice is
        # rectilinear that start is already Delaunay: no flip round runs.
        config = PipelineConfig.from_mapping({"seed_strategy": "grid", "spacing": "3"})
        pts = seed_region(config.mesh_region, config.spacing, config.seed_strategy)
        with _sweep_start():
            assert self._debug_line(caplog, pts) == (
                "delaunay: 12512 points, 12 flip rounds, 48544 flips, "
                "exact fallbacks 4202 orient / 12285 incircle, "
                "12285 cocircular ties decided by input index"
            )
        assert self._debug_line(caplog, pts) == (
            "delaunay: 12512 points, 0 flip rounds, 0 flips, "
            "exact fallbacks 0 orient / 0 incircle, "
            "0 cocircular ties decided by input index"
        )

    def test_shuffled_lattice_gives_the_reference_triangles(self):
        # a 20 x 20 lattice in shuffled index order: every cell is a tie that
        # the index-lifting rule decides, on indices in no spatial order
        rng = np.random.default_rng(20)
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0))
        xy = np.column_stack([xs.ravel(), ys.ravel()])
        for order in (rng.permutation(400), rng.permutation(400)):
            pts = [tuple(p) for p in xy[order].tolist()]
            ref, ref_hull = triangulate_reference(pts)
            tris, stats = delaunay.triangulate(pts)
            assert set(_triples(tris)) == rotation_canonical(ref) and len(tris) == len(ref)
            assert TriMesh(pts, tris).boundary_flags.tolist() == ref_hull
            assert stats["ties"] > 0

    @pytest.mark.parametrize("far", [2.0**-200, 1e300], ids=["one-scale", "scale-overflows"])
    def test_subnormal_and_far_coordinates_give_the_reference_triangles(self, far):
        # a lattice of subnormals k * 2**-1074 and five points near `far`:
        # the filters' products underflow or overflow, so the tests go exact.
        # Near 2**-200 every coordinate fits one power-of-two integer scale;
        # near 1e300 that scale overflows and as_integer_ratio takes over.
        tiny = 2.0**-1074
        pts = [(i * tiny, j * tiny) for i in range(4) for j in range(4)]
        pts += [(far * x, far * y) for x, y in [(1, 0), (0, 1), (-1, 0.3), (0.7, -0.9), (1.1, 1.2)]]
        for order in (pts, pts[::-1]):
            ref, _ = triangulate_reference(order)
            tris, stats = delaunay.triangulate(order)
            assert set(_triples(tris)) == rotation_canonical(ref) and len(tris) == len(ref)
            assert stats["exact_incircle"] > 0 and stats["ties"] > 0


    def test_subnormal_lattice_alone_orders_without_warnings(self):
        # a span of 3 * 2**-1074: squared distances and pseudo-angles on the
        # raw coordinates would be 0 and 0 / 0, so the sweep's order and hash
        # read offsets scaled into [-1, 1]
        tiny = 2.0**-1074
        pts = [(i * tiny, j * tiny) for i in range(4) for j in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tris, _ = delaunay.triangulate(pts)
        ref, _ = triangulate_reference(pts)
        assert set(_triples(tris)) == rotation_canonical(ref) and len(tris) == len(ref)
        # a power-of-two scale, or one that centres the lattice on a span
        # beyond the float range (6 * 2**1022), moves no triangle, and the
        # offsets stay finite and of unit size
        lattices = [np.ldexp(np.array(pts), shift) for shift in (0, 60, 1100, 1150)]
        lattices.append(np.array([(i * 2.0**1022, j * 2.0**1022) for i in (-3, -1, 1, 3)
                                  for j in (-3, -1, 1, 3)]))
        for scaled in lattices:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                offsets = delaunay._unit_offsets(scaled)
                assert np.array_equal(delaunay.triangulate(scaled)[0], tris)
            assert np.isfinite(offsets).all() and 0.5 <= np.abs(offsets).max() <= 1.0

    @staticmethod
    def _assert_reference_in_any_order(pts, rng):
        # the points as given and in a random input order
        for order in (range(len(pts)), rng.permutation(len(pts))):
            permuted = [pts[k] for k in order]
            ref, _ = triangulate_reference(permuted)
            tris, _ = delaunay.triangulate(permuted)
            assert set(_triples(tris)) == rotation_canonical(ref) and len(tris) == len(ref)

    @pytest.mark.parametrize("exponent", [-300, -250, -200, -100, 0, 100, 200])
    def test_spans_across_the_float_range_give_the_reference_triangles(self, exponent):
        # on raw coordinates the sweep's squared distances underflow to 0 or
        # overflow to inf at these spans, and its pseudo-angles turn NaN
        rng = np.random.default_rng(exponent + 300)
        pts = [tuple(p) for p in (rng.uniform(-1.0, 1.0, (40, 2)) * 10.0**exponent).tolist()]
        self._assert_reference_in_any_order(pts, rng)

    @pytest.mark.parametrize("span", [1e-6, 1e-3, 1.0, 1e3])
    def test_utm_offsets_give_the_reference_triangles(self, span):
        # at a 1e-6 span the coordinates sit on a few hundred float steps:
        # collinear and cocircular points, and the sweep's float distances
        # tie or misorder points
        rng = np.random.default_rng(int(-math.log10(span)) + 10)
        xy = np.array([684321.0, 5398765.0]) + rng.uniform(0.0, span, (60, 2))
        xy = xy[delaunay.first_coincident(xy) == np.arange(len(xy))]
        self._assert_reference_in_any_order([tuple(p) for p in xy.tolist()], rng)

    def test_mixed_magnitudes_give_the_reference_triangles(self):
        # float distances from the points near 1e100 cannot tell those near
        # 1e-200 apart; the sweep orders them by exact distance
        rng = np.random.default_rng(1)
        xy = np.concatenate([rng.uniform(-1.0, 1.0, (25, 2)) * 1e-200,
                             rng.uniform(-1.0, 1.0, (15, 2)) * 1e100])
        self._assert_reference_in_any_order([tuple(p) for p in xy.tolist()], rng)

    def test_mixed_magnitudes_take_few_exact_orientation_tests(self):
        # no point of the exact distance order lies in the hull of those
        # before it, so the sweep never scans the triangles for one: such a
        # scan per misordered point near 1e-200 takes over 300,000 exact
        # orientation tests on this input
        rng = np.random.default_rng(1)
        xy = np.concatenate([rng.uniform(-1.0, 1.0, (500, 2)) * 1e-200,
                             rng.uniform(-1.0, 1.0, (500, 2)) * 1e100])
        pts = [tuple(p) for p in xy.tolist()]
        ref, ref_hull = triangulate_reference(pts)
        tris, stats = delaunay.triangulate(pts)
        assert set(_triples(tris)) == rotation_canonical(ref) and len(tris) == len(ref)
        assert TriMesh(pts, tris).boundary_flags.tolist() == ref_hull
        assert stats["exact_orient"] <= 20_000

    def test_filters_are_sound_within_the_exponent_bounds(self):
        # see _filters_sound: products of up to four coordinate differences
        # neither underflow nor overflow
        for lo, hi, sound in [(-189, 253, True), (-190, 0, False), (0, 254, False)]:
            values = np.array([0.0, 2.0 ** (lo - 1), -(2.0 ** (hi - 1))])
            assert delaunay._filters_sound(values) is sound


# the benchmark's four workload configs: demo_uk, mesh_grid, dense_scan, global_uk
_WORKLOAD_CONFIGS = {
    "demo": {},
    "mesh_grid": {"seed_strategy": "grid", "spacing": "3"},
    "dense_scan": {"rows": "120", "cols": "240", "spacing": "20"},
    "global_uk": {"rows": "16", "cols": "32", "spacing": "15", "neighbors": "global"},
}


class TestLatticeStart:
    """Seeds that form a lattice start the flips from its cells and give the
    sweep's triangles; points that fail the lattice checks take the sweep."""

    @staticmethod
    def _assert_the_sweeps_triangles(pts):
        with _sweeps() as calls:
            tris, stats = delaunay.triangulate(pts)
        assert not calls
        with _sweep_start():
            want, _ = delaunay.triangulate(pts)
        assert np.array_equal(tris, want)
        return stats

    @staticmethod
    def _assert_the_path(stats, strategy):
        # grid seeds form a rectilinear lattice, already Delaunay: no flip
        # round and no exact in-circle test; a seeding change that loses
        # that layout fails here instead of only slowing the mesh stage
        if strategy == "grid":
            assert stats["rounds"] == stats["exact_incircle"] == 0
        else:
            assert stats["rounds"] >= 1

    @pytest.mark.parametrize("config", _WORKLOAD_CONFIGS.values(), ids=_WORKLOAD_CONFIGS)
    def test_workload_seeds_give_the_sweeps_triangles(self, config):
        config = PipelineConfig.from_mapping(config)
        # grid seeding ignores the seed
        for strategy, seed in [("grid", 0)] + [("jittered", seed) for seed in range(11)]:
            pts = seed_region(config.mesh_region, config.spacing, strategy, seed)
            self._assert_the_path(self._assert_the_sweeps_triangles(pts), strategy)

    @pytest.mark.parametrize("strategy", mesh.SEED_STRATEGIES)
    def test_scaled_case_seeds_give_the_sweeps_triangles(self, strategy):
        # the 1.25 m mesh of the scaled case: 71,720 seeds
        config = PipelineConfig.from_mapping({"rows": "200", "cols": "400", "spacing": "1.25"})
        pts = seed_region(config.mesh_region, config.spacing, strategy, config.seed)
        assert len(pts) == 71720
        self._assert_the_path(self._assert_the_sweeps_triangles(pts), strategy)

    @staticmethod
    def _rectilinear(rng, rows, cols, offset=(0.0, 0.0), unit=1.0):
        # row-major nodes of distinct, sorted, non-uniform x and y runs:
        # cumulative sums of integer steps 1..40, times unit, plus offset
        xs, ys = (offset[k] + unit * np.cumsum(rng.integers(1, 41, count)).astype(float)
                  for k, count in enumerate((cols, rows)))
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    # (rows, cols, offset, unit): small lattices, strips, UTM-sized
    # offsets, and spans where _filters_sound fails (subnormal multiples of
    # 2**-1074, and about 1e200)
    _RECTILINEAR = {
        "small": (5, 6, (0.0, 0.0), 1.0),
        "small_fractional": (6, 4, (-3.5, 2.25), 0.1),
        "strip_2xn": (2, 30, (0.0, 0.0), 0.37),
        "strip_nx2": (30, 2, (0.0, 0.0), 0.37),
        "utm": (7, 8, (684321.0, 5398765.0), 0.01),
        "utm_large": (40, 60, (684321.0, 5398765.0), 0.3),
        "subnormal": (5, 7, (0.0, 0.0), 2.0**-1074),
        "far": (6, 5, (0.0, 0.0), 1e198),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", _RECTILINEAR)
    def test_rectilinear_lattices_are_already_delaunay(self, case, seed):
        # oracle: the flip rounds, run on the lattice start, flip nothing and
        # keep its triangles; the forced sweep, and the reference on small
        # lattices, give the same triangles
        rows, cols, offset, unit = self._RECTILINEAR[case]
        xy = self._rectilinear(np.random.default_rng(seed), rows, cols, offset, unit)
        if case in ("subnormal", "far"):
            assert not delaunay._filters_sound(xy.ravel())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = self._assert_the_sweeps_triangles(xy)
            tris, _ = delaunay.triangulate(xy)
            pred = delaunay._Predicates(xy)
            tri, settled = delaunay._lattice_start(xy, pred)
            assert settled
            flipped = tri.copy()
            assert delaunay._flip_rounds(flipped, delaunay._twins(flipped, len(xy)), pred) == (1, 0)
        assert stats["rounds"] == stats["flips"] == stats["exact_orient"] == 0
        assert stats["exact_incircle"] == stats["ties"] == 0
        assert np.array_equal(flipped, tri)
        assert set(_triples(tris)) == rotation_canonical(tri.reshape(-1, 3).tolist())
        if len(xy) <= 60:
            pts = [tuple(p) for p in xy.tolist()]
            ref, ref_hull = triangulate_reference(pts)
            assert set(_triples(tris)) == rotation_canonical(ref) and len(tris) == len(ref)
            assert TriMesh(pts, tris).boundary_flags.tolist() == ref_hull

    @pytest.mark.parametrize("case", ["small", "utm", "subnormal", "far"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_a_lattice_one_ulp_off_rectilinear_runs_the_flips(self, case, axis):
        rows, cols, offset, unit = self._RECTILINEAR[case]
        xy = self._rectilinear(np.random.default_rng(7), rows, cols, offset, unit)
        k = 2 * cols + 2  # an interior point
        xy[k, axis] = np.nextafter(xy[k, axis], np.inf)
        pred = delaunay._Predicates(xy)
        assert delaunay._lattice_start(xy, pred)[1] is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = self._assert_the_sweeps_triangles(xy)
        assert stats["rounds"] >= 1

    @settings(max_examples=40, deadline=None)
    @given(
        origin=st.sampled_from([(0.0, 0.0), (-250.0, 1e3), (684000.0, 5400000.0)]),
        width=st.floats(1.0, 1000.0),
        aspect=st.floats(0.25, 4.0),
        steps=st.floats(1.2, 20.0),
        strategy=st.sampled_from(mesh.SEED_STRATEGIES),
        seed=st.integers(0, 2**32),
    )
    def test_random_rectangles_give_the_sweeps_triangles(
        self, origin, width, aspect, steps, strategy, seed
    ):
        height = width * aspect
        rect = Rect(origin[0], origin[1], origin[0] + width, origin[1] + height)
        pts = seed_region(rect, min(width, height) / steps, strategy, seed)
        self._assert_the_sweeps_triangles(pts)

    @pytest.mark.parametrize("exponent", [-1074, 300])
    def test_unsound_filters_decide_the_cells_exactly(self, exponent):
        # a 5 x 4 lattice of multiples of 2**-1074 (subnormals) or of 2**300:
        # products would underflow or overflow. The rectilinear lattice needs
        # no test; with one interior point moved off its row, every
        # orientation test of the cells goes exact
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
        xy = 4.0 * np.column_stack([xs.ravel(), ys.ravel()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = self._assert_the_sweeps_triangles(np.ldexp(xy, exponent))
            assert stats["rounds"] == stats["exact_orient"] == stats["exact_incircle"] == 0
            xy[7, 1] += 1.0
            stats = self._assert_the_sweeps_triangles(np.ldexp(xy, exponent))
        assert stats["exact_orient"] >= 2 * 12 and stats["rounds"] >= 1

    @staticmethod
    def _assert_the_sweep_runs(pts):
        # through delaunay_triangulate, which drops duplicates first
        with _sweeps() as calls:
            m = delaunay_triangulate(pts)
        assert calls == [1]
        ref, ref_hull = triangulate_reference([tuple(p) for p in m.vertices.tolist()])
        assert set(_triples(m.triangles)) == rotation_canonical(ref)
        assert len(m.triangles) == len(ref) and m.boundary_flags.tolist() == ref_hull

    # 7 columns and 5 rows over a 60 x 40 rectangle
    _SEEDS = seed_region(Rect(0.0, 0.0, 60.0, 40.0), 10.0, "jittered", 3)

    def test_a_folded_cell_takes_the_sweep(self):
        pts = self._SEEDS.copy()
        pts[[9, 10]] = pts[[10, 9]]  # two interior seeds of row 1 swapped
        self._assert_the_sweep_runs(pts)

    @pytest.mark.parametrize("seed, axis, step", [(3, 1, 0.5), (13, 0, 0.5), (34, 1, -0.5)],
                             ids=["bottom", "right", "top"])
    def test_a_border_seed_off_the_rectangle_takes_the_sweep(self, seed, axis, step):
        pts = self._SEEDS.copy()
        pts[seed, axis] += step
        self._assert_the_sweep_runs(pts)

    def test_duplicate_seeds_take_the_sweep(self, caplog):
        pts = self._SEEDS.copy()
        pts[16] = pts[15]
        self._assert_the_sweep_runs(pts)
        assert "deduplicated 1 duplicate points (34 unique remain)" in caplog.messages

    @pytest.mark.parametrize("config", _WORKLOAD_CONFIGS.values(), ids=_WORKLOAD_CONFIGS)
    def test_the_mesh_stage_never_takes_the_sweep(self, config, monkeypatch):
        # a silent fallback would only slow the mesh stage down
        def sweep(*args):
            raise AssertionError("the mesh stage took the sweep")

        monkeypatch.setattr(delaunay, "_sweep", sweep)
        build_planar_mesh(PipelineConfig.from_mapping(config))


# magnitudes from 1e-300 to 1e300, and small integers scaled by one power of
# two, so that exact zeros (collinear, cocircular) occur too
_SPANNING = st.builds(
    lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0, allow_nan=False), st.integers(-300, 300)
)
_ON_A_LATTICE = st.builds(
    lambda ks, e: [k * 2.0**e for k in ks],
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    st.integers(-990, 990),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_LATTICE), min_size=4, max_size=4), st.sampled_from(_PLACEMENTS))
def test_public_predicates_match_fractions(nodes, placement):
    # lattice nodes: exact zeros (collinear, cocircular) go through the
    # exact fallback; a step of 0.1 at UTM offsets gives near-zeros
    x0, y0, step = placement
    c = [v for i, j in nodes for v in (x0 + step * i, y0 + step * j)]
    assert delaunay.orient2d(*c[:6]) == orient_fraction(*c[:6])
    assert delaunay.incircle(*c) == incircle_fraction(*c)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPANNING, min_size=8, max_size=8))
# the float filter alone says -1 here: its products underflow
@example([1e59, 0.0, 0.0, 0.0, 0.0, -1e-38, 1.25e-286, 1e-189])
def test_public_predicates_match_fractions_across_magnitudes(c):
    # products of such coordinates can underflow or overflow: the filters
    # must then leave the sign to the exact predicates
    assert delaunay.orient2d(*c[:6]) == orient_fraction(*c[:6])
    assert delaunay.incircle(*c) == incircle_fraction(*c)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_SPANNING, min_size=8, max_size=8), _ON_A_LATTICE))
def test_integer_exact_predicates_match_fractions(c):
    # through the engine's float -> integer step: one power-of-two scale, or
    # as_integer_ratio when the spanning magnitudes overflow that scale
    ints = delaunay._exact_integers(np.array(c))
    scales = {Fraction(i) / Fraction(v) for i, v in zip(ints, c) if v}
    assert len(scales) <= 1 and all(s > 0 for s in scales)
    assert all(i == 0 for i, v in zip(ints, c) if not v)
    assert delaunay._orient_exact(*ints[:6]) == orient_fraction(*c[:6])
    assert delaunay._incircle_exact(*ints) == incircle_fraction(*c)


def _near_cocircular(x0, y0, radius, angles, nudge):
    # four points on a circle at UTM offsets, the last pushed off it by a
    # relative nudge: the float coordinates are off the circle by rounding
    # alone when the nudge is 0
    pts = [(x0 + radius * math.cos(t), y0 + radius * math.sin(t)) for t in angles]
    x, y = pts[3]
    pts[3] = (x0 + (x - x0) * (1.0 + nudge), y0 + (y - y0) * (1.0 + nudge))
    return [v for p in pts for v in p]


_NEAR_COCIRCULAR = st.builds(
    _near_cocircular,
    st.floats(5e5, 7e5),
    st.floats(5.3e6, 5.5e6),
    st.floats(0.01, 1e3),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
    st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9]),
)
_ON_PLACED_LATTICE = st.builds(
    lambda nodes, placement: [
        v for i, j in nodes for v in (placement[0] + placement[2] * i, placement[1] + placement[2] * j)
    ],
    st.lists(st.sampled_from(_LATTICE), min_size=4, max_size=4),
    st.sampled_from(_PLACEMENTS),
)


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(
        st.lists(_SPANNING, min_size=8, max_size=8),
        _ON_A_LATTICE,
        _ON_PLACED_LATTICE,
        _NEAR_COCIRCULAR,
    )
)
def test_lift_bounded_incircle_filter_decides_only_exact_signs(c):
    # the filter runs only where _filters_sound holds; there, each sign it
    # decides is the exact one, and the permanent-bounded filter it replaced
    # decides the same sign (its bound covers that filter's)
    xy = np.array(c).reshape(4, 2)
    if not delaunay._filters_sound(xy.ravel()):
        return
    (sign,) = delaunay._incircle_signs(xy[:, 0], xy[:, 1], *np.arange(4)[:, None]).tolist()
    if sign:
        assert sign == incircle_fraction(*c)
        assert incircle_filter_reference(*c) == sign


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.lists(_SPANNING, min_size=6, max_size=6), min_size=1, max_size=7),
        st.lists(_ON_A_LATTICE.map(lambda c: c[:6]), min_size=1, max_size=7),
    )
)
def test_batched_orient_filter_decides_only_exact_signs(triples):
    # the tie decider's orientation filter on index arrays: with the engine's
    # bound (infinite where the filters are unsound) every sign it gives is
    # the exact one, and an infinite bound gives none, without warnings
    xy = np.array(triples).reshape(-1, 2)
    a, b, c = np.arange(len(xy)).reshape(-1, 3).T
    sound = delaunay._filters_sound(xy.ravel())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signs = delaunay._orient_signs(
            xy[:, 0], xy[:, 1], a, b, c, delaunay._ORIENT_BOUND if sound else math.inf
        )
        blind = delaunay._orient_signs(xy[:, 0], xy[:, 1], a, b, c, math.inf)
    assert not blind.any()
    for sign, t in zip(signs.tolist(), triples):
        assert sign in (0, orient_fraction(*t))


class TestSeedRegion:
    def test_counting_oracle(self):
        pts = seed_region(Rect(0, 0, 300, 400), 100.0, strategy="grid")
        assert len(pts) == 4 * 5

    def test_corners_present(self):
        rect = Rect(377676.932, 5397926.333, 377950.404, 5398332.260)
        for strategy in ("grid", "jittered"):
            pts = seed_region(rect, 50.0, strategy=strategy)
            for corner in rect.corners():
                assert any(np.all(p == corner) for p in pts)

    def test_boundary_exactly_on_edges(self):
        rect = Rect(0, 0, 10, 8)
        pts = seed_region(rect, 2.0, strategy="jittered", seed=3)
        on_edge = (
            (pts[:, 0] == rect.x_min)
            | (pts[:, 0] == rect.x_max)
            | (pts[:, 1] == rect.y_min)
            | (pts[:, 1] == rect.y_max)
        )
        # a 6x5 grid has 18 boundary nodes
        assert on_edge.sum() == 18
        inside = ~on_edge
        assert np.all(pts[inside, 0] > rect.x_min) and np.all(pts[inside, 0] < rect.x_max)

    def test_jitter_deterministic(self):
        rect = Rect(0, 0, 10, 10)
        a = seed_region(rect, 1.0, strategy="jittered", seed=42)
        b = seed_region(rect, 1.0, strategy="jittered", seed=42)
        assert np.array_equal(a, b)
        c = seed_region(rect, 1.0, strategy="jittered", seed=43)
        assert not np.array_equal(a, c)

    def test_jitter_bounded(self):
        rect = Rect(0, 0, 10, 10)
        grid = seed_region(rect, 1.0, strategy="grid")
        jit = seed_region(rect, 1.0, strategy="jittered", seed=1)
        assert np.all(np.abs(jit - grid) <= 0.3 + 1e-12)

    def test_spacing_too_large(self):
        with pytest.raises(ConfigError):
            seed_region(Rect(0, 0, 10, 10), 50.0)

    def test_jitter_is_numpy_default_rng_stream(self):
        # x then y per interior vertex, row by row, scaled by the 1 m step
        rect = Rect(0, 0, 10, 8)
        grid = seed_region(rect, 1.0, strategy="grid")
        interior = (grid[:, 0] > 0) & (grid[:, 0] < 10) & (grid[:, 1] > 0) & (grid[:, 1] < 8)
        offsets = uniform_reference(7, 2 * int(interior.sum()), -0.3, 0.3).reshape(-1, 2)
        grid[interior] += offsets
        assert np.array_equal(seed_region(rect, 1.0, strategy="jittered", seed=7), grid)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be a non-negative integer, got -1$"):
            seed_region(Rect(0, 0, 10, 10), 1.0, strategy="jittered", seed=-1)


class TestPcg64Uniform:
    """mesh._pcg64_uniform against numpy's generator, across the seed's
    32-bit word counts (1, 2, 3 and more than the pool's 4) and the block
    boundaries of its vectorised jump-ahead."""

    LENGTHS = [0, 1, 2, 3, 63, 64, 65, 2 * mesh._PCG_BLOCK + 5]

    @pytest.mark.parametrize(
        "seed", [*range(11), 42, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3, 2**160 + 9]
    )
    def test_bit_identical_to_numpy(self, seed):
        for n in self.LENGTHS:
            got = mesh._pcg64_uniform(seed, n, -0.3, 0.3)
            assert np.array_equal(got, uniform_reference(seed, n, -0.3, 0.3)), n

    def test_other_bounds(self):
        want = uniform_reference(5, 1000, 2.0, 7.5)
        assert np.array_equal(mesh._pcg64_uniform(5, 1000, 2.0, 7.5), want)


def _square_fan(center=(0.2, 0.3)):
    return TriMesh(
        [[0, 0], [1, 0], [1, 1], [0, 1], list(center)],
        [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
    )


def _reverting_mesh():
    # the fifth draw (17 points): moves the per-vertex guard accepts flip a
    # shared triangle together in the first sweep
    rng = np.random.default_rng(0)
    corners = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]
    for _ in range(5):
        pts = np.vstack([corners, rng.uniform(0, 10, (rng.integers(6, 14), 2))])
    assert len(pts) == 17
    return delaunay_triangulate(pts)


class TestLaplacianSmooth:
    def test_single_interior_vertex_to_centroid(self):
        m = laplacian_smooth(_square_fan((0.2, 0.3)), 1)
        assert m.vertices[4].tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_fixed_point(self):
        m0 = _square_fan((0.5, 0.5))
        m1 = laplacian_smooth(m0, 5)
        assert np.array_equal(m0.vertices, m1.vertices)

    def test_zero_iterations_is_identity(self):
        m0 = _square_fan()
        assert laplacian_smooth(m0, 0) is m0

    def test_boundary_bit_exact_no_inversion_quality_improves(self):
        pts = seed_region(Rect(0, 0, 19, 19), 1.0, strategy="jittered", seed=42)
        m0 = delaunay_triangulate(pts)
        m1 = laplacian_smooth(m0, 10)
        # boundary untouched, bit for bit
        bmask = m0.boundary_flags
        assert np.array_equal(m0.vertices[bmask], m1.vertices[bmask])
        # connectivity unchanged
        assert np.array_equal(m0.triangles, m1.triangles)
        # no inversion: TriMesh construction already enforces CCW, but check
        # against the independent per-triangle recomputation too
        a = m1.vertices[m1.triangles[:, 0]]
        b = m1.vertices[m1.triangles[:, 1]]
        c = m1.vertices[m1.triangles[:, 2]]
        area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            c[:, 0] - a[:, 0]
        )
        assert np.all(area2 > 0)
        # mean smallest angle must not decrease
        q0 = triangle_min_angles(m0.vertices, m0.triangles).mean()
        q1 = triangle_min_angles(m1.vertices, m1.triangles).mean()
        assert q1 >= q0

    def test_planar_only(self):
        m = TriMesh([[0, 0, 1], [1, 0, 2], [0, 1, 3]], [[0, 1, 2]])
        with pytest.raises(DataError):
            laplacian_smooth(m, 1)

    def test_moves_that_flip_a_shared_triangle_are_reverted(self, monkeypatch):
        m0 = _reverting_mesh()
        calls = []
        area = mesh._doubled_area
        monkeypatch.setattr(mesh, "_doubled_area", lambda *a: calls.append(1) or area(*a))
        m1 = laplacian_smooth(m0, 1)
        # three corner guards, one check per pass of the revert loop (two
        # when it reverts once) and the new mesh's own check
        assert len(calls) == 6
        m1 = TriMesh(m1.vertices, m1.triangles)  # CCW and valid
        assert np.array_equal(m1.triangles, m0.triangles)
        bmask = m0.boundary_flags
        assert np.array_equal(m1.vertices[bmask], m0.vertices[bmask])
        assert not np.array_equal(m1.vertices, m0.vertices)


class TestMeshQuality:
    def test_equilateral(self):
        m = TriMesh([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], [[0, 1, 2]])
        q = mesh_quality(m)
        assert q.min_angle == pytest.approx(60.0, abs=1e-9)
        assert q.worst_aspect_ratio == pytest.approx(math.sqrt(3), rel=1e-9)

    def test_right_isoceles(self):
        m = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        assert mesh_quality(m).min_angle == pytest.approx(45.0, abs=1e-9)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 50, size=(120, 2))
        m = delaunay_triangulate(pts)
        q = mesh_quality(m)
        ref = triangle_min_angles(m.vertices, m.triangles)
        assert q.min_angle == pytest.approx(ref.min(), abs=1e-9)
        assert q.mean_min_angle == pytest.approx(ref.mean(), abs=1e-9)

    def test_3d_mesh_quality(self):
        m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 1]], [[0, 1, 2]])
        q = mesh_quality(m)
        assert 0 < q.min_angle <= 60.0


class TestSmoothingAndQualityMatchOracles:
    """Smoothing and quality on coordinate columns equal the row oracles, bit
    for bit."""

    @pytest.mark.parametrize(
        "config", [{}, {"seed_strategy": "grid", "spacing": "3"}], ids=["demo", "mesh_grid"]
    )
    def test_config_meshes(self, config):
        config = PipelineConfig.from_mapping(config)
        seeds = seed_region(config.mesh_region, config.spacing, config.seed_strategy, config.seed)
        planar = delaunay_triangulate(seeds)
        smoothed = laplacian_smooth(planar, config.smooth_iters)
        want = laplacian_smooth_reference(planar.vertices, planar.triangles, config.smooth_iters)
        assert np.array_equal(smoothed.vertices, want)
        for m in (planar, smoothed):
            assert astuple(mesh_quality(m)) == mesh_quality_reference(
                m.vertices, m.triangles
            )

    def test_reverting_mesh(self, monkeypatch):
        m0 = _reverting_mesh()
        calls = []
        area = mesh._doubled_area
        monkeypatch.setattr(mesh, "_doubled_area", lambda *a: calls.append(1) or area(*a))
        m1 = laplacian_smooth(m0, 3)
        monkeypatch.undo()
        # three guards and one check a sweep, and the new mesh's check: the
        # revert loop ran when there are more
        assert len(calls) > 3 * 4 + 1
        assert np.array_equal(m1.vertices, laplacian_smooth_reference(m0.vertices, m0.triangles, 3))
        assert astuple(mesh_quality(m1)) == mesh_quality_reference(m1.vertices, m1.triangles)

    def test_3d_mesh(self):
        m = _lifted_grid(lambda x, y: 30.0 * math.sin(x / 40.0) * math.cos(y / 70.0))
        assert astuple(mesh_quality(m)) == mesh_quality_reference(m.vertices, m.triangles)

    def test_degenerate_triangles(self):
        # the second triangle is counter-clockwise, exactly, but its area
        # underflows to 0: it is left out of the aggregates and reported
        m = TriMesh([[2, 0], [3, 0], [2, 1], [0, 0], [1e-200, 0], [0, 1e-200]],
                    [[0, 1, 2], [3, 4, 5]])
        got = astuple(mesh_quality(m))
        assert got == mesh_quality_reference(m.vertices, m.triangles) and got[3] == (1,)


class TestSmoothingAndQualityAtExtremeSpans:
    """Smoothing and quality scale the coordinates by a power of two, so at
    spans where the raw areas underflow or overflow they still test every
    move and measure every triangle."""

    _UNIT = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 2))

    @pytest.mark.parametrize("shift", [-664, 664], ids=["2**-664", "2**664"])
    def test_power_of_two_spans_match_the_unit_span(self, shift):
        # spans near 1e-200 and 1e200, exactly 2**shift times the unit one
        unit = delaunay_triangulate(self._UNIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = delaunay_triangulate(np.ldexp(self._UNIT, shift))
            quality = mesh_quality(m)
            smoothed = laplacian_smooth(m, 3)
        assert np.array_equal(m.triangles, unit.triangles)
        assert quality == mesh_quality(unit) and not quality.degenerate
        want = laplacian_smooth(unit, 3).vertices
        assert np.array_equal(smoothed.vertices, np.ldexp(want, shift))
        assert not np.array_equal(want, unit.vertices)

    @pytest.mark.parametrize("span", [1e-200, 1e200])
    def test_decimal_spans_smooth_and_measure_without_warnings(self, span):
        unit = delaunay_triangulate(self._UNIT)
        unit_smoothed = laplacian_smooth(unit, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = delaunay_triangulate(self._UNIT * span)
            smoothed = laplacian_smooth(m, 3)
            pairs = [(mesh_quality(m), mesh_quality(unit)),
                     (mesh_quality(smoothed), mesh_quality(unit_smoothed))]
        for got, want in pairs:
            assert got.degenerate == () == want.degenerate
            assert astuple(got)[:3] == pytest.approx(astuple(want)[:3], rel=1e-9)
        moved = (smoothed.vertices != m.vertices).any(axis=1)
        assert np.array_equal(moved, (unit_smoothed.vertices != unit.vertices).any(axis=1))

    def test_a_vertex_that_never_moves_keeps_its_bits(self):
        # the boundary vertex at x = 2**-1074 rounds to 0 on the scale of
        # the far corners; it comes back as it went in
        far = 2.0**1000
        m = TriMesh([[-far, -far], [2.0**-1074, -far], [far, -far], [far, far], [-far, far],
                     [1.0, 2.0]],
                    [[0, 1, 5], [1, 2, 5], [2, 3, 5], [3, 4, 5], [4, 0, 5]])
        smoothed = laplacian_smooth(m, 1)
        assert np.array_equal(smoothed.vertices[:5], m.vertices[:5])
        assert not np.array_equal(smoothed.vertices[5], m.vertices[5])


def _lifted_grid(f, half=200.0, spacing=10.0):
    n = int(2 * half / spacing) + 1
    xs = np.linspace(-half, half, n)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    planar = delaunay_triangulate(pts)
    z = np.array([f(x, y) for x, y in planar.vertices])
    return planar.with_vertices(np.column_stack([planar.vertices, z]))


class TestContours:
    def test_linear_field_single_line(self):
        # grid vertices sit exactly on the level, so the 1e-9 nudge applies
        m = _lifted_grid(lambda x, y: x, half=0.5, spacing=0.25)
        polys = extract_contours(m, [0.0])[0]
        pts = np.vstack(polys)
        assert np.allclose(pts[:, 0], 0.0, atol=1e-6)
        ys = np.concatenate([[p[0, 1], p[-1, 1]] for p in polys])
        assert ys.min() == pytest.approx(-0.5) and ys.max() == pytest.approx(0.5)

    def test_constant_field_no_contours(self):
        m = _lifted_grid(lambda x, y: 7.0, half=1.0, spacing=0.5)
        assert extract_contours(m, [3.0]) == [[]]
        assert extract_contours(m, [7.0]) == [[]]  # exact hits nudged away

    def test_empty_levels(self):
        m = _lifted_grid(lambda x, y: x, half=1.0, spacing=0.5)
        assert extract_contours(m, []) == []

    def test_gaussian_ring_radius(self):
        base, amp, sigma = 400.0, 50.0, 60.0
        m = _lifted_grid(
            lambda x, y: base + amp * math.exp(-(x * x + y * y) / (2 * sigma**2))
        )
        level = base + amp / 2.0
        polys = extract_contours(m, [level])[0]
        assert len(polys) == 1
        ring = polys[0]
        # closed loop around the analytic half-maximum circle
        assert np.array_equal(ring[0], ring[-1])
        r_expected = sigma * math.sqrt(2.0 * math.log(2.0))
        radii = np.hypot(ring[:, 0], ring[:, 1])
        edge_len = 10.0 * math.sqrt(2.0)
        assert np.all(np.abs(radii - r_expected) <= edge_len)

    def test_endpoints_interpolate_to_level(self):
        # every polyline point must sit on a mesh edge at exactly the level
        m = _lifted_grid(lambda x, y: 0.01 * x + 0.02 * y + 5.0, half=50.0, spacing=25.0)
        level = 5.3
        polys = extract_contours(m, [level])[0]
        verts = m.vertices
        for poly in polys:
            for px, py in poly:
                # find an edge whose plan segment contains the point
                found = False
                for u, v in m.edges():
                    a, b = verts[u], verts[v]
                    seg = b[:2] - a[:2]
                    L2 = seg @ seg
                    t = ((px - a[0]) * seg[0] + (py - a[1]) * seg[1]) / L2
                    if -1e-9 <= t <= 1 + 1e-9:
                        q = a[:2] + t * seg
                        if abs(q[0] - px) < 1e-9 and abs(q[1] - py) < 1e-9:
                            z = a[2] + t * (b[2] - a[2])
                            if abs(z - level) <= 1e-9 * max(1.0, abs(level)):
                                found = True
                                break
                assert found

    def test_requires_3d(self):
        m = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        with pytest.raises(DataError):
            extract_contours(m, [0.5])


def _assert_same_contours(got, want):
    assert len(got) == len(want)
    for polys, ref in zip(got, want):
        assert len(polys) == len(ref)
        for p, r in zip(polys, ref):
            assert p.shape == r.shape and np.array_equal(p, r)


@pytest.fixture(scope="module")
def demo_lifted():
    """The demo's planar mesh lifted by UK and by IDW, as `compare` does."""
    config = PipelineConfig.from_mapping({})
    samples = prepare_samples(config)
    planar, _, _ = build_planar_mesh(config)
    model, _ = variogram_model(config, samples)
    return {
        method: lift_surface(replace(config, method=method), planar, samples, model)[0]
        for method in ("uk", "idw")
    }


class TestMeshProductsMatchOracles:
    """The edge table's contours and roughness equal the per-triangle walks."""

    @pytest.mark.parametrize("method", ["uk", "idw"])
    def test_demo_contours(self, demo_lifted, method):
        m = demo_lifted[method]
        z = m.vertices[:, 2]
        levels = contour_levels(float(z.min()), float(z.max()), 10)
        got = extract_contours(m, levels)
        _assert_same_contours(got, contours_reference(m, levels))
        assert sum(len(polys) for polys in got) > 0

    @pytest.mark.parametrize("method", ["uk", "idw"])
    def test_demo_roughness(self, demo_lifted, method):
        m = demo_lifted[method]
        assert dihedral_roughness(m) == dihedral_roughness_reference(m)

    def test_vertices_exactly_on_levels(self):
        # the nudge path: a curved lattice surface, binary fractions only,
        # so 12 of its vertices sit exactly on a level
        m = _lifted_grid(lambda x, y: y + x * x / 8, half=2.0, spacing=0.5)
        levels = [-1.0, 0.0, 0.5, 1.5]
        assert np.isin(m.vertices[:, 2], levels).sum() == 12
        got = extract_contours(m, levels)
        _assert_same_contours(got, contours_reference(m, levels))
        assert all(got)
        assert dihedral_roughness(m) == dihedral_roughness_reference(m)

    def test_single_triangle(self):
        m = TriMesh([[0, 0, 0], [1, 0, 1], [0, 1, 2]], [[0, 1, 2]])
        assert dihedral_roughness(m) == dihedral_roughness_reference(m) == 0.0
        _assert_same_contours(extract_contours(m, [0.5, 1.5]), contours_reference(m, [0.5, 1.5]))
