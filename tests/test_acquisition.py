"""Acquisition tests: point files, scan lattice, clipping, synthetic terrain."""

import math

import numpy as np
import pytest

from _oracles import (
    clip_to_region_reference,
    convert_pointset_reference,
    wgs84_to_utm_reference,
)
from dsmkit.acquisition import (
    MAX_SCAN_NODES,
    WGS84,
    ElevationProvider,
    PointSet,
    ScanSpec,
    UtmCrs,
    clip_to_region,
    convert_pointset,
    parse_point_file,
    scan_grid,
    serialize_point_file,
    synthetic_terrain,
)
from dsmkit.errors import ConfigError, DataError, ParseError
from dsmkit.geodesy import GeoPoint, UtmPoint, parse_dms, utm_to_wgs84
from dsmkit.geometry import Rect


class _FieldProvider(ElevationProvider):
    def __init__(self, fn):
        self.fn = fn

    def elevation_at(self, latitude, longitude):
        return self.fn(latitude, longitude)


class TestParsePointFile:
    def test_single_point(self):
        ps = parse_point_file("48.7224 7.3368 460.0\n")
        assert len(ps) == 1
        p = ps.points[0]
        assert (p.latitude, p.longitude, p.altitude) == (48.7224, 7.3368, 460.0)
        assert ps.crs == WGS84

    def test_comments_and_blanks_skipped(self):
        text = "# comment\n\n48.7 7.3 400\n48.8 7.4 410\n"
        ps = parse_point_file(text)
        assert len(ps) == 2
        assert ps.points[0].altitude == 400.0
        assert ps.points[1].altitude == 410.0

    def test_malformed_field_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_point_file("48.7 7.3 abc")
        assert err.value.line == 1

    def test_malformed_line_number_counts_comments(self):
        with pytest.raises(ParseError) as err:
            parse_point_file("# header\n48.7 7.3 400\nbogus line here\n")
        assert err.value.line == 3

    def test_empty_file_rejected(self):
        with pytest.raises(DataError):
            parse_point_file("# only a comment\n")

    def test_too_few_fields(self):
        with pytest.raises(ParseError):
            parse_point_file("48.7 7.3\n")

    def test_nan_rejected(self):
        with pytest.raises(ParseError):
            parse_point_file("nan 7.3 400\n")

    def test_serialize_round_trip_bit_exact(self):
        pts = [
            GeoPoint(48.7224, 7.3368, 460.0),
            GeoPoint(-12.25, 130.875, 3.5),
            GeoPoint(0.1, -0.2, -15.125),
        ]
        ps = PointSet(pts, WGS84)
        again = parse_point_file(serialize_point_file(ps))
        assert [
            (p.latitude, p.longitude, p.altitude) for p in again.points
        ] == [(p.latitude, p.longitude, p.altitude) for p in pts]


class TestScanGrid:
    REGION = Rect(7.3368, 48.7224, 7.3404, 48.726)

    def test_cardinality_5000(self):
        spec = ScanSpec(self.REGION, rows=50, cols=100)
        ps = scan_grid(_FieldProvider(lambda lat, lon: 1.0), spec)
        assert len(ps) == 5000

    def test_constant_field(self):
        spec = ScanSpec(self.REGION, rows=2, cols=2)
        ps = scan_grid(_FieldProvider(lambda lat, lon: 460.0), spec)
        assert len(ps) == 4
        assert all(p.altitude == 460.0 for p in ps)

    def test_lattice_positions_match_formula(self):
        # derived oracle: z = latitude makes the scan formula observable
        region = Rect(10.0, 50.0, 10.9, 50.6)
        spec = ScanSpec(region, rows=3, cols=3)
        ps = scan_grid(_FieldProvider(lambda lat, lon: lat), spec)
        dlat = (50.6 - 50.0) / 3
        dlon = (10.9 - 10.0) / 3
        assert len(ps) == 9
        for idx, p in enumerate(ps):
            i, j = divmod(idx, 3)
            assert p.latitude == pytest.approx(50.6 - i * dlat, abs=1e-12)
            assert p.longitude == pytest.approx(10.0 + j * dlon, abs=1e-12)
            assert p.altitude == pytest.approx(p.latitude, abs=1e-12)
        # column-constant altitudes decreasing down rows
        rows = [ps.points[k * 3 : (k + 1) * 3] for k in range(3)]
        for row in rows:
            assert len({p.altitude for p in row}) == 1
        assert rows[0][0].altitude > rows[1][0].altitude > rows[2][0].altitude

    def test_half_open_stepping(self):
        region = Rect(0.0, 0.0, 1.0, 1.0)
        ps = scan_grid(_FieldProvider(lambda lat, lon: 0.0), ScanSpec(region, 4, 4))
        lats = sorted({p.latitude for p in ps})
        lons = sorted({p.longitude for p in ps})
        assert lats[0] == pytest.approx(0.25)  # never reaches lat_min
        assert lats[-1] == 1.0
        assert lons[0] == 0.0
        assert lons[-1] == pytest.approx(0.75)  # never reaches lon_max

    def test_provider_failure_identifies_node(self):
        def boom(lat, lon):
            if lat < 50.3:
                raise RuntimeError("offline")
            return 1.0

        with pytest.raises(DataError) as err:
            scan_grid(_FieldProvider(boom), ScanSpec(Rect(10, 50, 11, 50.6), 3, 3))
        assert "(2, 0)" in str(err.value)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            ScanSpec(Rect(0, 0, 1, 1), rows=1, cols=10)

    def test_node_cap_in_the_spec(self):
        # a library call is capped too, before scan_grid builds a lattice
        assert ScanSpec(Rect(0, 0, 1, 1), 2, MAX_SCAN_NODES // 2).cols == MAX_SCAN_NODES // 2
        with pytest.raises(ConfigError, match="200000 x 200000 scan has"):
            ScanSpec(Rect(0, 0, 1, 1), 200000, 200000)


class TestClip:
    def test_inside_kept_outside_dropped(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        ps = PointSet(
            [GeoPoint(0.5, 0.5, 1.0), GeoPoint(0.5, 1.5, 2.0), GeoPoint(-0.1, 0.5, 3.0)],
            WGS84,
        )
        kept = clip_to_region(ps, rect)
        assert [p.altitude for p in kept] == [1.0]

    def test_boundary_inclusive(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        ps = PointSet([GeoPoint(0.0, 0.0, 1.0), GeoPoint(1.0, 1.0, 2.0)], WGS84)
        assert len(clip_to_region(ps, rect)) == 2

    def test_membership_oracle_on_scan(self):
        # brute-force per-point membership over an extended scan
        target = Rect(7.3368, 48.7224, 7.3404, 48.726)
        extended = target.expanded(0.10)
        ps = scan_grid(
            _FieldProvider(lambda lat, lon: 0.0), ScanSpec(extended, rows=50, cols=100)
        )
        kept = clip_to_region(ps, target)
        expected = sum(1 for p in ps if target.contains(p.longitude, p.latitude))
        assert len(kept) == expected
        assert 0 < len(kept) < len(ps)

    def test_idempotent_and_subset(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        ps = PointSet([GeoPoint(x / 10, x / 10, x) for x in range(-5, 15)], WGS84)
        once = clip_to_region(ps, rect)
        twice = clip_to_region(once, rect)
        assert [p.altitude for p in twice] == [p.altitude for p in once]
        kept_alts = {p.altitude for p in once}
        assert kept_alts <= {p.altitude for p in ps}

    def test_crs_mismatch(self):
        ps = PointSet([GeoPoint(0.5, 0.5, 1.0)], WGS84)
        with pytest.raises(DataError):
            clip_to_region(ps, Rect(0, 0, 1, 1), rect_crs=UtmCrs(32, "north"))


class TestSyntheticTerrain:
    ORIGIN = GeoPoint(0.0, 9.0)  # (500000, 0) in zone 32

    def test_constant(self):
        t = synthetic_terrain("constant", self.ORIGIN, base=460.0)
        assert t.elevation_at(48.7, 7.3) == 460.0
        assert t.elevation_at(-10.0, 12.0) == 460.0

    def test_inclined_plane_linear_evaluation(self):
        t = synthetic_terrain("inclined_plane", self.ORIGIN, base=400.0, slope_x=0.1)
        q = utm_to_wgs84(UtmPoint(500100.0, 0.0, 32, "north"))
        assert t.elevation_at(q.latitude, q.longitude) == pytest.approx(410.0, abs=1e-6)

    def test_gaussian_hill_center_value(self):
        t = synthetic_terrain(
            "gaussian_hill", self.ORIGIN, base=400.0, amplitude=60.0, sigma=80.0
        )
        assert t.elevation_at(self.ORIGIN.latitude, self.ORIGIN.longitude) == pytest.approx(
            460.0, abs=1e-9
        )

    def test_gaussian_hill_falloff(self):
        t = synthetic_terrain(
            "gaussian_hill", self.ORIGIN, base=400.0, amplitude=60.0, sigma=80.0
        )
        q = utm_to_wgs84(UtmPoint(500080.0, 0.0, 32, "north"))
        expected = 400.0 + 60.0 * math.exp(-0.5)
        assert t.elevation_at(q.latitude, q.longitude) == pytest.approx(expected, abs=1e-6)

    def test_ridge_peak_along_axis(self):
        t = synthetic_terrain("ridge", self.ORIGIN, base=100.0, amplitude=20.0, sigma=50.0)
        # angle 0: ridge runs along easting; peak wherever dy == 0
        q = utm_to_wgs84(UtmPoint(500500.0, 0.0, 32, "north"))
        assert t.elevation_at(q.latitude, q.longitude) == pytest.approx(120.0, abs=1e-6)

    def test_gaussian_hill_is_symmetric_across_the_equator(self):
        # queries on both sides of the equator go into the origin's frame,
        # so the southern half is not evaluated 10,000 km from the origin
        t = synthetic_terrain(
            "gaussian_hill", self.ORIGIN, base=400.0, amplitude=60.0, sigma=80.0
        )
        north = t.elevation_at(1e-4, 9.0)
        assert north == t.elevation_at(-1e-4, 9.0)
        assert north == pytest.approx(459.43, abs=0.01)

    def test_inclined_plane_is_continuous_across_the_equator(self):
        # the origin lies south of the equator: its frame is southern
        t = synthetic_terrain("inclined_plane", GeoPoint(-1e-4, 9.0), base=400.0, slope_y=0.01)
        lat = np.linspace(-1e-4, 1e-4, 21)
        z = t.elevations(lat, np.full(lat.shape, 9.0))
        step = np.diff(z)
        assert np.all((0.011 < step) & (step < 0.0111))
        _, n_origin = wgs84_to_utm_reference(-1e-4, 9.0, 32, "south")
        _, n_north = wgs84_to_utm_reference(1e-4, 9.0, 32, "south")
        assert z[-1] == pytest.approx(400.0 + 0.01 * (n_north - n_origin), abs=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synthetic_terrain("volcano", self.ORIGIN)

    def test_unknown_param(self):
        with pytest.raises(ConfigError):
            synthetic_terrain("constant", self.ORIGIN, slope_x=1.0)

    def test_deterministic(self):
        t = synthetic_terrain("gaussian_hill", self.ORIGIN, base=1.0, amplitude=2.0, sigma=3.0)
        assert t.elevation_at(0.001, 9.001) == t.elevation_at(0.001, 9.001)


class TestConvertPointSet:
    def test_haut_barr_corners_to_utm(self):
        corners = [
            ("N48°43'20.64\"", "E7°20'12.48\"", 377676.932, 5397932.106),
            ("N48°43'20.64\"", "E7°20'25.44\"", 377941.691, 5397926.333),
            ("N48°43'33.6\"", "E7°20'25.44\"", 377950.404, 5398326.487),
            ("N48°43'33.6\"", "E7°20'12.48\"", 377685.664, 5398332.260),
        ]
        ps = PointSet(
            [GeoPoint(parse_dms(a), parse_dms(b), 0.0) for a, b, _, _ in corners], WGS84
        )
        out = convert_pointset(ps, "utm")
        assert isinstance(out.crs, UtmCrs) and out.crs.zone == 32
        for p, (_, _, e_ref, n_ref) in zip(out.points, corners):
            assert abs(p.easting - e_ref) <= 0.5
            assert abs(p.northing - n_ref) <= 0.7  # published northings ~0.61 m off

    def test_utm_to_utm_identity(self):
        crs = UtmCrs(32, "north")
        ps = PointSet([UtmPoint(500000.0, 5000000.0, 32, "north", 10.0)], crs)
        assert convert_pointset(ps, "utm") is ps
        assert convert_pointset(ps, crs) is ps

    def test_wgs84_to_wgs84_identity(self):
        ps = PointSet([GeoPoint(48.7, 7.33, 1.0)], WGS84)
        assert convert_pointset(ps, "wgs84") is ps
        assert convert_pointset(ps, WGS84) is ps

    def test_utm_to_another_utm_frame(self):
        # the same as the round trip through WGS-84, one point at a time
        lat, lon = (a.ravel() for a in np.meshgrid([47.9, 48.0, 48.1], [5.8, 5.95, 6.05, 6.2]))
        ps = PointSet.from_arrays(lon, lat, np.arange(lat.size, dtype=float), WGS84)
        in32 = convert_pointset(ps, UtmCrs(32, "north"))
        target = UtmCrs(31, "north")
        got = convert_pointset(in32, target)
        want = convert_pointset_reference(convert_pointset_reference(in32, None), target)
        assert got.crs == target
        for a, b in zip(_columns(got), _columns(want)):
            assert np.array_equal(a, b)

    def test_a_scan_is_projected_into_any_frame_but_its_terrains(self):
        # a synthetic scan carries its terrain frame's coordinates: converting
        # it to that frame returns them; any other frame gets the scan's own
        # longitudes and latitudes projected
        terrain = synthetic_terrain(
            "gaussian_hill", GeoPoint(48.0, 6.1), base=400.0, amplitude=60.0, sigma=80.0
        )
        scan = scan_grid(terrain, ScanSpec(Rect(5.9, 47.95, 6.1, 48.05), 4, 6))
        frame = scan.projected.crs
        assert frame == UtmCrs(32, "north")
        assert convert_pointset(scan, frame) is scan.projected
        plain = PointSet.from_arrays(scan.x, scan.y, scan.z, WGS84)
        for target in (UtmCrs(31, "north"), UtmCrs(32, "south")):
            got = convert_pointset(scan, target)
            assert got.crs == target
            for a, b in zip(_columns(got), _columns(convert_pointset(plain, target))):
                assert np.array_equal(a, b)

    def test_round_trip_identity(self):
        ps = PointSet(
            [GeoPoint(48.7 + 0.001 * k, 7.33 + 0.001 * k, float(k)) for k in range(20)],
            WGS84,
        )
        back = convert_pointset(convert_pointset(ps, "utm"), "wgs84")
        for a, b in zip(ps.points, back.points):
            assert abs(a.latitude - b.latitude) <= 1e-6
            assert abs(a.longitude - b.longitude) <= 1e-6
            assert a.altitude == b.altitude

    def test_single_zone_forced(self):
        # straddles the zone 31/32 boundary at 6 degrees; all output in one zone
        ps = PointSet([GeoPoint(48.0, 5.9, 0.0), GeoPoint(48.0, 6.1, 0.0)], WGS84)
        out = convert_pointset(ps, "utm")
        zones = {p.zone for p in out.points}
        assert len(zones) == 1

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            convert_pointset(PointSet([], WGS84), "utm")

    @pytest.mark.parametrize("target", [UtmCrs(32, "north"), UtmCrs(32, "south")])
    def test_forced_frame_round_trips_across_the_equator(self, target):
        # half the points lie across the equator from the frame's hemisphere
        lat = np.array([0.001, -0.001, 0.3, -0.3, 2.0, -2.0])
        lon = np.array([9.0, 9.001, 8.9, 9.2, 8.7, 9.3])
        ps = PointSet.from_arrays(lon, lat, np.arange(6.0), WGS84)
        forced = convert_pointset(ps, target)
        assert forced.crs == target
        back = convert_pointset(forced, "wgs84")
        assert np.abs(back.y - lat).max() <= 1e-12
        assert np.abs(back.x - lon).max() <= 1e-12
        assert np.array_equal(back.z, ps.z)

    def test_coords_arrays(self):
        ps = PointSet([GeoPoint(1.0, 2.0, 3.0)], WGS84)
        assert np.allclose(ps.coords(), [[2.0, 1.0]])
        assert np.allclose(ps.altitudes(), [3.0])


def _columns(ps):
    return ps.x, ps.y, ps.z


class TestColumnarPointSet:
    REGION = Rect(7.3368, 48.7224, 7.3404, 48.726)

    def _scan(self):
        origin = GeoPoint(48.7242, 7.3386)
        hill = synthetic_terrain("gaussian_hill", origin, base=400.0, amplitude=60.0, sigma=80.0)
        return scan_grid(hill, ScanSpec(self.REGION.expanded(0.1), rows=50, cols=100))

    def test_columns_are_stored_read_only_arrays(self):
        ps = self._scan()
        assert ps.coords() is ps.coords() and ps.altitudes() is ps.z
        assert np.shares_memory(ps.coords(), ps.x) and np.shares_memory(ps.coords(), ps.y)
        for column in (ps.x, ps.y, ps.z, ps.coords()):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_from_arrays_validates_whole_columns(self):
        with pytest.raises(DataError, match="point 2: latitude 91.5 outside"):
            PointSet.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 91.5], [0.0, 0.0, 0.0], WGS84)
        with pytest.raises(DataError, match="point 1: non-finite"):
            PointSet.from_arrays([0.0, 1.0], [0.0, 1.0], [0.0, float("inf")], WGS84)
        with pytest.raises(DataError, match="lengths differ"):
            PointSet.from_arrays([0.0, 1.0], [0.0, 1.0], [0.0], WGS84)
        ps = PointSet.from_arrays([185.0, -180.0, 7.5], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], WGS84)
        assert ps.x.tolist() == [-175.0, -180.0, 7.5]

    def test_iteration_builds_points_on_demand(self):
        crs = UtmCrs(32, "south")
        ps = PointSet.from_arrays([500000.0, 500001.5], [10.0, 20.0], [1.0, 2.0], crs)
        assert list(ps) == [
            UtmPoint(500000.0, 10.0, 32, "south", 1.0),
            UtmPoint(500001.5, 20.0, 32, "south", 2.0),
        ]

    def test_scan_matches_scalar_evaluation(self):
        # the hill evaluated point by point through the scalar series
        ps = self._scan()
        e0, n0 = wgs84_to_utm_reference(48.7242, 7.3386, 32, "north")
        expected = []
        for p in ps:
            e, n = wgs84_to_utm_reference(p.latitude, p.longitude, 32, "north")
            dx, dy = e - e0, n - n0
            expected.append(400.0 + 60.0 * math.exp(-(dx * dx + dy * dy) / (2.0 * 80.0**2)))
        assert ps.z.tolist() == expected
        hill = synthetic_terrain(
            "gaussian_hill", GeoPoint(48.7242, 7.3386), base=400.0, amplitude=60.0, sigma=80.0
        )
        assert hill.elevation_at(ps.y[7], ps.x[7]) == expected[7]

    def test_default_elevations_loops_over_elevation_at(self):
        provider = _FieldProvider(lambda lat, lon: lat * 1000.0 + lon)
        lat = np.array([[50.0, 50.5], [51.0, 51.5]])
        lon = np.array([[10.0, 10.25], [10.5, 10.75]])
        out = provider.elevations(lat, lon)
        assert out.shape == (2, 2)
        assert out.tolist() == [[50010.0, 50510.25], [51010.5, 51510.75]]

    def test_clip_matches_point_by_point_oracle(self):
        ps = self._scan()
        kept = clip_to_region(ps, self.REGION)
        ref = clip_to_region_reference(ps, self.REGION)
        assert 0 < len(kept) < len(ps)
        for a, b in zip(_columns(kept), _columns(ref)):
            assert np.array_equal(a, b)

    def test_convert_matches_point_by_point_oracle(self):
        ps = clip_to_region(self._scan(), self.REGION)
        utm = convert_pointset(ps, "utm")
        assert utm.crs == UtmCrs(32, "north")
        for a, b in zip(_columns(utm), _columns(convert_pointset_reference(ps, utm.crs))):
            assert np.array_equal(a, b)
        back = convert_pointset(utm, "wgs84")
        for a, b in zip(_columns(back), _columns(convert_pointset_reference(utm, None))):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("target", [UtmCrs(31, "north"), UtmCrs(31, "south")])
    def test_convert_across_equator_into_a_forced_frame(self, target):
        lat, lon = (a.ravel() for a in np.meshgrid(np.linspace(-0.5, 0.5, 9), [5.5, 6.0, 6.5]))
        ps = PointSet.from_arrays(lon, lat, np.arange(lat.size, dtype=float), WGS84)
        out = convert_pointset(ps, target)
        for a, b in zip(_columns(out), _columns(convert_pointset_reference(ps, target))):
            assert np.array_equal(a, b)

    def test_point_file_round_trip_byte_for_byte(self):
        ps = self._scan()
        text = serialize_point_file(ps)
        # numpy 2 reprs a scalar as np.float64(...): format Python floats
        rows = zip(ps.y.tolist(), ps.x.tolist(), ps.z.tolist())
        assert text == "".join(f"{lat!r} {lon!r} {alt!r}\n" for lat, lon, alt in rows)
        again = parse_point_file(text)
        assert serialize_point_file(again) == text
        for a, b in zip(_columns(again), _columns(ps)):
            assert np.array_equal(a, b)
