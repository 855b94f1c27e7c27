"""Input checks across the package: each bad input raises its own error
class with a message that names the fault, before any work is done."""

import numpy as np
import pytest

from dsmkit.acquisition import (
    WGS84,
    ElevationProvider,
    PointSet,
    ScanSpec,
    UtmCrs,
    convert_pointset,
    parse_point_file,
    scan_grid,
    serialize_point_file,
    synthetic_terrain,
)
from dsmkit.cli import main
from dsmkit.delaunay import triangulate
from dsmkit.errors import ConfigError, DataError, ParseError
from dsmkit.geodesy import GeoPoint, UtmPoint, parse_dms, utm_zone_for
from dsmkit.geometry import Rect
from dsmkit.interpolate import (
    IdwConfig,
    KrigingSystem,
    idw_predict,
    lift_mesh,
    uk_solve,
)
from dsmkit.mesh import (
    TriMesh,
    delaunay_triangulate,
    dihedral_roughness,
    laplacian_smooth,
    mesh_quality,
    seed_grid_shape,
    seed_region,
)
from dsmkit.pipeline import read_obj
from dsmkit.variogram import (
    ExperimentalVariogram,
    VariogramModel,
    bin_width,
    empirical_variogram,
    fit_model,
)

SPH = VariogramModel("spherical", 0.0, 1.0, 10.0)
UTM = UtmCrs(32, "north")
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
FIVE = np.array(SQUARE + [[0.4, 0.6]])
ONE_TRIANGLE = TriMesh(SQUARE[:3], [[0, 1, 2]])
UTM_SAMPLES = PointSet.from_arrays(
    [500000.0, 500010.0, 500000.0], [5e6, 5e6, 5e6 + 10.0], [1.0, 2.0, 3.0], UTM
)
SCAN = ScanSpec(Rect(7.0, 48.0, 7.01, 48.01), 2, 3)


class _Provider(ElevationProvider):
    """Elevations from a function of the (rows, cols) latitude grid."""

    def __init__(self, fn):
        self.fn = fn

    def elevation_at(self, latitude, longitude):
        raise AssertionError("scan_grid asks for whole arrays")

    def elevations(self, latitudes, longitudes):
        return self.fn(latitudes)


def _fail(lat):
    raise RuntimeError("service down")


CASES = {
    "pointset_point_of_wrong_type": (
        lambda: PointSet([UtmPoint(500000.0, 5e6, 32, "north")], WGS84),
        DataError, "does not match point-set CRS"),
    "pointset_point_in_another_zone": (
        lambda: PointSet([UtmPoint(500000.0, 5e6, 31, "north")], UTM),
        DataError, "differs from set CRS"),
    "pointset_unknown_crs": (
        lambda: PointSet.from_arrays([1.0], [2.0], [3.0], "wgs84"),
        DataError, "unknown point-set CRS"),
    "point_file_latitude_outside_range": (
        lambda: parse_point_file("48.0 7.0 1.0\n91.0 7.0 1.0\n"),
        ParseError, "line 2"),
    "serialize_utm_point_set": (
        lambda: serialize_point_file(UTM_SAMPLES),
        DataError, "point files are WGS-84"),
    "scan_provider_raises": (
        lambda: scan_grid(_Provider(_fail), SCAN),
        DataError, "elevation provider failed: service down"),
    "scan_provider_wrong_shape": (
        lambda: scan_grid(_Provider(lambda lat: np.zeros(lat.size)), SCAN),
        DataError, "returned shape (6,), expected (2, 3)"),
    "scan_provider_nan": (
        lambda: scan_grid(_Provider(lambda lat: np.where(lat < 48.005, np.nan, 1.0)), SCAN),
        DataError, "returned nan at node (1, 0)"),
    "terrain_parameter_not_finite": (
        lambda: synthetic_terrain("constant", GeoPoint(48.0, 7.0), base=float("inf")),
        ConfigError, "terrain parameter base=inf must be a finite number"),
    "terrain_sigma_not_positive": (
        lambda: synthetic_terrain("gaussian_hill", GeoPoint(48.0, 7.0), sigma=0.0),
        ConfigError, "terrain sigma must be positive"),
    # 2 sigma**2 overflowed (an OverflowError at the scan) or underflowed to
    # 0 (a NaN elevation); the centre's square overflowed to a flat field
    "terrain_sigma_square_overflows": (
        lambda: synthetic_terrain("gaussian_hill", GeoPoint(48.0, 7.0), sigma=1e300),
        ConfigError, "with 2 sigma**2 a normal float, got 1e+300"),
    "terrain_sigma_square_underflows": (
        lambda: synthetic_terrain("ridge", GeoPoint(48.0, 7.0), sigma=1e-300),
        ConfigError, "with 2 sigma**2 a normal float, got 1e-300"),
    "terrain_center_too_far": (
        lambda: synthetic_terrain("gaussian_hill", GeoPoint(48.0, 7.0), center_x=1e300),
        ConfigError, "terrain center_x must lie within +-1e+150 m, got 1e+300"),
    "convert_unknown_target": (
        lambda: convert_pointset(UTM_SAMPLES, "ecef"),
        ConfigError, "unknown target CRS 'ecef'"),
    "utm_zone_of_nan": (
        lambda: utm_zone_for(float("nan"), 0.0), DataError, "non-finite longitude nan"),
    "utm_point_not_finite": (
        lambda: UtmPoint(500000.0, float("nan"), 32, "north"),
        DataError, "non-finite UtmPoint"),
    "dms_empty": (lambda: parse_dms("  "), ParseError, "empty coordinate string"),
    "dms_not_finite": (lambda: parse_dms("inf"), ParseError, "non-finite coordinate"),
    "dms_bad_number": (lambda: parse_dms("N1.2.3°4'5\""), ParseError, "bad degrees '1.2.3'"),
    "dms_trailing_text": (
        lambda: parse_dms("N48°43'20.64\" x"), ParseError, "trailing characters"),
    "kriging_unsupported_drift": (
        lambda: KrigingSystem(FIVE, np.zeros(5), SPH, drift_degree=2),
        ConfigError, "unsupported drift degree 2"),
    "kriging_too_few_samples": (
        lambda: KrigingSystem(FIVE[:3], np.zeros(3), SPH, drift_degree=1),
        DataError, "need at least 4 samples for drift degree 1, got 3"),
    "kriging_too_few_samples_drift_0": (
        lambda: KrigingSystem(FIVE[:1], np.zeros(1), SPH, drift_degree=0),
        DataError, "need at least 2 samples for drift degree 0, got 1"),
    "kriging_neighborhood_too_small": (
        lambda: KrigingSystem(FIVE, np.zeros(5), SPH, drift_degree=1, neighborhood=3),
        ConfigError, "neighborhood 3 too small for drift degree 1"),
    "kriging_zero_sill": (
        lambda: KrigingSystem(FIVE, np.zeros(5), VariogramModel("spherical", 0.0, 0.0, 10.0)),
        DataError, "the variogram has zero sill, so kriging is undefined"),
    "idw_neighborhood_zero": (
        lambda: IdwConfig(neighborhood=0), ConfigError, "neighborhood must be >= 1"),
    "sample_locations_bad_shape": (
        lambda: idw_predict(np.zeros((4, 3)), np.zeros(4), [0.5, 0.5]),
        DataError, "locations must be (n, 2), got (4, 3)"),
    "sample_values_length_differs": (
        lambda: idw_predict(FIVE, np.zeros(4), [0.5, 0.5]),
        DataError, "values length must match locations"),
    "uk_solve_bad_target_shape": (
        lambda: uk_solve(KrigingSystem(FIVE, np.zeros(5), SPH, 1, None), [[0.5, 0.5]]),
        DataError, "target must be a 2D location, got shape (1, 2)"),
    "lift_wgs84_samples": (
        lambda: lift_mesh(ONE_TRIANGLE, PointSet([GeoPoint(48.0, 7.0)], WGS84), IdwConfig()),
        DataError, "lift_mesh needs projected (UTM) samples"),
    "lift_no_samples": (
        lambda: lift_mesh(ONE_TRIANGLE, PointSet([], UTM), IdwConfig()),
        DataError, "no samples to interpolate from"),
    "lift_unknown_method": (
        lambda: lift_mesh(ONE_TRIANGLE, UTM_SAMPLES, "kriging"),
        ConfigError, "unknown lift method 'kriging'"),
    "trimesh_vertices_bad_shape": (
        lambda: TriMesh(np.zeros((3, 4)), [[0, 1, 2]]),
        DataError, "vertices must be (n, 2) or (n, 3), got (3, 4)"),
    "trimesh_vertices_not_finite": (
        lambda: TriMesh([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]], [[0, 1, 2]]),
        DataError, "vertices contain non-finite coordinates"),
    "trimesh_fractional_triangle": (
        lambda: TriMesh(SQUARE[:3], np.array([[0, 1, 2]]) + 0.5),
        DataError, "triangle entries must be whole numbers"),
    "trimesh_triangles_bad_shape": (
        lambda: TriMesh(SQUARE, [[0, 1, 2, 3]]),
        DataError, "triangles must be (m, 3), got (1, 4)"),
    "delaunay_bad_shape": (
        lambda: delaunay_triangulate(np.zeros((4, 3))),
        DataError, "expected (n, 2) points, got shape (4, 3)"),
    "delaunay_not_finite": (
        lambda: delaunay_triangulate(SQUARE[:3] + [[np.inf, 0.5]]),
        DataError, "points contain non-finite coordinates"),
    "triangulate_bad_shape": (
        lambda: triangulate(np.zeros((4, 3))),
        DataError, "expected (n, 2) points, got shape (4, 3)"),
    "triangulate_flat": (
        lambda: triangulate([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
        DataError, "expected (n, 2) points, got shape (6,)"),
    "triangulate_not_finite": (
        lambda: triangulate(SQUARE[:3] + [[np.nan, 0.5]]),
        DataError, "points contain non-finite coordinates"),
    "seed_grid_spacing_not_positive": (
        lambda: seed_grid_shape(Rect(0, 0, 10, 10), 0.0),
        ConfigError, "spacing must be positive, got 0.0"),
    "seed_region_unknown_strategy": (
        lambda: seed_region(Rect(0, 0, 10, 10), 1.0, strategy="hex"),
        ConfigError, "unknown seeding strategy 'hex'"),
    # the seed was truncated to int (1.5 drew seed 1's stream), and grid
    # seeding took any seed
    "seed_region_fractional_seed": (
        lambda: seed_region(Rect(0, 0, 10, 10), 5.0, "jittered", 1.5),
        ConfigError, "seed must be a non-negative integer, got 1.5"),
    "seed_region_negative_grid_seed": (
        lambda: seed_region(Rect(0, 0, 10, 10), 5.0, "grid", -1),
        ConfigError, "seed must be a non-negative integer, got -1"),
    "smooth_negative_iterations": (
        lambda: laplacian_smooth(ONE_TRIANGLE, -1),
        ConfigError, "iterations must be >= 0, got -1"),
    "quality_of_no_triangles": (
        lambda: mesh_quality(TriMesh(SQUARE, np.zeros((0, 3), dtype=int))),
        DataError, "mesh has no triangles"),
    "roughness_of_planar_mesh": (
        lambda: dihedral_roughness(ONE_TRIANGLE),
        DataError, "roughness needs a lifted (3D) mesh"),
    "experimental_variogram_unequal_lengths": (
        lambda: ExperimentalVariogram([1.0, 2.0], [0.1], [1, 1], 3.0),
        DataError, "variogram bin arrays must have equal length"),
    "bin_width_bad_max_lag": (
        lambda: bin_width(0.0, 10), ConfigError, "max_lag must be positive, got 0.0"),
    "bin_width_bad_n_bins": (
        lambda: bin_width(10.0, 0), ConfigError, "n_bins must be >= 1, got 0"),
    "variogram_of_one_sample": (
        lambda: empirical_variogram(PointSet.from_arrays([5e5], [5e6], [1.0], UTM), 10.0),
        DataError, "need at least 2 samples, got 1"),
    "fit_unknown_kind": (
        lambda: fit_model(ExperimentalVariogram([1.0, 2.0, 3.0], [1.0] * 3, [1] * 3, 4.0), "cubic"),
        ConfigError, "unknown variogram kind 'cubic'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_its_error(case):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert fragment in str(raised.value)


def test_read_obj_without_mesh_lines(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# a comment\nvn 0 0 1\n")
    with pytest.raises(DataError, match="no mesh data in"):
        read_obj(path)


def test_point_file_outside_the_region_is_a_data_error(tmp_path, capsys):
    # every sample lies north of the default region: clipping keeps none
    points = tmp_path / "far.txt"
    points.write_text("50.0 7.3 100.0\n50.001 7.301 101.0\n")
    out = tmp_path / "o"
    code = main(["run", "--input", str(points), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "no samples inside the target region after clipping" in err
    assert not out.exists()
