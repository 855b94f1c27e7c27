"""Pipeline tests: config parsing, exporters, end-to-end runs, CLI."""

import contextlib
import hashlib
import io
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmkit.interpolate as interpolate
import dsmkit.pipeline as pipeline
from _oracles import cli_parser_reference, dihedral_roughness_reference
from dsmkit.acquisition import (
    ScanSpec,
    UtmCrs,
    clip_to_region,
    convert_pointset,
    scan_grid,
    serialize_point_file,
    synthetic_terrain,
)
from dsmkit.cli import _COMMANDS, _config_from_args, build_parser, main
from dsmkit.errors import ConfigError, DataError, ParseError
from dsmkit.geodesy import GeoPoint, wgs84_to_utm
from dsmkit.geometry import Rect
from dsmkit.mesh import TriMesh
from dsmkit.pipeline import (
    PipelineConfig,
    compare_methods,
    config_from_sources,
    contour_levels,
    dihedral_roughness,
    export_mesh,
    parse_config_file,
    build_planar_mesh,
    lift_surface,
    prepare_samples,
    read_obj,
    run,
    variogram_model,
)

# fast variant of the default demo for end-to-end tests
FAST = {"spacing": "25", "rows": "12", "cols": "18", "variogram_bins": "10"}


def _fast_config(tmp_path, **extra):
    return PipelineConfig.from_mapping({**FAST, "out": str(tmp_path / "out"), **extra})


def _stage_ran(*_args):
    raise AssertionError("a stage ran before the config was rejected")


# A UTM region read from a point file: the only context in which the x/y
# bounds, zone and hemisphere are read.
_UTM = {"input": "points.txt", "region_crs": "utm", "zone": "32",
        "x_min": "0", "x_max": "300", "y_min": "0", "y_max": "400"}
_EXPLICIT = {"variogram_c0": "0", "variogram_c": "1", "variogram_a": "100"}

# One bad value for every config key other than input and out (those two are
# data errors), with the keys that make the bad value the only fault.
BAD_VALUES = {
    "terrain": ("volcano", {}),
    "terrain_base": ("nan", {}),
    "terrain_amplitude": ("inf", {}),
    "terrain_sigma": ("0", {}),
    "terrain_center_x": ("-inf", {}),
    "terrain_center_y": ("nan", {}),
    "terrain_slope_x": ("inf", {"terrain": "inclined_plane"}),
    "terrain_slope_y": ("nan", {"terrain": "inclined_plane"}),
    "terrain_angle_deg": ("inf", {"terrain": "ridge"}),
    "region_crs": ("ecef", {}),
    "lat_min": ("48.8", {}),
    "lat_max": ("north", {}),
    "lon_min": ("nan", {}),
    "lon_max": ("7.3", {}),
    "x_min": ("300", _UTM),
    "x_max": ("inf", _UTM),
    "y_min": ("low", _UTM),
    "y_max": ("-1", _UTM),
    "zone": ("61", _UTM),
    "hemisphere": ("west", _UTM),
    "rows": ("1", {}),
    "cols": ("0", {}),
    "margin": ("-0.5", {}),
    "spacing": ("0", {}),
    "smooth_iters": ("-1", {}),
    "seed_strategy": ("hex", {}),
    "method": ("krige", {}),
    "variogram": ("cubic", {}),
    "variogram_c0": ("-1", _EXPLICIT),
    "variogram_c": ("inf", _EXPLICIT),
    "variogram_a": ("0", _EXPLICIT),
    "variogram_bins": ("0", {}),
    "variogram_max_lag": ("-5", {}),
    "drift": ("2", {}),
    "neighbors": ("3", {}),
    "power": ("0", {}),
    "seed": ("1.5", {}),
    "format": ("obj,stl", {}),
    "contour_levels": ("-1", {}),
}


class TestConfig:
    def test_region_across_the_equator_meshes_in_one_frame(self):
        # every corner goes into the run's false-northing frame, so the
        # mesh covers 333 m of northing, not 10,000 km
        cfg = PipelineConfig.from_mapping(
            {**FAST, "lat_min": "-0.001", "lat_max": "0.002", "spacing": "20"}
        )
        samples = prepare_samples(cfg)
        assert samples.utm.crs.hemisphere == "north"
        assert 300.0 < cfg.mesh_region.height < 400.0
        assert cfg.mesh_region.y_min < 0.0 < cfg.mesh_region.y_max

    @pytest.mark.parametrize(
        "region, frame",
        [
            ({}, UtmCrs(32, "north")),
            # scans straddling 6 degrees E, the zone 31/32 edge
            ({"lon_min": "5.995", "lon_max": "6.002"}, UtmCrs(31, "north")),
            ({"lon_min": "5.998", "lon_max": "6.005"}, UtmCrs(32, "north")),
            ({"lon_min": "5.998", "lon_max": "6.002"}, UtmCrs(32, "north")),
            # scans across the equator
            ({"lat_min": "-0.001", "lat_max": "0.002"}, UtmCrs(32, "north")),
            ({"lat_min": "-0.0005", "lat_max": "0.0025"}, UtmCrs(32, "north")),
            # scans centred on the equator: a centroid within rounding of 0
            # is on it, so north
            ({"lat_min": "-0.001", "lat_max": "0.001"}, UtmCrs(32, "north")),
            ({"lat_min": "-0.001", "lat_max": "0.001", "rows": "12", "cols": "18"},
             UtmCrs(32, "north")),
            ({"lat_min": "-0.0015", "lat_max": "0.0015"}, UtmCrs(32, "north")),
        ],
        ids=["demo", "6E_west", "6E_east", "6E_centred", "equator", "equator_2",
             "equator_centred", "equator_centred_12x18", "equator_centred_wide"],
    )
    def test_config_frame_is_the_scanned_samples_centroid_frame(self, region, frame):
        # a run takes the region centre's frame; on a scan it is the frame
        # `convert` picks from the clipped samples' centroid
        cfg = PipelineConfig.from_mapping(region)
        clipped = clip_to_region(pipeline.acquire(cfg), cfg.region)
        assert cfg.utm_crs == convert_pointset(clipped, "utm").crs == frame
        assert prepare_samples(cfg).utm.crs == frame

    def test_point_file_across_the_zone_edge_takes_the_region_centre_zone(self, tmp_path):
        # every sample lies west of 6 degrees E (zone 31); the region's
        # centre, 6.001 degrees E, lies in zone 32
        provider = synthetic_terrain("gaussian_hill", GeoPoint(48.7242, 5.998),
                                     base=400.0, amplitude=60.0, sigma=80.0)
        ps = scan_grid(provider, ScanSpec(Rect(5.9965, 48.7224, 5.9995, 48.726), 12, 18))
        src = tmp_path / "points.txt"
        src.write_text(serialize_point_file(ps))
        cfg = _fast_config(tmp_path, input=str(src), lon_min="5.996", lon_max="6.006")
        assert convert_pointset(ps, "utm").crs == UtmCrs(31, "north")
        assert cfg.utm_crs == prepare_samples(cfg).utm.crs == UtmCrs(32, "north")
        report = run(cfg)
        assert report.clipped_count == 12 * 18
        assert (report.zone, report.hemisphere) == (32, "north")

    def test_scan_node_cap(self):
        # config only: nothing is allocated for a rejected scan
        cap = pipeline.MAX_SCAN_NODES
        assert PipelineConfig.from_mapping({"rows": "2", "cols": str(cap // 2)}).cols == cap // 2
        with pytest.raises(ConfigError, match="scan has"):
            PipelineConfig.from_mapping({"rows": "2", "cols": str(cap // 2 + 1)})

    def test_defaults_parse(self):
        cfg = PipelineConfig.from_mapping({})
        assert cfg.method == "uk"
        assert cfg.rows == 50 and cfg.cols == 100
        assert cfg.neighbors == 16
        assert cfg.formats == ("obj", "vtk", "csv")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"spacingg": "5"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"spacing": "five"})

    def test_global_neighbors(self):
        cfg = PipelineConfig.from_mapping({"neighbors": "global"})
        assert cfg.neighbors is None

    def test_explicit_variogram_requires_all_three(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"variogram_c0": "1"})
        cfg = PipelineConfig.from_mapping(
            {"variogram_c0": "1", "variogram_c": "2", "variogram_a": "100"}
        )
        assert cfg.explicit_model.nugget == 1.0

    def test_fewer_than_three_bins_only_without_a_fit(self):
        with pytest.raises(ConfigError, match="variogram_bins must be >= 3, got 2"):
            PipelineConfig.from_mapping({"variogram_bins": "2"})
        cfg = PipelineConfig.from_mapping({**_EXPLICIT, "variogram_bins": "1"})
        assert cfg.variogram_bins == 1

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text("# demo\nspacing = 9\nmethod = idw\n")
        cfg = config_from_sources(path, {"method": "uk"})
        assert cfg.spacing == 9.0
        assert cfg.method == "uk"

    def test_config_file_syntax_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("spacing 9\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/x.cfg")

    def test_utm_region(self):
        cfg = PipelineConfig.from_mapping(
            {
                "input": "points.txt",
                "region_crs": "utm",
                "x_min": "0",
                "x_max": "300",
                "y_min": "0",
                "y_max": "400",
                "zone": "32",
            }
        )
        assert cfg.utm_crs.zone == 32
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"region_crs": "utm", "x_min": "0", "x_max": "1",
                                         "y_min": "0", "y_max": "1"})


class TestExportMesh:
    def _tri(self):
        return TriMesh(
            [[0.0, 0.0, 1.0], [10.0, 0.0, 2.0], [0.0, 10.0, 3.5]], [[0, 1, 2]]
        )

    def test_obj_line_counts(self, tmp_path):
        path = tmp_path / "m.obj"
        export_mesh(self._tri(), "obj", path)
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 3
        assert sum(1 for l in lines if l.startswith("f ")) == 1
        assert lines[-1] == "f 1 2 3"

    def test_obj_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        pts2d = rng.uniform(0, 1000, size=(30, 2))
        from dsmkit.mesh import delaunay_triangulate

        planar = delaunay_triangulate(pts2d)
        z = rng.uniform(100, 500, size=30)
        m = planar.with_vertices(np.column_stack([planar.vertices, z]))
        path = tmp_path / "m.obj"
        export_mesh(m, "obj", path)
        again = read_obj(path)
        assert np.allclose(again.vertices, m.vertices, atol=1e-6)
        assert np.array_equal(again.triangles, m.triangles)

    @pytest.mark.parametrize("bad_line, message", [
        ("v 1.0 2.0", "'v' line needs three numbers"),
        ("v 1.0 x 2.0", "'v' line needs three numbers"),
        ("f 1 2 x", "'f' line needs exactly three vertex indices from 1"),
        ("f 1 2 3 3", "'f' line needs exactly three vertex indices from 1"),
        ("f 0 1 2", "'f' line needs exactly three vertex indices from 1"),
    ], ids=["short-v", "text-v", "text-f", "quad-f", "zero-f"])
    def test_read_obj_names_the_malformed_line(self, tmp_path, bad_line, message):
        path = tmp_path / "m.obj"
        path.write_text(f"v 0 0 1\nv 1 0 2\nv 0 1 3\n\n{bad_line}\nf 1 2 3\n")
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            read_obj(path)
        assert info.value.line == 5

    def test_read_obj_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read mesh file"):
            read_obj(tmp_path / "missing.obj")
        (tmp_path / "dir.obj").mkdir()
        with pytest.raises(DataError, match="cannot read mesh file"):
            read_obj(tmp_path / "dir.obj")

    def test_vtk_structure(self, tmp_path):
        path = tmp_path / "m.vtk"
        export_mesh(self._tri(), "vtk", path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET POLYDATA"
        assert lines[4] == "POINTS 3 double"
        assert lines[8] == "POLYGONS 1 4"
        assert lines[9] == "3 0 1 2"

    def test_empty_mesh_refused(self, tmp_path):
        m = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=int))
        with pytest.raises(DataError):
            export_mesh(m, "obj", tmp_path / "e.obj")

    def test_planar_mesh_refused(self, tmp_path):
        m = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        with pytest.raises(DataError):
            export_mesh(m, "obj", tmp_path / "p.obj")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            export_mesh(self._tri(), "stl", tmp_path / "m.stl")


class TestContourLevels:
    def test_ten_interior_levels(self):
        levels = contour_levels(0.0, 11.0, 10)
        assert len(levels) == 10
        assert levels[0] == pytest.approx(1.0)
        assert levels[-1] == pytest.approx(10.0)

    def test_degenerate_range(self):
        assert contour_levels(5.0, 5.0, 10) == []


# sha256 of the demo `run` artifacts (built-in defaults): a change that
# moves one of them must say why
DEMO_SHA256 = {
    "dsm_uk.obj": "b300ca0363dcdfafc1d2122332b2beea546d468546f9b79b93f0d162873ca254",
    "dsm_uk.vtk": "3e5503c1c8b7cc9f6e073be1a76e38b43f369569f9e54447e0fbb9e1e6c8202e",
    "contours.csv": "dc17296034540eb39c66ac8a81e7ea798e7ac9c67e04c094fc2c3a44ae299cb1",
    "variogram.csv": "da2df9f6d25f0d7eb9074dbb3a9d81b404325dc64e51d575551d89e705cb8172",
    "report.csv": "033d48eab165e99f74a083db4fe55d99027e9d75503876386d1cd4dc7b26fea4",
}

# sha256 of the other subcommands' outputs: (argv, config file text,
# {artifact: digest}); the second is the mesh_grid benchmark config, and
# compare.csv holds the dihedral roughness of both lifts
SUBCOMMAND_SHA256 = [
    (["mesh"], "", {
        "planar_mesh.obj": "848299cb8dcba18700e70ea0b95282ee028c1a8cf7f71925e5e83336359cd5ce",
    }),
    (["mesh"], "seed_strategy = grid\nspacing = 3\n", {
        "planar_mesh.obj": "1db9e9b8f6c83b196f0c2470e6e4d15746741ea28ff7350bcce7ba34baf33af0",
    }),
    (["lift", "--method", "idw"], "", {
        "dsm_idw.obj": "666500771d64c8d26397ab333efa7d42a5643daf6084750008fa7de2a26e4d4a",
        "dsm_idw.vtk": "42d4c916f6ce83be38a7355854a1e0d809e2b416a2b57d6b985a2ac978521e9b",
    }),
    (["compare"], "", {
        "compare.csv": "01cec1c4c88cad60d6b19da88a80978be45f6a54975fc47b6f152935dea964e3",
    }),
]


class TestRun:
    def test_demo_artifacts_keep_their_sha256(self, tmp_path):
        report = run(PipelineConfig.from_mapping({"out": str(tmp_path)}))
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in report.artifacts
        }
        assert digests == DEMO_SHA256

    @pytest.mark.parametrize("argv, config, want", SUBCOMMAND_SHA256)
    def test_subcommand_artifacts_keep_their_sha256(self, tmp_path, argv, config, want):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        assert digests == want

    def test_fast_demo_run(self, tmp_path):
        cfg = _fast_config(tmp_path)
        report = run(cfg)
        assert report.sample_count == 12 * 18
        assert report.clipped_count < report.sample_count
        assert report.zone == 32
        out = tmp_path / "out"
        for name in ("dsm_uk.obj", "dsm_uk.vtk", "contours.csv", "variogram.csv", "report.csv"):
            assert (out / name).exists(), name
        # report counts equal artifact contents
        again = read_obj(out / "dsm_uk.obj")
        assert again.n_vertices == report.mesh_vertices
        assert again.n_triangles == report.mesh_triangles
        # at this coarse sampling kriging may slightly overshoot the analytic
        # bounds; the tight [base, base+amplitude] check runs at full demo
        # density in the acceptance suite
        assert 400.0 - 5.0 <= report.z_min <= report.z_max <= 460.0 + 5.0

    def test_constant_terrain_both_methods(self, tmp_path):
        for method in ("uk", "idw"):
            cfg = _fast_config(
                tmp_path / method,
                terrain="constant",
                terrain_base="460",
                method=method,
                variogram_c0="0.001",
                variogram_c="1",
                variogram_a="100",
            )
            report = run(cfg)
            assert report.z_min == pytest.approx(460.0, abs=1e-9)
            assert report.z_max == pytest.approx(460.0, abs=1e-9)
            m = read_obj(tmp_path / method / "out" / f"dsm_{method}.obj")
            assert np.allclose(m.vertices[:, 2], 460.0, atol=1e-6)

    def test_byte_identical_across_runs(self, tmp_path):
        cfg_a = _fast_config(tmp_path / "a")
        cfg_b = _fast_config(tmp_path / "b")
        run(cfg_a)
        run(cfg_b)
        for name in ("dsm_uk.obj", "dsm_uk.vtk", "contours.csv", "variogram.csv", "report.csv"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b, name

    def test_stage_name_in_errors(self, tmp_path):
        cfg = _fast_config(tmp_path, input="/nonexistent/points.txt")
        with pytest.raises(DataError) as err:
            run(cfg)
        assert "stage 'acquire'" in str(err.value)
        # the prefixed error keeps its type and its fields
        src = tmp_path / "points.txt"
        src.write_text("48.7 7.3 400\n48.7 east 400\n")
        with pytest.raises(ParseError) as err:
            run(_fast_config(tmp_path, input=str(src)))
        assert str(err.value) == "stage 'acquire': non-numeric longitude 'east' (line 2)"
        assert err.value.line == 2

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        import dsmkit.pipeline as pl

        def boom(path, levels, contours):
            raise DataError("simulated contour write failure")

        monkeypatch.setattr(pl, "write_contours_csv", boom)
        cfg = _fast_config(tmp_path)
        with pytest.raises(DataError) as err:
            run(cfg)
        assert "stage 'export'" in str(err.value)
        out = tmp_path / "out"
        assert not (out / "dsm_uk.obj").exists()
        assert not (out / "dsm_uk.vtk").exists()

    def test_failed_write_leaves_old_artifact_and_no_temp(self, tmp_path, monkeypatch):
        real_open = open

        class HalfWriter:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        path = tmp_path / "report.csv"
        path.write_text("old contents\n")
        monkeypatch.setattr(pipeline, "open", HalfWriter, raising=False)
        for target in (path, tmp_path / "new.csv"):
            with pytest.raises(DataError, match="cannot write .*No space left"):
                pipeline._write_text(target, "key,value\n" * 1000)
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_point_file_input(self, tmp_path):
        # run from a file produced by serializing a scan
        from dsmkit.acquisition import ScanSpec, scan_grid, serialize_point_file, synthetic_terrain
        from dsmkit.geometry import Rect

        region = Rect(7.3368, 48.7224, 7.3404, 48.726)
        provider = synthetic_terrain(
            "gaussian_hill",
            GeoPoint(48.7242, 7.3386),
            base=400.0,
            amplitude=60.0,
            sigma=80.0,
        )
        ps = scan_grid(provider, ScanSpec(region.expanded(0.1), 12, 18))
        src = tmp_path / "points.txt"
        src.write_text(serialize_point_file(ps))
        cfg = _fast_config(tmp_path, input=str(src))
        report = run(cfg)
        assert report.sample_count == 12 * 18
        assert report.z_max <= 460.0 + 1e-6

    def test_stage_composability(self, tmp_path):
        # library-level stage calls must reproduce the run() artifact exactly
        cfg = _fast_config(tmp_path)
        report = run(cfg)
        samples = prepare_samples(cfg)
        planar, _, _ = build_planar_mesh(cfg)
        model, _ = variogram_model(cfg, samples)
        lifted, _ = lift_surface(cfg, planar, samples, model)
        exported = read_obj(tmp_path / "out" / "dsm_uk.obj")
        assert np.allclose(exported.vertices, lifted.vertices, atol=1e-6)
        assert np.array_equal(exported.triangles, lifted.triangles)


class TestCompareMethods:
    def test_constant_zero_difference(self, tmp_path):
        cfg = _fast_config(
            tmp_path,
            terrain="constant",
            terrain_base="460",
            variogram_c0="0.001",
            variogram_c="1",
            variogram_a="100",
        )
        cmp = compare_methods(cfg)
        assert cmp.max_abs_difference == pytest.approx(0.0, abs=1e-9)
        assert cmp.roughness_uk_deg == pytest.approx(0.0, abs=1e-6)
        assert cmp.roughness_idw_deg == pytest.approx(0.0, abs=1e-6)

    def test_plane_field_uk_exact_diff_is_idw_error(self, tmp_path):
        # derived oracle: recompute IDW per vertex with the direct formula
        cfg = _fast_config(
            tmp_path,
            terrain="inclined_plane",
            terrain_base="400",
            terrain_slope_x="0.05",
            terrain_slope_y="-0.02",
            neighbors="global",
        )
        cmp = compare_methods(cfg)

        samples = prepare_samples(cfg)
        utm_ps = samples.utm
        planar, _, _ = build_planar_mesh(cfg)
        center = wgs84_to_utm(GeoPoint(48.7242, 7.3386), zone=utm_ps.crs.zone)
        xy = utm_ps.coords()
        z = utm_ps.altitudes()
        expected_diffs = []
        for vx, vy in planar.vertices:
            plane = 400.0 + 0.05 * (vx - center.easting) - 0.02 * (vy - center.northing)
            d = np.hypot(xy[:, 0] - vx, xy[:, 1] - vy)
            if d.min() < 1e-9:
                idw = z[int(np.argmin(d))]
            else:
                w = 1.0 / d**2.0
                idw = float(w @ z / w.sum())
            expected_diffs.append(abs(plane - idw))
        assert cmp.max_abs_difference == pytest.approx(max(expected_diffs), rel=1e-6, abs=1e-9)
        assert cmp.mean_abs_difference == pytest.approx(
            float(np.mean(expected_diffs)), rel=1e-6, abs=1e-9
        )

    def test_gaussian_demo_roughness_reported(self, tmp_path):
        cmp = compare_methods(_fast_config(tmp_path))
        # reported, never asserted as an ordering: both finite and non-negative
        assert cmp.roughness_uk_deg >= 0.0
        assert cmp.roughness_idw_deg >= 0.0
        assert math.isfinite(cmp.roughness_uk_deg)
        assert math.isfinite(cmp.roughness_idw_deg)


class TestDihedralRoughness:
    def test_flat_surface_zero(self):
        m = TriMesh(
            [[0, 0, 5], [1, 0, 5], [1, 1, 5], [0, 1, 5]], [[0, 1, 2], [0, 2, 3]]
        )
        assert dihedral_roughness(m) == pytest.approx(0.0, abs=1e-12)
        assert dihedral_roughness(m) == dihedral_roughness_reference(m)

    def test_fold_angle(self):
        # two triangles folded along the diagonal: known dihedral angle
        m = TriMesh(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1.0]], [[0, 1, 2], [0, 2, 3]]
        )
        n1 = np.array([0.0, 0.0, 1.0])
        v1 = np.array([1.0, 1.0, 0.0])
        v2 = np.array([0.0, 1.0, 1.0])
        n2 = np.cross(v1, v2)
        n2 = n2 / np.linalg.norm(n2)
        expected = math.degrees(math.acos(np.clip(n1 @ n2, -1, 1)))
        assert dihedral_roughness(m) == pytest.approx(expected, abs=1e-9)
        assert dihedral_roughness(m) == dihedral_roughness_reference(m)


@st.composite
def _awkward_point_files(draw):
    """Small WGS-84 point files over the demo rectangle: a lattice of one or
    more rows, with a tight cluster at its first sample, exact duplicates,
    and constant, varied or near-limit altitudes. Returns the file's text."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    lats = [48.7242] if rows == 1 else [48.7224 + 0.0036 * i / (rows - 1) for i in range(rows)]
    lons = [7.3368 + 0.0036 * (j + 0.5) / cols for j in range(cols)]
    pts = [(lat, lon) for lat in lats for lon in lons]
    step = draw(st.sampled_from([1e-12, 1e-9, 1e-7]))  # degrees
    lat0, lon0 = pts[0]
    pts += [(lat0 + step * k, lon0 + step * (k % 2)) for k in range(1, draw(st.integers(1, 4)))]
    base = draw(st.sampled_from([400.0, 9e4, -9e4]))
    amp = draw(st.sampled_from([0.0, 7.0, 1e4 * math.copysign(1.0, -base)]))
    samples = [(lat, lon, base + amp * (7 * i % 13) / 13) for i, (lat, lon) in enumerate(pts)]
    samples += [samples[i % len(samples)] for i in draw(st.lists(st.integers(0, 99), max_size=3))]
    return "".join(f"{lat!r} {lon!r} {z!r}\n" for lat, lon, z in samples)


@settings(max_examples=8, deadline=None)
@given(text=_awkward_point_files())
def test_awkward_point_files_exit_cleanly(text, tmp_path_factory):
    # every run either writes finite elevations or fails with a clean exit
    # code, no traceback, no numpy warning and no partial artifact
    path = tmp_path_factory.mktemp("pts") / "points.txt"
    path.write_text(text)
    for method in ("uk", "idw"):
        for neighbors in ("16", "global"):
            out = path.parent / f"{method}-{neighbors}"
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["run", "--input", str(path), "--method", method,
                             "--neighbors", neighbors, "--spacing", "20", "--out", str(out)])
            err = err.getvalue()
            assert code in (0, 1, 2, 3), err
            assert "Traceback" not in err and "RuntimeWarning" not in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if code:
                assert not out.exists() or list(out.iterdir()) == [], err
            else:
                z = read_obj(out / f"dsm_{method}.obj").vertices[:, 2]
                assert np.all(np.isfinite(z))


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main(
            ["run", "--spacing", "25", "--out", str(tmp_path / "o")]
            + ["--config", self._cfg(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples:" in out
        assert (tmp_path / "o" / "dsm_uk.obj").exists()

    @pytest.mark.parametrize("rows, failed", [(20, 4227), (50, 2629), (100, 149)])
    def test_collinear_scan_rows_abort_the_lift(self, tmp_path, capsys, rows, failed):
        # 400 columns put many vertices' 16 nearest samples on one scan row,
        # a near-collinear neighbourhood whose system is ill-conditioned;
        # exporting those systems' solutions would put z at up to +-5e5 m
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"rows = {rows}\ncols = 400\n")
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith(
            f"error: stage 'lift': kriging failed at {failed} of 4592 vertices (first: "
        )
        assert "ill-conditioned kriging system at target" in err
        # the first failed vertex's condition number, as the SVD measures it
        cond = {20: "5.07e+16", 50: "5.2e+16", 100: "2e+16"}[rows]
        assert f": cond {cond} > 1e+12; drift term 'y'" in err
        assert "Traceback" not in err
        for name in ("dsm_uk.obj", "dsm_uk.vtk", "report.csv"):
            assert not (out / name).exists()

    def _cfg(self, tmp_path, extra=()):
        path = tmp_path / "fast.cfg"
        lines = ["rows = 12", "cols = 18", "variogram_bins = 10", *extra]
        path.write_text("".join(f"{line}\n" for line in lines))
        return str(path)

    def test_scan_subcommand(self, tmp_path):
        code = main(["scan", "--config", self._cfg(tmp_path), "--out", str(tmp_path / "s")])
        assert code == 0
        text = (tmp_path / "s" / "points.txt").read_text()
        assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 12 * 18

    def test_scan_then_convert(self, tmp_path):
        main(["scan", "--config", self._cfg(tmp_path), "--out", str(tmp_path / "s")])
        code = main(
            ["convert", "--input", str(tmp_path / "s" / "points.txt"), "--out", str(tmp_path / "c")]
        )
        assert code == 0
        text = (tmp_path / "c" / "points_utm.txt").read_text()
        assert "zone=32" in text.splitlines()[0]

    def test_mesh_subcommand(self, tmp_path, capsys):
        code = main(
            ["mesh", "--config", self._cfg(tmp_path), "--spacing", "30", "--out", str(tmp_path / "m")]
        )
        assert code == 0
        assert (tmp_path / "m" / "planar_mesh.obj").exists()
        assert "quality" in capsys.readouterr().out

    def test_variogram_subcommand(self, tmp_path, capsys):
        code = main(["variogram", "--config", self._cfg(tmp_path), "--out", str(tmp_path / "v")])
        assert code == 0
        assert (tmp_path / "v" / "variogram.csv").exists()
        assert "spherical model" in capsys.readouterr().out

    def test_lift_subcommand(self, tmp_path):
        code = main(
            ["lift", "--config", self._cfg(tmp_path), "--spacing", "25",
             "--method", "idw", "--out", str(tmp_path / "l")]
        )
        assert code == 0
        assert (tmp_path / "l" / "dsm_idw.obj").exists()
        assert not (tmp_path / "l" / "contours.csv").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        code = main(
            ["compare", "--config", self._cfg(tmp_path), "--spacing", "30",
             "--out", str(tmp_path / "cmp")]
        )
        assert code == 0
        assert (tmp_path / "cmp" / "compare.csv").exists()
        assert "roughness" in capsys.readouterr().out

    def test_exit_code_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_fitted_sill_is_rejected_before_the_lift(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "lift_surface", _stage_ran)
        out = tmp_path / "flat"
        code = main(["run", "--config", self._cfg(tmp_path, ["terrain = constant"]),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: stage 'variogram': the fitted variogram has zero sill")
        assert "method = idw" in err and "explicit model" in err
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("method, code", [("uk", 1), ("idw", 0)])
    def test_explicit_zero_sill_is_rejected_before_any_stage(
        self, tmp_path, capsys, monkeypatch, method, code
    ):
        # kriging with a zero sill has no weights to solve for (it used to
        # lift every vertex and exit 3 on a zero pivot); IDW ignores the model
        if method == "uk":
            monkeypatch.setattr(pipeline.Stage, "__enter__", _stage_ran)
        cfg = self._cfg(tmp_path, ["variogram_c0 = 0", "variogram_c = 0", "variogram_a = 100"])
        out = tmp_path / "o"
        got = main(["run", "--config", cfg, "--spacing", "30", "--method", method,
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert got == code, err
        if code:
            assert err == "error: method uk needs a positive sill: variogram_c0 + variogram_c is 0\n"
            assert not out.exists()

    @pytest.mark.parametrize("method", ["uk", "idw"])
    def test_extreme_altitudes_are_rejected_at_acquire(self, tmp_path, capsys, method):
        # the 100-sample lattice over the demo rectangle with z = 1e300 (i - j):
        # UK used to exit 1 at the variogram and IDW to exit 0 with NaN
        # quality figures and numpy RuntimeWarnings
        path = tmp_path / "extreme.txt"
        path.write_text("".join(
            f"{48.7224 + 0.0036 * i / 9!r} {7.3368 + 0.0036 * j / 9!r} {1e300 * (i - j)!r}\n"
            for i in range(10) for j in range(10)
        ))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--input", str(path), "--method", method, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (
            "error: stage 'acquire': sample 1 (latitude 48.7224, longitude 7.3372): "
            "altitude -1e+300 m is outside [-100000, 100000] m\n"
        )
        assert not out.exists()

    def test_gaussian_fit_fails_every_system_one_factorisation_per_slab(
        self, tmp_path, capsys, monkeypatch
    ):
        # the demo's gaussian fit has nugget 0, so every kriging system is
        # numerically singular and the lift aborts; each slab of its stacks
        # is factored once on the way
        sizes = []
        completes = interpolate._chol_completes
        monkeypatch.setattr(
            interpolate, "_chol_completes",
            lambda K, shift: sizes.append(len(K)) or completes(K, shift),
        )
        out = tmp_path / "o"
        code = main(["run", "--variogram", "gaussian", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert len(sizes) == 114 and sum(sizes) == 4592
        assert err == (
            "error: stage 'lift': kriging failed at 4592 of 4592 vertices (first: "
            "[0, 1, 2, 3, 4]); vertex 0: ill-conditioned kriging system at target "
            "(377676.93424786313, 5397925.722704333): cond 2.18e+16 > 1e+12; "
            "the variogram produced a singular coefficient block\n"
        )
        assert not out.exists() or list(out.iterdir()) == []

    def test_altitude_bound_is_inclusive(self, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("48.7224 7.3368 100000.0\n48.7230 7.3370 -100000.0\n")
        config = PipelineConfig.from_mapping({"input": str(path)})
        assert pipeline.acquire(config).z.tolist() == [1e5, -1e5]
        path.write_text("48.7224 7.3368 100000.0\n48.7230 7.3370 -100000.00000001\n")
        with pytest.raises(DataError, match="^sample 1 .* altitude -100000.00000001 m"):
            pipeline.acquire(config)

    @pytest.mark.parametrize("columns", ["80", "50", "200"])
    def test_help_is_byte_identical_to_per_subcommand_options(self, monkeypatch, capsys, columns):
        # the subcommands share one parent parser of common options; every
        # help text must read as when each subcommand added them itself
        monkeypatch.setenv("COLUMNS", columns)
        helps = {name: text for name, (_, text) in _COMMANDS.items()}
        for argv in [["--help"]] + [[name, "--help"] for name in helps]:
            texts = []
            for parser in (build_parser(), cli_parser_reference(helps)):
                with pytest.raises(SystemExit) as stop:
                    parser.parse_args(argv)
                assert stop.value.code == 0
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1] and texts[0].startswith("usage: dsmkit")

    def test_exit_code_data_error(self, tmp_path, capsys):
        code = main(["run", "--input", "/nonexistent/pts.txt", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--neighbors", "foo"],
            ["--neighbors", "0"],
            ["--neighbors", "-5"],
            ["--neighbors", "3"],
            ["--neighbors", "1", "--drift", "0"],
            ["--method", "idw", "--neighbors", "0"],
            ["--power", "inf"],
            ["--power", "nan"],
            ["--power", "0"],
            ["--power", "-2"],
            ["--method", "idw", "--power", "inf"],
            # typed flags: from_mapping, not argparse, rejects the value
            ["--power", "foo"],
            ["--drift", "5"],
            ["--spacing", "wide"],
            ["--smooth-iters", "1.5"],
            ["--seed", "x"],
            ["--method", "krige"],
            ["--variogram", "cubic"],
            # seeding, smoothing, variogram and contour keys; "key = value"
            # entries go into the config file
            ["seed_strategy = hex"],
            ["--spacing", "0"],
            ["--spacing", "-5"],
            ["--spacing", "inf"],
            ["--spacing", "nan"],
            ["--smooth-iters", "-1"],
            ["variogram_bins = 0"],
            ["contour_levels = -2"],
            # a synthetic scan needs a wgs84 region
            ["region_crs = utm", "zone = 32", "x_min = 0", "x_max = 300",
             "y_min = 0", "y_max = 400"],
            # max_lag / variogram_bins rounds to 0: a bin width below the normal range
            ["variogram_max_lag = 5e-324"],
            # a fitted model needs three bins; before, this ran every stage
            # up to the fit
            ["variogram_bins = 2"],
        ],
    )
    def test_bad_lift_keys_fail_before_any_stage(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr(pipeline.Stage, "__enter__", _stage_ran)
        out = tmp_path / "o"
        cfg = self._cfg(tmp_path, [a for a in args if " = " in a])
        flags = [a for a in args if " = " not in a]
        code = main(["run", "--config", cfg, "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_bad_value_table_covers_every_key(self):
        assert set(BAD_VALUES) == set(pipeline.DEFAULTS) - {"input", "out"}

    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_every_key_has_a_bad_value_rejected_before_any_stage(
        self, tmp_path, capsys, monkeypatch, key
    ):
        bad, context = BAD_VALUES[key]
        PipelineConfig.from_mapping(context)  # the context alone is valid
        monkeypatch.setattr(pipeline.Stage, "__enter__", _stage_ran)
        out = tmp_path / "o"
        lines = [f"{k} = {v}" for k, v in {**context, key: bad}.items()]
        code = main(["run", "--config", self._cfg(tmp_path, lines), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and "Traceback" not in err
        assert "stage" not in err
        assert not out.exists()

    def test_missing_input_and_unusable_out_are_data_errors(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--config", self._cfg(tmp_path), "--input",
                     str(tmp_path / "missing.txt"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: stage 'acquire': input file not found")
        assert "Traceback" not in err and not out.exists()

        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        code = main(["run", "--config", self._cfg(tmp_path), "--spacing", "30",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: stage 'export': cannot create output directory")
        assert "Traceback" not in err and not out.exists()

    def test_failed_lift_export_leaves_no_partial_artifacts(self, tmp_path, capsys):
        out = tmp_path / "l"
        (out / "dsm_uk.vtk").mkdir(parents=True)
        code = main(["lift", "--config", self._cfg(tmp_path), "--spacing", "30",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: stage 'export': cannot write")
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["dsm_uk.vtk"]

    @pytest.mark.parametrize(
        "argv, code, stage",
        [
            (["run", "--input", "missing.txt"], 2, "acquire"),
            (["variogram"], 2, "variogram"),
        ],
    )
    def test_subcommand_errors_name_their_stage(self, tmp_path, capsys, argv, code, stage):
        cfg = self._cfg(tmp_path, ["variogram_max_lag = 0.001"])
        out = tmp_path / "o"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage '{stage}': ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "lines, flags, message",
        [
            ([], ["--spacing", "100000"], "too large"),
            ([], ["--spacing", "0.1"], "mesh vertices"),
            # the region once reached np.meshgrid as a 3.22 TiB seed grid
            (["lon_max = 190"], [], "[-180, 180]"),
            (["lon_min = -181"], [], "[-180, 180]"),
            (["lat_max = 95"], [], "UTM band"),
            (["lat_min = -95"], [], "UTM band"),
            # inside the band, but the scan margin crosses 84
            (["lat_min = 83.5", "lat_max = 83.9", "margin = 0.3"], [], "UTM band"),
            # np.meshgrid would ask for about 596 GiB of scan lattice
            (["rows = 200000", "cols = 200000"], [], "scan has"),
        ],
        ids=[
            "spacing_too_large",
            "vertex_cap",
            "lon_max_190",
            "lon_min_-181",
            "lat_max_95",
            "lat_min_-95",
            "margin_past_band",
            "scan_nodes",
        ],
    )
    def test_region_and_mesh_size_fail_before_any_stage(
        self, tmp_path, capsys, monkeypatch, lines, flags, message
    ):
        monkeypatch.setattr(pipeline.Stage, "__enter__", _stage_ran)
        out = tmp_path / "o"
        code = main(["mesh", "--config", self._cfg(tmp_path, lines), "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and message in err
        assert "stage" not in err and "Traceback" not in err and not out.exists()

    def test_verbose_logs_each_stage_wall_time(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="dsmkit.pipeline")
        code = main(["-v", "mesh", "--config", self._cfg(tmp_path), "--spacing", "30",
                     "--out", str(tmp_path / "m")])
        assert code == 0
        timed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage ")]
        assert [m.split(":")[0] for m in timed] == ["stage mesh", "stage export"]
        assert all(re.fullmatch(r"stage \w+: \d+\.\d{3} s", m) for m in timed)

    def test_mesh_reads_no_input(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="dsmkit.pipeline")
        code = main(["-v", "mesh", "--config", self._cfg(tmp_path), "--spacing", "30",
                     "--input", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "m")])
        assert code == 0
        timed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage ")]
        assert [m.split(":")[0] for m in timed] == ["stage mesh", "stage export"]
        main(["mesh", "--config", self._cfg(tmp_path), "--spacing", "30",
              "--out", str(tmp_path / "s")])
        mesh = (tmp_path / "m" / "planar_mesh.obj").read_bytes()
        assert mesh == (tmp_path / "s" / "planar_mesh.obj").read_bytes()

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("flag, code", [("--config", 1), ("--input", 2)])
    def test_unreadable_config_or_input_is_a_clean_error(
        self, tmp_path, capsys, flag, code, kind
    ):
        path = tmp_path / "unreadable"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"spacing = 30\n\xff\xfe \x80\n")
        out = tmp_path / "o"
        assert main(["run", flag, str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"cannot read {flag[2:]} file" in err
        assert "Traceback" not in err and not out.exists()

    def test_cli_imports_no_private_name(self):
        import ast

        import dsmkit.cli

        tree = ast.parse(open(dsmkit.cli.__file__).read())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("dsmkit"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_zero_contour_levels_is_valid(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--config", self._cfg(tmp_path, ["contour_levels = 0"]),
                     "--spacing", "30", "--out", str(out)])
        assert code == 0
        assert len((out / "contours.csv").read_text().splitlines()) == 1

    def test_typed_flags_reach_the_config(self, tmp_path):
        argv = ["run", "--seed", "3", "--power", "2.5", "--drift", "0", "--spacing", "30"]
        cfg = _config_from_args(build_parser().parse_args(argv))
        assert (cfg.seed, cfg.power, cfg.drift, cfg.spacing) == (3, 2.5, 0, 30.0)
        code = main(
            ["run", "--config", self._cfg(tmp_path), "--method", "idw", "--seed", "3",
             "--power", "2.5", "--spacing", "30", "--out", str(tmp_path / "o")]
        )
        assert code == 0

    def test_compare_unwritable_csv_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        (out / "compare.csv").mkdir(parents=True)
        code = main(
            ["compare", "--config", self._cfg(tmp_path), "--spacing", "30", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot write" in err and "Traceback" not in err

    def test_convert_without_input(self, tmp_path, capsys):
        code = main(["convert", "--out", str(tmp_path / "y")])
        assert code == 1

    def test_module_invocation(self, tmp_path):
        import os
        import subprocess
        import sys

        import dsmkit

        # the child imports the same dsmkit as this process, installed or not
        src = os.path.dirname(os.path.dirname(dsmkit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        result = subprocess.run(
            [sys.executable, "-m", "dsmkit", "run", "--spacing", "30",
             "--config", self._cfg(tmp_path), "--out", str(tmp_path / "sub")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "sub" / "report.csv").exists()
