"""End-to-end workflow: acquire -> clip -> convert -> variogram -> mesh ->
interpolate -> export, plus a two-method comparison and the mesh/CSV writers.

The workflow is a chain of stage functions (`acquire`/`prepare_samples`,
`variogram_model`, `build_planar_mesh`, `lift_surface`, then the writers),
each called inside a `Stage`, which times it, names it in errors and removes
its partial artifacts. `run`, `compare_methods` and every CLI subcommand
compose these.

Configuration is a flat key = value text file (see DEFAULTS for the full key
set and the bundled demo config for a commented example). Every key is
checked in `PipelineConfig.from_mapping`, so a bad value fails before any
stage runs. A rule of a module that applies the key is that module's check,
which the config calls: the terrain's (`acquisition.terrain_parameters`),
the UTM frame's (`geodesy.utm_frame`), seeding's (`mesh.check_seeding`,
`mesh.seed_grid_shape`), the variogram's (`variogram.check_model_kind`,
`VariogramModel`, `bin_width`) and IDW's (`interpolate.IdwConfig`). Every
artifact a run writes is byte-identical across runs for a fixed config and
seed.

The config also fixes the run's one UTM frame (`utm_crs`) and the rectangle
the mesh covers in it (`mesh_region`), so meshing reads no samples.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .acquisition import (
    PointSet,
    ScanSpec,
    SyntheticTerrain,
    UtmCrs,
    Wgs84Crs,
    clip_to_region,
    convert_pointset,
    parse_point_file,
    scan_grid,
    serialize_point_file,
    terrain_parameters,
)
from .errors import ConfigError, DataError, DsmError, ParseError
from .geodesy import UTM_LAT_BAND, GeoPoint, utm_frame
from .geometry import Rect
from .interpolate import (
    IdwConfig,
    LiftSummary,
    UkConfig,
    check_sample_count,
    least_samples,
    lift_mesh,
)
from .mesh import (
    MeshQuality,
    TriMesh,
    check_seeding,
    delaunay_triangulate,
    dihedral_roughness,
    extract_contours,
    laplacian_smooth,
    mesh_quality,
    seed_grid_shape,
    seed_region,
)
from .variogram import (
    ExperimentalVariogram,
    VariogramModel,
    bin_width,
    check_model_kind,
    empirical_variogram,
    fit_model,
)

logger = logging.getLogger(__name__)

# the altitudes a run accepts, in meters: ten times Earth's relief either
# way, and small enough that every squared difference and every kriging sum
# of them stays far inside the float range
MAX_ALTITUDE = 1e5
# the most variogram bins, contour levels and smoothing sweeps a config may
# ask for: each bin, level and sweep costs memory or a pass over the mesh
# (a sweep of the demo's 4,592 vertices takes about 3.5 ms), so a huge count
# would exhaust memory, or spin, instead of failing
MAX_VARIOGRAM_BINS = 10_000
MAX_CONTOUR_LEVELS = 1_000
MAX_SMOOTH_ITERS = 1_000

# Haut-Barr-sized demo: synthetic gaussian hill over the published corner
# rectangle, 50 x 100 scan, 5 m mesh, kriging with a fitted spherical model.
DEFAULTS = {
    "input": "synthetic",
    "terrain": "gaussian_hill",
    "terrain_base": "400",
    "terrain_amplitude": "60",
    "terrain_sigma": "80",
    "terrain_center_x": "0",
    "terrain_center_y": "0",
    "terrain_slope_x": "0",
    "terrain_slope_y": "0",
    "terrain_angle_deg": "0",
    "region_crs": "wgs84",
    "lat_min": "48.7224",
    "lat_max": "48.726",
    "lon_min": "7.3368",
    "lon_max": "7.3404",
    "x_min": "",
    "x_max": "",
    "y_min": "",
    "y_max": "",
    "zone": "",
    "hemisphere": "north",
    "rows": "50",
    "cols": "100",
    "margin": "0.1",
    "spacing": "5.0",
    "smooth_iters": "3",
    "seed_strategy": "jittered",
    "method": "uk",
    "variogram": "spherical",
    "variogram_c0": "",
    "variogram_c": "",
    "variogram_a": "",
    "variogram_bins": "15",
    "variogram_max_lag": "",
    "drift": "1",
    "neighbors": "16",
    "power": "2.0",
    "seed": "42",
    "out": "out",
    "format": "obj,vtk,csv",
    "contour_levels": "10",
}


@dataclass(frozen=True)
class PipelineConfig:
    input: str
    terrain: str
    terrain_params: dict
    region_crs: str
    region: Rect  # degrees (x=lon, y=lat) or meters, per region_crs
    utm_crs: UtmCrs  # the run's frame: the given zone, or the region centre's
    mesh_region: Rect  # the rectangle the mesh covers, in utm_crs
    rows: int
    cols: int
    margin: float
    spacing: float
    smooth_iters: int
    seed_strategy: str
    method: str
    variogram_kind: str
    explicit_model: VariogramModel | None
    variogram_bins: int
    variogram_max_lag: float
    drift: int
    neighbors: int | None
    power: float
    seed: int
    out_dir: Path
    formats: tuple
    contour_levels: int

    @staticmethod
    def from_mapping(mapping: dict) -> "PipelineConfig":
        unknown = set(mapping) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw = {**DEFAULTS, **{k: str(v) for k, v in mapping.items() if v is not None}}

        def number(key, convert=float):
            try:
                return convert(raw[key])
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {raw[key]!r}") from None

        def at_least(key, least, most=None):
            value = number(key, int)
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
            if most is not None and value > most:
                raise ConfigError(f"{key} must be <= {most:,}, got {value}")
            return value

        region_crs = raw["region_crs"]
        if region_crs == "wgs84":
            region = Rect(
                number("lon_min"), number("lat_min"), number("lon_max"), number("lat_max")
            )
            if not (-180.0 <= region.x_min and region.x_max <= 180.0):
                raise ConfigError(
                    f"longitudes [{region.x_min}, {region.x_max}] must lie in [-180, 180]"
                )
            # the run's one UTM frame, for the samples and the mesh alike
            utm_crs = UtmCrs(*utm_frame(*region.center))
        elif region_crs == "utm":
            if not raw["zone"]:
                raise ConfigError("utm region needs a zone")
            if raw["input"] == "synthetic":
                raise ConfigError("synthetic scanning needs a wgs84 region")
            try:
                utm_crs = UtmCrs(number("zone", int), raw["hemisphere"])
            except DataError as e:
                raise ConfigError(str(e)) from None
            region = Rect(number("x_min"), number("y_min"), number("x_max"), number("y_max"))
        else:
            raise ConfigError(f"region_crs must be wgs84 or utm, got {region_crs!r}")

        # the scan keys: acquisition checks the terrain without building it
        terrain = raw["terrain"]
        terrain_params = {
            k.removeprefix("terrain_"): number(k) for k in DEFAULTS if k.startswith("terrain_")
        }
        terrain_parameters(terrain, terrain_params)
        margin = number("margin")
        if not -0.5 < margin < math.inf:
            raise ConfigError(f"margin must be finite and > -0.5, got {raw['margin']!r}")
        if region_crs == "wgs84":
            # a synthetic scan covers the region plus its margin
            scanned = region.expanded(margin) if raw["input"] == "synthetic" else region
            if scanned.y_min < -UTM_LAT_BAND or scanned.y_max > UTM_LAT_BAND:
                raise ConfigError(
                    f"acquired latitudes [{scanned.y_min:.9g}, {scanned.y_max:.9g}] "
                    f"leave the UTM band [-{UTM_LAT_BAND:g}, {UTM_LAT_BAND:g}]"
                )

        method = raw["method"]
        if method not in ("uk", "idw"):
            raise ConfigError(f"method must be uk or idw, got {method!r}")
        kind = raw["variogram"]
        check_model_kind(kind)

        explicit = None
        explicit_fields = [raw["variogram_c0"], raw["variogram_c"], raw["variogram_a"]]
        if any(explicit_fields):
            if not all(explicit_fields):
                raise ConfigError(
                    "explicit variogram needs all of variogram_c0, variogram_c, variogram_a"
                )
            explicit = VariogramModel(
                kind, number("variogram_c0"), number("variogram_c"), number("variogram_a")
            )
            # a zero sill makes every kriging system singular; IDW ignores it
            if method == "uk" and explicit.sill == 0:
                raise ConfigError(
                    "method uk needs a positive sill: variogram_c0 + variogram_c is 0"
                )

        formats = tuple(f for f in raw["format"].split(",") if f)
        bad = set(formats) - {"obj", "vtk", "csv"}
        if bad:
            raise ConfigError(f"unknown formats: {sorted(bad)}")

        drift = number("drift", int)
        kriged = least_samples(drift)  # a bad degree fails under idw too

        # the lift keys
        neighbors = None if raw["neighbors"] == "global" else number("neighbors", int)
        least = kriged if method == "uk" else 1
        if neighbors is not None and neighbors < least:
            raise ConfigError(
                f"neighbors must be 'global' or at least {least} "
                f"(method {method}, drift {drift}), got {neighbors}"
            )

        # the mesh, variogram and contour keys
        seed_strategy = raw["seed_strategy"]
        seed = number("seed", int)
        check_seeding(seed_strategy, seed)
        spacing = number("spacing")
        mesh_region = utm_extent(region, utm_crs) if region_crs == "wgs84" else region
        seed_grid_shape(mesh_region, spacing)

        rows, cols = number("rows", int), number("cols", int)
        ScanSpec(region, rows, cols)  # checks both counts and the node cap
        # fit_model needs three filled bins, so a fitted model needs three bins
        variogram_bins = at_least("variogram_bins", 1 if explicit else 3, MAX_VARIOGRAM_BINS)
        # blank: half the diagonal of the mesh rectangle
        max_lag = (number("variogram_max_lag") if raw["variogram_max_lag"]
                   else 0.5 * math.hypot(mesh_region.width, mesh_region.height))
        bin_width(max_lag, variogram_bins)

        return PipelineConfig(
            input=raw["input"],
            terrain=terrain,
            terrain_params=terrain_params,
            region_crs=region_crs,
            region=region,
            utm_crs=utm_crs,
            mesh_region=mesh_region,
            rows=rows,
            cols=cols,
            margin=margin,
            spacing=spacing,
            smooth_iters=at_least("smooth_iters", 0, MAX_SMOOTH_ITERS),
            seed_strategy=seed_strategy,
            method=method,
            variogram_kind=kind,
            explicit_model=explicit,
            variogram_bins=variogram_bins,
            variogram_max_lag=max_lag,
            drift=drift,
            neighbors=neighbors,
            power=IdwConfig(power=number("power")).power,
            seed=seed,
            out_dir=Path(raw["out"]),
            formats=formats,
            contour_levels=at_least("contour_levels", 0, MAX_CONTOUR_LEVELS),
        )


def parse_config_file(path) -> dict:
    """Read a flat `key = value` config file ('#' comments, blank lines ok)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from None
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def config_from_sources(config_path=None, overrides=None) -> PipelineConfig:
    """Defaults, then the config file, then explicit overrides."""
    mapping = {}
    if config_path is not None:
        mapping.update(parse_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            mapping[key] = str(value)
    return PipelineConfig.from_mapping(mapping)


@dataclass
class RunReport:
    """What a pipeline run did, with counts matching the written artifacts."""

    sample_count: int
    clipped_count: int
    zone: int
    hemisphere: str
    mesh_vertices: int
    mesh_edges: int
    mesh_triangles: int
    quality_before: MeshQuality
    quality_after: MeshQuality
    method: str
    variogram_model: VariogramModel | None
    z_min: float
    z_max: float
    fallback_count: int
    interpolation_seconds: float
    artifacts: tuple


@dataclass
class MethodComparison:
    """Per-vertex UK vs IDW differences plus a smoothness proxy per method."""

    max_abs_difference: float
    mean_abs_difference: float
    roughness_uk_deg: float
    roughness_idw_deg: float
    n_vertices: int


class Stage:
    """One pipeline stage, run as `with Stage(name) as stage:`.

    Every stage gets the same policy: its wall time is logged at DEBUG and
    kept in `seconds`, a DsmError it raises gets the prefix "stage '<name>': "
    on its message, and the files it recorded in `artifacts` before it
    failed are removed.
    """

    def __init__(self, name: str):
        self.name = name
        self.artifacts = []
        self.seconds = None

    def __enter__(self) -> "Stage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self._start
        logger.debug("stage %s: %.3f s", self.name, self.seconds)
        if isinstance(exc, DsmError):
            for path in self.artifacts:
                with contextlib.suppress(OSError):
                    Path(path).unlink(missing_ok=True)
            # the same exception goes on, so its type and fields are kept
            exc.args = (f"stage '{self.name}': {exc}",)
        return False


@dataclass(frozen=True)
class Samples:
    """What stage 'acquire' hands on: the samples inside the region, in the
    config's UTM frame, and how many samples were acquired."""

    utm: PointSet
    acquired_count: int


def acquire(config: PipelineConfig) -> PointSet:
    """Scan the synthetic terrain over the region plus its margin, or read
    the point file named by `input`; altitudes must lie within
    +-MAX_ALTITUDE."""
    if config.input == "synthetic":
        r = config.region
        lon, lat = r.center  # whose frame is config.utm_crs
        params = terrain_parameters(config.terrain, config.terrain_params)
        provider = SyntheticTerrain(config.terrain, GeoPoint(lat, lon), params)
        extended = r.expanded(config.margin)
        ps = scan_grid(provider, ScanSpec(extended, config.rows, config.cols))
    else:
        path = Path(config.input)
        if not path.exists():
            raise DataError(f"input file not found: {path}")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read input file {path}: {e}") from None
        ps = parse_point_file(text)
    (beyond,) = np.nonzero(np.abs(ps.z) > MAX_ALTITUDE)  # z is finite: PointSet checks
    if len(beyond):
        k = int(beyond[0])
        raise DataError(
            f"sample {k} (latitude {ps.y[k].item()!r}, longitude {ps.x[k].item()!r}): "
            f"altitude {ps.z[k].item()!r} m is outside [-{MAX_ALTITUDE:g}, {MAX_ALTITUDE:g}] m"
        )
    return ps


def prepare_samples(config: PipelineConfig) -> Samples:
    """Acquire, clip to the region (in the region's CRS) and convert to the
    config's UTM frame."""
    acquired = inside = acquire(config)
    if config.region_crs == "utm":
        # a sample beyond the UTM band has no UTM coordinates: no UTM region holds it
        inside = clip_to_region(acquired, Rect(-180.0, -UTM_LAT_BAND, 180.0, UTM_LAT_BAND))
        if len(inside):
            inside = convert_pointset(inside, config.utm_crs)
    inside = clip_to_region(inside, config.region)
    if len(inside) == 0:
        raise DataError("no samples inside the target region after clipping")
    return Samples(convert_pointset(inside, config.utm_crs), len(acquired))


def utm_extent(region: Rect, crs: UtmCrs) -> Rect:
    """The bounding rectangle of a WGS-84 region's corners in the UTM frame
    `crs`: the area the mesh covers."""
    lon, lat = np.array(region.corners()).T
    corners = convert_pointset(PointSet.from_arrays(lon, lat, np.zeros(4)), crs)
    return Rect(float(corners.x.min()), float(corners.y.min()),
                float(corners.x.max()), float(corners.y.max()))


def build_planar_mesh(config: PipelineConfig):
    """Seed the config's mesh rectangle, triangulate and smooth; (mesh,
    quality before, quality after)."""
    seeds = seed_region(config.mesh_region, config.spacing, config.seed_strategy, config.seed)
    planar = delaunay_triangulate(seeds)
    q_before = mesh_quality(planar)
    smoothed = laplacian_smooth(planar, config.smooth_iters)
    q_after = mesh_quality(smoothed)
    return smoothed, q_before, q_after


def variogram_model(config: PipelineConfig, samples: Samples):
    """(model, empirical-or-None): the configured model, or one fitted to
    the experimental variogram out to `variogram_max_lag`. A fitted model of
    zero sill (every pair in range has equal elevations) makes every
    kriging system singular, so it is rejected here, before the lift."""
    if config.explicit_model is not None:
        return config.explicit_model, None
    ev = empirical_variogram(samples.utm, config.variogram_max_lag, config.variogram_bins)
    model = fit_model(ev, config.variogram_kind)
    if model.sill == 0:
        raise DataError(
            "the fitted variogram has zero sill (every sample pair within max_lag has the "
            "same elevation), so kriging is undefined; use method = idw or an explicit "
            "model (variogram_c0, variogram_c, variogram_a)"
        )
    return model, ev


def lift_surface(
    config: PipelineConfig, planar: TriMesh, samples: Samples, model: VariogramModel | None
) -> tuple[TriMesh, LiftSummary]:
    """Lift the planar mesh with the configured method (UK needs `model`)."""
    if config.method == "idw":
        method = IdwConfig(power=config.power, neighborhood=config.neighbors)
    else:
        method = UkConfig(model=model, drift_degree=config.drift, neighborhood=config.neighbors)
    return lift_mesh(planar, samples.utm, method)


def run(config: PipelineConfig) -> RunReport:
    """Execute the full workflow and write the configured artifacts."""
    with Stage("acquire"):
        samples = prepare_samples(config)
        if config.method == "uk":
            check_sample_count(len(samples.utm), config.drift)
    # the variogram reads no mesh: samples it cannot fit fail before meshing
    model, ev = None, None
    if config.method == "uk":
        with Stage("variogram"):
            model, ev = variogram_model(config, samples)
    with Stage("mesh"):
        planar, q_before, q_after = build_planar_mesh(config)
    with Stage("lift") as lift:
        lifted, summary = lift_surface(config, planar, samples, model)
    with Stage("export") as export:
        out = ensure_dir(config.out_dir)
        for fmt in ("obj", "vtk"):
            if fmt in config.formats:
                path = out / f"dsm_{config.method}.{fmt}"
                export_mesh(lifted, fmt, path)
                export.artifacts.append(path)
        if "csv" in config.formats:
            levels = contour_levels(summary.z_min, summary.z_max, config.contour_levels)
            contours = extract_contours(lifted, levels) if levels else []
            path = out / "contours.csv"
            write_contours_csv(path, levels, contours)
            export.artifacts.append(path)
            if ev is not None:
                path = out / "variogram.csv"
                write_variogram_csv(path, ev)
                export.artifacts.append(path)
        report = RunReport(
            sample_count=samples.acquired_count,
            clipped_count=len(samples.utm),
            zone=config.utm_crs.zone,
            hemisphere=config.utm_crs.hemisphere,
            mesh_vertices=lifted.n_vertices,
            mesh_edges=len(lifted.edges()),
            mesh_triangles=lifted.n_triangles,
            quality_before=q_before,
            quality_after=q_after,
            method=config.method,
            variogram_model=model,
            z_min=summary.z_min,
            z_max=summary.z_max,
            fallback_count=len(summary.fallback_vertices),
            interpolation_seconds=lift.seconds,
            artifacts=(),
        )
        if "csv" in config.formats:
            path = out / "report.csv"
            write_report_csv(path, report)
            export.artifacts.append(path)
    report.artifacts = tuple(export.artifacts)
    return report


def compare_methods(config: PipelineConfig) -> MethodComparison:
    """Lift one planar mesh with both methods and compare the surfaces."""
    with Stage("acquire"):
        samples = prepare_samples(config)
        check_sample_count(len(samples.utm), config.drift)
    with Stage("variogram"):
        model, _ = variogram_model(config, samples)
    with Stage("mesh"):
        planar, _, _ = build_planar_mesh(config)
    with Stage("lift"):
        uk_mesh, _ = lift_surface(replace(config, method="uk"), planar, samples, model)
        idw_mesh, _ = lift_surface(replace(config, method="idw"), planar, samples, model)

    diff = np.abs(uk_mesh.vertices[:, 2] - idw_mesh.vertices[:, 2])
    return MethodComparison(
        max_abs_difference=float(diff.max()),
        mean_abs_difference=float(diff.mean()),
        roughness_uk_deg=dihedral_roughness(uk_mesh),
        roughness_idw_deg=dihedral_roughness(idw_mesh),
        n_vertices=planar.n_vertices,
    )


def contour_levels(z_min: float, z_max: float, count: int) -> list:
    """`count` evenly spaced interior levels across (z_min, z_max)."""
    if count < 1 or z_max <= z_min:
        return []
    step = (z_max - z_min) / (count + 1)
    return [z_min + (i + 1) * step for i in range(count)]


def export_mesh(m: TriMesh, fmt: str, path) -> None:
    """Write a lifted mesh as Wavefront OBJ or legacy ASCII VTK PolyData."""
    if not m.is_3d:
        raise DataError("export needs a lifted (3D) mesh; add elevations first")
    if m.n_triangles == 0 or m.n_vertices == 0:
        raise DataError("refusing to export an empty mesh")
    nv, nt = m.n_vertices, m.n_triangles
    # one %-format per block of lines over Python numbers; formatting numpy
    # scalars one by one is several times slower
    coords = tuple(m.vertices.ravel().tolist())
    if fmt == "obj":
        text = ("v %.6f %.6f %.6f\n" * nv) % coords
        text += ("f %d %d %d\n" * nt) % tuple((m.triangles + 1).ravel().tolist())
    elif fmt == "vtk":
        text = (
            "# vtk DataFile Version 3.0\nterrain surface\nASCII\nDATASET POLYDATA\n"
            f"POINTS {nv} double\n"
        )
        text += ("%.6f %.6f %.6f\n" * nv) % coords
        text += f"POLYGONS {nt} {4 * nt}\n"
        text += ("3 %d %d %d\n" * nt) % tuple(m.triangles.ravel().tolist())
    else:
        raise ConfigError(f"unknown mesh format {fmt!r}; expected obj or vtk")
    _write_text(path, text)


def read_obj(path) -> TriMesh:
    """Read back an OBJ written by export_mesh (v/f lines only): a `v` line
    needs three numbers, an `f` line exactly three 1-based vertex indices."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read mesh file {path}: {e}") from None
    vertices = []
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:  # a wrong count fails the unpacking
            if parts[0] == "v":
                x, y, z = (float(p) for p in parts[1:4])
                vertices.append((x, y, z))
            elif parts[0] == "f":
                a, b, c = (int(p.split("/")[0]) - 1 for p in parts[1:])
                if min(a, b, c) < 0:
                    raise ValueError
                faces.append((a, b, c))
        except ValueError:
            need = "three numbers" if parts[0] == "v" else "exactly three vertex indices from 1"
            raise ParseError(f"{parts[0]!r} line needs {need}: {raw!r}", line=lineno) from None
    if not vertices or not faces:
        raise DataError(f"no mesh data in {path}")
    return TriMesh(np.array(vertices), np.array(faces))


def write_contours_csv(path, levels, contours_per_level) -> None:
    parts = ["level,polyline_id,x,y\n"]
    polyline_id = 0
    for level, polylines in zip(levels, contours_per_level):
        for poly in polylines:
            row = f"{level:.6f},{polyline_id},%.6f,%.6f\n"
            parts.append((row * len(poly)) % tuple(np.ravel(poly).tolist()))
            polyline_id += 1
    _write_text(path, "".join(parts))


def write_variogram_csv(path, ev: ExperimentalVariogram) -> None:
    rows = zip(ev.lags.tolist(), ev.gammas.tolist(), ev.pair_counts.tolist())
    text = "".join(f"{lag:.9g},{gamma:.9g},{count}\n" for lag, gamma, count in rows)
    _write_text(path, "lag_center,gamma,pair_count\n" + text)


def write_report_csv(path, report: RunReport) -> None:
    q0 = report.quality_before
    q1 = report.quality_after
    rows = [
        ("sample_count", report.sample_count),
        ("clipped_count", report.clipped_count),
        ("utm_zone", report.zone),
        ("hemisphere", report.hemisphere),
        ("mesh_vertices", report.mesh_vertices),
        ("mesh_edges", report.mesh_edges),
        ("mesh_triangles", report.mesh_triangles),
        ("min_angle_before_deg", f"{q0.min_angle:.9g}"),
        ("mean_min_angle_before_deg", f"{q0.mean_min_angle:.9g}"),
        ("worst_aspect_before", f"{q0.worst_aspect_ratio:.9g}"),
        ("min_angle_after_deg", f"{q1.min_angle:.9g}"),
        ("mean_min_angle_after_deg", f"{q1.mean_min_angle:.9g}"),
        ("worst_aspect_after", f"{q1.worst_aspect_ratio:.9g}"),
        ("method", report.method),
        ("z_min", f"{report.z_min:.9g}"),
        ("z_max", f"{report.z_max:.9g}"),
        ("uk_fallback_vertices", report.fallback_count),
    ]
    if report.variogram_model is not None:
        vm = report.variogram_model
        rows += [
            ("variogram_kind", vm.kind),
            ("variogram_nugget", f"{vm.nugget:.9g}"),
            ("variogram_partial_sill", f"{vm.partial_sill:.9g}"),
            ("variogram_range", f"{vm.range_:.9g}"),
        ]
    # wall-clock timing stays off the artifact so runs are byte-identical
    _write_key_values(path, rows)


def write_compare_csv(path, cmp: MethodComparison) -> None:
    _write_key_values(path, [
        ("n_vertices", cmp.n_vertices),
        ("max_abs_difference", f"{cmp.max_abs_difference:.9g}"),
        ("mean_abs_difference", f"{cmp.mean_abs_difference:.9g}"),
        ("roughness_uk_deg", f"{cmp.roughness_uk_deg:.9g}"),
        ("roughness_idw_deg", f"{cmp.roughness_idw_deg:.9g}"),
    ])


def _write_key_values(path, rows) -> None:
    """Write (key, value) rows as a two-column `key,value` CSV."""
    _write_text(path, "".join(f"{k},{v}\n" for k, v in [("key", "value"), *rows]))


def write_point_file(path, ps: PointSet, header: str | None = None) -> None:
    """Write a point set as text: lat lon alt (wgs84) or easting northing alt."""
    if isinstance(ps.crs, Wgs84Crs):
        body = serialize_point_file(ps)
    else:
        columns = zip(ps.x.tolist(), ps.y.tolist(), ps.z.tolist())
        body = "\n".join(f"{e!r} {n!r} {alt!r}" for e, n, alt in columns) + "\n"
    text = (f"# {header}\n" if header else "") + body
    _write_text(path, text)


def ensure_dir(path) -> Path:
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {p}: {e}") from e
    return p


def _write_text(path, text: str) -> None:
    """Write text to path through a temp file in the same directory and
    os.replace, so a failed write leaves neither a partial artifact nor the
    temp file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise DataError(f"cannot write {path}: {e}") from e
