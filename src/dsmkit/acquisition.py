"""Elevation sample acquisition.

Two sources: whitespace-separated point files (one `lat lon alt` per line,
'#' comments), and a row-major lattice scan of a pluggable elevation
provider that mirrors the screen-grid extraction workflow the point-file
format comes from. Synthetic analytic providers stand in for a live
elevation service.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .geodesy import GeoPoint, UtmPoint, utm_to_wgs84, utm_zone_for, wgs84_to_utm
from .geometry import Rect


@dataclass(frozen=True)
class Wgs84Crs:
    """Geographic WGS-84 coordinate reference."""

    def __repr__(self):
        return "wgs84"


@dataclass(frozen=True)
class UtmCrs:
    """Projected UTM coordinate reference (one zone, one hemisphere)."""

    zone: int
    hemisphere: str

    def __post_init__(self):
        if not (isinstance(self.zone, int) and 1 <= self.zone <= 60):
            raise DataError(f"UTM zone {self.zone!r} outside [1, 60]")
        if self.hemisphere not in ("north", "south"):
            raise DataError(f"hemisphere must be 'north' or 'south', got {self.hemisphere!r}")

    def __repr__(self):
        return f"utm zone={self.zone} hemisphere={self.hemisphere}"


WGS84 = Wgs84Crs()


@dataclass
class PointSet:
    """Ordered elevation samples sharing one CRS."""

    points: list
    crs: Wgs84Crs | UtmCrs = WGS84

    def __post_init__(self):
        want = GeoPoint if isinstance(self.crs, Wgs84Crs) else UtmPoint
        for p in self.points:
            if not isinstance(p, want):
                raise DataError(
                    f"point {p!r} does not match point-set CRS {self.crs!r}"
                )
            if isinstance(p, UtmPoint) and (p.zone, p.hemisphere) != (
                self.crs.zone,
                self.crs.hemisphere,
            ):
                raise DataError(
                    f"point zone {p.zone}{p.hemisphere[0]} differs from set CRS {self.crs!r}"
                )

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def coords(self) -> np.ndarray:
        """Plan-view coordinates, shape (n, 2): (lon, lat) or (easting, northing)."""
        if isinstance(self.crs, Wgs84Crs):
            return np.array([(p.longitude, p.latitude) for p in self.points], dtype=float).reshape(-1, 2)
        return np.array([(p.easting, p.northing) for p in self.points], dtype=float).reshape(-1, 2)

    def altitudes(self) -> np.ndarray:
        return np.array([p.altitude for p in self.points], dtype=float)


@dataclass(frozen=True)
class ScanSpec:
    """Row-major lattice scan: region in WGS-84 degrees (x=lon, y=lat)."""

    region: Rect
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ConfigError(f"scan needs rows >= 2 and cols >= 2, got {self.rows}x{self.cols}")


class ElevationProvider(ABC):
    """Deterministic terrain elevation lookup; must be thread-safe."""

    @abstractmethod
    def elevation_at(self, latitude: float, longitude: float) -> float:
        """Terrain elevation in meters at a geographic position."""


def parse_point_file(text: str) -> PointSet:
    """Parse `latitude longitude altitude` lines into a WGS-84 PointSet.

    Blank lines and lines starting with '#' are skipped. Extra trailing
    fields on a line are ignored.
    """
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(
                f"expected 'latitude longitude altitude', got {line!r}", line=lineno
            )
        values = []
        for name, token in zip(("latitude", "longitude", "altitude"), fields[:3]):
            try:
                v = float(token)
            except ValueError:
                raise ParseError(f"non-numeric {name} {token!r}", line=lineno) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite {name} {token!r}", line=lineno)
            values.append(v)
        try:
            points.append(GeoPoint(*values))
        except DataError as e:
            raise ParseError(str(e), line=lineno) from None
    if not points:
        raise DataError("point file contains no data points")
    return PointSet(points, WGS84)


def serialize_point_file(ps: PointSet) -> str:
    """Inverse of parse_point_file; shortest round-trip float formatting."""
    if not isinstance(ps.crs, Wgs84Crs):
        raise DataError("point files are WGS-84; convert the point set first")
    lines = [f"{p.latitude!r} {p.longitude!r} {p.altitude!r}" for p in ps.points]
    return "\n".join(lines) + "\n"


def scan_grid(provider: ElevationProvider, spec: ScanSpec) -> PointSet:
    """Sample a rows x cols lattice, row-major from the top-left corner.

    Point (i, j) sits at latitude lat_max - i*dlat, longitude
    lon_min + j*dlon with dlat = height/rows, dlon = width/cols, so the
    last row/column stops one step short of the far edges (half-open).
    """
    r = spec.region
    dlat = r.height / spec.rows
    dlon = r.width / spec.cols
    points = []
    for i in range(spec.rows):
        lat = r.y_max - i * dlat
        for j in range(spec.cols):
            lon = r.x_min + j * dlon
            try:
                alt = provider.elevation_at(lat, lon)
            except Exception as e:
                raise DataError(f"elevation provider failed at node ({i}, {j}): {e}") from e
            if not math.isfinite(alt):
                raise DataError(f"elevation provider returned {alt!r} at node ({i}, {j})")
            points.append(GeoPoint(lat, lon, alt))
    return PointSet(points, WGS84)


def clip_to_region(ps: PointSet, rect: Rect, rect_crs=None) -> PointSet:
    """Keep points inside rect (boundary inclusive), preserving order.

    rect is interpreted in the point set's CRS; pass rect_crs to assert it.
    """
    if rect_crs is not None and rect_crs != ps.crs:
        raise DataError(f"clip rectangle CRS {rect_crs!r} does not match point set {ps.crs!r}")
    if isinstance(ps.crs, Wgs84Crs):
        kept = [p for p in ps.points if rect.contains(p.longitude, p.latitude)]
    else:
        kept = [p for p in ps.points if rect.contains(p.easting, p.northing)]
    return PointSet(kept, ps.crs)


class SyntheticTerrain(ElevationProvider):
    """Analytic elevation field evaluated in projected meters.

    Queries are projected into the UTM zone of the configured origin; the
    field is a function of the easting/northing offset from that origin.
    """

    def __init__(self, kind: str, origin: GeoPoint, params: dict):
        self.kind = kind
        self.origin = origin
        self.params = dict(params)
        u = wgs84_to_utm(origin)
        self._zone = u.zone
        self._origin_e = u.easting
        self._origin_n = u.northing

    def _offsets(self, latitude: float, longitude: float) -> tuple[float, float]:
        u = wgs84_to_utm(GeoPoint(latitude, longitude), zone=self._zone)
        return u.easting - self._origin_e, u.northing - self._origin_n

    def elevation_at(self, latitude: float, longitude: float) -> float:
        dx, dy = self._offsets(latitude, longitude)
        return self._evaluate(dx, dy)

    def _evaluate(self, dx: float, dy: float) -> float:
        raise NotImplementedError


class _Constant(SyntheticTerrain):
    def _evaluate(self, dx, dy):
        return self.params["base"]


class _InclinedPlane(SyntheticTerrain):
    def _evaluate(self, dx, dy):
        return self.params["base"] + self.params["slope_x"] * dx + self.params["slope_y"] * dy


class _GaussianHill(SyntheticTerrain):
    def _evaluate(self, dx, dy):
        p = self.params
        rx = dx - p["center_x"]
        ry = dy - p["center_y"]
        return p["base"] + p["amplitude"] * math.exp(-(rx * rx + ry * ry) / (2.0 * p["sigma"] ** 2))


class _Ridge(SyntheticTerrain):
    def _evaluate(self, dx, dy):
        p = self.params
        theta = math.radians(p["angle_deg"])
        # perpendicular distance from the ridge line through the origin
        d = -dx * math.sin(theta) + dy * math.cos(theta)
        return p["base"] + p["amplitude"] * math.exp(-d * d / (2.0 * p["sigma"] ** 2))


# Each terrain kind's provider class and the parameters it takes, with their
# defaults; the pipeline's config checks read the parameter names from here.
TERRAIN_KINDS = {
    "constant": (_Constant, {"base": 0.0}),
    "inclined_plane": (_InclinedPlane, {"base": 0.0, "slope_x": 0.0, "slope_y": 0.0}),
    "gaussian_hill": (
        _GaussianHill,
        {"base": 0.0, "amplitude": 1.0, "sigma": 1.0, "center_x": 0.0, "center_y": 0.0},
    ),
    "ridge": (_Ridge, {"base": 0.0, "amplitude": 1.0, "sigma": 1.0, "angle_deg": 0.0}),
}


def synthetic_terrain(kind: str, origin: GeoPoint, **params) -> ElevationProvider:
    """Build a deterministic analytic provider.

    Kinds and parameters (all meters unless noted):
      constant:       base
      inclined_plane: base, slope_x, slope_y (per meter of easting/northing)
      gaussian_hill:  base, amplitude, sigma, center_x, center_y
      ridge:          base, amplitude, sigma, angle_deg (ridge azimuth)
    """
    try:
        cls, defaults = TERRAIN_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown terrain kind {kind!r}; expected one of {sorted(TERRAIN_KINDS)}"
        ) from None
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {kind} parameters: {sorted(unknown)}")
    merged = {**defaults, **params}
    for name, v in merged.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError(f"terrain parameter {name}={v!r} must be a finite number")
    if "sigma" in merged and merged["sigma"] <= 0:
        raise ConfigError(f"terrain sigma must be positive, got {merged['sigma']}")
    return cls(kind, origin, merged)


def convert_pointset(ps: PointSet, target) -> PointSet:
    """Re-express a point set in another CRS.

    target is "wgs84", "utm" (zone picked from the centroid), or a UtmCrs.
    Converting WGS-84 to UTM forces every point into one zone.
    """
    if len(ps) == 0:
        raise DataError("cannot convert an empty point set")

    if target == "wgs84" or isinstance(target, Wgs84Crs):
        if isinstance(ps.crs, Wgs84Crs):
            return ps
        return PointSet([utm_to_wgs84(p) for p in ps.points], WGS84)

    if target == "utm":
        if isinstance(ps.crs, UtmCrs):
            return ps
        lons = [p.longitude for p in ps.points]
        lats = [p.latitude for p in ps.points]
        c_lon = sum(lons) / len(lons)
        c_lat = sum(lats) / len(lats)
        target = UtmCrs(utm_zone_for(c_lon, c_lat), "north" if c_lat >= 0 else "south")
    elif not isinstance(target, UtmCrs):
        raise ConfigError(f"unknown target CRS {target!r}")

    if ps.crs == target:
        return ps
    geo = ps.points if isinstance(ps.crs, Wgs84Crs) else [utm_to_wgs84(p) for p in ps.points]
    out = []
    for g in geo:
        u = wgs84_to_utm(g, zone=target.zone)
        if u.hemisphere != target.hemisphere:
            # force the target hemisphere's false-northing frame
            shift = 10000000.0 if target.hemisphere == "south" else -10000000.0
            u = UtmPoint(u.easting, u.northing + shift, u.zone, target.hemisphere, u.altitude)
        out.append(u)
    return PointSet(out, target)
