"""Elevation sample acquisition.

Two sources: whitespace-separated point files (one `lat lon alt` per line,
'#' comments), and a row-major lattice scan of a pluggable elevation
provider that mirrors the screen-grid extraction workflow the point-file
format comes from. A synthetic terrain, one row of the TERRAIN_KINDS table
of analytic fields, stands in for a live elevation service.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DsmError, ParseError
from .geodesy import (
    GeoPoint,
    UtmPoint,
    check_utm_frame,
    elementwise,
    normalize_longitudes,
    utm_forward,
    utm_inverse,
    utm_frame,
    wgs84_to_utm,
)
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
        check_utm_frame(self.zone, self.hemisphere)

    def __repr__(self):
        return f"utm zone={self.zone} hemisphere={self.hemisphere}"


WGS84 = Wgs84Crs()


class PointSet:
    """Ordered elevation samples sharing one CRS, stored as columns.

    `x`, `y` and `z` are read-only float arrays: longitude, latitude and
    altitude for WGS-84; easting, northing and altitude for UTM. Build a set
    from GeoPoint/UtmPoint objects with `PointSet(points, crs)` or from
    columns with `PointSet.from_arrays`; iterating makes the point objects
    on demand.

    `projected` is None, or the same samples, row for row, in the UTM frame
    a synthetic terrain projected them into to evaluate its field (see
    scan_grid); clip_to_region keeps its rows with the set's.
    """

    def __init__(self, points=(), crs: Wgs84Crs | UtmCrs = WGS84):
        points = list(points)
        want = GeoPoint if isinstance(crs, Wgs84Crs) else UtmPoint
        for p in points:
            if not isinstance(p, want):
                raise DataError(f"point {p!r} does not match point-set CRS {crs!r}")
            if want is UtmPoint and (p.zone, p.hemisphere) != (crs.zone, crs.hemisphere):
                raise DataError(
                    f"point zone {p.zone}{p.hemisphere[0]} differs from set CRS {crs!r}"
                )
        if want is GeoPoint:
            rows = [(p.longitude, p.latitude, p.altitude) for p in points]
        else:
            rows = [(p.easting, p.northing, p.altitude) for p in points]
        x, y, z = np.array(rows, dtype=float).reshape(-1, 3).T
        self._store(x, y, z, crs)

    @classmethod
    def from_arrays(
        cls, x, y, z, crs: Wgs84Crs | UtmCrs = WGS84, projected: "PointSet | None" = None
    ) -> "PointSet":
        """A point set over copies of the columns x, y, z (see the class)."""
        ps = cls.__new__(cls)
        ps._store(x, y, z, crs)
        if projected is not None and len(projected) != len(ps):
            raise DataError(f"{len(ps)} points, but {len(projected)} projected")
        ps.projected = projected
        return ps

    def _store(self, x, y, z, crs):
        if not isinstance(crs, (Wgs84Crs, UtmCrs)):
            raise DataError(f"unknown point-set CRS {crs!r}")
        xy = np.column_stack([np.ravel(x), np.ravel(y)]).astype(float, copy=False)
        z = np.array(z, dtype=float).ravel()
        if len(xy) != len(z):
            raise DataError(f"column lengths differ: {len(xy)} positions, {len(z)} altitudes")
        finite = np.isfinite(xy).all(axis=1) & np.isfinite(z)
        if not finite.all():
            k = int(np.argmin(finite))
            raise DataError(f"point {k}: non-finite coordinates {xy[k].tolist() + [z[k].item()]}")
        if isinstance(crs, Wgs84Crs):
            lat = xy[:, 1]
            outside = ~((lat >= -90.0) & (lat <= 90.0))
            if outside.any():
                k = int(np.argmax(outside))
                raise DataError(f"point {k}: latitude {lat[k].item()} outside [-90, 90]")
            xy[:, 0] = normalize_longitudes(xy[:, 0])
        xy.setflags(write=False)
        z.setflags(write=False)
        self._xy = xy
        self.x, self.y, self.z = xy[:, 0], xy[:, 1], z
        self.crs = crs
        self.projected = None

    def __len__(self):
        return len(self.z)

    def __iter__(self):
        columns = zip(self.x.tolist(), self.y.tolist(), self.z.tolist())
        if isinstance(self.crs, Wgs84Crs):
            return (GeoPoint(lat, lon, alt) for lon, lat, alt in columns)
        zone, hemisphere = self.crs.zone, self.crs.hemisphere
        return (UtmPoint(e, n, zone, hemisphere, alt) for e, n, alt in columns)

    @property
    def points(self) -> list:
        """The samples as GeoPoint/UtmPoint objects, built on each access."""
        return list(self)

    def __repr__(self):
        return f"PointSet({len(self)} points, {self.crs!r})"

    def take(self, rows) -> "PointSet":
        """The points `rows` (a boolean mask or indices) selects, in order,
        with the same rows of `projected`."""
        projected = None if self.projected is None else self.projected.take(rows)
        return PointSet.from_arrays(self.x[rows], self.y[rows], self.z[rows], self.crs, projected)

    def coords(self) -> np.ndarray:
        """Plan-view coordinates, shape (n, 2): (lon, lat) or (easting, northing)."""
        return self._xy

    def altitudes(self) -> np.ndarray:
        return self.z


# A synthetic scan of more nodes would exhaust memory in scan_grid's lattice;
# the same order as mesh.MAX_SEEDS.
MAX_SCAN_NODES = 5_000_000


@dataclass(frozen=True)
class ScanSpec:
    """Row-major lattice scan: region in WGS-84 degrees (x=lon, y=lat), at
    most MAX_SCAN_NODES nodes."""

    region: Rect
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ConfigError(f"scan needs rows >= 2 and cols >= 2, got {self.rows}x{self.cols}")
        nodes = self.rows * self.cols
        if nodes > MAX_SCAN_NODES:
            raise ConfigError(f"a {self.rows} x {self.cols} scan has {nodes:,} nodes, "
                              f"more than {MAX_SCAN_NODES:,}")


class ElevationProvider(ABC):
    """Deterministic terrain elevation lookup; must be thread-safe."""

    @abstractmethod
    def elevation_at(self, latitude: float, longitude: float) -> float:
        """Terrain elevation in meters at a geographic position."""

    def elevations(self, latitudes: np.ndarray, longitudes: np.ndarray) -> np.ndarray:
        """Elevations at arrays of positions of one shape, in that shape.

        The default asks elevation_at node by node; a provider that can
        evaluate whole arrays overrides it.
        """
        lat = np.asarray(latitudes, dtype=float)
        lon = np.asarray(longitudes, dtype=float)
        out = np.empty(lat.shape)
        for node in np.ndindex(lat.shape):
            try:
                out[node] = self.elevation_at(lat[node].item(), lon[node].item())
            except Exception as e:
                raise DataError(f"elevation provider failed at node {node}: {e}") from e
        return out


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
    columns = zip(ps.y.tolist(), ps.x.tolist(), ps.z.tolist())
    return "\n".join(f"{lat!r} {lon!r} {alt!r}" for lat, lon, alt in columns) + "\n"


def scan_grid(provider: ElevationProvider, spec: ScanSpec) -> PointSet:
    """Sample a rows x cols lattice, row-major from the top-left corner.

    Point (i, j) sits at latitude lat_max - i*dlat, longitude
    lon_min + j*dlon with dlat = height/rows, dlon = width/cols, so the
    last row/column stops one step short of the far edges (half-open).

    A SyntheticTerrain projects each node once, into its frame, to evaluate
    its field; those eastings and northings become the scan's `projected`
    point set.
    """
    r = spec.region
    dlat = r.height / spec.rows
    dlon = r.width / spec.cols
    lat, lon = np.meshgrid(
        r.y_max - np.arange(spec.rows) * dlat, r.x_min + np.arange(spec.cols) * dlon, indexing="ij"
    )
    terrain = isinstance(provider, SyntheticTerrain)
    try:
        if terrain:
            easting, northing, alt = provider.sample(lat, lon)
        else:
            # a provider need not subclass ElevationProvider: elevation_at will do
            elevations = getattr(type(provider), "elevations", ElevationProvider.elevations)
            alt = np.asarray(elevations(provider, lat, lon), dtype=float)
    except DsmError:
        raise
    except Exception as e:
        raise DataError(f"elevation provider failed: {e}") from e
    if alt.shape != lat.shape:
        raise DataError(f"elevation provider returned shape {alt.shape}, expected {lat.shape}")
    bad = ~np.isfinite(alt)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise DataError(f"elevation provider returned {alt[i, j].item()!r} at node ({i}, {j})")
    projected = PointSet.from_arrays(easting, northing, alt, provider.frame) if terrain else None
    return PointSet.from_arrays(lon, lat, alt, WGS84, projected)


def clip_to_region(ps: PointSet, rect: Rect, rect_crs=None) -> PointSet:
    """Keep points inside rect (boundary inclusive), preserving order, and
    the same rows of the set's `projected` point set.

    rect is interpreted in the point set's CRS; pass rect_crs to assert it.
    """
    if rect_crs is not None and rect_crs != ps.crs:
        raise DataError(f"clip rectangle CRS {rect_crs!r} does not match point set {ps.crs!r}")
    x, y = ps.x, ps.y
    keep = (rect.x_min <= x) & (x <= rect.x_max) & (rect.y_min <= y) & (y <= rect.y_max)
    return ps.take(keep)


class SyntheticTerrain(ElevationProvider):
    """Analytic elevation field of one TERRAIN_KINDS kind, in projected meters.

    Queries are projected into `frame`, the UTM frame (zone and hemisphere)
    of the origin, so the field, a function of the easting/northing offset
    from the origin, is continuous across the equator.
    """

    def __init__(self, kind: str, origin: GeoPoint, params: dict):
        self.kind = kind
        self.origin = origin
        self.params = dict(params)
        u = wgs84_to_utm(origin)
        self.frame = UtmCrs(u.zone, u.hemisphere)
        self._origin_e = u.easting
        self._origin_n = u.northing

    def elevation_at(self, latitude: float, longitude: float) -> float:
        return self.elevations(np.array([latitude]), np.array([longitude])).item()

    def elevations(self, latitudes, longitudes) -> np.ndarray:
        return self.sample(latitudes, longitudes)[2]

    def sample(self, latitudes, longitudes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eastings, northings, elevations) at arrays of positions of one
        shape, in that shape: each position is projected once into `frame`,
        and the field is evaluated there."""
        lat = np.asarray(latitudes, dtype=float)
        easting, northing = utm_forward(lat, longitudes, self.frame.zone, self.frame.hemisphere)
        z = self._evaluate(easting - self._origin_e, northing - self._origin_n)
        return easting.reshape(lat.shape), northing.reshape(lat.shape), z.reshape(lat.shape)

    def _evaluate(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        field, _ = TERRAIN_KINDS[self.kind]
        return field(dx, dy, **self.params)


def _constant(dx, dy, base):
    return np.full(dx.shape, float(base))


def _inclined_plane(dx, dy, base, slope_x, slope_y):
    return base + slope_x * dx + slope_y * dy


def _gaussian_hill(dx, dy, base, amplitude, sigma, center_x, center_y):
    rx = dx - center_x
    ry = dy - center_y
    return base + amplitude * elementwise(math.exp, -(rx * rx + ry * ry) / (2.0 * sigma**2))


def _ridge(dx, dy, base, amplitude, sigma, angle_deg):
    theta = math.radians(angle_deg)
    # perpendicular distance from the ridge line through the origin
    d = -dx * math.sin(theta) + dy * math.cos(theta)
    return base + amplitude * elementwise(math.exp, -d * d / (2.0 * sigma**2))


# Each terrain kind's field, a function of the offsets (dx, dy) in meters from
# the origin whose transcendental calls go through `math` (see
# geodesy.elementwise), and the parameters it takes, with their defaults.
TERRAIN_KINDS = {
    "constant": (_constant, {"base": 0.0}),
    "inclined_plane": (_inclined_plane, {"base": 0.0, "slope_x": 0.0, "slope_y": 0.0}),
    "gaussian_hill": (
        _gaussian_hill,
        {"base": 0.0, "amplitude": 1.0, "sigma": 1.0, "center_x": 0.0, "center_y": 0.0},
    ),
    "ridge": (_ridge, {"base": 0.0, "amplitude": 1.0, "sigma": 1.0, "angle_deg": 0.0}),
}

# The largest |center_x| and |center_y|, in meters. The gaussian hill squares
# its distance from the centre, (dx - center_x)**2 + (dy - center_y)**2: with
# the centre and the scan's offsets (dx, dy) from the origin within 1e150 m,
# each square is at most 4e300 and their sum is finite. Those offsets are
# differences of UTM coordinates, below 1e7 m inside a zone.
MAX_TERRAIN_CENTER = 1e150


def terrain_parameters(kind: str, params: dict) -> dict:
    """The parameters a terrain of `kind` runs with: its TERRAIN_KINDS
    defaults, updated by the entries of `params` it takes. Every value of
    `params`, taken or not, must be a finite number, a sigma positive with
    2 sigma**2 (the fields' divisor) a normal float, and a centre within
    MAX_TERRAIN_CENTER; raises ConfigError otherwise, and for an unknown kind."""
    try:
        _, defaults = TERRAIN_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown terrain kind {kind!r}; expected one of {sorted(TERRAIN_KINDS)}"
        ) from None
    for name, v in params.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError(f"terrain parameter {name}={v!r} must be a finite number")
        if name == "sigma" and not (v > 0 and _normal_square(v)):
            raise ConfigError(
                f"terrain sigma must be positive, with 2 sigma**2 a normal float, got {v!r}"
            )
        if name in ("center_x", "center_y") and not abs(v) <= MAX_TERRAIN_CENTER:
            raise ConfigError(
                f"terrain {name} must lie within +-{MAX_TERRAIN_CENTER:g} m, got {v!r}"
            )
    return {**defaults, **{name: v for name, v in params.items() if name in defaults}}


def _normal_square(sigma: float) -> bool:
    try:
        return sys.float_info.min <= 2.0 * sigma**2 < math.inf
    except OverflowError:  # float ** float raises where float * float gives inf
        return False


def synthetic_terrain(kind: str, origin: GeoPoint, **params) -> ElevationProvider:
    """A deterministic analytic provider of a kind (see terrain_parameters).

    Kinds and parameters (all meters unless noted):
      constant:       base
      inclined_plane: base, slope_x, slope_y (per meter of easting/northing)
      gaussian_hill:  base, amplitude, sigma, center_x, center_y
      ridge:          base, amplitude, sigma, angle_deg (ridge azimuth)
    """
    merged = terrain_parameters(kind, params)
    unknown = set(params) - set(merged)
    if unknown:
        raise ConfigError(f"unknown {kind} parameters: {sorted(unknown)}")
    return SyntheticTerrain(kind, origin, merged)


def convert_pointset(ps: PointSet, target) -> PointSet:
    """Re-express a point set in another CRS.

    target is "wgs84", "utm" (the centroid's frame, utm_frame), or a UtmCrs.
    Converting to UTM projects every point, on either side of the equator,
    into the one target frame (zone and hemisphere); the result converts back.
    A set whose `projected` set is in the target frame already has those
    coordinates: that set is the result.
    """
    if len(ps) == 0:
        raise DataError("cannot convert an empty point set")

    if target == "wgs84" or isinstance(target, Wgs84Crs):
        if isinstance(ps.crs, Wgs84Crs):
            return ps
        lat, lon = utm_inverse(ps.x, ps.y, ps.crs.zone, ps.crs.hemisphere)
        return PointSet.from_arrays(lon, lat, ps.z, WGS84)

    if target == "utm":
        if isinstance(ps.crs, UtmCrs):
            return ps
        lon = ps.x.tolist()
        # a set spanning more than 180 degrees of longitude lies across the
        # antimeridian: its centroid is taken with the western longitudes
        # carried past 180
        if max(lon) - min(lon) > 180.0:
            lon = [v + 360.0 if v < 0.0 else v for v in lon]
        # sum() adds left to right; np.sum's pairwise order could move a
        # centroid that sits on a zone edge into the other zone
        c_lon = sum(lon) / len(ps)
        c_lat = sum(ps.y.tolist()) / len(ps)
        # a centroid within the sum's rounding error of 0 is on the equator
        tie = len(ps) * 2.0**-53 * float(np.abs(ps.y).max())
        target = UtmCrs(*utm_frame(c_lon, 0.0 if abs(c_lat) <= tie else c_lat))
    elif not isinstance(target, UtmCrs):
        raise ConfigError(f"unknown target CRS {target!r}")

    if ps.crs == target:
        return ps
    if ps.projected is not None and ps.projected.crs == target:
        return ps.projected
    if isinstance(ps.crs, Wgs84Crs):
        lat, lon = ps.y, ps.x
    else:
        lat, lon = utm_inverse(ps.x, ps.y, ps.crs.zone, ps.crs.hemisphere)
    easting, northing = utm_forward(lat, lon, target.zone, target.hemisphere)
    return PointSet.from_arrays(easting, northing, ps.z, target)
