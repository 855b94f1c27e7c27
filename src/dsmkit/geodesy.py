"""WGS-84 geographic <-> UTM projected coordinate conversion.

Forward and inverse transverse Mercator use the 6th-order Krüger series in
the third flattening n, which is accurate to well under a millimeter inside
a UTM zone. The series exist once, over arrays (`utm_forward`,
`utm_inverse`); `wgs84_to_utm` and `utm_to_wgs84` are one-point wrappers.
Both take one frame, a zone and a hemisphere, which alone fixes the false
northing: projections are continuous across the equator and convert back.
`utm_forward` evaluates the terms of latitude alone once per distinct
latitude and those of longitude alone once per distinct longitude, and every
transcendental call is `math`'s (see `elementwise`).
Degree/minute/second parsing accepts both ASCII and typographic marks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError

# WGS-84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563

UTM_SCALE = 0.9996
FALSE_EASTING = 500000.0
FALSE_NORTHING_SOUTH = 10000000.0
UTM_LAT_BAND = 84.0  # |latitude| limit for UTM validity

_E = math.sqrt(WGS84_F * (2.0 - WGS84_F))  # first eccentricity
_N = WGS84_F / (2.0 - WGS84_F)  # third flattening

# Rectifying radius: A = a/(1+n) (1 + n^2/4 + n^4/64 + n^6/256)
_RECTIFYING_RADIUS = (WGS84_A / (1.0 + _N)) * (
    1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0
)
# the poles' northing from the equator, the scaled quarter meridian (≈9997964.9 m)
_POLE_NORTHING = UTM_SCALE * _RECTIFYING_RADIUS * math.pi / 2.0

# Krüger series coefficients in the third flattening, to order n^6.
_ALPHA = (
    _N / 2.0 - 2.0 / 3.0 * _N**2 + 5.0 / 16.0 * _N**3 + 41.0 / 180.0 * _N**4
    - 127.0 / 288.0 * _N**5 + 7891.0 / 37800.0 * _N**6,
    13.0 / 48.0 * _N**2 - 3.0 / 5.0 * _N**3 + 557.0 / 1440.0 * _N**4
    + 281.0 / 630.0 * _N**5 - 1983433.0 / 1935360.0 * _N**6,
    61.0 / 240.0 * _N**3 - 103.0 / 140.0 * _N**4 + 15061.0 / 26880.0 * _N**5
    + 167603.0 / 181440.0 * _N**6,
    49561.0 / 161280.0 * _N**4 - 179.0 / 168.0 * _N**5
    + 6601661.0 / 7257600.0 * _N**6,
    34729.0 / 80640.0 * _N**5 - 3418889.0 / 1995840.0 * _N**6,
    212378941.0 / 319334400.0 * _N**6,
)
_BETA = (
    _N / 2.0 - 2.0 / 3.0 * _N**2 + 37.0 / 96.0 * _N**3 - 1.0 / 360.0 * _N**4
    - 81.0 / 512.0 * _N**5 + 96199.0 / 604800.0 * _N**6,
    1.0 / 48.0 * _N**2 + 1.0 / 15.0 * _N**3 - 437.0 / 1440.0 * _N**4
    + 46.0 / 105.0 * _N**5 - 1118711.0 / 3870720.0 * _N**6,
    17.0 / 480.0 * _N**3 - 37.0 / 840.0 * _N**4 - 209.0 / 4480.0 * _N**5
    + 5569.0 / 90720.0 * _N**6,
    4397.0 / 161280.0 * _N**4 - 11.0 / 504.0 * _N**5
    - 830251.0 / 7257600.0 * _N**6,
    4583.0 / 161280.0 * _N**5 - 108847.0 / 3991680.0 * _N**6,
    20648693.0 / 638668800.0 * _N**6,
)


def normalize_longitude(longitude: float) -> float:
    """Wrap a longitude in degrees into [-180, 180).

    In-range values pass through bit-exactly.
    """
    if -180.0 <= longitude < 180.0:
        return longitude
    lon = (longitude + 180.0) % 360.0 - 180.0
    # % can land exactly on the wrap point for inputs a hair below it
    if lon >= 180.0:
        lon -= 360.0
    return lon


@dataclass(frozen=True)
class GeoPoint:
    """Geographic sample: latitude/longitude in degrees, altitude in meters."""

    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.latitude) and math.isfinite(self.longitude)
                and math.isfinite(self.altitude)):
            raise DataError(f"non-finite GeoPoint: {self}")
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"latitude {self.latitude} outside [-90, 90]")
        object.__setattr__(self, "longitude", normalize_longitude(self.longitude))


def check_utm_frame(zone, hemisphere: str) -> None:
    """Raise DataError unless `zone` is an int in [1, 60] and `hemisphere`
    is 'north' or 'south'."""
    if not (isinstance(zone, int) and 1 <= zone <= 60):
        raise DataError(f"UTM zone {zone!r} outside [1, 60]")
    if hemisphere not in ("north", "south"):
        raise DataError(f"hemisphere must be 'north' or 'south', got {hemisphere!r}")


@dataclass(frozen=True)
class UtmPoint:
    """Projected sample: easting/northing in meters plus zone and hemisphere."""

    easting: float
    northing: float
    zone: int
    hemisphere: str  # "north" | "south"
    altitude: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.easting) and math.isfinite(self.northing)
                and math.isfinite(self.altitude)):
            raise DataError(f"non-finite UtmPoint: {self}")
        check_utm_frame(self.zone, self.hemisphere)


def utm_zone_for(longitude: float, latitude: float) -> int:
    """Standard UTM zone number for a longitude, clamped to [1, 60].

    Latitude is accepted for interface symmetry; the plain 6-degree zoning
    rule ignores it. A non-finite longitude raises DataError.
    """
    if not math.isfinite(longitude):
        raise DataError(f"non-finite longitude {longitude!r}")
    lon = normalize_longitude(longitude)
    zone = int(math.floor((lon + 180.0) / 6.0)) + 1
    return min(60, max(1, zone))


def utm_frame(longitude: float, latitude: float) -> tuple[int, str]:
    """(zone, hemisphere) of the UTM frame of a position: the zone of its
    longitude, and 'north' at or above the equator, 'south' below it."""
    return utm_zone_for(longitude, latitude), "north" if latitude >= 0.0 else "south"


def zone_central_meridian(zone: int) -> float:
    """Central meridian of a UTM zone, in degrees."""
    return float(zone * 6 - 183)


def elementwise(fn, *args) -> np.ndarray:
    """`fn`, a function of `math`, applied element by element to 1-D arrays
    (a Python float argument is used for every element).

    numpy's own transcendental functions are not bit-identical to `math`'s:
    on an AVX-512 host np.tan, sinh, cosh, exp, arctanh, arcsinh, arctan2,
    hypot and arctan differ in the last bit on 0.3-27% of inputs. The global
    kriging solve amplifies such 1-ulp coordinate changes: with numpy's
    functions in the series the `neighbors = global` lift moved by up to
    2.6e-9 m. So the array series leave only + - * / and comparisons to
    numpy.
    """
    n = len(next(a for a in args if isinstance(a, np.ndarray)))
    lists = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, *lists), float, n)


def normalize_longitudes(longitudes) -> np.ndarray:
    """normalize_longitude over an array (a new 1-D array)."""
    lon = np.array(longitudes, dtype=float).ravel()
    wrap = ~((lon >= -180.0) & (lon < 180.0))
    if wrap.any():
        lon[wrap] = [normalize_longitude(v) for v in lon[wrap].tolist()]
    return lon


def _tau_prime(tau: np.ndarray) -> np.ndarray:
    # tan of the conformal latitude from tan of the geodetic latitude
    h = elementwise(math.hypot, 1.0, tau)
    sigma = elementwise(math.sinh, _E * elementwise(math.atanh, _E * tau / h))
    return tau * elementwise(math.hypot, 1.0, sigma) - sigma * h


def _tau_from_tau_prime(taup: np.ndarray) -> np.ndarray:
    # Invert tau' = tau sqrt(1+sigma^2) - sigma sqrt(1+tau^2) by Newton; each
    # element stops on its own once its step is negligible
    e2 = _E * _E
    tau = taup / math.sqrt(1.0 - e2)
    active = np.arange(len(tau))
    for _ in range(8):
        t, tp = tau[active], taup[active]
        tp_i = _tau_prime(t)
        dtau = (
            (tp - tp_i)
            * (1.0 + (1.0 - e2) * t * t)
            / ((1.0 - e2) * elementwise(math.hypot, 1.0, tp_i) * elementwise(math.hypot, 1.0, t))
        )
        t = t + dtau
        tau[active] = t
        active = active[~(np.abs(dtau) < 1e-16 * np.maximum(1.0, np.abs(t)))]
        if not len(active):
            break
    return tau


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse) of a 1-D float array: its distinct bit patterns,
    so -0.0 and 0.0 stay apart, and where each element's lies in them
    (distinct[inverse] is `values`, bit for bit). A sort, not np.unique,
    whose first 1-D call imports numpy.ma."""
    bits = values.view(np.int64)
    order = np.argsort(bits)
    ranked = bits[order]
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ranked[starts].view(float), inverse


def utm_forward(
    latitudes, longitudes, zone: int, hemisphere: str
) -> tuple[np.ndarray, np.ndarray]:
    """Project arrays of WGS-84 latitudes/longitudes (degrees) into the UTM
    frame of one zone and hemisphere: (eastings, northings) in meters. Every
    point gets the frame's false northing, so the northings are continuous
    across the equator: a southern point in a northern frame has a negative
    northing. The terms of latitude alone (tan φ and τ′) run once per
    distinct latitude, and those of longitude alone (cos λ and sin λ) once
    per distinct longitude, so a lattice of r rows and c columns pays them
    r and c times, not r·c; each point gets the bits a one-point call gives.
    """
    check_utm_frame(zone, hemisphere)
    lat = np.array(latitudes, dtype=float).ravel()
    lon = normalize_longitudes(longitudes)
    if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
        raise DataError("non-finite latitude or longitude")
    outside = np.abs(lat) > UTM_LAT_BAND
    if outside.any():
        bad = lat[outside][0].item()
        raise DataError(f"latitude {bad} outside the UTM band [-{UTM_LAT_BAND}, {UTM_LAT_BAND}]")

    phi = lat * (math.pi / 180.0)  # math.radians, bit for bit
    lam = normalize_longitudes(lon - zone_central_meridian(zone)) * (math.pi / 180.0)

    # the terms of latitude alone, and of longitude alone, once per distinct value
    phis, at_phi = _distinct(phi)
    lams, at_lam = _distinct(lam)
    taup = _tau_prime(elementwise(math.tan, phis))[at_phi]
    cos_lam = elementwise(math.cos, lams)[at_lam]
    sin_lam = elementwise(math.sin, lams)[at_lam]
    xi_p = elementwise(math.atan2, taup, cos_lam)
    eta_p = elementwise(math.asinh, sin_lam / elementwise(math.hypot, taup, cos_lam))

    xi = xi_p.copy()
    eta = eta_p.copy()
    for j, alpha in enumerate(_ALPHA, start=1):
        xi += alpha * elementwise(math.sin, 2 * j * xi_p) * elementwise(math.cosh, 2 * j * eta_p)
        eta += alpha * elementwise(math.cos, 2 * j * xi_p) * elementwise(math.sinh, 2 * j * eta_p)

    easting = FALSE_EASTING + UTM_SCALE * _RECTIFYING_RADIUS * eta
    northing = UTM_SCALE * _RECTIFYING_RADIUS * xi
    if hemisphere == "south":
        northing += FALSE_NORTHING_SOUTH
    return easting, northing


def utm_inverse(eastings, northings, zone: int, hemisphere: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of utm_forward in the frame of one zone and hemisphere:
    (latitudes, longitudes) in degrees. A northing may lie on either side of
    the equator, up to a pole, so every point utm_forward projects into the
    frame comes back; one past a pole raises DataError instead of coming
    back mirrored onto the meridian opposite the zone."""
    check_utm_frame(zone, hemisphere)
    east = np.array(eastings, dtype=float).ravel()
    north = np.array(northings, dtype=float).ravel()
    bad = ~((100000.0 < east) & (east < 900000.0))
    if bad.any():
        raise DataError(f"easting {east[bad][0].item()} outside (100000, 900000)")
    offset = north - (FALSE_NORTHING_SOUTH if hemisphere == "south" else 0.0)
    bad = ~(np.abs(offset) <= _POLE_NORTHING)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"point {i}: northing {north[i].item()} lies beyond the pole, "
                        f"{_POLE_NORTHING:.1f} m from the equator of a {hemisphere}ern frame")
    xi = offset / (UTM_SCALE * _RECTIFYING_RADIUS)
    eta = (east - FALSE_EASTING) / (UTM_SCALE * _RECTIFYING_RADIUS)

    xi_p = xi.copy()
    eta_p = eta.copy()
    for j, beta in enumerate(_BETA, start=1):
        xi_p -= beta * elementwise(math.sin, 2 * j * xi) * elementwise(math.cosh, 2 * j * eta)
        eta_p -= beta * elementwise(math.cos, 2 * j * xi) * elementwise(math.sinh, 2 * j * eta)

    sinh_eta = elementwise(math.sinh, eta_p)
    cos_xi = elementwise(math.cos, xi_p)
    taup = elementwise(math.sin, xi_p) / elementwise(math.hypot, sinh_eta, cos_xi)
    lam = elementwise(math.atan2, sinh_eta, cos_xi)

    # math.degrees, bit for bit
    latitude = elementwise(math.atan, _tau_from_tau_prime(taup)) * (180.0 / math.pi)
    longitude = normalize_longitudes(lam * (180.0 / math.pi) + zone_central_meridian(zone))
    return latitude, longitude


def wgs84_to_utm(p: GeoPoint, zone: int | None = None) -> UtmPoint:
    """Project a geographic point to UTM on the WGS-84 ellipsoid.

    The frame is the point's own (utm_frame); pass an explicit zone to keep
    a whole dataset in one projection frame.
    """
    own_zone, hemisphere = utm_frame(p.longitude, p.latitude)
    zone = own_zone if zone is None else zone
    easting, northing = utm_forward([p.latitude], [p.longitude], zone, hemisphere)
    return UtmPoint(easting.item(), northing.item(), zone, hemisphere, p.altitude)


def utm_to_wgs84(p: UtmPoint) -> GeoPoint:
    """Inverse projection back to WGS-84 geographic coordinates."""
    latitude, longitude = utm_inverse([p.easting], [p.northing], p.zone, p.hemisphere)
    return GeoPoint(latitude.item(), longitude.item(), p.altitude)


# DMS parsing: tolerate typographic degree/minute/second marks
_DEGREE_MARKS = "°ºd"
_MINUTE_MARKS = "'′’m"
_SECOND_MARKS = '"”″s'


def parse_dms(text: str) -> float:
    """Parse `N48°43'20.64"` style DMS or signed decimal degrees to degrees.

    South and west hemispheres are negative. The hemisphere letter may lead
    or trail. Raises ParseError with the failing offset on malformed input.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty coordinate string", offset=0)
    try:
        value = float(s)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ParseError(f"non-finite coordinate {s!r}", offset=0)
        return value

    pos = 0
    n = len(s)

    def skip_spaces():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def read_number(what: str) -> float:
        nonlocal pos
        skip_spaces()
        start = pos
        while pos < n and (s[pos].isdigit() or s[pos] == "."):
            pos += 1
        if pos == start:
            raise ParseError(f"expected {what} in {text!r}", offset=start)
        try:
            return float(s[start:pos])
        except ValueError:
            raise ParseError(f"bad {what} {s[start:pos]!r} in {text!r}", offset=start) from None

    def read_mark(marks: str, what: str):
        nonlocal pos
        skip_spaces()
        if pos >= n or s[pos] not in marks:
            raise ParseError(f"expected {what} mark in {text!r}", offset=pos)
        pos += 1

    hemisphere = None
    skip_spaces()
    if pos < n and s[pos].upper() in "NSEW":
        hemisphere = s[pos].upper()
        pos += 1

    degrees = read_number("degrees")
    read_mark(_DEGREE_MARKS, "degree")
    minutes = read_number("minutes")
    read_mark(_MINUTE_MARKS, "minute")
    seconds = read_number("seconds")
    read_mark(_SECOND_MARKS, "second")

    skip_spaces()
    if hemisphere is None and pos < n and s[pos].upper() in "NSEW":
        hemisphere = s[pos].upper()
        pos += 1
    skip_spaces()
    if pos != n:
        raise ParseError(f"trailing characters in {text!r}", offset=pos)
    if minutes >= 60.0 or seconds >= 60.0:
        raise ParseError(f"minutes/seconds out of range in {text!r}", offset=0)

    value = degrees + minutes / 60.0 + seconds / 3600.0
    if hemisphere in ("S", "W"):
        value = -value
    return value
