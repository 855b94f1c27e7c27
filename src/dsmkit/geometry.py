"""Small planar geometry helpers shared across modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle.

    For geographic use x is longitude and y is latitude (degrees); for
    projected use x is easting and y is northing (meters).
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"rectangle {name} must be finite, got {v!r}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigError(
                f"degenerate rectangle: x [{self.x_min}, {self.x_max}], "
                f"y [{self.y_min}, {self.y_max}]"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def contains(self, x: float, y: float) -> bool:
        """Boundary-inclusive membership test."""
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def expanded(self, fraction: float) -> "Rect":
        """Grow the rectangle by `fraction` of its size on every side."""
        dx = fraction * self.width
        dy = fraction * self.height
        return Rect(self.x_min - dx, self.y_min - dy, self.x_max + dx, self.y_max + dy)

    def corners(self) -> list[tuple[float, float]]:
        """The four corners, counter-clockwise from (x_min, y_min)."""
        return [
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_max, self.y_max),
            (self.x_min, self.y_max),
        ]


def coordinate_array(values, what: str, widths=(2,), ndims=(2,)) -> np.ndarray:
    """values as a finite (n, w) float array, w in `widths` (a (w,) point as one row if 1
    is in `ndims`); DataError names a bad shape, or the first non-finite `what`."""
    xy = np.asarray(values, dtype=float)
    if not (xy.ndim in ndims and xy.shape[-1] in widths):
        forms = " or ".join(f"({w},)" if d == 1 else f"(n, {w})" for d in ndims for w in widths)
        raise DataError(f"{what} coordinates must be {forms}, got shape {xy.shape}")
    rows = np.atleast_2d(xy)
    if not np.isfinite(rows).all():
        k = int(np.argmin(np.isfinite(rows).all(axis=1)))
        at = f"{what} {k}" if xy.ndim == 2 else what
        raise DataError(f"{at}: non-finite coordinates {rows[k].tolist()}")
    return rows
