"""Geometry of the satellite direction-sine (UV) plane.

The satellite sits on the +z axis at ``r_E + a`` kilometres and looks straight
down at a spherical Earth centred on the origin.  A UV point is the pair of
direction sines of a boresight ray in the satellite frame, so the visible
Earth occupies the disk of radius ``r_E / (r_E + a)``.  Everything here maps
between UV coordinates, line-of-sight departure angles, and Cartesian points
on the Earth sphere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HorizonError",
    "UvPoint",
    "GroundPoint",
    "SatelliteState",
    "LosGeometry",
    "horizon_limit",
    "los_geometry",
    "uv_to_earth",
    "earth_to_uv",
]

# How far off the Earth sphere (and below the visible cap) a ground point may
# sit and still be inverted by earth_to_uv, relative to the Earth radius.
_ON_SPHERE_TOL = 1e-6


class HorizonError(ValueError):
    """A UV point (or ground point) lies outside the visible-Earth disk."""


def _shown(value) -> str:
    """A value as an error message shows it: ``str(value)``, except that an
    int too large for a float is named by its size, since its digits may
    pass the interpreter's int-to-string limit."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return str(value)


@dataclass(frozen=True, slots=True)
class UvPoint:
    """Direction sines (u, v) of a ray in the satellite antenna frame."""

    u: float
    v: float

    def norm(self) -> float:
        return math.hypot(self.u, self.v)


@dataclass(frozen=True, slots=True)
class GroundPoint:
    """Cartesian point in the satellite-nadir frame, kilometres."""

    x_km: float
    y_km: float
    z_km: float

    def norm_km(self) -> float:
        return math.sqrt(self.x_km**2 + self.y_km**2 + self.z_km**2)


# The per-point producers build their results by setting the slots directly:
# a frozen dataclass's __init__ goes through object.__setattr__ once per
# field from a Python frame, which costs about half again as much.  The
# objects are the same frozen instances, with the same eq, hash and repr.
_new = object.__new__
_set_u, _set_v = UvPoint.u.__set__, UvPoint.v.__set__
_set_x, _set_y, _set_z = GroundPoint.x_km.__set__, GroundPoint.y_km.__set__, GroundPoint.z_km.__set__


def _uv_point(u: float, v: float) -> UvPoint:
    p = _new(UvPoint)
    _set_u(p, u)
    _set_v(p, v)
    return p


def _ground_point(x_km: float, y_km: float, z_km: float) -> GroundPoint:
    p = _new(GroundPoint)
    _set_x(p, x_km)
    _set_y(p, y_km)
    _set_z(p, z_km)
    return p


@dataclass(frozen=True, slots=True)
class SatelliteState:
    """Spherical Earth of radius ``earth_radius_km`` plus a nadir-pointing
    satellite fixed on the +z axis at ``earth_radius_km + altitude_km``."""

    earth_radius_km: float
    altitude_km: float

    def __post_init__(self) -> None:
        # The slant range squares the Earth radius, the altitude and their
        # sum: below the square root of the least normal float a square
        # underflows, and past the square root of the largest it overflows.
        least = math.sqrt(sys.float_info.min)
        for name, value in (("earth radius", self.earth_radius_km), ("altitude", self.altitude_km)):
            # NaN, inf and an int too large for a float all fail these comparisons.
            if not 0.0 < value <= sys.float_info.max:
                raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")
            if not value >= least:
                raise ValueError(f"{name} must be at least {least:.5g} km, got {value}")
        bound = math.sqrt(sys.float_info.max)
        if not self.orbit_radius_km <= bound:
            raise ValueError(f"orbit radius must be at most {bound:.5g} km, got {_shown(self.orbit_radius_km)}")
        # The slant range -r_e * sin(alpha) + sqrt(...) cancels to a relative
        # error of about 2**-52 * r_e / a; at 2**20 that stays below 5e-10,
        # half a unit of the CSV's ninth digit.
        if not self.altitude_km >= self.earth_radius_km * 2**-20:
            raise ValueError(
                f"altitude must be at least 2**-20 times the earth radius, "
                f"got altitude {self.altitude_km} km and earth radius {self.earth_radius_km} km"
            )

    @property
    def orbit_radius_km(self) -> float:
        return self.earth_radius_km + self.altitude_km

    def position_km(self) -> tuple[float, float, float]:
        return (0.0, 0.0, self.orbit_radius_km)


@dataclass(frozen=True, slots=True)
class LosGeometry:
    """Line-of-sight solution for one UV point.

    ``omega_rad`` is the off-nadir angle at the satellite, ``zod_rad`` and
    ``aod_rad`` the zenith/azimuth-of-departure angles of the ray,
    ``elevation_rad`` the elevation seen from the ground terminal, and
    ``slant_range_km`` the straight-line satellite-terminal distance.
    """

    d_uv: float
    omega_rad: float
    zod_rad: float
    aod_rad: float
    elevation_rad: float
    slant_range_km: float


def horizon_limit(sat: SatelliteState) -> float:
    """Largest UV radius whose boresight ray still reaches the Earth sphere."""
    return sat.earth_radius_km / sat.orbit_radius_km


def _each(fn: Callable) -> Callable:
    """``fn`` applied element by element to NumPy columns.  A memoryview
    yields each element as the Python number ``tolist()`` would, without
    building the list."""
    return lambda *cols: np.fromiter(map(fn, *map(memoryview, cols)), np.float64, len(cols[0]))


_LIBM = (math.hypot, math.asin, math.atan2, math.acos, math.sin, math.cos)
# The functions _line_of_sight applies to columns, in the order of its
# function parameters.  They are the same libm functions as for floats, one
# element at a time; NumPy does only the exactly rounded operations
# (+ - * /, sqrt, minimum, comparisons).  So the two paths agree bit for bit.
# drop_ues turns radians into degrees on columns by the one multiply by
# 180 / pi that math.degrees makes, so its degrees keep the scalar bits too.
_COLUMNS = (*map(_each, _LIBM), np.sqrt, np.minimum,
            lambda d_uv, limit: next(iter(d_uv[~(d_uv <= limit)].tolist()), None))

# Points per kernel call on columns.  _each makes each Python float one at
# a time, so the chunk bounds the kernel's NumPy temporaries: about a dozen
# float64 arrays of this length per call, the drop's peak memory beyond its
# table.
_CHUNK = 2048


def _line_of_sight(
    u, v, sat: SatelliteState, hypot=math.hypot, asin=math.asin, atan2=math.atan2, acos=math.acos,
    sin=math.sin, cos=math.cos, sqrt=math.sqrt, minimum=min, beyond=lambda d_uv, limit: d_uv,
) -> tuple:
    """Shared kernel of :func:`los_geometry`, :func:`uv_to_earth` and the
    columnar pipeline.

    Returns ``(d_uv, omega, zod, aod, elevation, slant_km, x_km, y_km,
    z_km)`` for one UV point, or for UV columns with ``*_COLUMNS`` in place
    of the float functions, so a caller that needs both the angles and the
    ground point solves once.  The functions are parameters, not a table
    unpacked in the body, so the float path pays nothing for them.
    """
    r_e = sat.earth_radius_km
    a = sat.altitude_km
    r_s = r_e + a
    try:
        d_uv = hypot(u, v)
    except OverflowError:
        # An int coordinate too large for a float lies past any horizon.
        d_uv = math.inf
    limit = r_e / r_s
    # A float inside the horizon compares True and skips the call; a NaN
    # radius fails the test.  A column's comparison is never True, so
    # beyond() checks every point.
    if (d_uv <= limit) is not True and (bad := beyond(d_uv, limit)) is not None:
        raise HorizonError(
            f"UV radius {bad:.9g} is beyond the horizon limit {limit:.9g} "
            f"(earth radius {r_e:.9g} km, altitude {a:.9g} km)"
        )
    omega = asin(d_uv)
    zod = math.pi - omega
    aod = atan2(v, u)
    # sin(zod) equals d_uv analytically; the minimum only absorbs float
    # round-off so the arccos stays defined at the horizon boundary.
    cos_alpha = minimum(1.0, r_s * d_uv / r_e)
    alpha = acos(cos_alpha)
    sin_alpha = sin(alpha)
    slant = -r_e * sin_alpha + sqrt(r_e * r_e * sin_alpha * sin_alpha + a * a + 2.0 * r_e * a)
    # The departure direction (zod, aod) scaled by the slant range is the
    # satellite-to-ground displacement.
    sin_zod = sin(zod)
    x = slant * sin_zod * cos(aod)
    y = slant * sin_zod * sin(aod)
    z = r_s + slant * cos(zod)
    return d_uv, omega, zod, aod, alpha, slant, x, y, z


def _project_columns(u: np.ndarray, v: np.ndarray, sat: SatelliteState, pick: Callable) -> np.ndarray:
    """Rows ``pick(*outputs)`` of :func:`_line_of_sight` over the UV columns
    ``u`` and ``v``, computed :data:`_CHUNK` points at a time.  A point past
    the horizon raises the scalar path's :class:`HorizonError` for the first
    such point.  Empty columns make one empty pass, so the result still has
    its rows."""
    for start in range(0, len(u) or 1, _CHUNK):
        rows = pick(*_line_of_sight(u[start : start + _CHUNK], v[start : start + _CHUNK], sat, *_COLUMNS))
        if start == 0:
            out = np.empty((len(rows), len(u)))
        out[:, start : start + _CHUNK] = rows
    return out


def los_geometry(p_uv: UvPoint, sat: SatelliteState) -> LosGeometry:
    """Solve the line-of-sight triangle for one UV point.

    The UV plane is built on the unit sphere around the satellite, so the
    off-nadir angle is ``omega = arcsin |uv|`` and the departure angles follow
    directly (``zod = pi - omega``, ``aod = atan2(v, u)``).  Elevation and
    slant range come from the triangle formed with the Earth centre::

        cos(alpha) = (r_E + a) * sin(zod) / r_E
        d = -r_E * sin(alpha) + sqrt(r_E^2 * sin^2(alpha) + a^2 + 2 * r_E * a)

    Raises :class:`HorizonError` when ``|uv|`` exceeds ``r_E / (r_E + a)``
    or is not a number, and for a coordinate that is an int too large for a
    float; points past the horizon are rejected rather than clamped because
    a clamp would silently bias downstream statistics.
    """
    return LosGeometry(*_line_of_sight(p_uv.u, p_uv.v, sat)[:6])


def uv_to_earth(p_uv: UvPoint, sat: SatelliteState) -> GroundPoint:
    """Project a UV point onto the Earth sphere along its boresight ray.

    The departure direction (zod, aod) converted to Cartesian and scaled by
    the slant range gives the satellite-to-ground displacement; adding the
    satellite position lands on the sphere.
    """
    return _ground_point(*_line_of_sight(p_uv.u, p_uv.v, sat)[6:])


def earth_to_uv(p_u: GroundPoint, sat: SatelliteState) -> UvPoint:
    """Invert :func:`uv_to_earth` for a visible point on the Earth sphere.

    The x and y components of the unit vector from the satellite to the point
    are exactly the direction sines.  Both the sphere and the visibility test
    allow :data:`_ON_SPHERE_TOL` times the Earth radius.  A point off the
    sphere, such as one with an int coordinate too large for a float,
    raises :class:`ValueError`.
    """
    r_e = sat.earth_radius_km
    r_s = sat.orbit_radius_km
    try:
        radius = p_u.norm_km()
    except OverflowError:
        radius = math.inf
    # Both tests are written so that a NaN coordinate fails them.
    if not abs(radius - r_e) <= _ON_SPHERE_TOL * r_e:
        raise ValueError(
            f"point radius {radius:.9g} km is not on the Earth sphere of radius {r_e:.9g} km"
        )
    # Visible means elevation >= 0, i.e. the point sits above the tangent
    # circle: z >= r_E^2 / (r_E + a).
    min_z = r_e * r_e / r_s
    if not p_u.z_km >= min_z - _ON_SPHERE_TOL * r_e:
        raise HorizonError(
            f"ground point at z = {p_u.z_km:.9g} km is below the tangent circle "
            f"(z >= {min_z:.9g} km required) and not visible from the satellite"
        )
    dx = p_u.x_km
    dy = p_u.y_km
    dz = p_u.z_km - r_s
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    return _uv_point(dx / d, dy / d)
