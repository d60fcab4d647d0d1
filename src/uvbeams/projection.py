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
from dataclasses import dataclass

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


class HorizonError(ValueError):
    """A UV point (or ground point) lies outside the visible-Earth disk."""


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


@dataclass(frozen=True, slots=True)
class SatelliteState:
    """Spherical Earth of radius ``earth_radius_km`` plus a nadir-pointing
    satellite fixed on the +z axis at ``earth_radius_km + altitude_km``."""

    earth_radius_km: float
    altitude_km: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.earth_radius_km) and self.earth_radius_km > 0.0):
            raise ValueError(
                f"earth radius must be positive and finite, got {self.earth_radius_km}"
            )
        if not (math.isfinite(self.altitude_km) and self.altitude_km > 0.0):
            raise ValueError(f"altitude must be positive and finite, got {self.altitude_km}")

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


def _line_of_sight(u: float, v: float, sat: SatelliteState) -> tuple[float, ...]:
    """Shared kernel of :func:`los_geometry` and :func:`uv_to_earth`.

    Returns ``(d_uv, omega, zod, aod, elevation, slant_km, x_km, y_km,
    z_km)`` for one UV point, so a caller that needs both the link angles
    and the ground point solves the triangle once.
    """
    r_e = sat.earth_radius_km
    a = sat.altitude_km
    r_s = r_e + a
    d_uv = math.hypot(u, v)
    limit = r_e / r_s
    # Written so that a NaN radius fails the test too.
    if not d_uv <= limit:
        raise HorizonError(
            f"UV radius {d_uv:.9g} is beyond the horizon limit {limit:.9g} "
            f"(earth radius {r_e:.9g} km, altitude {a:.9g} km)"
        )
    omega = math.asin(d_uv)
    zod = math.pi - omega
    aod = math.atan2(v, u)
    # sin(zod) equals d_uv analytically; the min() only absorbs float
    # round-off so the arccos stays defined at the horizon boundary.
    cos_alpha = min(1.0, r_s * d_uv / r_e)
    alpha = math.acos(cos_alpha)
    sin_alpha = math.sin(alpha)
    slant = -r_e * sin_alpha + math.sqrt(r_e * r_e * sin_alpha * sin_alpha + a * a + 2.0 * r_e * a)
    # The departure direction (zod, aod) scaled by the slant range is the
    # satellite-to-ground displacement.
    sin_zod = math.sin(zod)
    x = slant * sin_zod * math.cos(aod)
    y = slant * sin_zod * math.sin(aod)
    z = r_s + slant * math.cos(zod)
    return d_uv, omega, zod, aod, alpha, slant, x, y, z


def los_geometry(p_uv: UvPoint, sat: SatelliteState) -> LosGeometry:
    """Solve the line-of-sight triangle for one UV point.

    The UV plane is built on the unit sphere around the satellite, so the
    off-nadir angle is ``omega = arcsin |uv|`` and the departure angles follow
    directly (``zod = pi - omega``, ``aod = atan2(v, u)``).  Elevation and
    slant range come from the triangle formed with the Earth centre::

        cos(alpha) = (r_E + a) * sin(zod) / r_E
        d = -r_E * sin(alpha) + sqrt(r_E^2 * sin^2(alpha) + a^2 + 2 * r_E * a)

    Raises :class:`HorizonError` when ``|uv|`` exceeds ``r_E / (r_E + a)``
    or is not a number; points past the horizon are rejected rather than
    clamped because a clamp would silently bias downstream statistics.
    """
    return LosGeometry(*_line_of_sight(p_uv.u, p_uv.v, sat)[:6])


def uv_to_earth(p_uv: UvPoint, sat: SatelliteState) -> GroundPoint:
    """Project a UV point onto the Earth sphere along its boresight ray.

    The departure direction (zod, aod) converted to Cartesian and scaled by
    the slant range gives the satellite-to-ground displacement; adding the
    satellite position lands on the sphere.
    """
    return GroundPoint(*_line_of_sight(p_uv.u, p_uv.v, sat)[6:])


def earth_to_uv(p_u: GroundPoint, sat: SatelliteState, on_sphere_tol: float = 1e-6) -> UvPoint:
    """Invert :func:`uv_to_earth` for a visible point on the Earth sphere.

    The x and y components of the unit vector from the satellite to the point
    are exactly the direction sines.  ``on_sphere_tol`` is relative to the
    Earth radius.
    """
    r_e = sat.earth_radius_km
    radius = p_u.norm_km()
    # Both tests are written so that a NaN coordinate fails them.
    if not abs(radius - r_e) <= on_sphere_tol * r_e:
        raise ValueError(
            f"point radius {radius:.9g} km is not on the Earth sphere of radius {r_e:.9g} km"
        )
    # Visible means elevation >= 0, i.e. the point sits above the tangent
    # circle: z >= r_E^2 / (r_E + a).
    min_z = r_e * r_e / sat.orbit_radius_km
    if not p_u.z_km >= min_z - on_sphere_tol * r_e:
        raise HorizonError(
            f"ground point at z = {p_u.z_km:.9g} km is below the tangent circle "
            f"(z >= {min_z:.9g} km required) and not visible from the satellite"
        )
    dx = p_u.x_km
    dy = p_u.y_km
    dz = p_u.z_km - sat.orbit_radius_km
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    return UvPoint(dx / d, dy / d)
