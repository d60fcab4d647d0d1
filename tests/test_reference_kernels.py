"""The hot per-point functions against straightforward reference versions.

The references below are the original, unoptimised implementations of the
hexagon sampler and the line-of-sight projection.  The package versions must
reproduce them exactly (``==``, not a tolerance): same draws from the
generator in the same order, same floating-point operations.
"""

from __future__ import annotations

import itertools
import math

import pytest

from conftest import uv_disk_points
from uvbeams import (
    GroundPoint,
    HorizonError,
    LosGeometry,
    SatelliteState,
    UvPoint,
    beam_rng,
    hexagon_vertices,
    horizon_limit,
    los_geometry,
    sample_point_in_hexagon,
    uv_to_earth,
)


def ref_sample_point_in_hexagon(center, circumradius, rng):
    vertices = hexagon_vertices(center, circumradius)
    k = int(rng.integers(6))
    a1, a2 = rng.random(2)
    if a1 + a2 > 1.0:
        a1, a2 = 1.0 - a1, 1.0 - a2
    v0 = vertices[k]
    v1 = vertices[(k + 1) % 6]
    return UvPoint(
        center.u + a1 * (v0.u - center.u) + a2 * (v1.u - center.u),
        center.v + a1 * (v0.v - center.v) + a2 * (v1.v - center.v),
    )


def ref_los_geometry(p_uv, sat):
    r_e = sat.earth_radius_km
    r_s = sat.orbit_radius_km
    d_uv = math.hypot(p_uv.u, p_uv.v)
    limit = r_e / r_s
    if d_uv > limit:
        raise HorizonError("beyond the horizon")
    omega = math.asin(d_uv)
    zod = math.pi - omega
    aod = math.atan2(p_uv.v, p_uv.u)
    cos_alpha = min(1.0, r_s * d_uv / r_e)
    alpha = math.acos(cos_alpha)
    sin_alpha = math.sin(alpha)
    a = sat.altitude_km
    slant = -r_e * sin_alpha + math.sqrt(r_e * r_e * sin_alpha * sin_alpha + a * a + 2.0 * r_e * a)
    return LosGeometry(d_uv, omega, zod, aod, alpha, slant)


def ref_uv_to_earth(p_uv, sat):
    los = ref_los_geometry(p_uv, sat)
    sin_zod = math.sin(los.zod_rad)
    dx = los.slant_range_km * sin_zod * math.cos(los.aod_rad)
    dy = los.slant_range_km * sin_zod * math.sin(los.aod_rad)
    dz = los.slant_range_km * math.cos(los.zod_rad)
    return GroundPoint(dx, dy, sat.orbit_radius_km + dz)


def outcome(fn, *args):
    """The function's result, or the exception type it raised."""
    try:
        return fn(*args)
    except HorizonError:
        return HorizonError


SATELLITES = [
    SatelliteState(earth_radius_km=6371.0, altitude_km=1200.0),
    SatelliteState(earth_radius_km=6371.0, altitude_km=35786.0),
    SatelliteState(earth_radius_km=1.0, altitude_km=0.001),
]

CENTERS = [UvPoint(0.0, 0.0), UvPoint(0.25, -0.4), UvPoint(0.688, 0.0577)]
RADII = [1e-12, 0.038476, 1.0]
DRAWS = 1500


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_sampler_matches_reference_draw_for_draw(seed):
    for beam_id, (center, radius) in enumerate(itertools.product(CENTERS, RADII)):
        rng = beam_rng(seed, beam_id)
        ref_rng = beam_rng(seed, beam_id)
        # Consecutive calls on one generator: integers(6) takes 32-bit halves
        # of a buffered 64-bit draw, so the buffer carries between calls.
        for _ in range(DRAWS):
            p = sample_point_in_hexagon(center, radius, rng)
            q = ref_sample_point_in_hexagon(center, radius, ref_rng)
            assert (p.u, p.v) == (q.u, q.v)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("sat", SATELLITES, ids=["leo", "geo", "tiny"])
def test_projection_matches_reference_on_disk(sat):
    limit = horizon_limit(sat)
    for u, v in uv_disk_points(3000, limit, seed=11):
        p = UvPoint(float(u), float(v))
        assert los_geometry(p, sat) == ref_los_geometry(p, sat)
        assert uv_to_earth(p, sat) == ref_uv_to_earth(p, sat)


@pytest.mark.parametrize("sat", SATELLITES, ids=["leo", "geo", "tiny"])
def test_projection_matches_reference_at_horizon(sat):
    limit = horizon_limit(sat)
    points = [UvPoint(limit, 0.0), UvPoint(0.0, -limit), UvPoint(-limit, 0.0)]
    points += [
        UvPoint(limit * math.cos(t), limit * math.sin(t))
        for t in (0.1 * k for k in range(63))
    ]
    points += [UvPoint(math.nextafter(limit, 2.0), 0.0), UvPoint(math.nextafter(limit, 0.0), 0.0)]
    for p in points:
        assert outcome(los_geometry, p, sat) == outcome(ref_los_geometry, p, sat)
        assert outcome(uv_to_earth, p, sat) == outcome(ref_uv_to_earth, p, sat)
