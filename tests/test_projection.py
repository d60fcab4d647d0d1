"""Projection module: LOS geometry, UV <-> Earth mapping, horizon guard.

Independent oracles: the law-of-cosines triangle identity validates the
slant-range formula, and a raw ray-sphere quadratic intersection validates
the full Cartesian projection.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from conftest import uv_disk_points
from uvbeams import (
    GroundPoint,
    HorizonError,
    SatelliteState,
    UvPoint,
    earth_to_uv,
    horizon_limit,
    los_geometry,
    uv_to_earth,
)

R_E = 6371.0
ALT = 1200.0
R_S = R_E + ALT


def ray_sphere_ground(u: float, v: float, sat: SatelliteState) -> tuple[float, float, float]:
    """Oracle: intersect the ray from the satellite along direction
    (u, v, -sqrt(1 - u^2 - v^2)) with the Earth sphere (near root)."""
    dz = -math.sqrt(1.0 - u * u - v * v)
    r_s = sat.orbit_radius_km
    half_b = r_s * dz  # dot(P_s, dir)
    c = r_s * r_s - sat.earth_radius_km**2
    t = -half_b - math.sqrt(half_b * half_b - c)
    return (t * u, t * v, r_s + t * dz)


class TestSatelliteState:
    def test_orbit_radius_and_position(self, leo_sat):
        assert leo_sat.orbit_radius_km == R_S
        assert leo_sat.position_km() == (0.0, 0.0, R_S)

    @pytest.mark.parametrize(
        "re,alt",
        [
            (0.0, 1200.0),
            (-1.0, 1200.0),
            (6371.0, 0.0),
            (6371.0, -5.0),
            (math.nan, 1200.0),
            (math.inf, 1200.0),
            (6371.0, math.nan),
            (6371.0, math.inf),
            # An int too large for a float raised OverflowError here once.
            pytest.param(10**400, 1200.0, id="re-10**400"),
            pytest.param(6371.0, 10**400, id="alt-10**400"),
        ],
    )
    def test_validation(self, re, alt):
        with pytest.raises(ValueError):
            SatelliteState(re, alt)


class TestHorizonLimit:
    def test_leo(self, leo_sat):
        assert horizon_limit(leo_sat) == R_E / R_S
        assert horizon_limit(leo_sat) == pytest.approx(0.841501, abs=1e-6)

    def test_geo(self):
        assert horizon_limit(SatelliteState(6371.0, 35786.0)) == 6371.0 / 42157.0

    def test_zero_altitude_limit(self):
        assert horizon_limit(SatelliteState(6371.0, 1e-9)) > 1.0 - 1e-12


class TestLosGeometry:
    def test_nadir(self, leo_sat):
        g = los_geometry(UvPoint(0.0, 0.0), leo_sat)
        assert g.d_uv == 0.0
        assert g.omega_rad == 0.0
        assert g.zod_rad == math.pi
        assert g.elevation_rad == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert g.slant_range_km == pytest.approx(ALT, abs=1e-9)

    def test_center_beam_offset_point(self, leo_sat):
        g = los_geometry(UvPoint(0.2878, 0.0), leo_sat)
        assert math.degrees(g.elevation_rad) == pytest.approx(70.0, abs=0.01)
        assert g.slant_range_km == pytest.approx(1263.9, abs=0.1)
        # Law-of-cosines oracle for the Earth-centre triangle.
        residual = (
            g.slant_range_km**2
            + R_S**2
            - 2.0 * g.slant_range_km * R_S * math.cos(g.omega_rad)
            - R_E**2
        )
        assert abs(residual) <= 1e-9 * R_E**2

    def test_exact_offset_gives_exact_elevation(self, leo_sat):
        u_c = R_E * math.cos(math.radians(70.0)) / R_S
        g = los_geometry(UvPoint(u_c, 0.0), leo_sat)
        assert math.degrees(g.elevation_rad) == pytest.approx(70.0, abs=1e-9)

    def test_horizon_boundary(self, leo_sat):
        limit = horizon_limit(leo_sat)
        g = los_geometry(UvPoint(limit, 0.0), leo_sat)
        assert g.elevation_rad < 1e-6
        # Tangent-line length oracle: sqrt((r_E + a)^2 - r_E^2).
        assert g.slant_range_km == pytest.approx(math.sqrt(R_S**2 - R_E**2), rel=1e-6)

    def test_beyond_horizon_raises(self, leo_sat):
        with pytest.raises(HorizonError):
            los_geometry(UvPoint(0.8416, 0.0), leo_sat)
        with pytest.raises(HorizonError):
            los_geometry(UvPoint(0.0, -0.9), leo_sat)

    @pytest.mark.parametrize(
        "u,v",
        [
            (math.nan, 0.0),
            (0.0, math.nan),
            (math.nan, math.nan),
            # An int too large for a float raised OverflowError here once.
            pytest.param(10**400, 0.0, id="u-10**400"),
            pytest.param(0.0, -(10**400), id="v--10**400"),
        ],
    )
    def test_nan_raises(self, leo_sat, u, v):
        # A NaN radius must not slip through the horizon test as a finite
        # slant range.
        with pytest.raises(HorizonError):
            los_geometry(UvPoint(u, v), leo_sat)
        with pytest.raises(HorizonError):
            uv_to_earth(UvPoint(u, v), leo_sat)

    def test_zod_is_pi_minus_omega_exactly(self, leo_sat):
        for u, v in uv_disk_points(200, horizon_limit(leo_sat), seed=5):
            g = los_geometry(UvPoint(u, v), leo_sat)
            assert g.zod_rad == math.pi - g.omega_rad

    def test_slant_monotone_up_elevation_monotone_down(self, leo_sat):
        limit = horizon_limit(leo_sat)
        duvs = np.linspace(0.0, limit * (1.0 - 1e-9), 2000)
        sols = [los_geometry(UvPoint(d, 0.0), leo_sat) for d in duvs]
        for a, b in zip(sols, sols[1:]):
            assert b.slant_range_km > a.slant_range_km
            assert b.elevation_rad < a.elevation_rad

    def test_range_bounds(self, leo_sat):
        far = math.sqrt(ALT**2 + 2.0 * R_E * ALT)
        for u, v in uv_disk_points(2000, horizon_limit(leo_sat), seed=11):
            g = los_geometry(UvPoint(u, v), leo_sat)
            assert ALT <= g.slant_range_km <= far
            assert 0.0 <= g.elevation_rad <= math.pi / 2.0


class TestUvToEarth:
    def test_nadir_point(self, leo_sat):
        p = uv_to_earth(UvPoint(0.0, 0.0), leo_sat)
        assert abs(p.x_km) < 1e-9
        assert abs(p.y_km) < 1e-9
        assert p.z_km == pytest.approx(R_E, abs=1e-9)

    def test_against_ray_sphere_oracle(self, leo_sat):
        for u, v in uv_disk_points(2000, horizon_limit(leo_sat), seed=23):
            p = uv_to_earth(UvPoint(u, v), leo_sat)
            ox, oy, oz = ray_sphere_ground(u, v, leo_sat)
            assert p.x_km == pytest.approx(ox, abs=1e-6)
            assert p.y_km == pytest.approx(oy, abs=1e-6)
            assert p.z_km == pytest.approx(oz, abs=1e-6)

    def test_on_sphere_fuzz(self, leo_sat):
        for u, v in uv_disk_points(10_000, horizon_limit(leo_sat), seed=31):
            p = uv_to_earth(UvPoint(u, v), leo_sat)
            assert abs(p.norm_km() - R_E) <= 1e-9 * R_E

    def test_rotation_equivariance(self, leo_sat):
        rng = np.random.default_rng(37)
        for u, v in uv_disk_points(300, horizon_limit(leo_sat), seed=41):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(phi), math.sin(phi)
            p = uv_to_earth(UvPoint(u, v), leo_sat)
            q = uv_to_earth(UvPoint(u * c - v * s, u * s + v * c), leo_sat)
            assert q.x_km == pytest.approx(p.x_km * c - p.y_km * s, abs=1e-9)
            assert q.y_km == pytest.approx(p.x_km * s + p.y_km * c, abs=1e-9)
            assert q.z_km == pytest.approx(p.z_km, abs=1e-9)

    def test_beyond_horizon_propagates(self, leo_sat):
        with pytest.raises(HorizonError):
            uv_to_earth(UvPoint(0.9, 0.0), leo_sat)


class TestEarthToUv:
    def test_nadir(self, leo_sat):
        uv = earth_to_uv(GroundPoint(0.0, 0.0, R_E), leo_sat)
        assert uv.u == 0.0
        assert uv.v == 0.0

    def test_round_trip_uv_earth_uv(self, leo_sat):
        for u, v in uv_disk_points(10_000, horizon_limit(leo_sat), seed=43):
            p = uv_to_earth(UvPoint(u, v), leo_sat)
            uv = earth_to_uv(p, leo_sat)
            assert abs(uv.u - u) <= 1e-12
            assert abs(uv.v - v) <= 1e-12

    def test_round_trip_earth_uv_earth(self, leo_sat):
        for u, v in uv_disk_points(2000, horizon_limit(leo_sat), seed=47):
            p = uv_to_earth(UvPoint(u, v), leo_sat)
            p2 = uv_to_earth(earth_to_uv(p, leo_sat), leo_sat)
            assert p2.x_km == pytest.approx(p.x_km, abs=1e-9)
            assert p2.y_km == pytest.approx(p.y_km, abs=1e-9)
            assert p2.z_km == pytest.approx(p.z_km, abs=1e-9)

    def test_tangent_circle_point(self, leo_sat):
        # Elevation-zero ground point: z = r_E^2 / (r_E + a).
        z = R_E * R_E / R_S
        x = math.sqrt(R_E * R_E - z * z)
        uv = earth_to_uv(GroundPoint(x, 0.0, z), leo_sat)
        assert uv.norm() == pytest.approx(horizon_limit(leo_sat), abs=1e-9)

    def test_not_on_sphere_rejected(self, leo_sat):
        with pytest.raises(ValueError):
            earth_to_uv(GroundPoint(0.0, 0.0, R_E + 10.0), leo_sat)

    def test_on_sphere_tolerance_is_fixed(self, leo_sat):
        # The tolerance is 1e-6 of the Earth radius and not a parameter.
        assert list(inspect.signature(earth_to_uv).parameters) == ["p_u", "sat"]
        assert earth_to_uv(GroundPoint(0.0, 0.0, R_E * (1.0 + 0.5e-6)), leo_sat).u == 0.0
        with pytest.raises(ValueError):
            earth_to_uv(GroundPoint(0.0, 0.0, R_E * (1.0 + 2e-6)), leo_sat)

    @pytest.mark.parametrize(
        "point",
        [
            GroundPoint(math.nan, 0.0, R_E),
            GroundPoint(0.0, math.nan, R_E),
            GroundPoint(0.0, 0.0, math.nan),
            GroundPoint(math.nan, math.nan, math.nan),
            GroundPoint(10**400, 0.0, 0.0),
            GroundPoint(0.0, 0.0, 10**400),
            GroundPoint(10**200, 0.0, 0.0),
        ],
        ids=["x", "y", "z", "xyz", "x-10**400", "z-10**400", "x-10**200"],
    )
    def test_nan_rejected(self, leo_sat, point):
        # A NaN coordinate used to pass both comparisons and give UvPoint(nan, nan).
        # An int too large for a float, or whose square is, raised
        # OverflowError once.
        with pytest.raises(ValueError):
            earth_to_uv(point, leo_sat)

    def test_far_side_not_visible(self, leo_sat):
        with pytest.raises(HorizonError):
            earth_to_uv(GroundPoint(0.0, 0.0, -R_E), leo_sat)
        with pytest.raises(HorizonError):
            earth_to_uv(GroundPoint(R_E, 0.0, 0.0), leo_sat)
