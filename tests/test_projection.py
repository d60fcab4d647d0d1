"""Projection module: LOS geometry, UV <-> Earth mapping, horizon guard.

Independent oracles: the law-of-cosines triangle identity validates the
slant-range formula, and a raw ray-sphere quadratic intersection validates
the full Cartesian projection.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from decimal import Decimal, localcontext

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
    sample_point_in_hexagon,
    uv_to_earth,
)
from uvbeams.projection import _ground_point, _uv_point

R_E = 6371.0
ALT = 1200.0
R_S = R_E + ALT
# The largest orbit radius whose square is a finite float.
MAX_ORBIT_KM = math.sqrt(sys.float_info.max)
# The least Earth radius and altitude whose squares are normal floats.
LEAST_KM = math.sqrt(sys.float_info.min)
# The Earth radius at which the altitude ceiling, 2**20 Earth radii, meets
# the orbit-radius bound: MAX_ORBIT_KM - CAP_EARTH_KM is 2**20 of it exactly.
CAP_EARTH_KM = MAX_ORBIT_KM / (2**20 + 1)


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
            # Orbit radii whose square overflows to inf.
            pytest.param(1.4e154, 1.0, id="orbit-re-1.4e154"),
            pytest.param(6371.0, 1e200, id="orbit-alt-1e200"),
            pytest.param(1e308, 1e308, id="orbit-1e308-1e308"),
            pytest.param(math.nextafter(MAX_ORBIT_KM, math.inf), 1.0, id="orbit-one-ulp-past"),
            # Altitudes below 2**-20 times the Earth radius.
            pytest.param(6371.0, math.nextafter(6371.0 * 2**-20, 0.0), id="altitude-one-ulp-below-ratio"),
            # Altitudes above 2**20 times the Earth radius.
            pytest.param(6371.0, math.nextafter(6371.0 * 2**20, math.inf), id="altitude-one-ulp-past-ceiling"),
            pytest.param(1.3e154, 1200.0, id="altitude-ratio-1.3e154-1200"),
            # Below the square root of the least normal float the slant
            # range's squares underflow, and the ground points leave the sphere.
            pytest.param(1e-300, 1e-300, id="float-range-1e-300-1e-300"),
            pytest.param(1e-160, 1e-160, id="float-range-1e-160-1e-160"),
        ],
    )
    def test_validation(self, re, alt):
        with pytest.raises(ValueError):
            SatelliteState(re, alt)

    @pytest.mark.parametrize("field", ["earth radius", "altitude"])
    def test_below_the_least_radius_or_altitude_is_refused(self, field):
        below = math.nextafter(LEAST_KM, 0.0)
        args = (below, LEAST_KM) if field == "earth radius" else (LEAST_KM, below)
        with pytest.raises(ValueError, match=f"^{field} must be at least 1.4917e-154 km, got {below}$"):
            SatelliteState(*args)

    def test_least_radius_and_altitude_project_onto_the_sphere(self):
        sat = SatelliteState(LEAST_KM, LEAST_KM)
        for u, v in uv_disk_points(2000, horizon_limit(sat), seed=31):
            p = uv_to_earth(UvPoint(u, v), sat)
            # hypot scales its arguments, so its own squares do not underflow.
            assert abs(math.hypot(p.x_km, p.y_km, p.z_km) - LEAST_KM) <= 1e-9 * LEAST_KM

    @pytest.mark.parametrize("field", ["earth radius", "altitude"])
    def test_int_past_the_digit_limit_is_named_by_its_size(self, field):
        # str() of an int of more than 4300 digits raises the interpreter's
        # own ValueError, which names no field.
        args = (10**5000, 1.0) if field == "earth radius" else (6371.0, 10**5000)
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got an int of 16610 bits$"):
            SatelliteState(*args)

    @pytest.mark.parametrize(
        "re,alt", [(CAP_EARTH_KM, MAX_ORBIT_KM - CAP_EARTH_KM), (MAX_ORBIT_KM / 2, MAX_ORBIT_KM / 2)], ids=["altitude", "halves"]
    )
    def test_orbit_radius_at_the_bound_projects_to_finite_numbers(self, re, alt):
        # The greatest altitude is where the ceiling meets the orbit bound;
        # its ground points are finite and on the sphere.
        sat = SatelliteState(re, alt)
        assert sat.orbit_radius_km == MAX_ORBIT_KM
        limit = horizon_limit(sat)
        for p in (UvPoint(0.0, 0.0), UvPoint(0.999 * limit, 0.0), UvPoint(0.0, -0.5 * limit)):
            values = dataclasses.astuple(los_geometry(p, sat)) + dataclasses.astuple(uv_to_earth(p, sat))
            assert all(map(math.isfinite, values)), (p, values)
            assert abs(math.hypot(*values[-3:]) - re) <= 5e-10 * re, p

    @pytest.mark.parametrize("re", [6371.0, 1.0, LEAST_KM, CAP_EARTH_KM])
    def test_altitude_at_the_ceiling_projects_onto_the_sphere(self, re):
        # z = r_s - slant cos(omega) errs about an ulp of the orbit radius,
        # 2**-32 of the Earth radius at the ceiling; measured at most 2.4e-10
        # along +u, within half a unit of the ninth digit a CSV cell keeps.
        sat = SatelliteState(re, re * 2**20)
        assert sat.orbit_radius_km <= MAX_ORBIT_KM
        limit = horizon_limit(sat)
        for fraction in np.linspace(0.0, 0.999999, 2001).tolist():
            p = uv_to_earth(UvPoint(fraction * limit, 0.0), sat)
            assert abs(math.hypot(p.x_km, p.y_km, p.z_km) - re) <= 5e-10 * re, fraction

    @pytest.mark.parametrize("re", [6371.0, 1.0, 1e150])
    def test_altitude_at_the_ratio_bound_keeps_the_slant_digits(self, re):
        # The kernel's rationalised slant range against TR 38.811's formula
        # times its conjugate over itself, (a^2 + 2 r_E a) / (r_E sin(alpha)
        # + sqrt(...)), written from the elevation angle, within half a unit
        # of the ninth digit a CSV cell keeps.
        a = re * 2**-20
        sat = SatelliteState(re, a)
        limit = horizon_limit(sat)
        for fraction in np.linspace(0.0, 0.999, 1000).tolist():
            g = los_geometry(UvPoint(fraction * limit, 0.0), sat)
            sin_alpha = math.sin(g.elevation_rad)
            square = a * a + 2.0 * re * a
            stable = square / (re * sin_alpha + math.sqrt(re * re * sin_alpha * sin_alpha + square))
            assert abs(g.slant_range_km - stable) <= 5e-10 * stable, fraction


    @pytest.mark.parametrize("re", [6371.0, 1.0, 1e150])
    def test_altitude_at_the_ratio_bound_keeps_the_uv_round_trip(self, re):
        # What cancels at a low altitude is earth_to_uv's z - r_s, two terms
        # about the orbit radius in size.  At the least altitude accepted the
        # round trip stays within 1e-10 (3.6e-11 measured); at 2**-30 Earth
        # radii it would err 4.6e-10, about half a unit of the ninth digit.
        sat = SatelliteState(re, re * 2**-20)
        limit = horizon_limit(sat)
        for u, v in uv_disk_points(1000, limit, seed=5).tolist():
            q = earth_to_uv(uv_to_earth(UvPoint(u, v), sat), sat)
            assert math.hypot(q.u - u, q.v - v) <= 1e-10, (u, v)


class TestHorizonLimit:
    def test_leo(self, leo_sat):
        assert horizon_limit(leo_sat) == R_E / R_S
        assert horizon_limit(leo_sat) == pytest.approx(0.841501, abs=1e-6)

    def test_geo(self):
        assert horizon_limit(SatelliteState(6371.0, 35786.0)) == 6371.0 / 42157.0

    def test_zero_altitude_limit(self):
        # The least altitude accepted is 2**-20 times the Earth radius.
        a = 6371.0 * 2**-20
        assert horizon_limit(SatelliteState(6371.0, a)) == 6371.0 / (6371.0 + a) > 1.0 - 2**-20


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

    def test_numpy_scalar_coordinates_project_as_their_floats(self, leo_sat):
        # The ground point multiplies the coordinates themselves; a float32
        # times a Python float would stay float32.
        p = UvPoint(np.float32(0.3), np.float32(-0.2))
        got = uv_to_earth(p, leo_sat)
        assert got == uv_to_earth(UvPoint(float(p.u), float(p.v)), leo_sat)
        assert {type(c) for c in dataclasses.astuple(got)} == {float}

    def test_beyond_horizon_propagates(self, leo_sat):
        with pytest.raises(HorizonError):
            uv_to_earth(UvPoint(0.9, 0.0), leo_sat)


def decimal_ground(u: float, v: float, sat: SatelliteState) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """Oracle at 60 digits: TR 38.811's slant range exactly as written,
    ``d = -r_E sin(alpha) + sqrt(r_E^2 sin^2(alpha) + a^2 + 2 r_E a)`` with
    ``cos(alpha) = r_s |uv| / r_E`` and ``sin(alpha) = sqrt(1 - cos^2(alpha))``,
    and the ground point ``P_sat + d (u, v, -cos(omega))``.  Returns ``(sin
    alpha, x, y, z)``.  A point inside the float horizon may lie a rounding
    past the exact one, so ``cos(alpha)`` is capped at 1 as in the kernel."""
    with localcontext() as ctx:
        ctx.prec = 60
        r_e, a = Decimal(sat.earth_radius_km), Decimal(sat.altitude_km)
        r_s = r_e + a
        u_, v_ = Decimal(u), Decimal(v)
        d_uv2 = u_ * u_ + v_ * v_
        cos_alpha = min(Decimal(1), r_s * d_uv2.sqrt() / r_e)
        sin_alpha = (1 - cos_alpha * cos_alpha).sqrt()
        d = -r_e * sin_alpha + (r_e * r_e * sin_alpha * sin_alpha + a * a + 2 * r_e * a).sqrt()
        return sin_alpha, d * u_, d * v_, r_s - d * (1 - d_uv2).sqrt()


# Bound on the error of the kernel's cos(alpha): hypot, a multiply and a
# divide, each within an ulp of a number at most 1.
COS_ALPHA_ERROR = 4 * 2.0**-53


class TestDecimalOracle:
    """``uv_to_earth`` against TR 38.811's formula as written, evaluated
    exactly.  The kernel's own rounding may err ``1e-14 * r_s``; on the disk
    it erred at most 1.7e-15 r_s.  Near the horizon the ground point is
    ill-conditioned: an error ``e`` in ``cos(alpha)`` moves ``sin(alpha)`` by
    up to ``min(2e / sin(alpha), sqrt(2e))``, and the slant range by ``r_E``
    times that, whatever the formula; the bound adds that too.  Measured
    worst, relative to ``r_s``, at 1200, 600 and 35786 km: 7.7e-11, 5.6e-11
    and 4.4e-12 at 1e-12 inside the horizon, and 1.1e-8, 1.2e-8 and 2.2e-9
    nearer, at most 0.48 of the bound.  The angle-form kernel of 0.1.0 gave
    the same figures to two digits."""

    @staticmethod
    def points(limit: float) -> list[tuple[float, float]]:
        """Uniform points of the disk, and points at 0 to 1e-12 inside the
        horizon that the kernel accepts."""
        points = [tuple(p) for p in uv_disk_points(1000, limit, seed=3).tolist()]
        for delta in (0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12):
            radius = limit - delta
            ring = [(radius * math.cos(0.1 * k), radius * math.sin(0.1 * k)) for k in range(63)]
            points += [p for p in ring if math.hypot(*p) <= limit]
        return points

    @pytest.mark.parametrize("alt", [1200.0, 600.0, 35786.0])
    def test_ground_point_within_the_conditioning_of_cos_alpha(self, alt):
        sat = SatelliteState(R_E, alt)
        r_s = sat.orbit_radius_km
        points = self.points(horizon_limit(sat))
        assert len(points) > 1300
        for u, v in points:
            sin_alpha, *exact = decimal_ground(u, v, sat)
            got = uv_to_earth(UvPoint(u, v), sat)
            error = max(abs(Decimal(c) - e) for c, e in zip((got.x_km, got.y_km, got.z_km), exact))
            e = COS_ALPHA_ERROR
            conditioned = R_E * min(2 * e / float(sin_alpha) if sin_alpha else math.inf, math.sqrt(2 * e))
            assert float(error) <= 1e-14 * r_s + conditioned, (u, v)


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


def drawn_floats(n: int, seed: int) -> list[float]:
    """Signed zeros, infinities, NaN, subnormals and the extremes, then ``n``
    floats drawn as uniform 64-bit patterns (NaN payloads and subnormals
    included)."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               sys.float_info.max, -sys.float_info.max, 1.0, -1.0]
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    return special + bits.view(np.float64).tolist()


def same_point(made, built) -> None:
    """``made`` is the point ``built`` is: type, field bits, eq, hash, repr."""
    assert type(made) is type(built)
    names = [f.name for f in dataclasses.fields(built)]
    for name in names:
        # float.hex tells -0.0 from 0.0, and names every NaN alike.
        assert getattr(made, name).hex() == getattr(built, name).hex()
        assert getattr(made, name) is getattr(built, name)
    assert made == built
    assert hash(made) == hash(built)
    assert repr(made) == repr(built)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, name, 0.0)
    assert not hasattr(made, "__dict__")


class TestPointMakers:
    """The per-point producers build points by setting slots directly; the
    result must be the point the public constructor builds."""

    @pytest.mark.parametrize(
        "maker, cls", [(_uv_point, UvPoint), (_ground_point, GroundPoint)], ids=["uv", "ground"]
    )
    def test_maker_takes_every_field_in_order(self, maker, cls):
        # A field added to the class without its maker fails here.
        assert list(inspect.signature(maker).parameters) == [f.name for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize(
        "maker, cls", [(_uv_point, UvPoint), (_ground_point, GroundPoint)], ids=["uv", "ground"]
    )
    def test_maker_matches_the_constructor(self, maker, cls):
        values = drawn_floats(600, seed=61)
        arity = len(dataclasses.fields(cls))
        # Each value takes each field position once, next to other drawn values.
        for start in range(len(values)):
            args = [values[(start + k * 7) % len(values)] for k in range(arity)]
            same_point(maker(*args), cls(*args))

    def test_producers_return_frozen_points(self, leo_sat):
        rng = np.random.default_rng(67)
        for u, v in uv_disk_points(200, horizon_limit(leo_sat), seed=71):
            uv = UvPoint(u, v)
            ground = uv_to_earth(uv, leo_sat)
            same_point(ground, GroundPoint(ground.x_km, ground.y_km, ground.z_km))
            back = earth_to_uv(ground, leo_sat)
            same_point(back, UvPoint(back.u, back.v))
            sampled = sample_point_in_hexagon(uv, 0.01, rng)
            same_point(sampled, UvPoint(sampled.u, sampled.v))
