"""Layout module: lattice constants, hex grid, reuse colouring, beam build."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from uvbeams import (
    HexIndex,
    HorizonError,
    ScenarioConfig,
    UvPoint,
    adjacent_beam_spacing,
    beam_radius,
    build_layout,
    center_offset,
    frf_color,
    hex_grid,
    hexagon_contains,
    hexagon_vertices,
)
from uvbeams import layout as layout_module
from uvbeams.layout import SQRT3, BeamRole

# The count rule's ranges: least value and exclusive bound (None: no bound).
COUNT_RANGES = [
    ("rings", 0, None),
    ("ues_per_beam", 1, None),
    ("bins", 1, None),
    ("samples_per_edge", 1, None),
    ("seed", 0, 2**64),
    ("beam_id", 0, 2**32),
]
FLOAT_FIELDS = ("beamwidth_3db_deg", "altitude_km", "earth_radius_km", "center_elevation_deg")

# TR 38.821 parameter sets: (beamwidth deg, spacing rounded to 4 decimals).
TABLE_ROWS = [
    ("set1-geo-s", 0.4011, 0.0061),
    ("set1-geo-ka", 0.1765, 0.0027),
    ("set1-leo-s", 4.4127, 0.0667),
    ("set1-leo-ka", 1.7647, 0.0267),
    ("set2-geo-s", 0.7353, 0.0111),
    ("set2-geo-ka", 0.4412, 0.0067),
    ("set2-leo-s", 8.832, 0.1334),
    ("set2-leo-ka", 4.4127, 0.0667),
]


class TestBeamRadius:
    def test_leo_s_band(self):
        d = beam_radius(4.4127)
        assert d == pytest.approx(0.0384986, abs=1e-6)
        assert round(SQRT3 * d, 4) == 0.0667

    def test_geo_s_band(self):
        d = beam_radius(0.4011)
        assert d == pytest.approx(0.0035003, abs=1e-6)
        assert round(SQRT3 * d, 4) == 0.0061

    def test_small_angle_limit(self):
        assert 0.0 < beam_radius(1e-12) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, 180.0, 181.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            beam_radius(bad)


class TestAdjacentBeamSpacing:
    @pytest.mark.parametrize("name,beamwidth,expected", TABLE_ROWS)
    def test_table_rows(self, name, beamwidth, expected):
        assert round(adjacent_beam_spacing(beamwidth), 4) == expected

    def test_sqrt3_identity_is_exact(self):
        # Same floating-point expression, so equality is bitwise.
        for theta in np.linspace(0.01, 59.99, 200):
            assert adjacent_beam_spacing(theta) == SQRT3 * beam_radius(theta)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            adjacent_beam_spacing(0.0)


class TestCenterOffset:
    def test_leo_70_degrees(self):
        assert round(center_offset(70.0, 6371.0, 1200.0), 4) == 0.2878

    def test_nadir_at_90_degrees(self):
        assert abs(center_offset(90.0, 6371.0, 1200.0)) < 1e-15

    def test_low_elevation_approaches_horizon(self):
        # Elevation 0 itself is outside the domain; the offset approaches
        # r_E / (r_E + a) from below as the elevation goes to zero.
        assert center_offset(1e-9, 6371.0, 1200.0) == pytest.approx(6371.0 / 7571.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -10.0, 90.0001, 180.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            center_offset(bad, 6371.0, 1200.0)


class TestHexGrid:
    def test_center_only(self):
        assert hex_grid(0) == [HexIndex(0, 0)]

    @pytest.mark.parametrize("rings,count", [(4, 61), (6, 127)])
    def test_published_counts(self, rings, count):
        assert len(hex_grid(rings)) == count

    def test_count_identity(self):
        for n in range(11):
            assert len(hex_grid(n)) == 1 + 3 * n * (n + 1)

    def test_ring_major_ccw_order(self):
        cells = hex_grid(2)
        assert cells[:7] == [
            HexIndex(0, 0),
            HexIndex(1, 0),
            HexIndex(0, 1),
            HexIndex(-1, 1),
            HexIndex(-1, 0),
            HexIndex(0, -1),
            HexIndex(1, -1),
        ]
        assert cells[7] == HexIndex(2, 0)
        assert [c.ring() for c in cells] == [0] + [1] * 6 + [2] * 12

    def test_no_duplicates(self):
        cells = hex_grid(6)
        assert len(set(cells)) == len(cells)

    def test_negative_rings(self):
        with pytest.raises(ValueError):
            hex_grid(-1)

    @pytest.mark.parametrize("rings", [2.5, 2.0, True, math.nan])
    def test_non_integer_rings(self, rings):
        with pytest.raises(ValueError, match="rings must be an integer"):
            hex_grid(rings)


class TestCountRule:
    @pytest.mark.parametrize("name,least,bound", COUNT_RANGES)
    def test_range_ends_accepted(self, name, least, bound):
        for value in [least] if bound is None else [least, bound - 1]:
            checked = layout_module._check_count(name, value)
            assert checked == value and type(checked) is int

    @pytest.mark.parametrize("name,least,bound", COUNT_RANGES)
    def test_values_outside_range_rejected(self, name, least, bound):
        for value in [least - 1] if bound is None else [least - 1, bound]:
            with pytest.raises(ValueError, match=f"{name} must be at least {least}"):
                layout_module._check_count(name, value)

    @pytest.mark.parametrize("name,least,bound", COUNT_RANGES)
    @pytest.mark.parametrize("value", [True, 2.0])
    def test_non_integers_rejected(self, name, least, bound, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            layout_module._check_count(name, value)

    def test_numpy_integer_becomes_int(self):
        checked = layout_module._check_count("seed", np.uint64(2**64 - 1))
        assert checked == 2**64 - 1 and type(checked) is int

    def test_unknown_name_is_not_skipped(self):
        with pytest.raises(KeyError):
            layout_module._check_count("ues_per_bean", 0)


class TestFrfColor:
    def test_frf1_single_color(self):
        assert frf_color(HexIndex(0, 0), 1) == 0
        assert all(frf_color(idx, 1) == 0 for idx in hex_grid(3))

    def test_center_and_neighbors(self):
        center = HexIndex(0, 0)
        assert frf_color(center, 3) == 0
        neighbor_colors = {frf_color(n, 3) for n in center.neighbors()}
        assert neighbor_colors == {1, 2}

    def test_known_cell(self):
        assert frf_color(HexIndex(2, -1), 3) == 0

    def test_unsupported_frf(self):
        with pytest.raises(ValueError):
            frf_color(HexIndex(0, 0), 2)


class TestHexagonGeometry:
    def test_vertices_at_circumradius(self):
        center = UvPoint(0.3, -0.1)
        for v in hexagon_vertices(center, 0.04):
            dist = math.hypot(v.u - center.u, v.v - center.v)
            assert abs(dist - 0.04) <= 1e-12 * 0.04

    def test_contains_center_and_vertices(self):
        center = UvPoint(0.1, 0.2)
        assert hexagon_contains(center, 0.05, center)
        for v in hexagon_vertices(center, 0.05):
            assert hexagon_contains(center, 0.05, v)

    def test_excludes_outside_points(self):
        center = UvPoint(0.0, 0.0)
        # Just past an edge midpoint (apothem direction).
        apothem = math.sqrt(3.0) / 2.0 * 0.05
        assert not hexagon_contains(center, 0.05, UvPoint(apothem * 1.001, 0.0))
        assert not hexagon_contains(center, 0.05, UvPoint(0.06, 0.0))

    @pytest.mark.parametrize(
        "center,radius,point",
        [
            (UvPoint(10**400, 0.0), 0.05, UvPoint(0.0, 0.0)),
            (UvPoint(0.0, -(10**400)), 0.05, UvPoint(0.0, 0.0)),
            (UvPoint(0.0, 0.0), 0.05, UvPoint(10**400, 0.0)),
            (UvPoint(0.0, 0.0), 0.05, UvPoint(0.0, 10**400)),
            (UvPoint(0.0, 0.0), 10**400, UvPoint(0.0, 0.0)),
        ],
        ids=["centre-u", "centre-v", "point-u", "point-v", "radius"],
    )
    def test_int_too_large_for_a_float_rejected(self, center, radius, point):
        # These raised OverflowError once.
        with pytest.raises(ValueError, match="too large for a float"):
            hexagon_contains(center, radius, point)


class TestScenarioConfig:
    def test_ring_count_defaults_follow_frf(self):
        assert ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=1).ring_count == 4
        assert ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=3).ring_count == 6
        assert (
            ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=3, rings=2).ring_count
            == 2
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beamwidth_3db_deg": 0.0},
            {"beamwidth_3db_deg": 180.0},
            {"altitude_km": -1.0},
            {"earth_radius_km": 0.0},
            {"frf": 2},
            {"rings": -1},
            {"center_elevation_deg": 0.0},
            {"center_elevation_deg": 90.5},
            {"ues_per_beam": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"beamwidth_3db_deg": math.nan},
            {"altitude_km": math.nan},
            {"altitude_km": math.inf},
            {"earth_radius_km": math.nan},
            {"earth_radius_km": math.inf},
            {"center_elevation_deg": math.nan},
            {"ues_per_beam": 2.5},
            {"ues_per_beam": 10.0},
            {"ues_per_beam": True},
            {"seed": True},
            {"seed": 1.0},
            {"seed": "7"},
            {"rings": True},
            {"rings": 2.0},
            {"frf": True},
            {"frf": 3.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(beamwidth_3db_deg=4.4127, altitude_km=1200.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ScenarioConfig(**base)

    @pytest.mark.parametrize("value", [True, "4.4", None, 1j])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_float_field_must_be_real(self, field, value):
        base = dict(beamwidth_3db_deg=4.4127, altitude_km=1200.0)
        base[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
            ScenarioConfig(**base)

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_int_too_large_for_a_float_rejected(self, field):
        base = dict(beamwidth_3db_deg=4.4127, altitude_km=1200.0)
        base[field] = 10**400
        with pytest.raises(ValueError):
            ScenarioConfig(**base)

    def test_other_reals_become_floats(self):
        config = ScenarioConfig(
            beamwidth_3db_deg=np.float32(4.4127),
            altitude_km=np.int64(1200),
            earth_radius_km=Fraction(6371),
            center_elevation_deg=np.float64(70.0),
        )
        assert [type(getattr(config, field)) for field in FLOAT_FIELDS] == [float] * 4
        assert config.beamwidth_3db_deg == float(np.float32(4.4127))
        assert (config.altitude_km, config.earth_radius_km) == (1200.0, 6371.0)

    def test_python_numbers_kept_as_given(self):
        config = ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200, earth_radius_km=6371)
        assert type(config.altitude_km) is int and type(config.earth_radius_km) is int
        assert type(config.beamwidth_3db_deg) is float


class TestBuildLayout:
    def test_frf1_leo_scenario(self, frf1_layout):
        assert len(frf1_layout) == 61
        stats = [b for b in frf1_layout if b.role == BeamRole.STATISTICS]
        assert len(stats) == 19
        center_beam = frf1_layout.beams[0]
        assert center_beam.index == HexIndex(0, 0)
        assert round(center_beam.center_uv.u, 4) == 0.2878
        assert center_beam.center_uv.v == 0.0

    def test_single_nadir_beam(self):
        layout = build_layout(
            ScenarioConfig(
                beamwidth_3db_deg=4.4127, altitude_km=1200.0, rings=0, center_elevation_deg=90.0
            )
        )
        assert len(layout) == 1
        beam = layout.beams[0]
        assert abs(beam.center_uv.u) < 1e-15
        assert beam.center_uv.v == 0.0
        assert beam.role == BeamRole.STATISTICS

    def test_frf3_color_classes(self, frf3_layout):
        assert len(frf3_layout) == 127
        # Independent enumeration of (q - r) mod 3 over the radius-6 disk.
        expected = [0, 0, 0]
        for q in range(-6, 7):
            for r in range(-6, 7):
                if (abs(q) + abs(r) + abs(q + r)) // 2 <= 6:
                    expected[(q - r) % 3] += 1
        actual = [0, 0, 0]
        for beam in frf3_layout:
            actual[beam.color] += 1
        assert actual == expected
        assert sorted(actual, reverse=True) == [43, 42, 42]

    def test_reuse3_adjacent_beams_differ(self, frf3_layout):
        by_index = {(b.index.q, b.index.r): b for b in frf3_layout}
        for beam in frf3_layout:
            for n in beam.index.neighbors():
                other = by_index.get((n.q, n.r))
                if other is not None:
                    assert other.color != beam.color

    def test_lattice_spacing_consistency(self, frf3_layout):
        by_index = {(b.index.q, b.index.r): b for b in frf3_layout}
        spacing = frf3_layout.spacing
        for beam in frf3_layout:
            for n in beam.index.neighbors():
                other = by_index.get((n.q, n.r))
                if other is None:
                    continue
                dist = math.hypot(
                    other.center_uv.u - beam.center_uv.u,
                    other.center_uv.v - beam.center_uv.v,
                )
                assert abs(dist - spacing) <= 1e-12 * spacing

    def test_vertices_radius_invariant(self, frf1_layout):
        radius = frf1_layout.beam_radius
        for beam in frf1_layout:
            for v in beam.vertices_uv:
                dist = math.hypot(v.u - beam.center_uv.u, v.v - beam.center_uv.v)
                assert abs(dist - radius) <= 1e-12 * radius

    def test_statistics_tier_is_19_for_two_plus_rings(self):
        for rings in (2, 3, 5):
            layout = build_layout(
                ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200.0, rings=rings)
            )
            assert sum(1 for b in layout if b.role == BeamRole.STATISTICS) == 19

    def test_all_points_inside_unit_disk(self, frf3_layout):
        for beam in frf3_layout:
            assert beam.center_uv.norm() <= 1.0
            for v in beam.vertices_uv:
                assert v.norm() <= 1.0

    def test_horizon_violation_rejected(self):
        # A near-zero elevation parks the grid at the horizon; the outer
        # rings would project past the visible disk.
        with pytest.raises(HorizonError):
            build_layout(
                ScenarioConfig(
                    beamwidth_3db_deg=4.4127,
                    altitude_km=1200.0,
                    rings=4,
                    center_elevation_deg=0.0001,
                )
            )

    def test_horizon_check_stops_ring_enumeration(self, monkeypatch):
        # set2:leo_s already leaves the horizon within its default 4 rings, so
        # 50 rings must fail at the same beam, after only the cells before it.
        def build(rings):
            config = ScenarioConfig(beamwidth_3db_deg=8.832, altitude_km=1200.0, rings=rings)
            with pytest.raises(HorizonError) as info:
                build_layout(config)
            return str(info.value)

        expected = build(4)
        yielded = []
        cells = layout_module._hex_cells

        def counting_cells(rings):
            for cell in cells(rings):
                yielded.append(cell)
                yield cell

        monkeypatch.setattr(layout_module, "_hex_cells", counting_cells)
        message = build(50)
        assert message == expected
        first_bad = int(message.split()[1])
        assert len(yielded) == first_bad + 1
        assert yielded[-1].ring() <= 4
