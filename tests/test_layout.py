"""Layout module: lattice constants, hex grid, reuse colouring, beam build."""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from uvbeams import (
    Beam,
    BeamTable,
    HexIndex,
    HorizonError,
    ScenarioConfig,
    UvPoint,
    adjacent_beam_spacing,
    beam_radius,
    beam_rng,
    beam_stats,
    build_layout,
    center_offset,
    drop_ues,
    frf_color,
    hex_grid,
    hexagon_contains,
    hexagon_vertices,
    project_footprints,
    run,
    uv_to_earth,
)
from uvbeams import layout as layout_module
from uvbeams.layout import SQRT3, BeamRole

# The count rule's ranges: least value and exclusive bound (None: none
# checked here; the ring bound, 37837, has its own test).
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

    # radians(5e-324) underflows to 0.0: that beam would have no extent.
    @pytest.mark.parametrize("bad", [0.0, -1.0, 180.0, 181.0, 5e-324])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            beam_radius(bad)

    @pytest.mark.parametrize("elevation", [90.0, 70.0, 10.0])
    def test_least_radius_keeps_beam_centres_distinct(self, elevation):
        # The least beamwidth whose UV radius is at least 2**-48.
        def radius(beamwidth):
            return math.sin(math.radians(beamwidth) / 2.0)

        beamwidth = math.degrees(2.0 * 2**-48)
        while radius(beamwidth) < 2**-48:
            beamwidth = math.nextafter(beamwidth, math.inf)
        while radius(math.nextafter(beamwidth, 0.0)) >= 2**-48:
            beamwidth = math.nextafter(beamwidth, 0.0)
        config = ScenarioConfig(beamwidth_3db_deg=beamwidth, altitude_km=1200.0, center_elevation_deg=elevation, rings=3)
        layout = build_layout(config)
        assert layout.beam_radius >= 2**-48
        assert len({beam.center_uv for beam in layout}) == len(layout) == 37
        for beam in layout:
            assert beam.center_uv not in beam.vertices_uv
        with pytest.raises(ValueError, match=re.escape("is below 2**-48")):
            beam_radius(math.nextafter(beamwidth, 0.0))


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


class Count:
    """A count of a type registered as :class:`numbers.Integral` that is not
    an int: it converts with ``int()`` and supports nothing else."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value


numbers.Integral.register(Count)


def count_entry_result(entry, count, tmp_path):
    """What public entry ``entry`` gives for small counts, each passed
    through ``count``: the plain int, or :class:`Count`."""
    config = ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=600.0, rings=count(1), ues_per_beam=count(3), seed=count(5))
    if entry == "ScenarioConfig":
        return config
    if entry == "hex_grid":
        return hex_grid(count(2))
    if entry == "beam_rng":
        return beam_rng(count(5), count(3)).bit_generator.state
    layout = build_layout(config)
    sat = config.satellite()
    if entry == "drop_ues":
        return drop_ues(layout, sat, count(3), count(5))
    if entry == "beam_stats":
        return beam_stats(drop_ues(layout, sat, 3, 5), layout, bins=count(7))
    if entry == "project_footprints":
        return project_footprints(layout, sat, count(4))
    out = tmp_path / type(count(0)).__name__
    manifest = run(config, out, bins=count(7), edge_samples=count(4))
    return manifest, {name: (out / name).read_bytes() for name in manifest.outputs}


class TestCountRule:
    @pytest.mark.parametrize(
        "entry", ["ScenarioConfig", "hex_grid", "beam_rng", "drop_ues", "beam_stats", "project_footprints", "run"]
    )
    def test_integral_type_counts_as_its_int(self, entry, tmp_path):
        assert count_entry_result(entry, Count, tmp_path) == count_entry_result(entry, int, tmp_path)

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

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("rings", 37837, "rings must be at least 0 and below 37837, got 37837"),
            ("beam_id", 2**32, "beam_id must be at least 0 and below 2**32, got 4294967296"),
            ("bins", 0, "bins must be at least 1, got 0"),
        ],
    )
    def test_message_names_the_bound(self, name, value, message):
        with pytest.raises(ValueError) as info:
            layout_module._check_count(name, value)
        assert str(info.value) == message

    def test_ring_bound_keeps_beam_ids_below_2_to_32(self):
        # 1 + 3 R (R + 1) beams, ids 0 to that count - 1.  Checked by
        # validation only: a layout of 37836 rings holds 4.3e9 beams.
        def beams(rings):
            return 1 + 3 * rings * (rings + 1)

        assert layout_module._COUNT_RANGE["rings"] == (0, 37837)
        assert beams(37836) <= 2**32 < beams(37837)
        assert layout_module._check_count("rings", 37836) == 37836
        assert ScenarioConfig(beamwidth_3db_deg=1e-9, altitude_km=1200.0, rings=37836).ring_count == 37836
        for rings in (37837, 40000):
            with pytest.raises(ValueError, match=f"rings must be at least 0 and below 37837, got {rings}"):
                ScenarioConfig(beamwidth_3db_deg=1e-9, altitude_km=1200.0, rings=rings)

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

    def test_edge_normals_are_the_first_three_axial_steps(self):
        # Opposite edges share a normal's axis: normal k is perpendicular to
        # the edges that end at corner k and at corner k + 3.
        normals = layout_module._EDGE_NORMAL
        assert normals == ((1.0, 0.0), (0.5, SQRT3 / 2.0), (-0.5, SQRT3 / 2.0))
        corners = hexagon_vertices(UvPoint(0.0, 0.0), 1.0)
        ulp = 2.0**-52
        for k, (nu, nv) in enumerate(normals):
            assert abs(math.hypot(nu, nv) - 1.0) <= 2 * ulp
            for end in (k, k + 3):
                a, b = corners[end - 1], corners[end]
                assert abs((b.u - a.u) * nu + (b.v - a.v) * nv) <= 4 * ulp

    def test_contains_edge_midpoints_and_rejects_them_pushed_out(self):
        center = UvPoint(0.0, 0.0)
        corners = hexagon_vertices(center, 1.0)
        for a, b in zip(corners, corners[1:] + corners[:1]):
            mu, mv = (a.u + b.u) / 2.0, (a.v + b.v) / 2.0
            assert hexagon_contains(center, 1.0, UvPoint(mu, mv), tol=1e-12)
            # The midpoint lies along the edge's outward normal, at the
            # apothem sqrt(3)/2.
            scale = 1.0 + 1e-9 / math.hypot(mu, mv)
            assert not hexagon_contains(center, 1.0, UvPoint(mu * scale, mv * scale), tol=1e-12)

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
            # UV radii below 2**-48; orbit radii whose square overflows; an
            # altitude below 2**-20 times the Earth radius.
            {"beamwidth_3db_deg": 5e-324},
            {"earth_radius_km": 1e155},
            {"altitude_km": 1e200},
            {"beamwidth_3db_deg": 1e-320, "rings": 1, "ues_per_beam": 2},
            {"earth_radius_km": 1.3e154},
            # Beam ids past 2**32; accepted before, the build then ran
            # until killed.
            {"beamwidth_3db_deg": 1e-9, "rings": 40000},
            {"rings": 37837},
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

    @pytest.mark.parametrize(
        "field, sign, message",
        [
            ("beamwidth_3db_deg", 1, "3 dB beamwidth must lie in (0, 180) degrees, got an int of 16610 bits"),
            ("altitude_km", 1, "altitude must be positive and finite, got an int of 16610 bits"),
            ("earth_radius_km", 1, "earth radius must be positive and finite, got an int of 16610 bits"),
            ("center_elevation_deg", 1, "centre elevation must lie in (0, 90] degrees, got an int of 16610 bits"),
            ("seed", 1, "seed must be at least 0 and below 2**64, got an int of 16610 bits"),
            ("seed", -1, "seed must be at least 0 and below 2**64, got a negative int of 16610 bits"),
            ("frf", 1, "unsupported frequency reuse factor an int of 16610 bits; expected 1 or 3"),
        ],
        ids=["beamwidth", "altitude", "earth_radius", "center_elevation", "seed", "negative_seed", "frf"],
    )
    def test_int_past_the_digit_limit_is_named_by_its_size(self, field, sign, message):
        # str() of an int of more than 4300 digits raises the interpreter's
        # own ValueError, which names no field.
        base = dict(beamwidth_3db_deg=4.4127, altitude_km=1200.0)
        base[field] = sign * 10**5000
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


class TestBeamTable:
    def test_items_are_beams_and_slices_are_tables(self, frf3_layout):
        table = frf3_layout.beams
        beams = list(table)
        assert len(beams) == len(table) == 127
        assert all(type(b) is Beam for b in beams)
        assert table[5] == beams[5] and table[-1] == beams[-1]
        for part in (slice(10, 20, 3), slice(None, None, -1), slice(5, 5)):
            assert type(table[part]) is BeamTable and list(table[part]) == beams[part]

    def test_columns_hold_the_beam_fields(self, frf3_layout):
        rows = [(b.id, b.index.q, b.index.r, b.center_uv.u, b.center_uv.v, b.color, b.role.value) for b in frf3_layout]
        assert list(zip(*(c.tolist() for c in frf3_layout.beams.columns()))) == rows

    def test_replace_with_beams_gives_an_equal_layout(self, frf1_layout, frf3_layout):
        again = dataclasses.replace(frf3_layout, beams=list(frf3_layout))
        assert type(again.beams) is BeamTable and again.beams is not frf3_layout.beams
        assert again == frf3_layout and frf1_layout != frf3_layout
        assert dataclasses.replace(frf3_layout, beams=frf3_layout.beams[:-1]) != frf3_layout

    def test_replaced_radius_is_the_radius_of_every_beam(self, frf1_layout, leo_sat):
        # The layout states its radius once: each Beam's corners and the
        # footprints follow a replaced beam_radius alike.
        layout = dataclasses.replace(frf1_layout, beam_radius=frf1_layout.beam_radius / 2)
        assert layout.beams.radius is layout.beam_radius
        footprints = project_footprints(layout, leo_sat, 1)
        for beam, footprint in zip(layout, footprints):
            assert list(footprint.boundary[:6]) == [uv_to_earth(p, leo_sat) for p in beam.vertices_uv]
        # A slice keeps the layout's radius, so a sub-layout takes it as is.
        part = layout.beams[2:5]
        assert dataclasses.replace(layout, beams=part).beams is part


def _shared(table) -> dict:
    """The values every row of ``table`` shares: its slots that are not
    columns."""
    return {name: value for name in type(table).__slots__ if not isinstance(value := getattr(table, name), np.ndarray)}


def _one_cell_changed(value):
    """A copy of a column with its last cell changed, or a changed shared
    value."""
    if not isinstance(value, np.ndarray):
        return value * 2
    changed = value.copy()
    changed.flat[-1] = "changed" if value.dtype.kind == "U" else changed.flat[-1] + 1
    return changed


class TestTableProtocol:
    """The row, slice and equality rules that the beam, UE and footprint
    tables share."""

    @pytest.fixture(scope="class")
    def tables(self, frf1_layout, leo_sat):
        return {
            "beams": frf1_layout.beams,
            "ues": drop_ues(frf1_layout, leo_sat, 3, seed=5),
            "footprints": project_footprints(frf1_layout, leo_sat, samples_per_edge=2),
        }

    @pytest.fixture(params=["beams", "ues", "footprints"])
    def table(self, request, tables):
        return tables[request.param]

    def test_equality_sees_one_cell_a_shorter_slice_and_another_type(self, table, tables):
        assert table == table[:] and not table != table[:]
        for name in type(table).__slots__:
            changed = copy.copy(table)
            setattr(changed, name, _one_cell_changed(getattr(table, name)))
            assert changed != table and table != changed, name
        assert table != table[:-1] and table[1:] != table
        others = [t for t in tables.values() if t is not table]
        for other in (list(table), table.columns(), None, *others):
            assert table != other and not table == other

    def test_a_table_of_no_rows_is_empty(self, table):
        empty = type(table).from_rows([], **_shared(table))
        assert type(empty) is type(table) and len(empty) == 0 and list(empty) == []
        assert _shared(empty) == _shared(table)
        assert [len(c) for c in empty.columns()] == [0] * len(table.columns())
        assert type(empty[:]) is type(table) and empty == empty[:]
        with pytest.raises(IndexError):
            empty[0]

    @pytest.mark.parametrize("part", [slice(-7, None), slice(None, -50), slice(-2, -20, -3), slice(1, None, 4), slice(None, None, -6)])
    def test_negative_and_stepped_slices(self, table, part):
        records = list(table)
        piece = table[part]
        assert type(piece) is type(table) and _shared(piece) == _shared(table)
        assert list(piece) == records[part] and len(piece) == len(records[part])
        assert table[-1] == records[-1] and table[-len(table)] == records[0]


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

    def test_horizon_check_builds_only_the_rings_the_horizon_admits(self, monkeypatch):
        # set2:leo_s already leaves the horizon within its default 4 rings.
        # 50 rings, and the most rings the count rule accepts, must fail at
        # the same beam with the same message, without building their grid.
        def build(rings):
            config = ScenarioConfig(beamwidth_3db_deg=8.832, altitude_km=1200.0, rings=rings)
            with pytest.raises(HorizonError) as info:
                build_layout(config)
            return str(info.value)

        expected = build(4)
        built = []
        columns = layout_module._hex_columns

        def recording_columns(rings):
            built.append(rings)
            return columns(rings)

        monkeypatch.setattr(layout_module, "_hex_columns", recording_columns)
        assert build(50) == expected
        start = time.perf_counter()
        assert build(37836) == expected
        assert time.perf_counter() - start < 1.0
        # The centre sits at u 0.288 and ring n at least n * 0.1155 from it,
        # so from ring 10 on every beam is past the limit 0.8415; the build
        # makes one ring more than that.
        assert built == [11, 11]
