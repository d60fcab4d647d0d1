"""The hot functions against straightforward reference versions.

The references below are the original, unoptimised implementations of the
beam layout, the hexagon sampler, the line-of-sight projection (in the
rationalised form of TR 38.811's formula, which ``test_projection.py``
checks against the formula as written, at 60 digits), the per-UE drop, the
per-point footprint and the per-beam statistics, the ``json.dump``
document the ``stats.json`` writer replaces, and a pipeline built from
these references alone that makes the five files ``run()`` streams in
beam chunks.  The package versions must
reproduce them exactly (``==``, not a tolerance, and the same sign bits):
same draws from the generator in the same order, same floating-point
operations, same bytes.  The columnar projection kernel must also equal the
scalar one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest

from conftest import uv_disk_points
from test_golden import CONFIGS
from uvbeams import (
    RNG_ALGORITHM,
    RNG_STREAM_RULE,
    STATISTICS_RINGS,
    Beam,
    BeamLayout,
    BeamRole,
    BeamStats,
    Footprint,
    GroundPoint,
    HexIndex,
    HorizonError,
    LosGeometry,
    SatelliteState,
    ScenarioConfig,
    UeRecord,
    UeTable,
    UvPoint,
    adjacent_beam_spacing,
    beam_radius,
    beam_rng,
    beam_stats,
    build_layout,
    center_offset,
    drop_ues,
    frf_color,
    hexagon_vertices,
    horizon_limit,
    los_geometry,
    project_footprints,
    sample_point_in_hexagon,
    __version__,
    uv_to_earth,
)
from uvbeams.analysis import _grouped, _stat_columns
from uvbeams.cli import PRESET_BEAMWIDTH_DEG, OUTPUT_FILES, _stats_json, preset, run
from uvbeams.projection import _ANGLE_COLUMNS, _CHUNK, _COLUMNS, _angles, _each, _line_of_sight


def ref_hex_cells(rings):
    """Cells in ring-major order, each ring walked counter-clockwise from
    (n, 0)."""
    yield HexIndex(0, 0)
    for n in range(1, rings + 1):
        q, r = n, 0
        for dq, dr in ((-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)):
            for _ in range(n):
                yield HexIndex(q, r)
                q += dq
                r += dr


def ref_build_layout(config):
    """The layout as a scalar loop: one beam per cell, each checked against
    the horizon as it is made, so the loop stops at the first bad beam."""
    radius = beam_radius(config.beamwidth_3db_deg)
    spacing = adjacent_beam_spacing(config.beamwidth_3db_deg)
    u_c = center_offset(config.center_elevation_deg, config.earth_radius_km, config.altitude_km)
    limit = horizon_limit(config.satellite())
    beams = []
    for i, idx in enumerate(ref_hex_cells(config.ring_count)):
        center = UvPoint(u_c + spacing * (idx.q + 0.5 * idx.r), spacing * (math.sqrt(3.0) / 2.0 * idx.r))
        extent = center.norm() + radius
        if extent > limit:
            raise HorizonError(
                f"beam {i} at hex ({idx.q}, {idx.r}) spans UV radius {extent:.9g}, "
                f"beyond the horizon limit {limit:.9g}"
            )
        role = BeamRole.STATISTICS if idx.ring() <= STATISTICS_RINGS else BeamRole.INTERFERENCE
        beams.append(Beam(i, idx, center, radius, frf_color(idx, config.frf), role))
    return BeamLayout(tuple(beams), radius, spacing, u_c)


def assert_layout_matches_reference(config):
    """``build_layout`` and :func:`ref_build_layout` accept or reject
    ``config`` alike: the same beams and columns, bit for bit, or the same
    :class:`HorizonError` text."""
    try:
        expected = ref_build_layout(config)
    except HorizonError as exc:
        with pytest.raises(HorizonError) as info:
            build_layout(config)
        assert str(info.value) == str(exc)
        return
    layout = build_layout(config)
    assert (layout.beam_radius, layout.spacing, layout.center_offset_u) == (
        expected.beam_radius, expected.spacing, expected.center_offset_u)
    assert layout.beams == expected.beams
    assert_identical(list(layout), list(expected))


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
    """TR 38.811's line of sight with its slant range rationalised:
    ``-r_E sin(alpha) + sqrt(r_E^2 sin^2(alpha) + a^2 + 2 r_E a)`` is
    ``r_s cos(omega) - r_E sin(alpha)``, times its conjugate over itself."""
    r_e = sat.earth_radius_km
    a = sat.altitude_km
    r_s = sat.orbit_radius_km
    d_uv = math.hypot(p_uv.u, p_uv.v)
    if d_uv > r_e / r_s:
        raise HorizonError("beyond the horizon")
    omega = math.asin(d_uv)
    cos_alpha = min(1.0, r_s * d_uv / r_e)
    cos_omega = math.sqrt((1.0 - d_uv) * (1.0 + d_uv))
    sin_alpha = math.sqrt((1.0 - cos_alpha) * (1.0 + cos_alpha))
    slant = a * (r_e + r_s) / (r_s * cos_omega + r_e * sin_alpha)
    return LosGeometry(d_uv, omega, math.pi - omega, math.atan2(p_uv.v, p_uv.u), math.acos(cos_alpha), slant)


def ref_uv_to_earth(p_uv, sat):
    """The satellite plus the slant range times the ray's unit direction,
    ``(u, v, -cos(omega))``."""
    los = ref_los_geometry(p_uv, sat)
    d = los.slant_range_km
    return GroundPoint(d * p_uv.u, d * p_uv.v, sat.orbit_radius_km - d * math.sqrt((1.0 - los.d_uv) * (1.0 + los.d_uv)))


def ref_drop_ues(layout, sat, ues_per_beam, seed):
    records = []
    for beam in layout.beams:
        rng = beam_rng(seed, beam.id)
        for k in range(ues_per_beam):
            uv = ref_sample_point_in_hexagon(beam.center_uv, layout.beam_radius, rng)
            los = ref_los_geometry(uv, sat)
            records.append(
                UeRecord(
                    beam.id * ues_per_beam + k,
                    beam.id,
                    uv,
                    ref_uv_to_earth(uv, sat),
                    los.slant_range_km,
                    math.degrees(los.elevation_rad),
                    math.degrees(los.zod_rad),
                    math.degrees(los.aod_rad),
                )
            )
    return records


def ref_footprint(beam, sat, samples_per_edge):
    verts = beam.vertices_uv
    boundary = []
    for i in range(6):
        a = verts[i]
        b = verts[(i + 1) % 6]
        for j in range(samples_per_edge):
            t = j / samples_per_edge
            uv = UvPoint(a.u + t * (b.u - a.u), a.v + t * (b.v - a.v))
            boundary.append(ref_uv_to_earth(uv, sat))
    boundary.append(boundary[0])
    return Footprint(beam.id, tuple(boundary))


def ref_beam_stats(ues, layout, bins=50):
    roles = {beam.id: beam.role for beam in layout.beams}
    by_beam = {}
    for ue in ues:
        by_beam.setdefault(ue.beam_id, []).append(ue)
    all_slants = np.array([ue.slant_range_km for ue in ues])
    lo = float(all_slants.min())
    hi = float(all_slants.max())
    degenerate = hi <= lo
    edges = np.array([lo, hi]) if degenerate else np.linspace(lo, hi, bins + 1)
    stats = []
    for beam_id in sorted(by_beam):
        group = by_beam[beam_id]
        slants = np.array([ue.slant_range_km for ue in group])
        elevations = np.array([ue.elevation_deg for ue in group])
        if degenerate:
            histogram = ((lo, hi, len(group)),)
        else:
            counts, _ = np.histogram(slants, bins=edges)
            histogram = tuple(
                (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
            )
        stats.append(
            BeamStats(
                beam_id=beam_id,
                role=roles[beam_id],
                ue_count=len(group),
                min_slant_km=float(slants.min()),
                max_slant_km=float(slants.max()),
                mean_slant_km=float(slants.mean()),
                min_elevation_deg=float(elevations.min()),
                max_elevation_deg=float(elevations.max()),
                histogram=histogram,
            )
        )
    return stats


def ref_stats_doc(stats, ue_count):
    return {
        "bins": len(stats[0].histogram),
        "global": {
            "ue_count": ue_count,
            "min_slant_km": min(s.min_slant_km for s in stats),
            "max_slant_km": max(s.max_slant_km for s in stats),
        },
        "beams": [
            {
                "beam_id": s.beam_id,
                "role": s.role.value,
                "ue_count": s.ue_count,
                "min_slant_km": s.min_slant_km,
                "max_slant_km": s.max_slant_km,
                "mean_slant_km": s.mean_slant_km,
                "min_elevation_deg": s.min_elevation_deg,
                "max_elevation_deg": s.max_elevation_deg,
                "histogram": [[lo, hi, count] for lo, hi, count in s.histogram],
            }
            for s in stats
        ],
    }


def flat(value):
    """The numbers in a record, beam, footprint or tuple, depth first."""
    if isinstance(value, (int, float)):
        return [value]
    if isinstance(value, str):  # a beam's role
        return []
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [x for item in value for x in flat(item)]


def assert_identical(got, expected):
    """``==`` and, for every float, the same sign bit (``0.0 == -0.0``)."""
    assert got == expected
    got_signs = [math.copysign(1.0, x) for x in flat(got)]
    assert got_signs == [math.copysign(1.0, x) for x in flat(expected)]


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


@pytest.fixture(scope="module")
def golden_drops():
    drops = {}
    for name in ("dense", "wide", "odd"):
        config = CONFIGS[name]
        layout = build_layout(config)
        drops[name] = (layout, drop_ues(layout, config.satellite(), config.ues_per_beam, config.seed))
    return drops


def on_bin_edges(ues, bins):
    """The UEs with slant ranges moved onto the bin edges of their own range,
    cycling through every edge, so each edge is hit by several UEs."""
    slants = [ue.slant_range_km for ue in ues]
    edges = np.linspace(min(slants), max(slants), bins + 1).tolist()
    return [
        dataclasses.replace(ue, slant_range_km=edges[i % len(edges)]) for i, ue in enumerate(ues)
    ]


def shuffled(ues):
    out = list(ues)
    random.Random(5).shuffle(out)
    return out


VARIANTS = {
    "as_dropped": lambda ues, bins: ues,
    "shuffled": lambda ues, bins: shuffled(ues),
    # Unsorted but grouped: the sort path, with every beam's UEs in order.
    "beam_descending": lambda ues, bins: sorted(ues, key=lambda ue: -ue.beam_id),
    "single_ue": lambda ues, bins: ues[len(ues) // 2 : len(ues) // 2 + 1],
    "on_bin_edges": lambda ues, bins: shuffled(on_bin_edges(ues, bins)),
}


@pytest.mark.parametrize("bins", [1, 7, 50])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", ["dense", "wide", "odd"])
def test_beam_stats_and_stats_json_match_reference(golden_drops, name, variant, bins):
    layout, ues = golden_drops[name]
    ues = VARIANTS[variant](ues, bins)
    stats = beam_stats(ues, layout, bins)
    assert stats == ref_beam_stats(ues, layout, bins)
    expected = json.dumps(ref_stats_doc(stats, len(ues)), indent=2) + "\n"
    # Lines, not one string: pytest's diff of two failing multi-megabyte
    # strings takes minutes.
    text = "".join(_stats_json(_stat_columns(*_grouped(ues, layout), bins), len(ues)))
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


def grouped_table(sizes, seed):
    """A :class:`UeTable` whose beam ``i`` holds ``sizes[i]`` UEs.  Half the
    slant ranges lie on the 50-bin edges of [1200, 2000] km, both ends
    included, and half are uniform draws; elevations are uniform draws.
    Only the beam ids, slant ranges and elevations are read by the
    statistics, so the other columns are zeros."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    slants = np.where(
        np.arange(n) % 2, rng.uniform(1200.0, 2000.0, n), np.linspace(1200.0, 2000.0, 51)[np.arange(n) % 51]
    )
    zeros = np.zeros(n)
    beam_ids = np.repeat(np.arange(len(sizes)), sizes)
    return UeTable(np.arange(n), beam_ids, zeros, zeros, zeros, zeros, zeros, slants, rng.uniform(10.0, 90.0, n), zeros, zeros)


# Beam groups around _CHUNK rows, the unit in which run() drops and projects
# UEs: one beam over two chunks, groups straddling chunk edges, and more
# one-UE beams than a chunk holds.
GROUP_SHAPES = {
    "one_beam_over_chunk": [2 * _CHUNK + 5],
    "straddling_block_edges": [_CHUNK - 1, 2, 3000, 1, _CHUNK, _CHUNK + 1],
    "one_ue_groups_over_chunk": [1] * (_CHUNK + 59),
    # Runs of equal sizes, each summed as one 2-D block by the statistics.
    "runs_of_equal_sizes": [7] * 5 + [3] * 9 + [7] * 2 + [1] + [300] * 3,
}


@pytest.fixture(scope="module")
def big_layout():
    # 2107 beams: more one-UE beams than _CHUNK.
    layout = build_layout(dataclasses.replace(CONFIGS["wide"], rings=26))
    assert len(layout) == _CHUNK + 59
    return layout


@pytest.mark.parametrize("bins", [1, 7, 50])
@pytest.mark.parametrize("shape", [*GROUP_SHAPES, "unsorted"])
def test_block_counted_histograms_match_reference(big_layout, shape, bins):
    if shape == "unsorted":
        table = grouped_table(GROUP_SHAPES["straddling_block_edges"] + [5, 300], seed=3)
        order = np.random.default_rng(4).permutation(len(table))
        table = UeTable(*(column[order] for column in table.columns()))
    else:
        table = grouped_table(GROUP_SHAPES[shape], seed=2)
    stats = beam_stats(table, big_layout, bins)
    assert stats == ref_beam_stats(table, big_layout, bins)
    assert sum(count for s in stats for _, _, count in s.histogram) == len(table)


@pytest.mark.parametrize("bins", [2, 7, 50, 333])
@pytest.mark.parametrize("ulps", [1, 2, 3, 7, 50])
def test_histograms_on_grids_with_repeated_edges_match_reference(ulps, bins):
    # Slant ranges a few ulps apart: the bin grid over them repeats edges,
    # and every distinct edge value is also a slant, three times over.
    layout = build_layout(dataclasses.replace(CONFIGS["odd"], rings=1))
    hi = 1500.0 + ulps * math.ulp(1500.0)
    slants = np.repeat(np.unique(np.linspace(1500.0, hi, 51)), 3)
    n = len(slants)
    beam_ids = np.array([beam.id for beam in layout.beams])[np.arange(n) % len(layout)]
    zeros = np.zeros(n)
    table = UeTable(np.arange(n), beam_ids, zeros, zeros, zeros, zeros, zeros, slants, np.full(n, 45.0), zeros, zeros)
    assert beam_stats(table, layout, bins) == ref_beam_stats(table, layout, bins)


def assert_run_stats_json_matches_reference(tmp_path, ues_per_beam, bins):
    config = dataclasses.replace(CONFIGS["odd"], rings=1, ues_per_beam=ues_per_beam)
    layout = build_layout(config)
    assert len(layout) == 7
    run(config, tmp_path, bins=bins, edge_samples=1)
    ues = drop_ues(layout, config.satellite(), ues_per_beam, config.seed)
    expected = json.dumps(ref_stats_doc(ref_beam_stats(ues, layout, bins), len(ues)), indent=2) + "\n"
    got = (tmp_path / "stats.json").read_text(encoding="utf-8")
    assert got.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("ues_per_beam", [_CHUNK + 1, 2 * _CHUNK + 3])
def test_run_stats_json_matches_reference_beyond_one_chunk_per_beam(tmp_path, ues_per_beam):
    # Each beam is a drop chunk of its own, and its UEs span more than one _CHUNK.
    assert_run_stats_json_matches_reference(tmp_path, ues_per_beam, 50)


@pytest.mark.parametrize("bins", [50, 333, 2049])
@pytest.mark.parametrize("ues_per_beam", [1, 300])
def test_run_stats_json_matches_reference_across_statistics_chunks(tmp_path, ues_per_beam, bins):
    # The statistics are counted in chunks of at most _CHUNK UEs and _CHUNK
    # histogram cells: of the 7 beams, 6 + 1 for 300 UEs per beam or 333
    # bins, one beam each for 2049 bins, and all 7 for 1 UE and 50 bins.
    assert_run_stats_json_matches_reference(tmp_path, ues_per_beam, bins)


def horizon_points(limit):
    """UV points on and just inside the horizon circle.  Points placed on the
    circle by cos and sin can land one ulp outside; those are left out."""
    points = [(limit, 0.0), (0.0, -limit), (-limit, 0.0), (math.nextafter(limit, 0.0), 0.0)]
    points += [(limit * math.cos(0.1 * k), limit * math.sin(0.1 * k)) for k in range(63)]
    return [p for p in points if math.hypot(*p) <= limit]


def assert_columns_match_scalar(uv, sat):
    u, v = np.array(uv, dtype=float).T
    columns = _line_of_sight(u, v, sat, *_COLUMNS)
    scalar = [_line_of_sight(a, b, sat) for a, b in uv]
    assert all(type(c) is np.ndarray for c in columns)
    assert_identical([c.tolist() for c in columns], [list(s) for s in zip(*scalar)])
    angles = _angles(u, v, *columns[:2], *_ANGLE_COLUMNS)
    assert_identical([c.tolist() for c in angles], [list(s) for s in zip(*(_angles(*p, *s[:2]) for p, s in zip(uv, scalar)))])
    for c in angles:
        assert_identical(_each(math.degrees)(c).tolist(), [math.degrees(x) for x in c.tolist()])


@pytest.mark.parametrize("sat", SATELLITES, ids=["leo", "geo", "tiny"])
def test_column_kernel_matches_scalar_kernel_on_disk(sat):
    uv = [tuple(p) for p in uv_disk_points(3000, horizon_limit(sat), seed=11).tolist()]
    # Nadir and the axes give zero and signed-zero coordinates.
    uv += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.1, -0.0), (-0.1, 0.0)]
    assert_columns_match_scalar(uv, sat)


@pytest.mark.parametrize("sat", SATELLITES, ids=["leo", "geo", "tiny"])
def test_column_kernel_matches_scalar_kernel_at_horizon(sat):
    assert_columns_match_scalar(horizon_points(horizon_limit(sat)), sat)


# The first point past the horizon in a column, as a function of the limit.
BEYOND = {
    "next_double": lambda limit: (math.nextafter(limit, 2.0), 0.0),
    "far": lambda limit: (0.0, -1.5 * limit),
    "nan": lambda limit: (math.nan, 0.0),
}


@pytest.mark.parametrize("sat", SATELLITES, ids=["leo", "geo", "tiny"])
@pytest.mark.parametrize("kind", sorted(BEYOND))
def test_column_kernel_raises_the_scalar_horizon_error(sat, kind):
    limit = horizon_limit(sat)
    first = BEYOND[kind](limit)
    uv = horizon_points(limit) + [first] + horizon_points(limit) + [(0.0, 1.01 * limit)]
    with pytest.raises(HorizonError) as scalar:
        _line_of_sight(*first, sat)
    u, v = np.array(uv).T
    with pytest.raises(HorizonError) as columns:
        _line_of_sight(u, v, sat, *_COLUMNS)
    assert str(columns.value) == str(scalar.value)


@pytest.mark.parametrize("name", ["dense", "wide", "odd", "nadir"])
def test_drop_matches_per_ue_reference(name):
    config = CONFIGS[name]
    layout = build_layout(config)
    sat = config.satellite()
    ues = drop_ues(layout, sat, config.ues_per_beam, config.seed)
    assert_identical(list(ues), ref_drop_ues(layout, sat, config.ues_per_beam, config.seed))


@pytest.mark.parametrize("samples_per_edge", [1, 3, 8])
@pytest.mark.parametrize("name", ["dense", "wide", "odd", "nadir"])
def test_footprints_match_per_point_reference(name, samples_per_edge):
    config = CONFIGS[name]
    layout = build_layout(config)
    sat = config.satellite()
    footprints = project_footprints(layout, sat, samples_per_edge)
    assert_identical(list(footprints), [ref_footprint(b, sat, samples_per_edge) for b in layout])


@pytest.mark.parametrize("samples_per_edge", [1, 8, 341, 342])
def test_footprints_match_reference_at_chunk_boundaries(samples_per_edge):
    # 7, 49, 2047 and 2053 points per beam.  The kernel projects _CHUNK
    # points at a time, so for 49, 2047 and 2053 a kernel chunk ends inside
    # a beam.  run() hands the projection max(1, _CHUNK // points) beams at
    # a time, and the 61 beams are not a multiple of that step for 7 or 49.
    config = CONFIGS["odd"]
    layout = build_layout(config)
    sat = config.satellite()
    points = 6 * samples_per_edge + 1
    step = max(1, _CHUNK // points)
    assert step == 1 or len(layout) % step
    footprints = project_footprints(layout, sat, samples_per_edge)
    assert_identical(list(footprints), [ref_footprint(b, sat, samples_per_edge) for b in layout])


@pytest.mark.parametrize("frf", [1, 3])
@pytest.mark.parametrize("key", sorted(PRESET_BEAMWIDTH_DEG), ids=":".join)
def test_layout_matches_reference_on_presets(key, frf):
    for elevation in (90.0, 70.0, 45.0, 30.0, 12.5):
        assert_layout_matches_reference(dataclasses.replace(preset(*key), frf=frf, center_elevation_deg=elevation))


def independent_run(config: ScenarioConfig, bins: int, edge_samples: int) -> dict[str, str]:
    """The text of each of ``run()``'s five files, made from the scalar
    layout loop, the per-UE and per-point reference kernels, ``json.dumps``
    and one ``%`` per CSV row.  Of the package's layout code only the
    lattice constants and the ``Beam`` records are used, and no drop,
    projection, statistics or writer code, so the two sides fail apart."""
    layout = ref_build_layout(config)
    sat = config.satellite()
    ues = ref_drop_ues(layout, sat, config.ues_per_beam, config.seed)

    def csv(header, template, rows):
        # CSV floats are never -0.0: ``x or 0.0`` makes every zero 0.0, and
        # %d writes an integer field's 0.0 as 0.
        return header + "\n" + "".join(template % tuple(x or 0.0 for x in row) for row in rows)

    beams = [(b.id, b.index.q, b.index.r, b.center_uv.u, b.center_uv.v, b.color, b.role.value) for b in layout]
    ue_rows = [
        (ue.ue_id, ue.beam_id, ue.uv.u, ue.uv.v, ue.ground.x_km, ue.ground.y_km, ue.ground.z_km,
         ue.slant_range_km, ue.elevation_deg, ue.zod_deg, ue.aod_deg)
        for ue in ues
    ]
    footprints = [
        (b.id, k, p.x_km, p.y_km, p.z_km)
        for b in layout
        for k, p in enumerate(ref_footprint(b, sat, edge_samples).boundary)
    ]
    manifest = {
        "version": __version__,
        "config": {**dataclasses.asdict(config), "rings": config.ring_count},
        "derived": {
            "beam_radius": layout.beam_radius,
            "adjacent_beam_spacing": layout.spacing,
            "center_offset_u": layout.center_offset_u,
            "horizon_limit": horizon_limit(sat),
            "beam_count": len(layout),
            "statistics_beam_count": sum(b.role is BeamRole.STATISTICS for b in layout),
        },
        "rng": {"generator": RNG_ALGORITHM, "stream_rule": RNG_STREAM_RULE, "seed": config.seed},
        "outputs": list(OUTPUT_FILES),
    }
    return {
        "beams.csv": csv("id,q,r,u,v,color,role", "%d,%d,%d,%.9g,%.9g,%d,%s\n", beams),
        "ues.csv": csv(
            "ue_id,beam_id,u,v,x_km,y_km,z_km,slant_km,elev_deg,zod_deg,aod_deg",
            "%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
            ue_rows,
        ),
        "footprints.csv": csv("beam_id,vertex_idx,x_km,y_km,z_km", "%d,%d,%.9g,%.9g,%.9g\n", footprints),
        "stats.json": json.dumps(ref_stats_doc(ref_beam_stats(ues, layout, bins), len(ues)), indent=2) + "\n",
        "manifest.json": json.dumps(manifest, indent=2) + "\n",
    }


@pytest.mark.parametrize("edge_samples", [8, 342])
@pytest.mark.parametrize("ues_per_beam", [1, 300, 1024, 2049])
def test_streamed_run_matches_whole_table_run(tmp_path, ues_per_beam, edge_samples):
    # run() drops max(1, _CHUNK // ues_per_beam) beams at a time: chunks of
    # 7, 6 + 1, 2 + 2 + 2 + 1 and 1 x 7 of the 7 beams.  With 8 edge samples
    # a beam has 49 boundary points and the footprints are one chunk; with
    # 342 it has 2053, more than _CHUNK, and each beam is its own chunk.
    config = dataclasses.replace(CONFIGS["odd"], rings=1, ues_per_beam=ues_per_beam)
    assert len(build_layout(config)) == 7
    run(config, tmp_path, bins=50, edge_samples=edge_samples)
    expected = independent_run(config, bins=50, edge_samples=edge_samples)
    for name in OUTPUT_FILES:
        got = (tmp_path / name).read_bytes()
        # Lines, not one string, so a failure shows a short diff.
        assert got.splitlines(keepends=True) == expected[name].encode("utf-8").splitlines(keepends=True), name
