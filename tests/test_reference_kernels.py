"""The hot functions against straightforward reference versions.

The references below are the original, unoptimised implementations of the
hexagon sampler, the line-of-sight projection, the per-UE drop, the
per-point footprint and the per-beam statistics, the ``json.dump``
document the ``stats.json`` writer replaces, and the whole-table pipeline
that ``run()`` streams in beam chunks.  The package versions must
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
    BeamRole,
    BeamStats,
    Footprint,
    GroundPoint,
    HorizonError,
    LosGeometry,
    SatelliteState,
    UeRecord,
    UvPoint,
    beam_rng,
    beam_stats,
    build_layout,
    drop_ues,
    hexagon_vertices,
    horizon_limit,
    los_geometry,
    project_footprints,
    sample_point_in_hexagon,
    __version__,
    uv_to_earth,
)
from uvbeams.cli import (
    _BEAMS_ROW,
    _FOOTPRINTS_ROW,
    _UES_ROW,
    BEAMS_CSV_HEADER,
    FOOTPRINTS_CSV_HEADER,
    OUTPUT_FILES,
    UES_CSV_HEADER,
    _csv,
    _stats_json,
    _write,
    run,
)
from uvbeams.projection import _CHUNK, _COLUMNS, _each, _line_of_sight


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


def ref_stats_doc(stats, bins, ue_count):
    return {
        "bins": bins,
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
    """The numbers in a record, footprint or tuple, depth first."""
    if isinstance(value, (int, float)):
        return [value]
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
    expected = json.dumps(ref_stats_doc(stats, bins, len(ues)), indent=2) + "\n"
    # Lines, not one string: pytest's diff of two failing multi-megabyte
    # strings takes minutes.
    text = "".join(_stats_json(stats, bins, len(ues)))
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


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
    for c in columns[1:5]:
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
    # 7, 49, 2047 and 2053 points per beam: the projection steps through
    # max(1, _CHUNK // points) beams at a time, and the 61 beams are not a
    # multiple of that step for 7 or 49 points.
    config = CONFIGS["odd"]
    layout = build_layout(config)
    sat = config.satellite()
    points = 6 * samples_per_edge + 1
    step = max(1, _CHUNK // points)
    assert step == 1 or len(layout) % step
    footprints = project_footprints(layout, sat, samples_per_edge)
    assert_identical(list(footprints), [ref_footprint(b, sat, samples_per_edge) for b in layout])


def ref_run(config, out_dir, bins, edge_samples):
    """``run()`` on whole tables: one drop of every beam, the public
    ``beam_stats``, the footprints of every beam, then the same writers."""
    layout = build_layout(config)
    sat = config.satellite()
    ues = drop_ues(layout, sat, config.ues_per_beam, config.seed)
    stats = beam_stats(ues, layout, bins)
    footprints = project_footprints(layout, sat, edge_samples)
    beams = ((b.id, b.index.q, b.index.r, b.center_uv.u, b.center_uv.v, b.color, b.role.value) for b in layout)
    _write(out_dir / "beams.csv", _csv(BEAMS_CSV_HEADER, _BEAMS_ROW, *map(np.array, zip(*beams))))
    _write(out_dir / "ues.csv", _csv(UES_CSV_HEADER, _UES_ROW, *ues.columns()))
    _write(out_dir / "footprints.csv", _csv(FOOTPRINTS_CSV_HEADER, _FOOTPRINTS_ROW, *footprints.columns()))
    _write(out_dir / "stats.json", _stats_json(stats, bins, len(ues)))
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
    _write(out_dir / "manifest.json", [json.dumps(manifest, indent=2), "\n"])


@pytest.mark.parametrize("edge_samples", [8, 342])
@pytest.mark.parametrize("ues_per_beam", [1, 300, 1024, 2049])
def test_streamed_run_matches_whole_table_run(tmp_path, ues_per_beam, edge_samples):
    # run() drops max(1, _CHUNK // ues_per_beam) beams at a time: chunks of
    # 7, 6 + 1, 2 + 2 + 2 + 1 and 1 x 7 of the 7 beams.  With 8 edge samples
    # a beam has 49 boundary points and the footprints are one chunk; with
    # 342 it has 2053, more than _CHUNK, and each beam is its own chunk.
    config = dataclasses.replace(CONFIGS["odd"], rings=1, ues_per_beam=ues_per_beam)
    assert len(build_layout(config)) == 7
    run(config, tmp_path / "streamed", bins=50, edge_samples=edge_samples)
    expected = tmp_path / "whole"
    expected.mkdir()
    ref_run(config, expected, bins=50, edge_samples=edge_samples)
    for name in OUTPUT_FILES:
        got = (tmp_path / "streamed" / name).read_bytes()
        want = (expected / name).read_bytes()
        # Lines, not one string, so a failure shows a short diff.
        assert got.splitlines(keepends=True) == want.splitlines(keepends=True), name
