"""Property tests of the geometry and the statistics, drawn by Hypothesis.

Every test is derandomized, so a run draws the same examples each time and
the suite stays deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from test_golden import CONFIGS  # noqa: E402
from test_reference_kernels import assert_layout_matches_reference, independent_run  # noqa: E402
from uvbeams import (  # noqa: E402
    BeamRole,
    GroundPoint,
    HorizonError,
    SatelliteState,
    ScenarioConfig,
    UeTable,
    UvPoint,
    beam_rng,
    beam_stats,
    build_layout,
    drop_ues,
    earth_to_uv,
    horizon_limit,
    sample_point_in_hexagon,
    uv_to_earth,
)
from uvbeams.cli import OUTPUT_FILES, PRESET_BEAMWIDTH_DEG, _WRITE_BYTES, _csv, _stats_json, preset, run  # noqa: E402
from uvbeams.projection import _ANGLE_COLUMNS, _angles, _project_columns  # noqa: E402

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)

EARTH_RADIUS_KM = 6371.0
# LEO to beyond GEO.
satellites = st.builds(
    SatelliteState, st.just(EARTH_RADIUS_KM), st.floats(300.0, 40000.0)
)
# A UV point as a fraction of the horizon radius and an angle; a point put
# on the horizon circle by cos and sin can land one ulp outside it.
fractions = st.floats(0.0, 0.999999)
angles = st.floats(-math.pi, math.pi)
finite = st.floats(-1e3, 1e3)
# The edges of the seed range, or any unsigned 64-bit seed.
seeds = st.sampled_from([0, 1, 2**63 + 5, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def uv_at(sat: SatelliteState, fraction: float, angle: float) -> UvPoint:
    r = fraction * horizon_limit(sat)
    return UvPoint(r * math.cos(angle), r * math.sin(angle))


@pytest.fixture(scope="module")
def odd_drop():
    config = CONFIGS["odd"]
    layout = build_layout(config)
    return layout, drop_ues(layout, config.satellite(), config.ues_per_beam, config.seed)


@deterministic
@given(data=st.data(), bins=st.integers(1, 60))
def test_beam_stats_counts_every_ue_once_on_one_grid(odd_drop, data, bins):
    layout, ues = odd_drop
    # Any subset of the drop, in any order.
    order = data.draw(st.permutations(range(len(ues))))
    keep = np.array(order[: data.draw(st.integers(1, len(ues)))])
    table = UeTable(*(column[keep] for column in ues.columns()))
    stats = beam_stats(table, layout, bins)
    assert [s.beam_id for s in stats] == sorted(set(table.beam_id.tolist()))
    assert sum(s.ue_count for s in stats) == len(keep)
    slants = table.slant_range_km
    lo, hi = float(slants.min()), float(slants.max())
    edges = [lo, hi] if hi <= lo else np.linspace(lo, hi, bins + 1).tolist()
    grid = list(zip(edges[:-1], edges[1:]))
    for s in stats:
        assert sum(count for _, _, count in s.histogram) == s.ue_count
        assert [(a, b) for a, b, _ in s.histogram] == grid


# Any finite float, or one of the least subnormal, a subnormal, the
# greatest floats, integral floats and floats whose repr has 17 digits.
stat_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.5e-310, 1e308, -1.7976931348623157e308, 0.0, -0.0, 3.0, 2.0**53, -1e16, 0.30000000000000004, 1234.5678901234567]
)
stat_counts = st.integers(0, 2**31)


# A count of one to ten digits.
positive_counts = st.sampled_from([1, 9, 10, 99, 100, 12345, 2**31]) | st.integers(1, 2**31)


@st.composite
def sparse_rows(draw, bins):
    """One beam's ``bins`` histogram counts, mostly 0: a few cells or none,
    only the first cell, only the last, or every cell."""
    kind = draw(st.sampled_from(["few", "first", "last", "every"]))
    if kind == "every":
        return draw(st.lists(positive_counts, min_size=bins, max_size=bins))
    if kind == "few":
        cells = draw(st.lists(st.integers(0, bins - 1), max_size=3))
    else:
        cells = [0] if kind == "first" else [bins - 1]
    row = [0] * bins
    for cell in cells:
        row[cell] = draw(positive_counts)
    return row


@st.composite
def stat_chunks(draw, bins, rows=None):
    """One chunk of ``analysis._stat_columns``: 1 to 4 beams' columns, with
    histogram rows drawn from ``rows``, by default any ``bins`` counts."""
    rows = st.lists(stat_counts, min_size=bins, max_size=bins) if rows is None else rows
    beams = draw(st.integers(1, 4))

    def column(values, dtype=None):
        return np.array(draw(st.lists(values, min_size=beams, max_size=beams)), dtype=dtype)

    return [
        column(st.integers(0, 2**32 - 1), np.int64),
        column(st.sampled_from([role.value for role in BeamRole])),
        column(stat_counts, np.int64),
        *(column(stat_floats, np.float64) for _ in range(5)),
        column(rows, np.int64).reshape(beams, bins),
    ]


def json_stats_text(edges, chunks, ue_count):
    """What ``json`` writes for the ``stats.json`` document of the bin
    ``edges``, the ``_stat_columns`` ``chunks`` and ``ue_count``."""
    names = ("beam_id", "role", "ue_count", "min_slant_km", "max_slant_km", "mean_slant_km", "min_elevation_deg", "max_elevation_deg")
    beams = [
        {**dict(zip(names, values)), "histogram": [[lo, hi, count] for lo, hi, count in zip(edges, edges[1:], row)]}
        for *fields, counts in chunks
        for *values, row in zip(*(c.tolist() for c in fields), counts.tolist())
    ]
    doc = {
        "bins": len(edges) - 1,
        "global": {"ue_count": ue_count, "min_slant_km": edges[0], "max_slant_km": edges[-1]},
        "beams": beams,
    }
    return json.dumps(doc, indent=2) + "\n"


@deterministic
@given(data=st.data(), bins=st.integers(1, 5), ue_count=stat_counts)
def test_stats_writer_writes_what_json_writes(data, bins, ue_count):
    # The writer's %r must write every finite float as json does, not only
    # those the pipeline produces.
    edges = data.draw(st.lists(stat_floats, min_size=bins + 1, max_size=bins + 1))
    chunks = data.draw(st.lists(stat_chunks(bins), min_size=1, max_size=3))
    text = b"".join(_stats_json(iter([np.array(edges), *chunks]), ue_count)).decode("ascii")
    assert text == json_stats_text(edges, chunks, ue_count)


@deterministic
@given(data=st.data(), bins=st.integers(0, 64), ue_count=stat_counts)
def test_stats_writer_splices_the_occupied_cells_as_json_writes(data, bins, ue_count):
    # The writer splices only the nonzero counts into an empty beam's text;
    # the rows set no cell, a few, the first or the last only, or all of
    # them.  bins=0 stands for the one cell [lo, lo] of equal slant ranges.
    if bins:
        edges = data.draw(st.lists(stat_floats, min_size=bins + 1, max_size=bins + 1))
    else:
        edges, bins = [data.draw(stat_floats)] * 2, 1
    chunks = data.draw(st.lists(stat_chunks(bins, sparse_rows(bins)), min_size=1, max_size=3))
    text = b"".join(_stats_json(iter([np.array(edges), *chunks]), ue_count)).decode("ascii")
    assert text == json_stats_text(edges, chunks, ue_count)


@deterministic
@given(x=stat_floats | st.sampled_from([2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]))
def test_bytes_formats_a_float_as_str_does(x):
    # The writers format bytes: %.9g must be the CSV cell str % writes, and
    # %a, ascii(), the repr that json writes in stats.json.
    assert b"%.9g" % x == ("%.9g" % x).encode()
    assert b"%a" % x == repr(x).encode()


@deterministic
@given(n=st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), -1, 0, 2**63 - 1]))
def test_bytes_formats_an_int64_as_str_does(n):
    assert b"%d" % n == ("%d" % n).encode()


@deterministic
@given(
    lo=st.integers(-(2**63), 2**63 - 1),
    hi=st.integers(-(2**63), 2**63 - 1),
    words=st.lists(st.text("abcdefgh", max_size=8), min_size=1, max_size=4),
    specials=st.lists(st.floats(), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_writes_what_row_by_row_bytes_percent_writes(lo, hi, words, specials, seed):
    # Tables of 0, 1, R - 1, R and R + 1 rows, R the rows per write: as many
    # as fit at the widest a row can be, 16 bytes per float and a comma or
    # newline per cell.  Int, float, text and strided float columns; the int
    # extremes lead, so every table of two or more rows has the same R.
    lo, hi = sorted((lo, hi))
    rng = np.random.default_rng(seed)
    texts = np.array(words)
    width = (1 + max(len(b"%d" % min(lo, 0)), len(b"%d" % max(hi, 0)))) + (1 + 16) + (1 + texts.astype(np.bytes_).itemsize) + (1 + 16)
    r = _WRITE_BYTES // width
    ints = rng.integers(lo, hi, size=r + 1, endpoint=True)
    ints[:2] = lo, hi
    floats = rng.standard_normal(r + 1) * 10.0 ** rng.integers(-300, 300, r + 1)
    floats[2 : 2 + len(specials)] = specials
    columns = [ints, floats, texts[rng.integers(0, len(words), r + 1)], rng.standard_normal(2 * r + 2)[::2]]
    tables = [[c[:n] for c in columns] for n in (0, 1, r - 1, r, r + 1)]
    writes = list(_csv("h", tables))
    rows = (b"%d,%.9g,%s,%.9g\n" % (i, f, t.encode(), x) for table in tables for i, f, t, x in zip(*(c.tolist() for c in table)))
    assert b"".join(writes) == b"h\n" + b"".join(rows)
    assert [write.count(b"\n") for write in writes] == [2, r - 1, r, r, 1]
    assert list(_csv("h", tables[:1])) == [b"h\n"]


@deterministic
@given(sat=satellites, fraction=fractions, angle=angles)
def test_uv_to_earth_lands_on_the_sphere(sat, fraction, angle):
    ground = uv_to_earth(uv_at(sat, fraction, angle), sat)
    assert abs(ground.norm_km() - sat.earth_radius_km) <= 1e-9 * sat.earth_radius_km


@deterministic
@given(sat=satellites, fraction=fractions, angle=angles)
def test_earth_to_uv_inverts_uv_to_earth_inside_the_horizon(sat, fraction, angle):
    p = uv_at(sat, fraction, angle)
    q = earth_to_uv(uv_to_earth(p, sat), sat)
    assert math.hypot(q.u - p.u, q.v - p.v) <= 1e-12


@deterministic
@given(sat=satellites, radii=st.lists(fractions, min_size=2, max_size=64), angle=angles)
def test_column_kernel_is_finite_and_slant_rises_with_uv_radius(sat, radii, angle):
    # Why run() needs no finiteness pass over the columns the kernel and its
    # angles make: inside the horizon every output is finite, and the slant
    # range, the histogrammed value, grows with the UV radius.  Near nadir,
    # where it is flat, its rounded quotient may fall by an ulp; the bound
    # is an ulp of the orbit radius, which the slant range never exceeds.
    points = [uv_at(sat, fraction, angle) for fraction in radii]
    u = np.array([p.u for p in points])
    v = np.array([p.v for p in points])
    outputs = _project_columns(u, v, sat, lambda u, v, *los: (*los, *_angles(u, v, *los[:2], *_ANGLE_COLUMNS)))
    assert np.isfinite(outputs).all()
    d_uv, slant = outputs[0], outputs[2]
    order = np.argsort(d_uv, kind="stable")
    assert (np.diff(slant[order]) >= -np.spacing(sat.orbit_radius_km)).all()


@deterministic
@given(
    beamwidth=st.floats(0.05, 30.0),
    altitude=st.floats(300.0, 40000.0),
    elevation=st.floats(1.0, 90.0),
    rings=st.integers(0, 7),
)
def test_built_layouts_stay_inside_the_horizon(beamwidth, altitude, elevation, rings):
    config = ScenarioConfig(
        beamwidth_3db_deg=beamwidth, altitude_km=altitude, center_elevation_deg=elevation, rings=rings
    )
    try:
        layout = build_layout(config)
    except HorizonError:
        return
    limit = horizon_limit(config.satellite())
    for beam in layout:
        assert beam.center_uv.norm() + layout.beam_radius <= limit
        assert all(vertex.norm() <= limit for vertex in beam.vertices_uv)


@deterministic
@given(sat=satellites, other=finite, nan_first=st.booleans())
def test_uv_to_earth_rejects_nan(sat, other, nan_first):
    p = UvPoint(math.nan, other) if nan_first else UvPoint(other, math.nan)
    with pytest.raises(ValueError):
        uv_to_earth(p, sat)


@deterministic
@given(sat=satellites, fraction=fractions, angle=angles, axis=st.integers(0, 2))
def test_earth_to_uv_rejects_nan(sat, fraction, angle, axis):
    ground = uv_to_earth(uv_at(sat, fraction, angle), sat)
    xyz = [ground.x_km, ground.y_km, ground.z_km]
    xyz[axis] = math.nan
    with pytest.raises(ValueError):
        earth_to_uv(GroundPoint(*xyz), sat)


@deterministic
@given(radius=st.sampled_from([math.nan, -math.nan]), u=finite, v=finite)
def test_sampler_rejects_nan_radius(radius, u, v):
    with pytest.raises(ValueError):
        sample_point_in_hexagon(UvPoint(u, v), radius, beam_rng(0, 0))


@deterministic
@given(field=st.sampled_from(["beamwidth_3db_deg", "altitude_km", "earth_radius_km", "center_elevation_deg"]))
def test_scenario_config_rejects_nan(field):
    kwargs = {"beamwidth_3db_deg": 4.4127, "altitude_km": 1200.0, field: math.nan}
    with pytest.raises(ValueError):
        ScenarioConfig(**kwargs)


@functools.cache
def preset_layout(key, frf):
    """The layout of a preset at a reuse factor, or None past the horizon."""
    config = dataclasses.replace(preset(*key), frf=frf)
    try:
        return build_layout(config), config.satellite()
    except HorizonError:
        return None


@deterministic
@given(
    key=st.sampled_from(sorted(PRESET_BEAMWIDTH_DEG)),
    frf=st.sampled_from([1, 3]),
    seed=seeds,
    ues_per_beam=st.integers(1, 40),
    data=st.data(),
)
def test_drop_decodes_the_draws_of_each_beams_generator(key, frf, seed, ues_per_beam, data):
    # drop_ues decodes raw PCG64 outputs in bulk; every beam's UEs must be
    # the scalar sampler's points on that beam's own Generator.
    built = preset_layout(key, frf)
    assume(built is not None)
    layout, sat = built
    picks = data.draw(st.lists(st.integers(0, len(layout) - 1), min_size=1, max_size=8, unique=True))
    beams = tuple(layout.beams[i] for i in picks)
    ues = drop_ues(dataclasses.replace(layout, beams=beams), sat, ues_per_beam, seed)
    expected = []
    for beam in beams:
        rng = beam_rng(seed, beam.id)
        expected += [sample_point_in_hexagon(beam.center_uv, layout.beam_radius, rng) for _ in range(ues_per_beam)]
    assert [ue.uv for ue in ues] == expected


@deterministic
@given(
    beamwidth=st.sampled_from(sorted(PRESET_BEAMWIDTH_DEG.values())) | st.floats(0.01, 60.0),
    altitude=st.sampled_from([1200.0, 35786.0]) | st.floats(300.0, 40000.0),
    frf=st.sampled_from([1, 3]),
    rings=st.integers(0, 40),
    elevation=st.sampled_from([90.0, 70.0, 45.0, 30.0, 12.5]) | st.floats(0.01, 90.0),
)
def test_layout_matches_the_scalar_loop(beamwidth, altitude, frf, rings, elevation):
    # The column build makes no more rings than the horizon admits; the
    # loop stops at the first bad beam.  Both must accept and reject alike.
    assert_layout_matches_reference(
        ScenarioConfig(beamwidth_3db_deg=beamwidth, altitude_km=altitude, frf=frf, rings=rings,
                       center_elevation_deg=elevation)
    )


@settings(deterministic, max_examples=60)
@given(
    key=st.sampled_from(sorted(PRESET_BEAMWIDTH_DEG)),
    frf=st.sampled_from([1, 3]),
    rings=st.integers(0, 3),
    elevation=st.sampled_from([90.0, 70.0, 45.0, 30.0]) | st.floats(10.0, 90.0),
    ues_per_beam=st.integers(1, 40),
    seed=seeds,
    bins=st.integers(1, 60),
    edge_samples=st.integers(1, 9),
)
def test_run_matches_an_independent_pipeline(key, frf, rings, elevation, ues_per_beam, seed, bins, edge_samples):
    config = dataclasses.replace(
        preset(*key), frf=frf, rings=rings, center_elevation_deg=elevation, ues_per_beam=ues_per_beam, seed=seed
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            expected = independent_run(config, bins, edge_samples)
        except HorizonError:
            with pytest.raises(HorizonError):
                run(config, out, bins, edge_samples)
            assert not out.exists()
            return
        run(config, out, bins, edge_samples)
        for name in OUTPUT_FILES:
            # Lines, not one string, so a failure shows a short diff.
            got = (out / name).read_bytes().splitlines(keepends=True)
            assert got == expected[name].encode("utf-8").splitlines(keepends=True), name
