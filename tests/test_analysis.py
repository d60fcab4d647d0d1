"""Analysis module: slant statistics, projected footprints, scenario summary."""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from test_golden import CONFIGS

from uvbeams import (
    Footprint,
    FootprintTable,
    GroundPoint,
    ScenarioConfig,
    UeRecord,
    UeTable,
    UvPoint,
    beam_stats,
    build_layout,
    drop_ues,
    footprint_area_km2,
    hexagon_contains,
    hexagon_vertices,
    los_geometry,
    preset,
    project_footprints,
    scenario_summary,
    uv_to_earth,
)
from uvbeams.projection import _project_columns

R_E = 6371.0
ALT = 1200.0


@pytest.fixture(scope="module")
def dense_frf3_ues(leo_sat, frf3_layout):
    return drop_ues(frf3_layout, leo_sat, 100, seed=0)


@pytest.fixture(scope="module")
def nadir_layout():
    return build_layout(
        ScenarioConfig(
            beamwidth_3db_deg=4.4127, altitude_km=ALT, rings=0, center_elevation_deg=90.0
        )
    )


def nadir_record(ue_id=0, beam_id=0, slant_range_km=ALT, elevation_deg=90.0):
    return UeRecord(
        ue_id=ue_id,
        beam_id=beam_id,
        uv=UvPoint(0.0, 0.0),
        ground=GroundPoint(0.0, 0.0, R_E),
        slant_range_km=slant_range_km,
        elevation_deg=elevation_deg,
        zod_deg=180.0,
        aod_deg=0.0,
    )


class TestBeamStats:
    def test_single_ue_at_nadir(self, nadir_layout):
        record = UeRecord(
            ue_id=0,
            beam_id=0,
            uv=UvPoint(0.0, 0.0),
            ground=GroundPoint(0.0, 0.0, R_E),
            slant_range_km=ALT,
            elevation_deg=90.0,
            zod_deg=180.0,
            aod_deg=0.0,
        )
        stats = beam_stats([record], nadir_layout, bins=10)
        assert len(stats) == 1
        s = stats[0]
        assert s.min_slant_km == s.max_slant_km == s.mean_slant_km == ALT
        assert s.histogram == ((ALT, ALT, 1),)

    def test_histogram_conservation(self, frf3_layout, dense_frf3_ues):
        stats = beam_stats(dense_frf3_ues, frf3_layout, bins=50)
        total = sum(count for s in stats for _, _, count in s.histogram)
        assert total == len(dense_frf3_ues)
        for s in stats:
            assert sum(count for _, _, count in s.histogram) == s.ue_count

    def test_extrema_within_analytic_bounds(self, frf3_layout, dense_frf3_ues):
        far = math.sqrt(ALT**2 + 2.0 * R_E * ALT)
        for s in beam_stats(dense_frf3_ues, frf3_layout, bins=50):
            assert ALT <= s.min_slant_km <= s.mean_slant_km <= s.max_slant_km <= far

    def test_shared_bin_edges(self, frf3_layout, dense_frf3_ues):
        stats = beam_stats(dense_frf3_ues, frf3_layout, bins=20)
        edges = [(lo, hi) for lo, hi, _ in stats[0].histogram]
        assert all([(lo, hi) for lo, hi, _ in s.histogram] == edges for s in stats)
        assert len(edges) == 20

    def test_mean_has_the_bits_of_numpy_mean(self, frf1_layout):
        # The sizes straddle the block edges of NumPy's pairwise summation.
        sizes = [1, 7, 8, 9, 127, 128, 129, 200, 1000]
        rng = np.random.default_rng(11)
        slants = rng.uniform(ALT, 3000.0, sum(sizes))
        beam_ids = np.repeat(np.arange(len(sizes)), sizes)
        zeros = np.zeros(len(slants))
        ues = UeTable(np.arange(len(slants)), beam_ids, zeros, zeros, zeros, zeros, zeros, slants, zeros + 45.0, zeros, zeros)
        groups = np.split(slants, np.cumsum(sizes)[:-1])
        for s, group in zip(beam_stats(ues, frf1_layout), groups, strict=True):
            assert s.mean_slant_km == float(np.mean(group))

    def test_frf1_min_slant_above_altitude(self, leo_sat, frf1_layout):
        # The 70-degree layout is offset from nadir, so no UE reaches the
        # sub-satellite point exactly.
        ues = drop_ues(frf1_layout, leo_sat, 100, seed=0)
        stats = beam_stats(ues, frf1_layout, bins=50)
        assert min(s.min_slant_km for s in stats) > ALT

    def test_mean_slant_orders_with_center_distance(self, frf3_layout, dense_frf3_ues):
        stats = {s.beam_id: s for s in beam_stats(dense_frf3_ues, frf3_layout, bins=50)}
        pairs = sorted(
            (b.center_uv.norm(), stats[b.id].mean_slant_km)
            for b in frf3_layout
            if b.role.value == "statistics"
        )
        for (da, ma), (db, mb) in zip(pairs, pairs[1:]):
            if db > da + 1e-9:
                assert mb > ma

    def test_empty_input_rejected(self, frf1_layout):
        with pytest.raises(ValueError):
            beam_stats([], frf1_layout, bins=10)

    def test_zero_beam_layout_gives_empty_tables(self, frf1_layout, leo_sat):
        # Each result is made whole even when no chunk of beams is projected.
        empty = dataclasses.replace(frf1_layout, beams=())
        ues = drop_ues(empty, leo_sat, 5, seed=3)
        assert [c.shape for c in ues.columns()] == [(0,)] * 11
        footprints = project_footprints(empty, leo_sat, 8)
        assert len(footprints) == 0 and footprints.x_km.shape == (0, 49)
        assert [len(c) for c in footprints.columns()] == [0] * 5
        with pytest.raises(ValueError, match="no UE records to aggregate"):
            beam_stats(ues, empty)

    def test_bad_bins_rejected(self, frf1_layout, leo_sat):
        ues = drop_ues(frf1_layout, leo_sat, 1, seed=0)
        with pytest.raises(ValueError):
            beam_stats(ues, frf1_layout, bins=0)

    @pytest.mark.parametrize("bins", [2.5, 2.0, True, math.nan])
    def test_non_integer_bins_rejected(self, frf1_layout, leo_sat, bins):
        ues = drop_ues(frf1_layout, leo_sat, 1, seed=0)
        with pytest.raises(ValueError, match="bins must be an integer"):
            beam_stats(ues, frf1_layout, bins=bins)


    def test_numpy_integer_bins_count_as_an_int(self, frf1_layout, leo_sat):
        ues = drop_ues(frf1_layout, leo_sat, 2, seed=0)
        assert beam_stats(ues, frf1_layout, bins=np.uint64(7)) == beam_stats(ues, frf1_layout, bins=7)

    def test_table_records_and_generator_agree(self, frf3_layout, dense_frf3_ues):
        expected = beam_stats(dense_frf3_ues, frf3_layout, bins=20)
        assert beam_stats(list(dense_frf3_ues), frf3_layout, bins=20) == expected
        assert beam_stats(iter(dense_frf3_ues), frf3_layout, bins=20) == expected

    def test_beam_not_in_layout_rejected(self, nadir_layout):
        records = [nadir_record(0, 0), nadir_record(1, 5), nadir_record(2, 7)]
        with pytest.raises(ValueError, match="beam id 5 is not in the layout"):
            beam_stats(records, nadir_layout, bins=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["slant_range_km", "elevation_deg"])
    def test_non_finite_value_rejected(self, nadir_layout, field, value):
        records = [nadir_record(0), nadir_record(1, **{field: value}), nadir_record(2)]
        with pytest.raises(ValueError, match=f"UE 1 has a non-finite .*: {value}$"):
            beam_stats(records, nadir_layout, bins=10)

    def test_wide_histograms_share_their_empty_cells(self):
        config = CONFIGS["wide"]
        layout = build_layout(config)
        ues = drop_ues(layout, config.satellite(), config.ues_per_beam, config.seed)
        gc.collect()
        tracemalloc.start()
        try:
            stats = beam_stats(ues, layout, bins=50)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 1261 beams x 50 bins; one tuple per cell would keep about 4.9 MB.
        assert kept < 1.5e6
        cells = [cell for s in stats for cell in s.histogram]
        assert len(cells) == len(layout) * 50
        assert len(set(map(id, cells))) <= 50 + sum(cell[2] > 0 for cell in cells)

    def test_beams_with_equal_counts_share_one_histogram(self):
        # One UE per beam: each histogram has one count of 1 in one of the
        # 50 bins, so the 1261 beams need at most 50 histograms.
        config = CONFIGS["wide"]
        layout = build_layout(config)
        ues = drop_ues(layout, config.satellite(), config.ues_per_beam, config.seed)
        stats = beam_stats(ues, layout, bins=50)
        distinct = {s.histogram for s in stats}
        assert len({id(s.histogram) for s in stats}) == len(distinct) <= 50


def nearest_to_nadir(beam, radius):
    """The point of a beam's closed hexagon nearest nadir: nadir itself when
    the hexagon holds it, else the nearest point of its nearest edge."""
    if hexagon_contains(beam.center_uv, radius, UvPoint(0.0, 0.0)):
        return UvPoint(0.0, 0.0)
    candidates = []
    corners = beam.vertices_uv
    for a, b in zip(corners, corners[1:] + corners[:1]):
        du, dv = b.u - a.u, b.v - a.v
        t = min(1.0, max(0.0, -(a.u * du + a.v * dv) / (du * du + dv * dv)))
        candidates.append(UvPoint(a.u + t * du, a.v + t * dv))
    return min(candidates, key=UvPoint.norm)


class TestSlantEnvelope:
    # Slant range rises with UV radius, so each beam's sampled slants lie
    # between the slant at its point nearest nadir and at its farthest vertex.
    NADIR_CENTRED = ScenarioConfig(
        beamwidth_3db_deg=4.4127, altitude_km=ALT, rings=2, center_elevation_deg=90.0, ues_per_beam=200, seed=5
    )

    @pytest.mark.parametrize("config", [CONFIGS["dense"], CONFIGS["wide"], NADIR_CENTRED], ids=["dense", "wide", "nadir_centred"])
    def test_sampled_slants_inside_envelope(self, config):
        layout = build_layout(config)
        sat = config.satellite()
        ues = drop_ues(layout, sat, config.ues_per_beam, config.seed)
        for beam, stats in zip(layout.beams, beam_stats(ues, layout), strict=True):
            near = los_geometry(nearest_to_nadir(beam, layout.beam_radius), sat).slant_range_km
            far = max(los_geometry(p, sat).slant_range_km for p in beam.vertices_uv)
            assert near <= stats.min_slant_km <= stats.max_slant_km <= far, beam.id


class TestFootprints:
    def test_table_items_are_footprints(self, leo_sat, frf1_layout):
        table = project_footprints(frf1_layout, leo_sat, samples_per_edge=2)
        assert isinstance(table, FootprintTable)
        assert len(table) == len(frf1_layout)
        items = list(table)
        assert [fp.beam_id for fp in items] == [b.id for b in frf1_layout]
        assert items[-1] == table[-1] == table[len(table) - 1]
        for fp in items:
            assert isinstance(fp, Footprint) and type(fp.beam_id) is int
            assert len(fp.boundary) == 6 * 2 + 1
            assert all(type(c) is float for p in fp.boundary for c in (p.x_km, p.y_km, p.z_km))

    def test_slice_is_a_table_of_the_same_rows(self, leo_sat, frf1_layout):
        table = project_footprints(frf1_layout, leo_sat, samples_per_edge=2)
        points = 6 * 2 + 1
        full = table.columns()
        for start, stop in [(0, 5), (7, 61), (60, 61), (3, 3)]:
            part = table[start:stop]
            assert isinstance(part, FootprintTable)
            assert list(part) == list(table)[start:stop]
            rows = slice(start * points, stop * points)
            assert all(np.array_equal(got, want[rows]) for got, want in zip(part.columns(), full, strict=True))

    def test_closed_and_on_sphere(self, leo_sat, frf1_layout):
        for fp in project_footprints(frf1_layout, leo_sat, samples_per_edge=4):
            assert fp.boundary[0] == fp.boundary[-1]
            assert len(fp.boundary) == 6 * 4 + 1
            for p in fp.boundary:
                assert abs(p.norm_km() - R_E) <= 1e-9 * R_E

    def test_nadir_beam_sixfold_symmetry(self, leo_sat, nadir_layout):
        fp = project_footprints(nadir_layout, leo_sat, samples_per_edge=1)[0]
        ranges = [math.hypot(p.x_km, p.y_km) for p in fp.boundary[:-1]]
        assert max(ranges) - min(ranges) <= 1e-6

    def test_area_grows_with_nadir_angle(self, leo_sat, frf1_layout):
        areas = {
            fp.beam_id: footprint_area_km2(fp)
            for fp in project_footprints(frf1_layout, leo_sat, samples_per_edge=8)
        }
        pairs = sorted((b.center_uv.norm(), areas[b.id]) for b in frf1_layout)
        for (da, aa), (db, ab) in zip(pairs, pairs[1:]):
            if db > da + 1e-9:
                assert ab > aa

    @pytest.mark.parametrize("name", ["dense", "wide", "odd"])
    def test_corners_have_the_bits_of_hexagon_vertices(self, name):
        # project_footprints builds the corners as columns; they must be the
        # corners a beam reports, and project as those points do alone.
        layout = build_layout(CONFIGS[name])
        sat = CONFIGS[name].satellite()
        samples = 3
        table = project_footprints(layout, sat, samples_per_edge=samples)
        got = np.stack([table.x_km, table.y_km, table.z_km], axis=-1)[:, ::samples]
        expected = []
        for beam in layout.beams:
            assert beam.radius is layout.beam_radius
            corners = hexagon_vertices(beam.center_uv, layout.beam_radius)
            assert beam.vertices_uv == corners
            expected.append([dataclasses.astuple(uv_to_earth(p, sat)) for p in corners + corners[:1]])
        assert got.tobytes() == np.array(expected).tobytes()

    def test_bad_samples_rejected(self, leo_sat, frf1_layout):
        with pytest.raises(ValueError):
            project_footprints(frf1_layout, leo_sat, samples_per_edge=0)

    def test_numpy_integer_samples_count_as_an_int(self, leo_sat, frf1_layout):
        # 6 * samples + 1 points per beam: as an int8 that would overflow.
        assert project_footprints(frf1_layout, leo_sat, np.int8(100)) == project_footprints(frf1_layout, leo_sat, 100)

    @pytest.mark.parametrize("samples", [2.5, 2.0, True, math.nan])
    def test_non_integer_samples_rejected(self, leo_sat, frf1_layout, samples):
        with pytest.raises(ValueError, match="samples_per_edge must be an integer"):
            project_footprints(frf1_layout, leo_sat, samples_per_edge=samples)


# Centroids of the 24 x 24 congruent sub-triangles of a triangle, as the
# weights of its second and third corners: 300 upright, then 276 inverted.
QUAD_STEPS = 24
CENTROIDS = np.array(
    [(3 * i + 1, 3 * j + 1) for i in range(QUAD_STEPS) for j in range(QUAD_STEPS - i)]
    + [(3 * i + 2, 3 * j + 2) for i in range(QUAD_STEPS - 1) for j in range(QUAD_STEPS - 1 - i)]
) / (3 * QUAD_STEPS)


def fan_centroids(layout):
    """The centroid rule's points: the centroids of the sub-triangles of each
    fan triangle (centre, corner k, corner k + 1) of every beam hexagon, shape
    (beams, 6, 576, 2).  All 6 x 576 sub-triangles of a beam have equal areas."""
    centre = np.array([(b.center_uv.u, b.center_uv.v) for b in layout.beams])[:, None, None]
    corners = np.array([[(p.u, p.v) for p in b.vertices_uv] for b in layout.beams])[:, :, None]
    return centre + CENTROIDS[:, :1] * (corners - centre) + CENTROIDS[:, 1:] * (np.roll(corners, -1, axis=1) - centre)


# Every distinct preset (set2:leo_ka repeats set1:leo_s) at each of nadir,
# the default 70 degrees and 45 degrees whose FRF-3 layout fits inside the
# horizon; set2:leo_s fits only at nadir with FRF 1.
JACOBIAN_CASES = [
    (("set1", "leo_s"), 3, 90.0),
    (("set1", "leo_s"), 3, 70.0),
    (("set1", "leo_ka"), 3, 90.0),
    (("set1", "leo_ka"), 3, 70.0),
    (("set1", "leo_ka"), 3, 45.0),
    (("set1", "geo_s"), 3, 90.0),
    (("set1", "geo_s"), 3, 70.0),
    (("set1", "geo_s"), 3, 45.0),
    (("set1", "geo_ka"), 3, 90.0),
    (("set1", "geo_ka"), 3, 70.0),
    (("set1", "geo_ka"), 3, 45.0),
    (("set2", "geo_s"), 3, 90.0),
    (("set2", "geo_s"), 3, 70.0),
    (("set2", "geo_ka"), 3, 90.0),
    (("set2", "geo_ka"), 3, 70.0),
    (("set2", "geo_ka"), 3, 45.0),
    (("set2", "leo_s"), 1, 90.0),
]


class TestFootprintJacobian:
    """Ground area per unit UV area is ``J = d**2 / (cos(omega) * sin(alpha))``
    for slant range ``d``, off-nadir angle ``omega`` and elevation ``alpha``:
    ``du dv = cos(omega) dOmega`` for direction sines, and a ray meets the
    ground at incidence ``90 - alpha`` degrees.  ``J`` integrated over a beam's
    UV hexagon is its footprint's area on the sphere.  ``footprint_area_km2``
    is the area of the footprint projected on the tangent plane at its
    centroid, so the oracle weights ``J`` by that projection's factor, the
    cosine between the plane's normal and the ground normal.  Unweighted,
    the two differ by up to 1.4e-3 (set2:geo_ka, FRF 3, 45 degrees)."""

    @pytest.mark.parametrize(
        "key,frf,elevation", [pytest.param(*case, id="%s:%s-frf%d-%g" % (*case[0], *case[1:])) for case in JACOBIAN_CASES]
    )
    def test_area_is_the_jacobian_integral(self, key, frf, elevation):
        config = dataclasses.replace(preset(*key), frf=frf, center_elevation_deg=elevation)
        layout = build_layout(config)
        sat = config.satellite()
        footprints = project_footprints(layout, sat, samples_per_edge=64)
        uv = fan_centroids(layout)
        # los_geometry's kernel on columns, which gives its bits.
        omega, alpha, d, *ground = _project_columns(
            uv[..., 0].ravel(), uv[..., 1].ravel(), sat, lambda *los: (los[1], los[4], los[5], *los[6:])
        )
        jacobian = d**2 / (np.cos(omega) * np.sin(alpha))
        ground = np.array(ground) / np.linalg.norm(ground, axis=0)
        plane = np.array([c[:, :-1].sum(axis=1) for c in (footprints.x_km, footprints.y_km, footprints.z_km)])
        plane /= np.linalg.norm(plane, axis=0)
        weight = (plane[:, :, None] * ground.reshape(3, len(layout), -1)).sum(axis=0)
        sub_triangle = math.sqrt(3) / 4 * layout.beam_radius**2 / QUAD_STEPS**2
        oracle = sub_triangle * (jacobian.reshape(len(layout), -1) * weight).sum(axis=1)
        areas = np.array([footprint_area_km2(fp) for fp in footprints])
        assert np.max(np.abs(areas / oracle - 1.0)) < 2e-4


# The 0.001 upper quantile of the chi-square distribution with the degrees
# of freedom that the merged bins of the dense golden drop leave.
DENSITY_DOF = 459
CHI2_CRIT_459DOF_P001 = 558.35


def merged_bins(expected, observed, least=5.0):
    """Runs of adjacent bins, in order, each the first to expect at least
    ``least`` UEs; a tail that expects fewer joins the last run.  Returns
    the expected and observed counts of each run."""
    runs = []
    e_run = o_run = 0.0
    for e, o in zip(expected, observed):
        e_run += e
        o_run += o
        if e_run >= least:
            runs.append([e_run, o_run])
            e_run = o_run = 0.0
    runs[-1][0] += e_run
    runs[-1][1] += o_run
    return np.array(runs).T


class TestUeDensity:
    """UEs are uniform in UV, so a beam's expected share of UEs in a slant
    bin is the UV-area share of its hexagon whose slant falls in that bin.
    The centroid rule gives that share, and a chi-square test compares it
    with the ``beam_stats`` counts.  Criterion 10 checks uniformity in UV;
    this checks the projection and the histogram edge rule with it."""

    def test_bin_counts_follow_the_uv_area_shares(self):
        config = CONFIGS["dense"]
        layout = build_layout(config)
        sat = config.satellite()
        n = config.ues_per_beam
        stats = beam_stats(drop_ues(layout, sat, n, config.seed), layout, bins=50)
        edges = np.array([cell[0] for cell in stats[0].histogram] + [stats[0].histogram[-1][1]])
        uv = fan_centroids(layout)
        (slant,) = _project_columns(uv[..., 0].ravel(), uv[..., 1].ravel(), sat, lambda *los: (los[5],))
        # The shared edges span the sampled slants; the 0.01% of the area
        # outside them counts in the end bins.
        slant = np.clip(slant.reshape(len(layout), -1), edges[0], edges[-1])
        chi2 = dof = 0
        for s, row in zip(slant, stats, strict=True):
            expected = n * np.histogram(s, edges)[0] / len(s)
            e, o = merged_bins(expected, [cell[2] for cell in row.histogram])
            chi2 += ((o - e) ** 2 / e).sum()
            dof += len(e) - 1
        assert chi2 < CHI2_CRIT_459DOF_P001
        assert dof == DENSITY_DOF


class TestScenarioSummary:
    def test_set1_leo_s(self):
        s = scenario_summary(preset("set1", "leo_s"))
        assert round(s.spacing, 4) == 0.0667
        assert s.beam_count == 61
        assert s.statistics_beam_count == 19
        assert round(s.center_offset_u, 4) == 0.2878
        assert s.horizon_limit == pytest.approx(6371.0 / 7571.0, rel=1e-12)

    @pytest.mark.parametrize(
        "set_name,scenario,abs_expected",
        [("set2", "geo_ka", 0.0067), ("set1", "leo_ka", 0.0267)],
    )
    def test_more_presets(self, set_name, scenario, abs_expected):
        s = scenario_summary(preset(set_name, scenario))
        assert round(s.spacing, 4) == abs_expected

    def test_small_ring_counts(self):
        cfg = ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=ALT, rings=1)
        s = scenario_summary(cfg)
        assert s.beam_count == 7
        assert s.statistics_beam_count == 7
