"""Analysis module: slant statistics, projected footprints, scenario summary."""

from __future__ import annotations

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
    preset,
    project_footprints,
    scenario_summary,
)

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

    def test_bad_bins_rejected(self, frf1_layout, leo_sat):
        ues = drop_ues(frf1_layout, leo_sat, 1, seed=0)
        with pytest.raises(ValueError):
            beam_stats(ues, frf1_layout, bins=0)


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

    def test_bad_samples_rejected(self, leo_sat, frf1_layout):
        with pytest.raises(ValueError):
            project_footprints(frf1_layout, leo_sat, samples_per_edge=0)


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
