"""Deployment module: hexagon sampler law, per-beam RNG streams, UE drops."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import uvbeams.deployment
from uvbeams import (
    UeRecord,
    UeTable,
    UvPoint,
    beam_rng,
    drop_ues,
    hexagon_contains,
    los_geometry,
    project_footprints,
    sample_point_in_hexagon,
    uv_to_earth,
)
from uvbeams.deployment import _streams

# Upper 0.001 quantile of chi-square with 5 degrees of freedom.
CHI2_CRIT_5DOF_P001 = 20.515


def triangle_index(p: UvPoint, center: UvPoint) -> int:
    """Which of the six fan triangles (between corners at 30 + 60k deg)
    contains the sample."""
    ang = (math.degrees(math.atan2(p.v - center.v, p.u - center.u)) - 30.0) % 360.0
    return int(ang // 60.0)


class TestHexagonSampler:
    def test_tiny_hexagon_collapses_to_center(self):
        rng = beam_rng(0, 0)
        center = UvPoint(0.25, -0.4)
        for _ in range(50):
            p = sample_point_in_hexagon(center, 1e-12, rng)
            assert abs(p.u - center.u) <= 2e-12
            assert abs(p.v - center.v) <= 2e-12

    def test_membership_and_mean(self):
        rng = beam_rng(1, 0)
        center = UvPoint(0.0, 0.0)
        n = 100_000
        su = sv = 0.0
        for _ in range(n):
            p = sample_point_in_hexagon(center, 1.0, rng)
            assert hexagon_contains(center, 1.0, p)
            su += p.u
            sv += p.v
        assert abs(su / n) < 0.01
        assert abs(sv / n) < 0.01

    def test_inscribed_circle_fraction(self):
        # Uniformity on the hexagon puts pi*sqrt(3)/6 of the mass inside the
        # inscribed circle of radius sqrt(3)/2.
        rng = beam_rng(2, 0)
        center = UvPoint(0.0, 0.0)
        n = 100_000
        inside = sum(
            1
            for _ in range(n)
            if sample_point_in_hexagon(center, 1.0, rng).norm() <= math.sqrt(3.0) / 2.0
        )
        assert inside / n == pytest.approx(math.pi * math.sqrt(3.0) / 6.0, abs=0.01)

    def test_chi_square_over_triangle_partition(self):
        rng = beam_rng(3, 0)
        center = UvPoint(0.1, 0.2)
        n = 10_000
        counts = [0] * 6
        for _ in range(n):
            counts[triangle_index(sample_point_in_hexagon(center, 0.05, rng), center)] += 1
        expected = n / 6.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_CRIT_5DOF_P001

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            sample_point_in_hexagon(UvPoint(0.0, 0.0), 0.0, beam_rng(0, 0))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError):
            sample_point_in_hexagon(UvPoint(0.0, 0.0), radius, beam_rng(0, 0))

    def test_radius_too_large_for_a_float_rejected_before_any_draw(self):
        rng = beam_rng(0, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="circumradius must be positive and finite"):
            sample_point_in_hexagon(UvPoint(0.0, 0.0), 10**400, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "value",
        [
            math.nan,
            math.inf,
            -math.inf,
            # An int too large for a float raised OverflowError here once.
            pytest.param(10**400, id="10**400"),
            pytest.param(-(10**400), id="-10**400"),
        ],
    )
    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_non_finite_centre_rejected(self, axis, value):
        center = UvPoint(**{"u": 0.0, "v": 0.0, axis: value})
        rng = beam_rng(0, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="centre"):
            sample_point_in_hexagon(center, 0.1, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("radius", "circumradius must be positive and finite, got an int of 16610 bits"),
            ("u", "hexagon centre must be finite, got (an int of 16610 bits, 0.0)"),
            ("v", "hexagon centre must be finite, got (0.0, a negative int of 16610 bits)"),
        ],
        ids=["radius", "centre_u", "centre_v"],
    )
    def test_int_past_the_digit_limit_is_named_by_its_size(self, where, expected):
        # str() of an int of more than 4300 digits raises the interpreter's
        # own ValueError, which names no argument.
        huge = 10**5000
        radius = huge if where == "radius" else 0.1
        center = UvPoint(huge if where == "u" else 0.0, -huge if where == "v" else 0.0)
        rng = beam_rng(0, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as raised:
            sample_point_in_hexagon(center, radius, rng)
        assert str(raised.value) == expected
        assert rng.bit_generator.state == state


class TestBeamRng:
    def test_streams_differ_by_beam(self):
        a = beam_rng(0, 0).random(4).tolist()
        b = beam_rng(0, 1).random(4).tolist()
        assert a != b

    def test_streams_reproducible(self):
        assert beam_rng(9, 5).random(4).tolist() == beam_rng(9, 5).random(4).tolist()


class TestStreamOracle:
    """The stream rule, derived for many beams at once, against NumPy's own
    ``SeedSequence`` and ``PCG64`` seeding."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
    IDS = [0, 1, 1260, 2**31, 2**32 - 1]

    @staticmethod
    def oracle(seed, beam_id):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(beam_id,))))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("beam_id", IDS)
    def test_beam_rng_matches_seed_sequence(self, seed, beam_id):
        got, want = beam_rng(seed, beam_id), self.oracle(seed, beam_id)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.bit_generator.random_raw(16).tolist() == want.bit_generator.random_raw(16).tolist()
        (child,), (want_child,) = got.spawn(1), want.spawn(1)
        assert child.bit_generator.state == want_child.bit_generator.state

    @pytest.mark.parametrize(
        "seed",
        SEEDS
        + [pytest.param(np.uint64(2**64 - 1), id="np.uint64(2**64-1)"), pytest.param(np.int64(7), id="np.int64(7)")],
    )
    def test_one_call_for_many_beams(self, seed):
        for ids in (self.IDS + list(range(2, 70)), []):
            streams = list(_streams(seed, ids))
            assert len(streams) == len(ids)
            for stream, beam_id in zip(streams, ids):
                want = self.oracle(seed, beam_id).bit_generator
                assert stream.state == want.state
                assert stream.random_raw(16).tolist() == want.random_raw(16).tolist()

    @pytest.mark.parametrize("seed", [2.5, True, -1, 2**64, "7", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            beam_rng(seed, 0)

    @pytest.mark.parametrize("beam_id", [-1, 2**32, 2.5, True])
    def test_beam_id_outside_one_spawn_word_rejected(self, beam_id):
        with pytest.raises(ValueError, match="beam_id must"):
            beam_rng(0, beam_id)


class TestDropUes:
    @pytest.mark.parametrize("fixture,expected", [("frf1_layout", 610), ("frf3_layout", 1270)])
    def test_counts(self, request, leo_sat, fixture, expected):
        layout = request.getfixturevalue(fixture)
        ues = drop_ues(layout, leo_sat, 10, seed=0)
        assert len(ues) == expected
        per_beam = {}
        for ue in ues:
            per_beam[ue.beam_id] = per_beam.get(ue.beam_id, 0) + 1
        assert all(count == 10 for count in per_beam.values())

    def test_ue_ids_unique_and_stable(self, leo_sat, frf1_layout):
        ues = drop_ues(frf1_layout, leo_sat, 10, seed=4)
        assert [ue.ue_id for ue in ues] == list(range(610))
        assert all(ue.ue_id // 10 == ue.beam_id for ue in ues)

    def test_containment(self, leo_sat, frf1_layout):
        beams = {b.id: b for b in frf1_layout}
        for ue in drop_ues(frf1_layout, leo_sat, 20, seed=2):
            beam = beams[ue.beam_id]
            assert hexagon_contains(beam.center_uv, frf1_layout.beam_radius, ue.uv)

    def test_determinism(self, leo_sat, frf1_layout):
        a = drop_ues(frf1_layout, leo_sat, 10, seed=7)
        b = drop_ues(frf1_layout, leo_sat, 10, seed=7)
        assert a == b
        c = drop_ues(frf1_layout, leo_sat, 10, seed=8)
        assert a != c

    def test_order_independent_streams(self, leo_sat, frf1_layout):
        # Regenerating one beam in isolation reproduces its slice of the
        # full drop, so iteration order and parallel splits cannot matter.
        ues = drop_ues(frf1_layout, leo_sat, 10, seed=3)
        beam = frf1_layout.beams[17]
        rng = beam_rng(3, beam.id)
        expected = [
            sample_point_in_hexagon(beam.center_uv, frf1_layout.beam_radius, rng)
            for _ in range(10)
        ]
        got = [ue.uv for ue in ues if ue.beam_id == beam.id]
        assert got == expected

    @pytest.mark.parametrize("ues_per_beam", [1, 3])
    def test_sub_layouts_repeat_the_whole_drop(self, leo_sat, frf1_layout, ues_per_beam):
        # An odd count leaves half of a 64-bit output buffered at the end of
        # each beam; the next beam's stream must start without it, whatever
        # beam came before.
        whole = drop_ues(frf1_layout, leo_sat, ues_per_beam, seed=12)
        beams = frf1_layout.beams
        parts = [beams[i : i + 7] for i in range(0, len(beams), 7)] + [beams[::-1], beams[30:31]]
        for part in parts:
            ues = drop_ues(dataclasses.replace(frf1_layout, beams=part), leo_sat, ues_per_beam, seed=12)
            for k, beam in enumerate(part):
                rows = slice(k * ues_per_beam, (k + 1) * ues_per_beam)
                own = slice(beam.id * ues_per_beam, (beam.id + 1) * ues_per_beam)
                assert ues[rows] == whole[own]

    @pytest.mark.parametrize("seed", [2.5, True, -1, 2**64])
    def test_bad_seed_rejected_before_any_draw(self, leo_sat, frf1_layout, monkeypatch, seed):
        def no_draw(*args):
            raise AssertionError("drew a UE")

        monkeypatch.setattr(uvbeams.deployment, "sample_point_in_hexagon", no_draw)
        with pytest.raises(ValueError, match="seed must be"):
            drop_ues(frf1_layout, leo_sat, 2, seed)

    def test_numpy_integer_seed(self, leo_sat, frf1_layout):
        assert drop_ues(frf1_layout, leo_sat, 2, np.uint64(7)) == drop_ues(frf1_layout, leo_sat, 2, 7)

    def test_zero_beams_give_empty_tables(self, leo_sat, frf1_layout):
        # With no beam, the stream words are stacked from empty columns.
        empty = dataclasses.replace(frf1_layout, beams=frf1_layout.beams[:0])
        for table, shapes in [
            (drop_ues(empty, leo_sat, 3, seed=0), [(0,)] * 11),
            (project_footprints(empty, leo_sat, 2), [(0,), (0, 13), (0, 13), (0, 13)]),
        ]:
            assert len(table) == 0
            columns = [getattr(table, name) for name in table.__slots__]
            assert [(c.shape, c.dtype) for c in columns] == list(zip(shapes, table._dtypes))

    def test_projection_consistency(self, leo_sat, frf1_layout):
        for ue in drop_ues(frf1_layout, leo_sat, 5, seed=6):
            ground = uv_to_earth(ue.uv, leo_sat)
            assert abs(ground.x_km - ue.ground.x_km) <= 1e-9
            assert abs(ground.y_km - ue.ground.y_km) <= 1e-9
            assert abs(ground.z_km - ue.ground.z_km) <= 1e-9
            los = los_geometry(ue.uv, leo_sat)
            assert ue.slant_range_km == pytest.approx(los.slant_range_km, abs=1e-9)
            assert ue.elevation_deg == pytest.approx(math.degrees(los.elevation_rad), abs=1e-9)
            assert ue.zod_deg == pytest.approx(math.degrees(los.zod_rad), abs=1e-9)
            assert ue.aod_deg == pytest.approx(math.degrees(los.aod_rad), abs=1e-9)

    def test_invalid_ue_count(self, leo_sat, frf1_layout):
        with pytest.raises(ValueError):
            drop_ues(frf1_layout, leo_sat, 0, seed=0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, math.nan])
    def test_non_integer_ue_count(self, leo_sat, frf1_layout, count):
        with pytest.raises(ValueError, match="ues_per_beam must be an integer"):
            drop_ues(frf1_layout, leo_sat, count, seed=0)

    def test_ue_ids_past_2_63_rejected_before_any_draw(self, leo_sat, frf1_layout, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a UE")

        monkeypatch.setattr(uvbeams.deployment, "_streams", no_draw)
        # One beam of id 6: its ids reach 7 * ues_per_beam - 1.
        layout = dataclasses.replace(frf1_layout, beams=frf1_layout.beams[6:7])
        with pytest.raises(ValueError, match=r"beams \* ues_per_beam must be at least 1 and below 2\*\*63"):
            drop_ues(layout, leo_sat, 2**63 // 7 + 1, seed=0)

    @pytest.mark.parametrize("ids,bad", [([2**32], 2**32), ([2**40], 2**40), ([3, -1], -1), ([-1], -1)])
    def test_beam_ids_outside_32_bits_rejected_before_any_draw(self, leo_sat, frf1_layout, monkeypatch, ids, bad):
        # beam_rng's rule: these raised OverflowError from the uint32 id
        # column, and a lone -1 was reported as a UE count of 0.
        def no_draw(*args):
            raise AssertionError("drew a UE")

        monkeypatch.setattr(uvbeams.deployment, "_streams", no_draw)
        beams = [dataclasses.replace(beam, id=beam_id) for beam, beam_id in zip(frf1_layout, ids)]
        layout = dataclasses.replace(frf1_layout, beams=beams)
        with pytest.raises(ValueError, match=rf"^beam_id must be at least 0 and below 2\*\*32, got {bad}$"):
            drop_ues(layout, leo_sat, 3, seed=0)

    @pytest.mark.parametrize("ids,repeated", [([0, 0], 0), ([5, 2, 5, 9], 5), ([2**32 - 1, 3, 2**32 - 1], 2**32 - 1)])
    def test_repeated_beam_ids_rejected_before_any_draw(self, leo_sat, frf1_layout, monkeypatch, ids, repeated):
        # Two beams of one id would draw one stream, so their UEs and UE ids
        # would be the same and beam_stats would count them as one beam.
        def no_draw(*args):
            raise AssertionError("drew a UE")

        monkeypatch.setattr(uvbeams.deployment, "_streams", no_draw)
        beams = [dataclasses.replace(beam, id=beam_id) for beam, beam_id in zip(frf1_layout, ids)]
        layout = dataclasses.replace(frf1_layout, beams=beams)
        with pytest.raises(ValueError, match=rf"^beam_id {repeated} appears more than once; beam ids must be distinct$"):
            drop_ues(layout, leo_sat, 2, seed=0)


class TestRawDecode:
    """drop_ues decodes raw PCG64 outputs as ``integers(6)`` and ``random()``
    would.  A beam whose triangle draw takes Lemire's rejection branch, a
    32-bit half word ``h`` with ``h * 6 % 2**32 < 4``, must be drawn by a
    real Generator.  Such states are crafted on a beam's stream: PCG64 steps
    its LCG before each output, so the pre-step state ``(S1 - inc) * M**-1``,
    with ``M`` its multiplier, makes the first output the XSL-RR of ``S1``.
    ``S1 = 0`` gives output 0, which rejects the first UE's low half;
    ``S1 = 0x12345678`` gives an output whose high half is 0, which rejects
    the second UE's.  ``h * 6`` is even, so the only other rejected residue
    is 2: ``S1 = 715827883`` gives that low half, read with one UE per beam
    so that the zero high half is not."""

    SEED = 21
    TARGET = 2  # index of the crafted beam in a 5-beam sub-layout
    # PCG_DEFAULT_MULTIPLIER_HIGH and _LOW of numpy/random/src/pcg64/pcg64.h.
    PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341

    @staticmethod
    def crafted_stream(beam_id, post_step):
        stream = next(_streams(TestRawDecode.SEED, [beam_id]))
        state = stream.state
        inc = state["state"]["inc"]
        state["state"]["state"] = (post_step - inc) * pow(TestRawDecode.PCG64_MULT, -1, 2**128) % 2**128
        stream.state = state
        return stream

    @pytest.mark.parametrize(
        "post_step,rejected_ue,ues_per_beam",
        [
            (0, 0, 1),
            (0, 0, 2),
            (0, 0, 7),
            (0x12345678, 1, 2),
            (0x12345678, 1, 3),
            (0x12345678, 1, 8),
            (715827883, 0, 1),
        ],
    )
    def test_rejected_beam_is_drawn_by_its_generator(
        self, leo_sat, frf1_layout, monkeypatch, post_step, rejected_ue, ues_per_beam
    ):
        n = ues_per_beam
        layout = dataclasses.replace(frf1_layout, beams=frf1_layout.beams[10:15])
        target = layout.beams[self.TARGET]

        def streams(seed, beam_ids):
            for beam_id, stream in zip(beam_ids, _streams(seed, beam_ids)):
                yield self.crafted_stream(beam_id, post_step) if beam_id == target.id else stream

        before = drop_ues(layout, leo_sat, n, self.SEED)
        monkeypatch.setattr(uvbeams.deployment, "_streams", streams)
        after = drop_ues(layout, leo_sat, n, self.SEED)

        # The crafted first output's half word takes the rejection branch.
        half = int(self.crafted_stream(target.id, post_step).random_raw()) >> 32 * rejected_ue & 0xFFFFFFFF
        assert half * 6 % 2**32 < 4
        rng = np.random.Generator(self.crafted_stream(target.id, post_step))
        expected = [sample_point_in_hexagon(target.center_uv, layout.beam_radius, rng) for _ in range(n)]
        rows = slice(self.TARGET * n, (self.TARGET + 1) * n)
        assert [ue.uv for ue in after[rows]] == expected
        assert after[: rows.start] == before[: rows.start]
        assert after[rows.stop :] == before[rows.stop :]


class TestUeTable:
    @pytest.fixture(scope="class")
    def ues(self, leo_sat, frf1_layout):
        # 61 beams x 50 UEs, read by index, by slice and by iteration.
        return drop_ues(frf1_layout, leo_sat, 50, seed=5)

    def test_items_are_records_of_python_numbers(self, ues):
        assert isinstance(ues, UeTable)
        assert len(ues) == 61 * 50
        for ue in (ues[0], ues[-1], ues[1234]):
            assert isinstance(ue, UeRecord)
            assert type(ue.ue_id) is int and type(ue.beam_id) is int
            values = (ue.uv.u, ue.uv.v, ue.ground.x_km, ue.ground.y_km, ue.ground.z_km)
            values += (ue.slant_range_km, ue.elevation_deg, ue.zod_deg, ue.aod_deg)
            assert all(type(x) is float for x in values)
        assert ues[-1] == ues[len(ues) - 1]
        with pytest.raises(IndexError):
            ues[len(ues)]

    def test_iteration_matches_indexing(self, ues):
        records = list(ues)
        assert len(records) == len(ues)
        assert records == [ues[i] for i in range(len(ues))]

    def test_slice_is_a_table(self, ues):
        part = ues[100:2500:3]
        assert isinstance(part, UeTable)
        assert list(part) == list(ues)[100:2500:3]
        assert len(ues[5:5]) == 0 and list(ues[5:5]) == []

    def test_equality_compares_every_column(self, ues):
        assert ues == UeTable.from_records(list(ues))
        assert not ues != ues[:]
        for k, column in enumerate(ues.columns()):
            changed = ues.columns()
            changed[k] = column.copy()
            changed[k][7] += 1
            assert ues != UeTable(*changed)
        assert ues != ues[:-1]
        assert ues != list(ues)
