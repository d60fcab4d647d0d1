"""CLI module: presets, pipeline run, file schemas, exit codes."""

from __future__ import annotations

import dataclasses
import fcntl
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from test_golden import CONFIGS as GOLDEN_CONFIGS

import uvbeams
from uvbeams import (
    Beam,
    BeamRole,
    HexIndex,
    HorizonError,
    ScenarioConfig,
    build_layout,
    drop_ues,
    horizon_limit,
    preset,
    project_footprints,
    run,
    scenario_summary,
)
from uvbeams.analysis import _grouped, _stat_columns
from uvbeams.cli import (
    BEAMS_CSV_HEADER,
    FOOTPRINTS_CSV_HEADER,
    GEO_ALTITUDE_KM,
    LEO_ALTITUDE_KM,
    OUTPUT_FILES,
    PRESET_BEAMWIDTH_DEG,
    UES_CSV_HEADER,
    _build_parser,
    _csv,
    _stats_json,
    main,
)
from uvbeams.projection import _CHUNK

TABLE_ABS = {
    ("set1", "geo_s"): 0.0061,
    ("set1", "geo_ka"): 0.0027,
    ("set1", "leo_s"): 0.0667,
    ("set1", "leo_ka"): 0.0267,
    ("set2", "geo_s"): 0.0111,
    ("set2", "geo_ka"): 0.0067,
    ("set2", "leo_s"): 0.1334,
    ("set2", "leo_ka"): 0.0667,
}


class TestPreset:
    def test_set1_leo_s(self):
        cfg = preset("set1", "leo_s")
        assert cfg.beamwidth_3db_deg == 4.4127
        assert cfg.altitude_km == LEO_ALTITUDE_KM
        assert cfg.center_elevation_deg == 70.0
        assert cfg.frf == 1
        assert cfg.ring_count == 4
        assert cfg.ues_per_beam == 10
        assert cfg.seed == 0

    def test_set2_leo_s(self):
        assert preset("set2", "leo_s").beamwidth_3db_deg == 8.832

    def test_set1_geo_s(self):
        cfg = preset("set1", "geo_s")
        assert cfg.beamwidth_3db_deg == 0.4011
        assert cfg.altitude_km == GEO_ALTITUDE_KM

    def test_all_presets_reproduce_table(self):
        for (set_name, scenario), abs_expected in TABLE_ABS.items():
            summary = scenario_summary(preset(set_name, scenario))
            assert round(summary.spacing, 4) == abs_expected, (set_name, scenario)
        assert set(TABLE_ABS) == set(PRESET_BEAMWIDTH_DEG)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("set3", "leo_s")
        with pytest.raises(ValueError):
            preset("set1", "meo_x")

    def test_replaced_frf_follows_ring_rule(self, tmp_path):
        # A preset leaves rings to ScenarioConfig, so changing the reuse
        # factor changes the ring count as it does on the command line.
        cfg = dataclasses.replace(preset("set1", "leo_s"), frf=3)
        assert cfg.ring_count == 6
        out = tmp_path / "o"
        assert main(["--preset", "set1:leo_s", "--frf", "3", "--ues-per-beam", "1", "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert echo["rings"] == cfg.ring_count


# Presets whose default ring count reaches past the horizon.
UNBUILDABLE_PRESETS = {("set2", "leo_s")}

# Every buildable preset at both reuse factors, plus the nadir golden config.
DERIVED_CASES = {
    f"{s}:{sc}-frf{frf}": dataclasses.replace(preset(s, sc), frf=frf, ues_per_beam=1)
    for s, sc in sorted(PRESET_BEAMWIDTH_DEG)
    if (s, sc) not in UNBUILDABLE_PRESETS
    for frf in (1, 3)
}
DERIVED_CASES["nadir"] = GOLDEN_CONFIGS["nadir"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=1, rings=4)
    manifest = run(cfg, out, bins=10, edge_samples=4)
    return out, manifest


class TestRun:
    def test_emits_all_files(self, run_dir):
        out, manifest = run_dir
        for name in OUTPUT_FILES:
            assert (out / name).is_file(), name
        assert manifest.outputs == OUTPUT_FILES

    def test_csv_headers_and_row_counts(self, run_dir):
        out, _ = run_dir
        beams = (out / "beams.csv").read_text().splitlines()
        assert beams[0] == BEAMS_CSV_HEADER
        assert len(beams) == 1 + 61
        ues = (out / "ues.csv").read_text().splitlines()
        assert ues[0] == UES_CSV_HEADER
        assert len(ues) == 1 + 610
        assert all(len(line.split(",")) == 11 for line in ues[1:])
        footprints = (out / "footprints.csv").read_text().splitlines()
        assert footprints[0] == FOOTPRINTS_CSV_HEADER
        # Closed polylines: 6 edges x 4 samples + repeated first point.
        assert len(footprints) == 1 + 61 * (6 * 4 + 1)

    def test_manifest_contents(self, run_dir):
        out, _ = run_dir
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["rings"] == 4
        assert doc["config"]["seed"] == 0
        assert doc["derived"]["beam_count"] == 61
        assert doc["derived"]["statistics_beam_count"] == 19
        assert round(doc["derived"]["center_offset_u"], 4) == 0.2878
        assert doc["rng"]["generator"] == "PCG64"
        assert "seed" in doc["rng"]

    def test_stats_contents(self, run_dir):
        out, _ = run_dir
        doc = json.loads((out / "stats.json").read_text())
        assert doc["global"]["ue_count"] == 610
        assert len(doc["beams"]) == 61
        assert all(len(b["histogram"]) == 10 for b in doc["beams"])

    def test_wide_run_builds_no_beam_objects(self, tmp_path, monkeypatch):
        # run() reads the layout's columns; a Beam and its HexIndex are made
        # only when a library user reads one.
        made = Counter()

        def count(cls):
            init = cls.__init__

            def counting_init(self, *args, **kwargs):
                made[cls.__name__] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        count(Beam)
        count(HexIndex)
        build_layout(GOLDEN_CONFIGS["wide"]).beams[0]
        assert made == {"Beam": 1, "HexIndex": 1}
        made.clear()
        run(GOLDEN_CONFIGS["wide"], tmp_path)
        assert not made

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(
            beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=1, rings=2, seed=7
        )
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_numpy_integer_config_matches_int_config(self, tmp_path):
        # NumPy integers are integral: the config stores them as ints, so the
        # JSON manifest can hold them and every file matches the int run;
        # bins and edge_samples given as NumPy integers count as ints too.
        def config(frf, rings, ues_per_beam, seed):
            return ScenarioConfig(
                beamwidth_3db_deg=4.4127,
                altitude_km=1200.0,
                frf=frf,
                rings=rings,
                ues_per_beam=ues_per_beam,
                seed=seed,
            )

        cfg = config(np.int64(3), np.int32(1), np.int16(3), np.uint64(2**63 + 1))
        assert cfg == config(3, 1, 3, 2**63 + 1)
        assert {type(v) for v in (cfg.frf, cfg.rings, cfg.ues_per_beam, cfg.seed)} == {int}
        run(cfg, tmp_path / "a", bins=np.uint64(7), edge_samples=np.int8(2))
        run(config(3, 1, 3, 2**63 + 1), tmp_path / "b", bins=7, edge_samples=2)
        for name in OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_numpy_float_config_writes_a_manifest(self, tmp_path):
        # Other reals are stored as floats, so the JSON manifest holds them.
        cfg = ScenarioConfig(
            beamwidth_3db_deg=np.float32(4.4127), altitude_km=np.int64(1200), rings=1, ues_per_beam=2
        )
        run(cfg, tmp_path)
        echo = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert echo["beamwidth_3db_deg"] == float(np.float32(4.4127))
        assert echo["altitude_km"] == 1200.0 and type(echo["altitude_km"]) is float

    def test_orbit_radius_near_the_bound_writes_strict_json(self, tmp_path):
        # Every square the slant range takes stays a finite float, so
        # stats.json holds no Infinity or NaN and no CSV cell is inf or nan.
        cfg = ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=6.7e153, earth_radius_km=6.7e153, rings=1, ues_per_beam=3)
        run(cfg, tmp_path)

        def reject(constant):
            raise AssertionError(f"stats.json holds {constant}")

        json.loads((tmp_path / "stats.json").read_text(), parse_constant=reject)
        for name in ("ues.csv", "footprints.csv"):
            text = (tmp_path / name).read_text()
            assert "inf" not in text and "nan" not in text, name

    def test_python_int_altitude_echoed_as_int(self, tmp_path):
        cfg = ScenarioConfig(beamwidth_3db_deg=4.4127, altitude_km=1200, rings=1, ues_per_beam=2)
        run(cfg, tmp_path)
        assert '"altitude_km": 1200,' in (tmp_path / "manifest.json").read_text()

    def test_manifest_config_reproduces_run(self, tmp_path):
        # The manifest's config echo must be sufficient to reproduce every
        # data file byte for byte.
        cfg = ScenarioConfig(
            beamwidth_3db_deg=1.7647, altitude_km=1200.0, frf=3, rings=3, seed=42
        )
        run(cfg, tmp_path / "a")
        echo = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
        run(ScenarioConfig(**echo), tmp_path / "b")
        for name in OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        # A rerun that fails partway must not leave the old manifest beside
        # new data files, nor a half-written file or temporary file.
        out = tmp_path / "o"
        argv = ["--preset", "set1:leo_s", "--rings", "1", "--ues-per-beam", "2", "--out", str(out)]
        assert main(argv) == 0
        old_stats = (out / "stats.json").read_bytes()

        def failing_stats_json(*args):
            yield "{\n"
            raise OSError("disk full")

        monkeypatch.setattr("uvbeams.cli._stats_json", failing_stats_json)
        assert main(argv + ["--seed", "1"]) == 3
        assert "disk full" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not list(out.glob("*.tmp"))
        assert (out / "stats.json").read_bytes() == old_stats
        # The failed run released its lock on the directory.
        os.close(self.hold(out))

    @staticmethod
    def hold(directory):
        """A descriptor of ``directory`` holding the lock a run takes.  The
        lock belongs to the open descriptor, so it blocks a run in this
        process too."""
        lock = os.open(directory, os.O_RDONLY)
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return lock

    def test_held_directory_is_neither_written_nor_cleared(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["--preset", "set1:leo_s", "--rings", "1", "--ues-per-beam", "2", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        # Every file, the manifest that a rerun would remove included.
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        lock = self.hold(out)
        try:
            with pytest.raises(OSError) as raised:
                run(dataclasses.replace(preset("set1", "leo_s"), rings=1, ues_per_beam=2, seed=1), out)
            assert str(out) in str(raised.value)
            assert main(argv + ["--seed", "1"]) == 3
        finally:
            os.close(lock)
        assert capsys.readouterr().err == f"uvbeams: error: {raised.value}\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # Once the holder lets go, the same run goes through.
        assert main(argv + ["--seed", "1"]) == 0
        assert (out / "ues.csv").read_bytes() != before["ues.csv"]
        assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUT_FILES)

    @pytest.mark.parametrize("config", DERIVED_CASES.values(), ids=DERIVED_CASES.keys())
    def test_manifest_derived_matches_scenario_summary(self, tmp_path, config):
        # The manifest reads its constants off the layout-free
        # scenario_summary; the built layout must give the same values.
        manifest = run(config, tmp_path, bins=2, edge_samples=1)
        expected = dataclasses.asdict(scenario_summary(config))
        expected["adjacent_beam_spacing"] = expected.pop("spacing")
        layout = build_layout(config)
        assert expected == {
            "beam_radius": layout.beam_radius,
            "center_offset_u": layout.center_offset_u,
            "horizon_limit": horizon_limit(config.satellite()),
            "beam_count": len(layout),
            "statistics_beam_count": sum(beam.role is BeamRole.STATISTICS for beam in layout),
            "adjacent_beam_spacing": layout.spacing,
        }
        assert manifest.derived == expected
        assert json.loads((tmp_path / "manifest.json").read_text())["derived"] == expected

    @pytest.mark.parametrize("frf", (1, 3))
    def test_unbuildable_presets_hit_the_horizon(self, tmp_path, frf):
        for key in UNBUILDABLE_PRESETS:
            with pytest.raises(HorizonError):
                run(dataclasses.replace(preset(*key), frf=frf), tmp_path)


# Elevation 90 puts the centre beam a hair off the UV origin, where
# coordinates and angles come closest to zero.
SIGNED_ZERO_ELEVATIONS = (90.0, 89.999, 70.0, 45.0, 30.0, 12.5)
# Earth radius and altitude at the least SatelliteState accepts.
LEAST_KM = math.sqrt(sys.float_info.min)


def signed_zero_columns(config, seeds, edge_samples):
    """Names of the float columns of ``beams.csv``, ``ues.csv`` and
    ``footprints.csv``, as ``run()`` builds them for ``config`` with each
    of ``seeds`` and ``edge_samples``, that hold a -0.0."""
    layout = build_layout(config)
    sat = config.satellite()
    tables = [("beams.csv", layout.beams.columns())]
    tables += [("ues.csv", drop_ues(layout, sat, config.ues_per_beam, seed).columns()) for seed in seeds]
    tables += [("footprints.csv", project_footprints(layout, sat, n).columns()) for n in edge_samples]
    return [
        (name, k) for name, columns in tables for k, c in enumerate(columns)
        if c.dtype.kind == "f" and (np.signbit(c) & (c == 0.0)).any()
    ]


class TestCsvWriter:
    def test_rows_across_chunks_leave_the_columns_as_given(self):
        # Two tables, split inside a 64-row write, over more than two _CHUNKs.
        n = 2 * _CHUNK + 3
        ints = np.arange(n) - 1
        floats = np.arange(n) * 0.5
        floats[1] = -1.5
        tables = [[ints[:100], floats[:100]], [ints[100:], floats[100:]]]
        given = [list(map(id, table)) for table in tables]
        text = "".join(_csv("h", "%d,%.9g\n", tables))
        assert text == "h\n-1,0\n0,-1.5\n" + "".join("%d,%.9g\n" % (i - 1, 0.5 * i) for i in range(2, n))
        assert [list(map(id, table)) for table in tables] == given
        assert floats[1] == -1.5 and (floats[2:] == np.arange(2, n) * 0.5).all()

    @pytest.mark.parametrize("key", sorted(PRESET_BEAMWIDTH_DEG), ids=":".join)
    def test_run_columns_hold_no_negative_zero(self, key):
        # The writer prints a -0.0 as -0; no float column run() writes may
        # hold one, at nadir, on the UV axes or anywhere else.
        found = {}
        for frf, elevation, rings in itertools.product((1, 3), SIGNED_ZERO_ELEVATIONS, range(3)):
            config = dataclasses.replace(
                preset(*key), frf=frf, center_elevation_deg=elevation, rings=rings, ues_per_beam=50
            )
            try:
                found[frf, elevation, rings] = signed_zero_columns(config, (0, 7), (1, 2, 3, 8))
            except HorizonError:
                continue
        assert found and not any(found.values()), {k: v for k, v in found.items() if v}

    def test_columns_at_the_least_float_range_hold_no_negative_zero(self):
        config = ScenarioConfig(
            beamwidth_3db_deg=4.4127, earth_radius_km=LEAST_KM, altitude_km=LEAST_KM, rings=2, ues_per_beam=50
        )
        assert signed_zero_columns(config, (0, 7), (1, 2, 3, 8)) == []


class TestStatsJson:
    @staticmethod
    def writer_peak(layout, sat):
        """The longest part and the ``tracemalloc`` peak of the stats writer
        on a 100-UE-per-beam drop, the statistics kernel included."""
        ues = uvbeams.drop_ues(layout, sat, 100, seed=1)
        columns = _stat_columns(*_grouped(ues, layout), 50)
        gc.collect()
        tracemalloc.start()
        try:
            longest = max(len(part) for part in _stats_json(columns, len(ues)))
            return longest, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_keeps_the_template_a_few_beams_and_one_chunk(self, leo_sat, frf1_layout, frf3_layout):
        # The writer holds the beam template, a few beam texts, and one
        # chunk's columns and transients, a few arrays of _CHUNK numbers; it
        # keeps nothing per beam written, so 127 beams peak as 61 do.
        longest, peak = self.writer_peak(frf3_layout, leo_sat)
        assert peak < 4 * longest + 48 * _CHUNK
        assert abs(peak - self.writer_peak(frf1_layout, leo_sat)[1]) < longest

    def test_run_builds_no_beam_stats(self, tmp_path, monkeypatch):
        # BeamStats records are what beam_stats returns; run() streams the
        # statistics from columns and makes none.
        def no_beam_stats(*args, **kwargs):
            raise AssertionError("run() made a BeamStats")

        monkeypatch.setattr("uvbeams.analysis.BeamStats", no_beam_stats)
        run(GOLDEN_CONFIGS["wide"], tmp_path)
        assert json.loads((tmp_path / "stats.json").read_text())["global"]["ue_count"] == 1261

    @pytest.mark.parametrize("bins", [None, "7"])
    def test_bins_is_the_count_written(self, tmp_path, bins):
        # One UE gives every slant the same value, so the grid falls to the
        # one cell [lo, lo] whatever was asked for, and "bins" says so.
        argv = ["--preset", "set1:leo_s", "--rings", "0", "--ues-per-beam", "1", "--out", str(tmp_path)]
        assert main(argv + (["--bins", bins] if bins else [])) == 0
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["bins"] == len(doc["beams"][0]["histogram"]) == 1


class TestMain:
    def test_preset_run(self, tmp_path, capsys):
        code = main(["--preset", "set1:leo_s", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "ues.csv").is_file()

    def test_frf3_defaults_to_six_rings(self, tmp_path):
        code = main(["--preset", "set1:leo_s", "--frf", "3", "--out", str(tmp_path / "o")])
        assert code == 0
        beams = (tmp_path / "o" / "beams.csv").read_text().splitlines()
        assert len(beams) == 1 + 127
        ues = (tmp_path / "o" / "ues.csv").read_text().splitlines()
        assert len(ues) == 1 + 1270

    def test_explicit_rings_override(self, tmp_path):
        code = main(
            ["--preset", "set1:leo_s", "--frf", "3", "--rings", "6", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert len((tmp_path / "o" / "beams.csv").read_text().splitlines()) == 1 + 127

    def test_seeded_reruns_identical(self, tmp_path):
        argv = ["--preset", "set1:leo_s", "--seed", "7"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "ues.csv").read_bytes() == (tmp_path / "b" / "ues.csv").read_bytes()

    # One flag per ScenarioConfig field, with a value that differs from both
    # the field's default and the set1:leo_s preset.
    FIELD_FLAGS = {
        "beamwidth_3db_deg": ("--beamwidth-deg", 4.0),
        "altitude_km": ("--altitude-km", 1300.0),
        "earth_radius_km": ("--earth-radius-km", 6400.0),
        "frf": ("--frf", 3),
        "rings": ("--rings", 2),
        "center_elevation_deg": ("--elevation-deg", 80.0),
        "ues_per_beam": ("--ues-per-beam", 3),
        "seed": ("--seed", 5),
    }

    @pytest.mark.parametrize(
        "field", dataclasses.fields(ScenarioConfig), ids=lambda field: field.name
    )
    def test_every_field_flag_reaches_manifest(self, tmp_path, field):
        flag, value = self.FIELD_FLAGS[field.name]
        base = preset("set1", "leo_s")
        assert value not in (getattr(base, field.name), field.default)
        out = tmp_path / "o"
        argv = ["--preset", "set1:leo_s", "--rings", "1", "--ues-per-beam", "1"]
        assert main(argv + [flag, str(value), "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert echo[field.name] == value
        assert type(echo[field.name]) is type(value)

    def test_missing_scenario_is_config_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        code = main(
            ["--beamwidth-deg", "-4.0", "--altitude-km", "1200", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--altitude-km", "nan"),
            ("--beamwidth-deg", "nan"),
            ("--earth-radius-km", "inf"),
            ("--elevation-deg", "nan"),
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, flag, value):
        argv = {"--beamwidth-deg": "4.4127", "--altitude-km": "1200", flag: value}
        out = tmp_path / "o"
        code = main([arg for pair in argv.items() for arg in pair] + ["--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        assert main(["--preset", "set9:leo_s", "--out", str(tmp_path / "o")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--preset", "set1"], "preset must look like set1:leo_s, got 'set1'"),
            (
                ["--preset", "set1:leo_s", "--earth-radius-km", "1e155"],
                "orbit radius must be at most 1.3408e+154 km, got 1e+155",
            ),
            (
                ["--beamwidth-deg", "1e-300", "--altitude-km", "1e200", "--elevation-deg", "90", "--rings", "0"],
                "orbit radius must be at most 1.3408e+154 km, got 1e+200",
            ),
            (
                ["--preset", "set1:leo_s", "--earth-radius-km", "1.3e154"],
                "altitude must be at least 2**-20 times the earth radius, got altitude 1200.0 km and earth radius 1.3e+154 km",
            ),
            (
                ["--beamwidth-deg", "1e-7", "--altitude-km", "1e10", "--rings", "0", "--ues-per-beam", "3", "--elevation-deg", "90"],
                "altitude must be at most 2**20 times the earth radius, got altitude 10000000000.0 km and earth radius 6371.0 km",
            ),
            (
                ["--beamwidth-deg", "4.4127", "--earth-radius-km", "1e-300", "--altitude-km", "1e-300", "--rings", "1",
                 "--ues-per-beam", "3"],
                "earth radius must be at least 1.4917e-154 km, got 1e-300",
            ),
            (
                ["--preset", "set1:leo_s", "--beamwidth-deg", "5e-324"],
                "3 dB beamwidth 5e-324 degrees is too small: its UV radius 0 is below 2**-48",
            ),
            (
                ["--beamwidth-deg", "1e-320", "--altitude-km", "1200", "--rings", "1", "--ues-per-beam", "2"],
                "3 dB beamwidth 1e-320 degrees is too small: its UV radius 8.89318163e-323 is below 2**-48",
            ),
            (
                ["--beamwidth-deg", "1e-9", "--altitude-km", "1200", "--rings", "40000"],
                "rings must be at least 0 and below 37837, got 40000",
            ),
        ],
        ids=[
            "preset_without_colon", "earth_radius_orbit", "altitude_orbit", "altitude_ratio", "altitude_ceiling", "earth_radius_float_range",
            "beamwidth_radius_0", "beamwidth_radius_below_2**-48", "rings_past_beam_id_range",
        ],
    )
    def test_rejected_config_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"uvbeams: error: {message}\n"
        assert not out.exists()

    def test_bad_flag_usage_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--frf", "2"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_horizon_violation_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "--beamwidth-deg",
                "4.4127",
                "--elevation-deg",
                "0.0001",
                "--altitude-km",
                "1200",
                "--rings",
                "4",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["--preset", "set1:leo_s", "--out", str(blocker / "sub")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--bins", "bins must be at least 1, got 0"),
            ("--edge-samples", "samples_per_edge must be at least 1, got 0"),
        ],
    )
    def test_bins_and_edge_samples_checked_by_their_owners(self, tmp_path, capsys, flag, message):
        out = tmp_path / "o"
        assert main(["--preset", "set1:leo_s", "--rings", "1", flag, "0", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.5, 2.0, True, float("nan")])
    @pytest.mark.parametrize("option,name", [("bins", "bins"), ("edge_samples", "samples_per_edge")])
    def test_non_integer_count_rejected_before_any_file(self, tmp_path, option, name, value):
        out = tmp_path / "o"
        config = dataclasses.replace(GOLDEN_CONFIGS["odd"], rings=1)
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            run(config, out, **{option: value})
        assert not out.exists()

    def test_unset_counts_leave_run_defaults(self, tmp_path, monkeypatch):
        # run()'s signature is the one home of the bins and edge-sample
        # defaults: the parser records no value, and main passes none.
        args = _build_parser().parse_args([])
        assert not hasattr(args, "bins") and not hasattr(args, "edge_samples")
        passed = []

        def fake_run(config, out_dir, bins="unset", edge_samples="unset"):
            passed.append((bins, edge_samples))
            raise OSError("not run")

        monkeypatch.setattr(uvbeams.cli, "run", fake_run)
        assert main(["--preset", "set1:leo_s", "--out", str(tmp_path)]) == 3
        assert main(["--preset", "set1:leo_s", "--bins", "7", "--out", str(tmp_path)]) == 3
        assert passed == [("unset", "unset"), (7, "unset")]

    def test_help_shows_the_config_defaults(self):
        # The help reads each default off ScenarioConfig, so a changed field
        # default cannot leave the help wrong.  rings=None picks a count per
        # reuse factor, which the help spells out.
        actions = {action.dest: action for action in _build_parser()._actions}
        defaulted = [f for f in dataclasses.fields(ScenarioConfig) if f.default not in (dataclasses.MISSING, None)]
        assert len(defaulted) == 5
        for field in defaulted:
            assert actions[field.name].help.endswith(f"(default {field.default})")

    def test_first_fault_met_is_reported(self, tmp_path, capsys):
        # The layout is built before the statistics, so the horizon fault
        # wins over a bad bin count.
        out = tmp_path / "o"
        argv = ["--preset", "set2:leo_s", "--bins", "0", "--out", str(out)]
        assert main(argv) == 2
        assert "horizon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rings,ues_per_beam", [(0, 2**63), (1, 2**63 // 7 + 1), (6, 2**62)])
    def test_ue_ids_past_2_63_rejected_before_any_file(self, tmp_path, capsys, rings, ues_per_beam):
        out = tmp_path / "o"
        argv = ["--preset", "set1:leo_s", "--rings", str(rings), "--ues-per-beam", str(ues_per_beam), "--out", str(out)]
        assert main(argv) == 1
        assert "beams * ues_per_beam must be at least 1 and below 2**63" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ues_per_beam", [10**12, 2**63 - 1])
    def test_drop_too_large_to_allocate_raises_before_out_dir(self, tmp_path, ues_per_beam):
        # Past any address space, so the allocation fails at once; 2**63 - 1
        # UEs pass the id rule and are too big for NumPy to size.
        out = tmp_path / "o"
        config = dataclasses.replace(preset("set1", "leo_s"), rings=0, ues_per_beam=ues_per_beam)
        # One beam is one drop chunk: 8 B of slant range and 96 B of chunk
        # working set per UE.
        with pytest.raises(ValueError, match=f"ues_per_beam={ues_per_beam} needs {104 * ues_per_beam} bytes"):
            run(config, out)
        assert not out.exists()

    @pytest.mark.parametrize("name,value,needed", [
        ("bins", 10**12, 528 * (10**12 + 1)),
        ("bins", 2**63 - 1, 528 * 2**63),
        ("edge_samples", 10**12, 72 * (6 * 10**12 + 1)),
        ("edge_samples", 2**63 - 1, 72 * (6 * (2**63 - 1) + 1)),
    ])
    def test_grid_too_large_to_allocate_raises_before_out_dir(self, tmp_path, name, value, needed):
        # The bin grid's working set, 528 B per edge, or one beam's footprint
        # chunk, 72 B per boundary point: past any address space, or too big
        # for NumPy to size.
        out = tmp_path / "o"
        config = dataclasses.replace(preset("set1", "leo_s"), rings=1, ues_per_beam=2)
        with pytest.raises(ValueError, match=f"^{name}={value} needs {needed} bytes of"):
            run(config, out, **{name: value})
        assert not out.exists()


class TestModuleEntryPoint:
    def _run(self, *args):
        src = str(Path(uvbeams.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "uvbeams", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )

    def test_python_m_uvbeams_runs_main(self, tmp_path):
        out = tmp_path / "o"
        proc = self._run(
            "--preset", "set1:leo_s", "--rings", "1", "--ues-per-beam", "2", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        # The supported entry point prints no warning.
        assert proc.stderr == ""
        assert "7 beams, 14 UEs" in proc.stdout
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)

    def test_python_m_uvbeams_exit_code(self, tmp_path):
        proc = self._run(
            "--beamwidth-deg", "4.4127", "--altitude-km", "nan", "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 1
        assert "altitude" in proc.stderr

    def test_drop_too_large_to_allocate_exits_1_with_nothing_written(self, tmp_path):
        # 61 beams x 10**12 UEs need 488 TB of slant ranges, and a drop
        # chunk of one beam 96 TB more.
        out = tmp_path / "o"
        proc = self._run("--preset", "set1:leo_s", "--ues-per-beam", str(10**12), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == (
            "uvbeams: error: ues_per_beam=1000000000000 needs 584000000000000 bytes"
            " of slant ranges and one drop chunk, which cannot be allocated\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag,name", [("--bins", "bins"), ("--edge-samples", "edge_samples")])
    def test_grid_too_large_to_allocate_exits_1_with_nothing_written(self, tmp_path, flag, name):
        out = tmp_path / "o"
        proc = self._run("--preset", "set1:leo_s", "--rings", "1", "--ues-per-beam", "2", flag, str(10**12), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"uvbeams: error: {name}=1000000000000 needs ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith(", which cannot be allocated\n")
        assert not out.exists()
