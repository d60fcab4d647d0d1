"""CLI module: presets, pipeline run, file schemas, exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uvbeams
from uvbeams import ScenarioConfig, preset, run, scenario_summary
from uvbeams.cli import (
    BEAMS_CSV_HEADER,
    FOOTPRINTS_CSV_HEADER,
    GEO_ALTITUDE_KM,
    LEO_ALTITUDE_KM,
    OUTPUT_FILES,
    PRESET_BEAMWIDTH_DEG,
    UES_CSV_HEADER,
    main,
)

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
        # JSON manifest can hold them and every file matches the int run.
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
        run(cfg, tmp_path / "a")
        run(config(3, 1, 3, 2**63 + 1), tmp_path / "b")
        for name in OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
        assert "7 beams, 14 UEs" in proc.stdout
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)

    def test_python_m_uvbeams_exit_code(self, tmp_path):
        proc = self._run(
            "--beamwidth-deg", "4.4127", "--altitude-km", "nan", "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 1
        assert "altitude" in proc.stderr
