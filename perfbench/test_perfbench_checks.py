"""The benchmark's output checker must reject corrupted outputs, and its
tracer must leave the package as it found it."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import uvbeams
import uvbeams.cli
from checks import Expect, check_outputs
from tracer import Tracer

BEAMWIDTH = 4.4127
EXPECT = Expect(beams=7, ues_per_beam=5, beamwidth_deg=BEAMWIDTH)


@pytest.fixture(scope="module")
def good_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("good")
    config = uvbeams.ScenarioConfig(
        beamwidth_3db_deg=BEAMWIDTH, altitude_km=1200.0, rings=1, ues_per_beam=5, seed=3
    )
    uvbeams.cli.run(config, out)
    return out


def _corrupt(good: Path, tmp_path: Path, edit) -> Path:
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    lines = (bad / "ues.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[4].split(",")
    edit(header, row)
    lines[4] = ",".join(row)
    (bad / "ues.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def test_clean_run_passes(good_run):
    failures, facts = check_outputs(good_run, EXPECT)
    assert failures == []
    assert facts["ue_rows"] == 35
    assert set(facts["sha256"]) == {"beams.csv", "ues.csv", "footprints.csv", "stats.json", "manifest.json"}


@pytest.mark.parametrize("column", ["ue_id", "u", "z_km", "slant_km", "elev_deg", "aod_deg"])
def test_one_nan_cell_fails(good_run, tmp_path, column):
    def nan_cell(header, row):
        row[header.index(column)] = "nan"

    failures, _ = check_outputs(_corrupt(good_run, tmp_path, nan_cell), EXPECT)
    assert any("non-finite" in f for f in failures)


def test_ue_moved_outside_its_hexagon_fails(good_run, tmp_path):
    radius = uvbeams.beam_radius(BEAMWIDTH)

    def shift_u(header, row):
        col = header.index("u")
        row[col] = format(float(row[col]) + 2.0 * radius, ".9g")

    failures, _ = check_outputs(_corrupt(good_run, tmp_path, shift_u), EXPECT)
    assert any("outside beam" in f for f in failures)


def test_tracer_counts_and_restores(good_run, tmp_path):
    original = uvbeams.cli.drop_ues
    config = uvbeams.ScenarioConfig(beamwidth_3db_deg=BEAMWIDTH, altitude_km=1200.0, rings=1, ues_per_beam=5)
    with Tracer() as tracer:
        uvbeams.cli.run(config, tmp_path)
    assert uvbeams.cli.drop_ues is original
    assert tracer.absent == []
    assert tracer.stats["deployment.drop_ues"][0] == 1
    assert tracer.stats["deployment.sample_point_in_hexagon"][0] == 35
    (run_span,) = [s for s in tracer.spans if s[2] == "cli.run"]
    assert {s[2] for s in tracer.spans if s[1] == run_span[0]} >= {"deployment.drop_ues", "layout.build_layout"}
