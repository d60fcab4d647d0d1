"""README: the library example runs, its stated counts hold, the CLI flag
table gives the code's defaults, and the stated trial allocations and
footprint areas are the code's."""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

from test_memory import bins_trial_bytes_per_edge, edge_trial_bytes_per_point, ues_trial_bytes_per_ue
from test_golden import CONFIGS
from uvbeams import BeamRole, ScenarioConfig, build_layout, footprint_area_km2, project_footprints
from uvbeams.cli import _build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_counts_match():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    beams, statistics = map(int, re.search(r"# (\d+) beams, (\d+) statistics", block).groups())
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    layout = namespace["layout"]
    assert len(layout) == beams
    assert sum(beam.role is BeamRole.STATISTICS for beam in layout) == statistics
    assert len(namespace["ues"]) == beams * namespace["config"].ues_per_beam
    assert {s.beam_id for s in namespace["stats"]} == {beam.id for beam in layout}


def test_flag_table_defaults_are_the_code_defaults():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(--[a-z-]+)[^`]*` \| [^|]* \| ([^|]*?) \|$", text, re.M)
    dest = {flag: action.dest for action in _build_parser()._actions for flag in action.option_strings}
    table = {dest[flag]: float(value) for flag, value in rows if re.fullmatch(r"\d+(\.\d+)?", value)}
    defaults = {name: p.default for name, p in inspect.signature(run).parameters.items()}
    defaults.update((field.name, field.default) for field in dataclasses.fields(ScenarioConfig))
    numeric = {name: value for name, value in defaults.items() if type(value) in (int, float)}
    # Every numeric default is in the table, compared as a number, and the
    # table states no other.
    assert table == numeric
    assert len(table) == 7


def test_bins_trial_figure_is_the_code_figure(tmp_path):
    text = README.read_text(encoding="utf-8")
    (figure,) = re.findall(r"(\d+) B per\s+bin edge", text)
    assert int(figure) == bins_trial_bytes_per_edge(tmp_path / "o")


def test_drop_and_footprint_trial_figures_are_the_code_figures(tmp_path):
    text = README.read_text(encoding="utf-8")
    (slant,) = re.findall(r"drop, (\d+) B per UE,", text)
    (chunk,) = re.findall(r"(\d+) B per UE of one drop chunk", text)
    (point,) = re.findall(r"(\d+) B per\s+boundary point of one footprint chunk", text)
    assert int(slant) + int(chunk) == ues_trial_bytes_per_ue(tmp_path / "o")
    assert int(point) == edge_trial_bytes_per_point(tmp_path / "o")


def test_footprint_distortion_figures_are_the_code_figures():
    text = " ".join(README.read_text(encoding="utf-8").split())
    least, greatest, dense = re.search(r"footprint areas from ([\d,]+) to ([\d,]+) km², a ratio of ([\d.]+)\.", text).groups()
    (statistics,) = re.findall(r"19 statistics beams span a ratio of ([\d.]+)", text)
    (wide,) = re.findall(r"wide GEO layout \([^)]*\) a ratio of ([\d.]+)\.", text)

    def areas(name, role=None):
        layout = build_layout(CONFIGS[name])
        footprints = project_footprints(layout, CONFIGS[name].satellite(), samples_per_edge=8)
        return [footprint_area_km2(fp) for fp, beam in zip(footprints, layout, strict=True) if role in (None, beam.role)]

    def ratio(values):
        return f"{max(values) / min(values):.2f}"

    dense_areas = areas("dense")
    assert (f"{min(dense_areas):,.0f}", f"{max(dense_areas):,.0f}", ratio(dense_areas)) == (least, greatest, dense)
    assert ratio(areas("dense", BeamRole.STATISTICS)) == statistics
    assert ratio(areas("wide")) == wide
