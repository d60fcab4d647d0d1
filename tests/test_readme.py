"""README: the library example runs and its stated counts hold."""

from __future__ import annotations

import re
from pathlib import Path

from uvbeams import BeamRole

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
