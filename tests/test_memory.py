"""Bounds on the ``tracemalloc`` peak of ``run()`` on the golden configs,
and on the size of the wide layout.

``run()`` drops, projects and writes one beam chunk at a time and keeps
only each UE's slant range and elevation for the statistics.  Holding a
whole-run UE table or footprint table again breaks these bounds: that
design peaked at 3.3 MB (dense) and 4.15 MB (wide).  On the wide layout,
1261 beams, the layout itself sets much of the peak: beams that stored
their six corners took it to 1.18 MB and the wide peak to 2.03 MB.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from test_golden import CONFIGS
from uvbeams import build_layout
from uvbeams.cli import run

PEAK_BOUND_MB = {"dense": 1.2, "wide": 1.4}
LAYOUT_BOUND_MB = 0.5


@pytest.mark.parametrize("name", sorted(PEAK_BOUND_MB))
def test_run_peak_memory_is_bounded(name, tmp_path):
    # A first run imports and caches what any run needs.
    run(CONFIGS[name], tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        run(CONFIGS[name], tmp_path)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < PEAK_BOUND_MB[name]


def test_wide_layout_size_is_bounded():
    build_layout(CONFIGS["wide"])
    gc.collect()
    tracemalloc.start()
    try:
        layout = build_layout(CONFIGS["wide"])
        size_mb = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert len(layout) == 1261
    assert size_mb < LAYOUT_BOUND_MB
