"""Bounds on the ``tracemalloc`` peak of ``run()`` on the golden configs.

``run()`` drops, projects and writes one beam chunk at a time and keeps
only each UE's slant range and elevation for the statistics.  Holding a
whole-run UE table or footprint table again breaks these bounds: that
design peaked at 3.3 MB (dense) and 4.15 MB (wide).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from test_golden import CONFIGS
from uvbeams.cli import run

PEAK_BOUND_MB = {"dense": 2.0, "wide": 3.2}


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
