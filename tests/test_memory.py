"""Bounds on the ``tracemalloc`` peak of ``run()`` on the golden configs,
on its growth with the drop size, on the peaks of ``project_footprints`` and
``drop_ues`` on a whole layout, and on the size of the wide layout.

``run()`` drops, projects and writes one beam chunk at a time.  It keeps
each UE's slant range, 8 B, and each beam's elevation extrema for the
statistics, and streams ``stats.json`` from column chunks of consecutive
beams, each counted from its slice of slants.
Holding a whole-run UE table or footprint table again breaks these bounds:
that design peaked at 3.3 MB (dense) and 4.15 MB (wide).  Keeping each UE's
elevation and histogram cell as well, 24 B per UE, took the dense peak to
0.87 MB and the growth to 18.6 B per UE.  On the wide layout, 1261 beams,
the layout itself sets much of the peak: beams that stored their six
corners took it to 1.18 MB and the wide peak to 2.03 MB.  Counting
histogram cells of all beams in blocks, encoded and decoded as ``group *
bins + bin``, took the wide peak to 1.17 MB.  A layout of frozen ``Beam``,
``HexIndex`` and ``UvPoint`` objects took 0.35 MB and the wide peak to
1.04 MB; as columns the layout takes 0.12 MB and the wide peak 0.87 MB.
Keeping a frozen ``BeamStats`` per beam until ``stats.json`` was written
held the wide peak there; streamed from column chunks, the statistics take
it to 0.59 MB.  One statistics chunk of the whole layout, a ``(beams,
bins)`` counts matrix, took it to 1.88 MB.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest

from test_golden import CONFIGS
from uvbeams import build_layout, drop_ues, project_footprints
from uvbeams.cli import preset, run

PEAK_BOUND_MB = {"dense": 0.8, "wide": 0.7}
LAYOUT_BOUND_MB = 0.15
# Peak growth per added UE between two drops whose beam chunks both hold
# about _CHUNK UEs; 8 B of it is the slant range kept for the statistics.
GROWTH_BOUND_B_PER_UE = 14.0
# Peak of project_footprints on a whole layout over its result's bytes.
FOOTPRINT_PEAK_RATIO = 1.5
# Peak of drop_ues on a whole layout over its table's bytes.
DROP_PEAK_RATIO = 1.3


def traced_peak(fn, *args):
    """The ``tracemalloc`` peak, in bytes, of a call of ``fn`` made after a
    first call has imported and cached what any call needs."""
    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(PEAK_BOUND_MB))
def test_run_peak_memory_is_bounded(name, tmp_path):
    assert traced_peak(run, CONFIGS[name], tmp_path) / 1e6 < PEAK_BOUND_MB[name]


def test_run_peak_grows_by_at_most_the_bound_per_ue(tmp_path):
    # 19 beams: one chunk of all 19 beams of 100 UEs, or 19 chunks of one
    # 2000-UE beam.  Above _CHUNK UEs per beam a beam is its own chunk, so
    # the drop chunk itself would grow with the count.
    small, large = (
        dataclasses.replace(preset("set1", "leo_s"), frf=3, rings=2, ues_per_beam=n) for n in (100, 2000)
    )
    growth = traced_peak(run, large, tmp_path) - traced_peak(run, small, tmp_path)
    added_ues = 19 * (2000 - 100)
    assert growth / added_ues < GROWTH_BOUND_B_PER_UE


def test_whole_layout_footprints_peak_near_their_size():
    config = CONFIGS["wide"]
    layout = build_layout(config)
    table = project_footprints(layout, config.satellite(), 8)
    result_bytes = sum(column.nbytes for column in (table.beam_id, table.x_km, table.y_km, table.z_km))
    del table
    peak = traced_peak(project_footprints, layout, config.satellite(), 8)
    assert peak < FOOTPRINT_PEAK_RATIO * result_bytes


def test_whole_layout_drop_peaks_near_its_table_size():
    # drop_ues makes one beam's draws Python numbers at a time; doing so for
    # every draw at once took the peak to 1.45 times the table.
    config = CONFIGS["dense"]
    args = (build_layout(config), config.satellite(), config.ues_per_beam, config.seed)
    table = drop_ues(*args)
    table_bytes = sum(column.nbytes for column in table.columns())
    del table
    assert traced_peak(drop_ues, *args) < DROP_PEAK_RATIO * table_bytes


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
