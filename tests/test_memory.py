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
import re
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
# One beam of 3 UEs, so the bin grid sets the growth with bins.
ONE_BEAM = dataclasses.replace(preset("set1", "leo_s"), rings=0, ues_per_beam=3)
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


def trial_bytes(out_dir, name, config=ONE_BEAM, **counts) -> int:
    """The bytes that ``run()`` tries to allocate for the parameter ``name``,
    set too large to allocate, read off the message it raises before it
    makes ``out_dir``."""
    with pytest.raises(ValueError, match=f"^{name}=[0-9]+ needs") as raised:
        run(config, out_dir, **counts)
    assert not out_dir.exists()
    return int(re.search(r"needs (\d+) bytes", str(raised.value))[1])


def bins_trial_bytes_per_edge(out_dir) -> float:
    """The bytes per bin edge that ``run()`` tries to allocate for ``bins``,
    read off its message for ``bins=10**12``."""
    return trial_bytes(out_dir, "bins", bins=10**12) / (10**12 + 1)


def ues_trial_bytes_per_ue(out_dir) -> float:
    """The bytes per UE that ``run()`` tries to allocate for a one-beam drop,
    read off its message for ``ues_per_beam=10**12``."""
    return trial_bytes(out_dir, "ues_per_beam", dataclasses.replace(ONE_BEAM, ues_per_beam=10**12)) / 10**12


def edge_trial_bytes_per_point(out_dir) -> float:
    """The bytes per boundary point that ``run()`` tries to allocate for one
    beam's footprint, read off its message for ``edge_samples=10**12``."""
    return trial_bytes(out_dir, "edge_samples", edge_samples=10**12) / (6 * 10**12 + 1)


# Peak growth per added unit must not pass what run() tries per unit, or a
# value could pass the trial and then raise MemoryError after files were
# written.  The trial allocation is traced too, so the growth reads the
# larger of the two, and about the trial's bytes per unit while the trial is
# the larger.


def test_bins_trial_covers_the_grid_working_set(tmp_path):
    # Rendering the stats.json beam template through json takes about 519 B
    # per bin.
    small, large = (traced_peak(run, ONE_BEAM, tmp_path, bins) for bins in (2000, 20000))
    assert (large - small) / (20000 - 2000) <= bins_trial_bytes_per_edge(tmp_path / "o")


def test_ues_trial_covers_the_drop_chunk_working_set(tmp_path):
    # One beam is one drop chunk: about 88 B per UE of drop, projection and
    # UE table, besides the 8 B slant range kept for the statistics.
    small, large = (traced_peak(run, dataclasses.replace(ONE_BEAM, ues_per_beam=n), tmp_path) for n in (20000, 60000))
    assert (large - small) / (60000 - 20000) <= ues_trial_bytes_per_ue(tmp_path / "o")


def test_edge_samples_trial_covers_the_footprint_chunk_working_set(tmp_path):
    # One beam is one footprint chunk: about 61 B per boundary point of
    # hexagon samples, projection and footprint table.
    small, large = (traced_peak(run, ONE_BEAM, tmp_path, 50, samples) for samples in (2000, 6000))
    assert (large - small) / (6 * (6000 - 2000)) <= edge_trial_bytes_per_point(tmp_path / "o")


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
