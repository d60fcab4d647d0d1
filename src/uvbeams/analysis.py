"""Slant-range statistics, projected beam footprints, and derived scenario
constants for reporting."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .deployment import UeRecord, UeTable
from .layout import (
    _CORNER_UNIT,
    STATISTICS_RINGS,
    BeamLayout,
    BeamRole,
    ScenarioConfig,
    _check_count,
    adjacent_beam_spacing,
    beam_radius,
    center_offset,
)
from .projection import _CHUNK, GroundPoint, SatelliteState, _project_columns, horizon_limit

__all__ = [
    "BeamStats",
    "Footprint",
    "FootprintTable",
    "ScenarioSummary",
    "beam_stats",
    "project_footprints",
    "footprint_area_km2",
    "scenario_summary",
]


@dataclass(frozen=True, slots=True)
class BeamStats:
    """Per-beam slant-range statistics on a histogram grid shared by all
    beams (equal-width bins spanning the global slant-range range)."""

    beam_id: int
    role: BeamRole
    ue_count: int
    min_slant_km: float
    max_slant_km: float
    mean_slant_km: float
    min_elevation_deg: float
    max_elevation_deg: float
    histogram: tuple[tuple[float, float, int], ...]


@dataclass(frozen=True, slots=True)
class Footprint:
    """Closed polyline of one beam's hexagon boundary projected onto the
    Earth sphere (first point repeated at the end)."""

    beam_id: int
    boundary: tuple[GroundPoint, ...]


class FootprintTable:
    """Projected beam boundaries: ``beam_id`` holds one id per footprint, and
    ``x_km``, ``y_km`` and ``z_km`` one row of boundary points per footprint,
    the first point repeated at the end.  An int index and iteration yield
    :class:`Footprint`s, and a slice yields a table."""

    # A plain class, like UeTable, to keep import cheap.
    __slots__ = ("beam_id", "x_km", "y_km", "z_km")

    def __init__(self, beam_id: np.ndarray, x_km: np.ndarray, y_km: np.ndarray, z_km: np.ndarray) -> None:
        self.beam_id, self.x_km, self.y_km, self.z_km = beam_id, x_km, y_km, z_km

    def __len__(self) -> int:
        return len(self.beam_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FootprintTable(self.beam_id[index], self.x_km[index], self.y_km[index], self.z_km[index])
        rows = (self.x_km[index].tolist(), self.y_km[index].tolist(), self.z_km[index].tolist())
        return Footprint(self.beam_id[index].item(), tuple(map(GroundPoint, *rows)))

    def __iter__(self) -> Iterator[Footprint]:
        return map(self.__getitem__, range(len(self)))

    def columns(self) -> list[np.ndarray]:
        """Beam id, vertex index, x, y, z per point, as in ``footprints.csv``."""
        points = self.x_km.shape[1]
        index = np.tile(np.arange(points), len(self))
        return [self.beam_id.repeat(points), index, self.x_km.ravel(), self.y_km.ravel(), self.z_km.ravel()]


@dataclass(frozen=True, slots=True)
class ScenarioSummary:
    beam_radius: float
    spacing: float
    center_offset_u: float
    horizon_limit: float
    beam_count: int
    statistics_beam_count: int


def beam_stats(ues: UeTable | Iterable[UeRecord], layout: BeamLayout, bins: int = 50) -> list[BeamStats]:
    """Group UEs by beam and histogram their slant ranges.

    Bin edges are equal-width over the global [min, max] slant range so the
    per-beam histograms are directly comparable; the last bin is closed on
    the right so every UE is counted exactly once.  Records that are not a
    :class:`UeTable` are turned into one first, and a stable sort by beam id
    groups them, each beam's UEs in input order.  A beam id missing from the
    layout, or a slant range or elevation that is not finite, raises
    :class:`ValueError`.
    """
    _check_count("bins", bins)
    if not isinstance(ues, UeTable):
        ues = UeTable.from_records(ues)
    if not len(ues):
        raise ValueError("no UE records to aggregate")
    for name, column in (("slant range", ues.slant_range_km), ("elevation", ues.elevation_deg)):
        bad = np.flatnonzero(~np.isfinite(column))
        if len(bad):
            raise ValueError(f"UE {ues.ue_id[bad[0]]} has a non-finite {name}: {column[bad[0]]}")
    order = np.argsort(ues.beam_id, kind="stable")
    beam_ids = ues.beam_id[order]
    starts = np.flatnonzero(np.concatenate(([True], beam_ids[1:] != beam_ids[:-1])))
    slants, elevations = ues.slant_range_km[order], ues.elevation_deg[order]
    return _beam_stats(beam_ids[starts].tolist(), starts, slants, elevations, layout, bins)


def _beam_stats(
    group_ids: list[int],
    starts: np.ndarray,
    slants: np.ndarray,
    elevations: np.ndarray,
    layout: BeamLayout,
    bins: int,
) -> list[BeamStats]:
    """:func:`beam_stats` on UEs grouped by beam: group ``i``, of beam
    ``group_ids[i]``, is the rows from ``starts[i]`` to the next start.  The
    caller has checked the input.  A group is a contiguous slice, so its
    mean has the bits of the beam's own array: ``ndarray.mean`` is the same
    pairwise sum followed by one division."""
    roles = {beam.id: beam.role for beam in layout.beams}
    unknown = [beam_id for beam_id in group_ids if beam_id not in roles]
    if unknown:
        raise ValueError(f"UE beam id {unknown[0]} is not in the layout")
    n = len(slants)
    ends = np.append(starts[1:], n)
    lo = float(slants.min())
    hi = float(slants.max())
    # When every slant is equal, linspace gives the one bin [lo, lo].
    bins = bins if hi > lo else 1
    # np.histogram's edge rule: bin i holds edges[i] <= x < edges[i + 1], and
    # the last bin is closed on the right.  Each UE's cell, group * bins +
    # bin, is built in one int64 column, its bins _CHUNK UEs at a time; the
    # sorted column's runs are the non-empty cells and their counts.
    edges = np.linspace(lo, hi, bins + 1)
    cell = np.repeat(np.arange(0, len(starts) * bins, bins), ends - starts)
    for start in range(0, n, _CHUNK):
        bin_of_ue = np.searchsorted(edges, slants[start : start + _CHUNK], "right") - 1
        cell[start : start + _CHUNK] += np.minimum(bin_of_ue, bins - 1, out=bin_of_ue)
    cell.sort()
    runs = np.concatenate(([0], np.flatnonzero(cell[1:] != cell[:-1]) + 1))
    cells, counts = cell[runs], np.diff(runs, append=n)
    del cell

    columns = zip(
        group_ids,
        starts.tolist(),
        ends.tolist(),
        np.minimum.reduceat(slants, starts).tolist(),
        np.maximum.reduceat(slants, starts).tolist(),
        np.minimum.reduceat(elevations, starts).tolist(),
        np.maximum.reduceat(elevations, starts).tolist(),
        _histograms(cells, counts, edges[:-1].tolist(), edges[1:].tolist()),
    )
    return [
        BeamStats(
            beam_id=beam_id,
            role=roles[beam_id],
            ue_count=end - start,
            min_slant_km=min_slant,
            max_slant_km=max_slant,
            mean_slant_km=float(slants[start:end].sum()) / (end - start),
            min_elevation_deg=min_elev,
            max_elevation_deg=max_elev,
            histogram=histogram,
        )
        for beam_id, start, end, min_slant, max_slant, min_elev, max_elev, histogram in columns
    ]


def _histograms(cells: np.ndarray, counts: np.ndarray, bin_lo: list[float], bin_hi: list[float]) -> Iterator[tuple]:
    """One ``(lo, hi, count)`` histogram per row, from the sorted non-empty
    cells ``row * bins + bin`` and their counts; every row has at least one.

    Every histogram starts from one shared row of empty cells; only the
    non-empty cells get tuples of their own, and rows with equal non-empty
    cells share one histogram.  Cells and histograms are immutable, so
    sharing them is safe.
    """
    empty = [(lo, hi, 0) for lo, hi in zip(bin_lo, bin_hi)]
    shared: dict[tuple, tuple] = {}
    row_of_cell, bin_of_cell = np.divmod(cells, len(bin_lo))
    entries = zip(row_of_cell.tolist(), bin_of_cell.tolist(), counts.tolist())
    for _, row_cells in itertools.groupby(entries, key=operator.itemgetter(0)):
        _, js, row_counts = zip(*row_cells)
        histogram = shared.get((js, row_counts))
        if histogram is None:
            row = empty.copy()
            for j, count in zip(js, row_counts):
                row[j] = (bin_lo[j], bin_hi[j], count)
            histogram = shared[js, row_counts] = tuple(row)
        yield histogram


def project_footprints(
    layout: BeamLayout, sat: SatelliteState, samples_per_edge: int = 8
) -> FootprintTable:
    """Project each beam's hexagon boundary onto the Earth sphere.

    Each hexagon edge is sampled ``samples_per_edge`` times (starting at its
    first corner) before projection, which is enough to show how the Earth's
    curvature bends the far-side footprints.

    The corners are built as columns from the beam centres and the layout's
    radius, by the two operations of :func:`~uvbeams.layout.hexagon_vertices`
    (``centre + radius * unit``), so they have the bits of
    ``beam.vertices_uv`` without making a point object per corner.  The
    boundary points of every beam are built at once, so a call on a whole
    layout peaks at about 2.5 times the memory of its result.  ``run()``
    calls it one chunk of beams at a time (``cli._beam_chunks``).
    """
    _check_count("samples_per_edge", samples_per_edge)
    # Corners a and b of every edge, shape (beams, 6, 1, 2); each boundary
    # point is a + t * (b - a) with t = j / samples_per_edge.
    centres = np.array([(beam.center_uv.u, beam.center_uv.v) for beam in layout.beams])
    a = centres.reshape(-1, 1, 1, 2) + layout.beam_radius * np.array(_CORNER_UNIT)[:, None]
    b = np.roll(a, -1, axis=1)
    t = (np.arange(samples_per_edge) / samples_per_edge)[:, None]
    uv = (a + t * (b - a)).reshape(len(a), -1, 2)
    uv = np.concatenate([uv, uv[:, :1]], axis=1)
    xyz = _project_columns(uv[..., 0].ravel(), uv[..., 1].ravel(), sat, lambda *los: los[6:])
    beam_ids = np.array([beam.id for beam in layout.beams], np.int64)
    return FootprintTable(beam_ids, *xyz.reshape(3, len(a), uv.shape[1]))


def footprint_area_km2(footprint: Footprint) -> float:
    """Shoelace area of the boundary projected on the tangent plane at its
    centroid.

    Beam footprints are tiny compared to the Earth, so the planar polygon
    area is an adequate size/distortion metric; it is not a spherical area.
    """
    pts = footprint.boundary[:-1]
    n = len(pts)
    cx = sum(p.x_km for p in pts) / n
    cy = sum(p.y_km for p in pts) / n
    cz = sum(p.z_km for p in pts) / n
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    nx, ny, nz = cx / norm, cy / norm, cz / norm
    # Tangent basis: pick the axis least aligned with the normal.
    hx, hy, hz = (1.0, 0.0, 0.0) if abs(nz) > 0.9 else (0.0, 0.0, 1.0)
    e1x = hy * nz - hz * ny
    e1y = hz * nx - hx * nz
    e1z = hx * ny - hy * nx
    e1n = math.sqrt(e1x * e1x + e1y * e1y + e1z * e1z)
    e1x, e1y, e1z = e1x / e1n, e1y / e1n, e1z / e1n
    e2x = ny * e1z - nz * e1y
    e2y = nz * e1x - nx * e1z
    e2z = nx * e1y - ny * e1x
    xs = [p.x_km * e1x + p.y_km * e1y + p.z_km * e1z for p in pts]
    ys = [p.x_km * e2x + p.y_km * e2y + p.z_km * e2z for p in pts]
    area2 = sum(
        xs[i] * ys[(i + 1) % n] - xs[(i + 1) % n] * ys[i] for i in range(n)
    )
    return abs(area2) / 2.0


def scenario_summary(config: ScenarioConfig) -> ScenarioSummary:
    """Derived constants a report consumer needs before any sampling."""
    rings = config.ring_count
    stats_rings = min(rings, STATISTICS_RINGS)
    return ScenarioSummary(
        beam_radius=beam_radius(config.beamwidth_3db_deg),
        spacing=adjacent_beam_spacing(config.beamwidth_3db_deg),
        center_offset_u=center_offset(
            config.center_elevation_deg, config.earth_radius_km, config.altitude_km
        ),
        horizon_limit=horizon_limit(config.satellite()),
        beam_count=1 + 3 * rings * (rings + 1),
        statistics_beam_count=1 + 3 * stats_rings * (stats_rings + 1),
    )
