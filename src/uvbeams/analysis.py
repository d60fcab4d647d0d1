"""Slant-range statistics, projected beam footprints, and derived scenario
constants for reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    _lattice,
    _Table,
)
from .projection import _CHUNK, GroundPoint, SatelliteState, _project_columns

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


class FootprintTable(_Table):
    """Projected beam boundaries: ``beam_id`` holds one id per footprint, and
    ``x_km``, ``y_km`` and ``z_km`` one row of boundary points per footprint,
    the first point repeated at the end.  Its records are
    :class:`Footprint`s."""

    __slots__ = ("beam_id", "x_km", "y_km", "z_km")
    _dtypes = (np.int64,) + (np.float64,) * 3

    @staticmethod
    def _record(beam_id: int, x: list[float], y: list[float], z: list[float]) -> Footprint:
        return Footprint(beam_id, tuple(map(GroundPoint, x, y, z)))

    def columns(self) -> list[np.ndarray]:
        """Beam id, vertex index, x, y, z per point, as in ``footprints.csv``."""
        points = self.x_km.shape[-1]
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
    bins = _check_count("bins", bins)
    columns = _stat_columns(*_grouped(ues, layout), bins)
    edges = next(columns)
    # Every histogram shares one immutable empty cell tuple per bin.
    empty = [(a, b, 0) for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())]
    stats = []
    for *fields, counts in columns:
        for beam_id, role, *values, row in zip(*(c.tolist() for c in fields), counts.tolist()):
            histogram = tuple((*cell[:2], count) if count else cell for cell, count in zip(empty, row))
            stats.append(BeamStats(beam_id, BeamRole(role), *values, histogram))
    return stats


def _grouped(ues: UeTable | Iterable[UeRecord], layout: BeamLayout) -> tuple[np.ndarray, ...]:
    """The arguments of :func:`_stat_columns` but ``bins`` for
    :func:`beam_stats`, which checks them here: its UEs stably sorted by beam
    id into groups, and each group's beam id, role and elevation extrema."""
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
    elevations = ues.elevation_deg[order]
    extrema = np.array([f.reduceat(elevations, starts) for f in (np.minimum, np.maximum)])
    del elevations
    role_of = dict(zip(layout.beams.id.tolist(), layout.beams.role.tolist()))
    roles = list(map(role_of.get, beam_ids[starts].tolist()))
    if None in roles:
        raise ValueError(f"UE beam id {beam_ids[starts[roles.index(None)]]} is not in the layout")
    return beam_ids[starts], np.array(roles), starts, ues.slant_range_km[order], extrema


def _stat_columns(
    group_ids: np.ndarray, roles: np.ndarray, starts: np.ndarray, slants: np.ndarray, extrema: np.ndarray, bins: int
) -> Iterator[np.ndarray | list[np.ndarray]]:
    """The statistics of UEs grouped by beam, as columns.  Group ``i``, of
    beam ``group_ids[i]`` and role value ``roles[i]``, is the rows of
    ``slants`` from ``starts[i]`` to the next start, and ``extrema[0][i]`` and
    ``extrema[1][i]`` are its least and greatest elevation.  The caller has
    checked them.

    The first item is the bin edges every beam shares.  Then come chunks of
    consecutive groups, each of at most :data:`_CHUNK` UEs and ``_CHUNK``
    histogram cells but at least one group.  A chunk is a list of columns:
    beam id, role value, UE count, least, greatest and mean slant range,
    least and greatest elevation, and the ``(groups, bins)`` histogram
    counts.  The mean has the bits of ``ndarray.mean``, the same pairwise
    sum and division."""
    lo = float(slants.min())
    hi = float(slants.max())
    # When every slant is equal, linspace gives the one bin [lo, lo].
    bins = bins if hi > lo else 1
    edges = np.linspace(lo, hi, bins + 1)
    yield edges
    # np.histogram's rule, edges[i] <= x < edges[i + 1] and the last bin
    # closed: x's bin is the count of inner edges <= x, even where edges repeat.
    inner = edges[1:-1]
    bounds = np.append(starts, len(slants))
    i = 0
    while i < len(starts):
        j = max(i + 1, min(i + _CHUNK // bins, np.searchsorted(bounds, bounds[i] + _CHUNK, "right") - 1))
        chunk = slants[bounds[i] : bounds[j]]
        offsets = bounds[i : j + 1] - bounds[i]
        sizes = np.diff(offsets)
        cells = np.repeat(np.arange(0, (j - i) * bins, bins), sizes) + np.searchsorted(inner, chunk, "right")
        # Each run of groups of one size is one 2-D sum along rows, which has
        # the bits of each row's own sum.
        runs = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), j - i]
        sums = np.concatenate([chunk[offsets[a] : offsets[b]].reshape(b - a, -1).sum(axis=1) for a, b in zip(runs, runs[1:])])
        least, greatest = (f.reduceat(chunk, offsets[:-1]) for f in (np.minimum, np.maximum))
        counts = np.bincount(cells, minlength=(j - i) * bins).reshape(j - i, bins)
        yield [group_ids[i:j], roles[i:j], sizes, least, greatest, sums / sizes, *extrema[:, i:j], counts]
        i = j


def _beam_chunks(layout: BeamLayout, per_beam: int) -> Iterator[tuple[int, BeamLayout]]:
    """The first beam index and the sub-layout of each run of ``max(1,
    _CHUNK // per_beam)`` consecutive beams, for work of ``per_beam`` rows
    per beam; a sub-layout's beams are a slice of the layout's table."""
    step = max(1, _CHUNK // per_beam)
    for start in range(0, len(layout), step):
        yield start, replace(layout, beams=layout.beams[start : start + step])


def project_footprints(
    layout: BeamLayout, sat: SatelliteState, samples_per_edge: int = 8
) -> FootprintTable:
    """Project each beam's hexagon boundary onto the Earth sphere.

    Each hexagon edge is sampled ``samples_per_edge`` times (starting at its
    first corner) before projection, which is enough to show how the Earth's
    curvature bends the far-side footprints.

    The corners are built as columns from the layout's centre columns and
    radius, by the two operations of :func:`~uvbeams.layout.hexagon_vertices`
    (``centre + radius * unit``), so they have the bits of
    ``beam.vertices_uv`` without making a point object per corner.  The
    boundary points are built and projected one chunk of beams at a time
    (:func:`_beam_chunks`) into the result arrays, so a call on a whole
    layout peaks at about 1.3 times the memory of its result.
    """
    samples_per_edge = _check_count("samples_per_edge", samples_per_edge)
    corners = layout.beam_radius * np.array(_CORNER_UNIT)[:, None]
    t = (np.arange(samples_per_edge) / samples_per_edge)[:, None]
    points = 6 * samples_per_edge + 1
    xyz = np.empty((3, 0))
    for start, chunk in _beam_chunks(layout, points):
        # Corners a and b of every edge, shape (beams, 6, 1, 2); each boundary
        # point is a + t * (b - a) with t = j / samples_per_edge.
        centres = np.stack((chunk.beams.u, chunk.beams.v), axis=-1)
        a = centres.reshape(-1, 1, 1, 2) + corners
        b = np.roll(a, -1, axis=1)
        uv = (a + t * (b - a)).reshape(len(a), -1, 2)
        uv = np.concatenate([uv, uv[:, :1]], axis=1)
        rows = _project_columns(uv[..., 0].ravel(), uv[..., 1].ravel(), sat, lambda *los: los[5:])
        # The result is made once the first chunk is projected: run() calls
        # this one chunk at a time, and made earlier it would add to the
        # kernel's transient peak.
        if start == 0:
            xyz = np.empty((3, len(layout) * points))
        xyz[:, start * points : (start + len(a)) * points] = rows
    return FootprintTable(layout.beams.id, *xyz.reshape(3, len(layout), points))


def footprint_area_km2(footprint: Footprint) -> float:
    """Area of the boundary projected on the plane normal to its centroid's
    direction: half the boundary's vector area about the centroid, dotted
    with the centroid's unit vector.  The last point, a repeat of the first,
    is dropped, and the boundary wraps around.

    Beam footprints are tiny compared to the Earth, so the planar polygon
    area is an adequate size/distortion metric; it is not a spherical area.
    A boundary with no point besides the repeated first raises
    :class:`ValueError`.
    """
    pts = footprint.boundary[:-1]
    n = len(pts)
    if not n:
        raise ValueError(f"footprint of beam {footprint.beam_id} has no boundary points besides the repeated first one")
    cx = sum(p.x_km for p in pts) / n
    cy = sum(p.y_km for p in pts) / n
    cz = sum(p.z_km for p in pts) / n
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    d = [(p.x_km - cx, p.y_km - cy, p.z_km - cz) for p in pts]
    # The vector area's components: the sums of d_i x d_(i+1), left to right.
    ax, ay, az = map(sum, zip(*(
        (y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1)
        for (x0, y0, z0), (x1, y1, z1) in zip(d, d[1:] + d[:1])
    )))
    # The unit normal comes first: ax * cx can overflow where the area cannot.
    return abs(ax * (cx / norm) + ay * (cy / norm) + az * (cz / norm)) / 2.0


def scenario_summary(config: ScenarioConfig) -> ScenarioSummary:
    """Derived constants a report consumer needs before any sampling."""
    rings = config.ring_count
    stats_rings = min(rings, STATISTICS_RINGS)
    return ScenarioSummary(
        *_lattice(config),
        beam_count=1 + 3 * rings * (rings + 1),
        statistics_beam_count=1 + 3 * stats_rings * (stats_rings + 1),
    )
