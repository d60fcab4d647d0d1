"""Slant-range statistics, projected beam footprints, and derived scenario
constants for reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deployment import UeRecord
from .layout import (
    STATISTICS_RINGS,
    BeamLayout,
    BeamRole,
    ScenarioConfig,
    adjacent_beam_spacing,
    beam_radius,
    center_offset,
)
from .projection import GroundPoint, SatelliteState, _line_of_sight, horizon_limit

__all__ = [
    "BeamStats",
    "Footprint",
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


@dataclass(frozen=True, slots=True)
class ScenarioSummary:
    beam_radius: float
    spacing: float
    center_offset_u: float
    horizon_limit: float
    beam_count: int
    statistics_beam_count: int


def beam_stats(ues: list[UeRecord], layout: BeamLayout, bins: int = 50) -> list[BeamStats]:
    """Group UEs by beam and histogram their slant ranges.

    Bin edges are equal-width over the global [min, max] slant range so the
    per-beam histograms are directly comparable; the last bin is closed on
    the right so every UE is counted exactly once.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    if not ues:
        raise ValueError("no UE records to aggregate")
    roles = {beam.id: beam.role for beam in layout.beams}
    by_beam: dict[int, list[UeRecord]] = {}
    for ue in ues:
        by_beam.setdefault(ue.beam_id, []).append(ue)
    all_slants = np.array([ue.slant_range_km for ue in ues])
    lo = float(all_slants.min())
    hi = float(all_slants.max())
    degenerate = hi <= lo
    edges = np.array([lo, hi]) if degenerate else np.linspace(lo, hi, bins + 1)
    stats = []
    for beam_id in sorted(by_beam):
        group = by_beam[beam_id]
        slants = np.array([ue.slant_range_km for ue in group])
        elevations = np.array([ue.elevation_deg for ue in group])
        if degenerate:
            histogram = ((lo, hi, len(group)),)
        else:
            counts, _ = np.histogram(slants, bins=edges)
            histogram = tuple(
                (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
            )
        stats.append(
            BeamStats(
                beam_id=beam_id,
                role=roles[beam_id],
                ue_count=len(group),
                min_slant_km=float(slants.min()),
                max_slant_km=float(slants.max()),
                mean_slant_km=float(slants.mean()),
                min_elevation_deg=float(elevations.min()),
                max_elevation_deg=float(elevations.max()),
                histogram=histogram,
            )
        )
    return stats


def project_footprints(
    layout: BeamLayout, sat: SatelliteState, samples_per_edge: int = 8
) -> list[Footprint]:
    """Project each beam's hexagon boundary onto the Earth sphere.

    Each hexagon edge is sampled ``samples_per_edge`` times (starting at its
    first corner) before projection, which is enough to show how the Earth's
    curvature bends the far-side footprints.
    """
    if samples_per_edge < 1:
        raise ValueError(f"samples_per_edge must be at least 1, got {samples_per_edge}")
    footprints = []
    for beam in layout.beams:
        verts = beam.vertices_uv
        boundary: list[GroundPoint] = []
        for i in range(6):
            a = verts[i]
            b = verts[(i + 1) % 6]
            for j in range(samples_per_edge):
                t = j / samples_per_edge
                ground = _line_of_sight(a.u + t * (b.u - a.u), a.v + t * (b.v - a.v), sat)[6:]
                boundary.append(GroundPoint(*ground))
        boundary.append(boundary[0])
        footprints.append(Footprint(beam.id, tuple(boundary)))
    return footprints


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
