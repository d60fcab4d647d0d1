"""Seeded uniform UE drops inside each beam hexagon.

Every beam gets its own PCG64 stream spawned from the run seed and the beam
id, so the drop is reproducible bit-for-bit no matter how beams are iterated
or parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import _CORNER_UNIT, BeamLayout
from .projection import GroundPoint, SatelliteState, UvPoint, _line_of_sight

__all__ = [
    "RNG_ALGORITHM",
    "RNG_STREAM_RULE",
    "UeRecord",
    "beam_rng",
    "sample_point_in_hexagon",
    "drop_ues",
]

RNG_ALGORITHM = "PCG64"
RNG_STREAM_RULE = "SeedSequence(seed, spawn_key=(beam_id,))"


@dataclass(frozen=True, slots=True)
class UeRecord:
    """One dropped UE with its projected position and link geometry."""

    ue_id: int
    beam_id: int
    uv: UvPoint
    ground: GroundPoint
    slant_range_km: float
    elevation_deg: float
    zod_deg: float
    aod_deg: float


def beam_rng(seed: int, beam_id: int) -> np.random.Generator:
    """Independent generator for one beam: PCG64 seeded by the documented
    stream rule, see :data:`RNG_STREAM_RULE`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(beam_id,))))


def sample_point_in_hexagon(
    center: UvPoint, circumradius: float, rng: np.random.Generator
) -> UvPoint:
    """Draw one point uniformly from the closed pointy-top hexagon.

    The hexagon is fanned into six congruent triangles around the centre;
    a uniform triangle index plus a reflected pair of uniforms gives an
    exact, rejection-free draw.  Three values are consumed from ``rng``, in
    this order: ``rng.integers(6)``, then two ``rng.random()``.  The order is
    part of the byte-reproducibility contract of the drop.
    """
    if not 0.0 < circumradius < math.inf:
        raise ValueError(f"circumradius must be positive and finite, got {circumradius}")
    k = int(rng.integers(6))
    a1 = rng.random()
    a2 = rng.random()
    if a1 + a2 > 1.0:
        a1, a2 = 1.0 - a1, 1.0 - a2
    # Corners k and k + 1 of the fan triangle, computed as hexagon_vertices does.
    cu = center.u
    cv = center.v
    c0u, c0v = _CORNER_UNIT[k]
    c1u, c1v = _CORNER_UNIT[(k + 1) % 6]
    v0u = cu + circumradius * c0u
    v0v = cv + circumradius * c0v
    v1u = cu + circumradius * c1u
    v1v = cv + circumradius * c1v
    return UvPoint(
        cu + a1 * (v0u - cu) + a2 * (v1u - cu),
        cv + a1 * (v0v - cv) + a2 * (v1v - cv),
    )


def drop_ues(
    layout: BeamLayout, sat: SatelliteState, ues_per_beam: int, seed: int
) -> list[UeRecord]:
    """Drop ``ues_per_beam`` uniform UEs in every beam and project them.

    UE ids are ``beam_id * ues_per_beam + k`` so they are stable under any
    iteration order.  A :class:`~uvbeams.projection.HorizonError` from the
    projection would indicate a layout built past the horizon guard and is
    propagated as-is.
    """
    if ues_per_beam < 1:
        raise ValueError(f"ues_per_beam must be at least 1, got {ues_per_beam}")
    records: list[UeRecord] = []
    for beam in layout.beams:
        rng = beam_rng(seed, beam.id)
        first_id = beam.id * ues_per_beam
        for k in range(ues_per_beam):
            uv = sample_point_in_hexagon(beam.center_uv, layout.beam_radius, rng)
            _, _, zod, aod, alpha, slant, x, y, z = _line_of_sight(uv.u, uv.v, sat)
            records.append(
                UeRecord(
                    first_id + k,
                    beam.id,
                    uv,
                    GroundPoint(x, y, z),
                    slant,
                    math.degrees(alpha),
                    math.degrees(zod),
                    math.degrees(aod),
                )
            )
    return records
