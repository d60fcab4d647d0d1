"""Seeded uniform UE drops inside each beam hexagon.

Every beam gets its own PCG64 stream spawned from the run seed and the beam
id, so the drop is reproducible bit-for-bit no matter how beams are iterated
or parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .layout import _CORNER_UNIT, BeamLayout, _check_ues_per_beam
from .projection import _CHUNK, GroundPoint, SatelliteState, UvPoint, _each, _project_columns

__all__ = [
    "RNG_ALGORITHM",
    "RNG_STREAM_RULE",
    "UeRecord",
    "UeTable",
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


class UeTable:
    """A UE drop as NumPy columns, in the order of ``ues.csv``: the
    :class:`UeRecord` fields, with ``uv`` and ``ground`` split.  An int index
    and iteration yield :class:`UeRecord`s of Python numbers, a slice yields
    a table, and ``==`` compares every column."""

    # A plain class: as a dataclass it would add about a millisecond to import.
    __slots__ = ("ue_id", "beam_id", "u", "v", "x_km", "y_km", "z_km",
                 "slant_range_km", "elevation_deg", "zod_deg", "aod_deg")

    def __init__(self, *columns: np.ndarray) -> None:
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records: Iterable[UeRecord]) -> UeTable:
        """The table of ``records``, any iterable of :class:`UeRecord`s."""
        rows = [
            (r.ue_id, r.beam_id, r.uv.u, r.uv.v, r.ground.x_km, r.ground.y_km, r.ground.z_km,
             r.slant_range_km, r.elevation_deg, r.zod_deg, r.aod_deg)
            for r in records
        ]
        columns = list(zip(*rows)) or [()] * len(cls.__slots__)
        dtypes = (np.int64 if name.endswith("_id") else np.float64 for name in cls.__slots__)
        return cls(*map(np.array, columns, dtypes))

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(self.ue_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UeTable(*(c[index] for c in self.columns()))
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __iter__(self) -> Iterator[UeRecord]:
        columns = self.columns()
        for start in range(0, len(self), _CHUNK):
            rows = zip(*(c[start : start + _CHUNK].tolist() for c in columns))
            for ue_id, beam_id, u, v, x, y, z, *link in rows:
                yield UeRecord(ue_id, beam_id, UvPoint(u, v), GroundPoint(x, y, z), *link)

    def __eq__(self, other):
        return isinstance(other, UeTable) and all(map(np.array_equal, self.columns(), other.columns()))


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


def drop_ues(layout: BeamLayout, sat: SatelliteState, ues_per_beam: int, seed: int) -> UeTable:
    """Drop ``ues_per_beam`` uniform UEs in every beam and project them.

    UE ids are ``beam_id * ues_per_beam + k`` so they are stable under any
    iteration order.  A :class:`~uvbeams.projection.HorizonError` from the
    projection would indicate a layout built past the horizon guard and is
    propagated as-is.
    """
    _check_ues_per_beam(ues_per_beam)
    draws = (
        sample_point_in_hexagon(beam.center_uv, layout.beam_radius, rng)
        for beam in layout.beams
        for rng in [beam_rng(seed, beam.id)]
        for _ in range(ues_per_beam)
    )
    count = len(layout) * ues_per_beam
    u, v = np.fromiter(((p.u, p.v) for p in draws), np.dtype((np.float64, 2)), count).T.copy()
    degrees = _each(math.degrees)

    def ground_and_link(d_uv, omega, zod, aod, alpha, slant, x, y, z):
        return x, y, z, slant, degrees(alpha), degrees(zod), degrees(aod)

    beam_ids = np.repeat(np.array([beam.id for beam in layout.beams], np.int64), ues_per_beam)
    ue_ids = beam_ids * ues_per_beam + np.tile(np.arange(ues_per_beam), len(layout))
    return UeTable(ue_ids, beam_ids, u, v, *_project_columns(u, v, sat, ground_and_link))
