"""Seeded uniform UE drops inside each beam hexagon.

Every beam gets its own PCG64 stream spawned from the run seed and the beam
id, so the drop is reproducible bit-for-bit no matter how beams are iterated
or parallelised.  The streams of a whole chunk of beams are derived at once
by :func:`_stream_states`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .layout import _CORNER_UNIT, BeamLayout, _check_count
from .projection import _CHUNK, GroundPoint, SatelliteState, UvPoint, _project_columns

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

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# 128-bit PCG multiplier that PCG64 seeds with.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    stream rule, see :data:`RNG_STREAM_RULE`.  ``seed`` must be an unsigned
    64-bit integer and ``beam_id`` an integer in ``[0, 2**32)``, else
    :class:`ValueError`."""
    _check_count("seed", seed)
    _check_count("beam_id", beam_id)
    # The rule's SeedSequence rides along so that ``seed_seq`` and
    # ``spawn()`` of the generator follow the rule too; the state is the
    # package's own derivation, the one drop_ues uses.
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(beam_id,)))
    bit_generator.state = next(_stream_states(seed, [beam_id]))
    return np.random.Generator(bit_generator)


def _stream_states(seed: int, beam_ids: list[int]) -> Iterator[dict]:
    """The ``PCG64.state`` of :data:`RNG_STREAM_RULE` for each beam id, in
    order.  ``seed`` is an unsigned 64-bit integer and every id lies in
    ``[0, 2**32)``, so it is one spawn-key word.

    This is NumPy's ``SeedSequence(seed, spawn_key=(beam_id,))`` followed by
    ``generate_state(4, np.uint64)``, with every beam's 32-bit words in one
    ``uint32`` column, and then PCG64's seeding: two steps of its 128-bit LCG.
    The entropy words are the seed's two 32-bit words, zero-padded to the
    pool size of 4, then the beam id.  The tests pin it against NumPy.
    """
    seed = int(seed)
    ids = np.array(beam_ids, np.uint32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    # SeedSequence.mix_entropy: the pool takes the first four words, is mixed
    # with itself, then takes the fifth word, the id.
    pool = [hashmix(np.full_like(ids, word)) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_dst in range(4):
        pool[i_dst] = mix(pool[i_dst], hashmix(ids))
    # SeedSequence.generate_state: eight 32-bit words, read in little-endian
    # pairs as the 64-bit words (state_hi, state_lo, inc_hi, inc_lo).
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ value >> 16).astype(np.uint64))
    state = [(lo | hi << 32).tolist() for lo, hi in zip(words[::2], words[1::2])]
    # pcg_setseq_128_srandom_r: from state 0, step, add the seed state, step.
    for state_hi, state_lo, inc_hi, inc_lo in zip(*state):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        initstate = state_hi << 64 | state_lo
        yield {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def sample_point_in_hexagon(
    center: UvPoint, circumradius: float, rng: np.random.Generator
) -> UvPoint:
    """Draw one point uniformly from the closed pointy-top hexagon.

    The hexagon is fanned into six congruent triangles around the centre;
    a uniform triangle index plus a reflected pair of uniforms gives an
    exact, rejection-free draw.  Three values are consumed from ``rng``, in
    this order: ``rng.integers(6)``, then two ``rng.random()``.  The order is
    part of the byte-reproducibility contract of the drop.  A circumradius
    that is not positive and finite, or a centre coordinate that is not
    finite (an int too large for a float is not), raises
    :class:`ValueError` before any draw.
    """
    if not 0.0 < circumradius <= sys.float_info.max:
        raise ValueError(f"circumradius must be positive and finite, got {circumradius}")
    cu = center.u
    cv = center.v
    try:
        finite = math.isfinite(cu) and math.isfinite(cv)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"hexagon centre must be finite, got {center}")
    k = int(rng.integers(6))
    a1 = rng.random()
    a2 = rng.random()
    if a1 + a2 > 1.0:
        a1, a2 = 1.0 - a1, 1.0 - a2
    # Corners k and k + 1 of the fan triangle, computed as hexagon_vertices does.
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
    iteration order.  ``seed`` must be an unsigned 64-bit integer, else
    :class:`ValueError` before any draw.  A
    :class:`~uvbeams.projection.HorizonError` from the projection would
    indicate a layout built past the horizon guard and is propagated as-is.
    """
    _check_count("ues_per_beam", ues_per_beam)
    _check_count("seed", seed)
    beam_ids = [beam.id for beam in layout.beams]
    # One bit generator serves every beam: the for target sets it to the
    # beam's stream, which also clears the buffered 32-bit half word.
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    draws = (
        sample_point_in_hexagon(beam.center_uv, layout.beam_radius, rng)
        for beam, bit_generator.state in zip(layout.beams, _stream_states(seed, beam_ids))
        for _ in range(ues_per_beam)
    )
    count = len(layout) * ues_per_beam
    u, v = np.fromiter(((p.u, p.v) for p in draws), np.dtype((np.float64, 2)), count).T.copy()
    # math.degrees is this one multiply, so the columns keep its bits.
    to_degrees = 180.0 / math.pi

    def ground_and_link(d_uv, omega, zod, aod, alpha, slant, x, y, z):
        return x, y, z, slant, alpha * to_degrees, zod * to_degrees, aod * to_degrees

    beam_id_column = np.repeat(np.array(beam_ids, np.int64), ues_per_beam)
    ue_ids = beam_id_column * ues_per_beam + np.tile(np.arange(ues_per_beam), len(layout))
    return UeTable(ue_ids, beam_id_column, u, v, *_project_columns(u, v, sat, ground_and_link))
