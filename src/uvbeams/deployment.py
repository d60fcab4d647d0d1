"""Seeded uniform UE drops inside each beam hexagon.

Every beam gets its own PCG64 stream spawned from the run seed and the beam
id, so the drop is reproducible bit-for-bit no matter how beams are iterated
or parallelised.  The streams of a whole chunk of beams are seeded at once
by :func:`_streams`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from .layout import _CORNER_UNIT, BeamLayout, _check_count, _Table
from .projection import _ANGLE_COLUMNS, GroundPoint, SatelliteState, UvPoint, _angles, _project_columns, _shown, _uv_point

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

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Corners k and k + 1 of fan triangle k, (c0u, c0v, c1u, c1v), as
# hexagon_vertices reads them.
_FAN = tuple((*_CORNER_UNIT[k], *_CORNER_UNIT[(k + 1) % 6]) for k in range(6))
_MAX_FLOAT = sys.float_info.max


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


class UeTable(_Table):
    """A UE drop as NumPy columns, in the order of ``ues.csv``: the
    :class:`UeRecord` fields, with ``uv`` and ``ground`` split.  Its records
    are :class:`UeRecord`s."""

    __slots__ = ("ue_id", "beam_id", "u", "v", "x_km", "y_km", "z_km",
                 "slant_range_km", "elevation_deg", "zod_deg", "aod_deg")
    _dtypes = (np.int64,) * 2 + (np.float64,) * 9

    @classmethod
    def from_records(cls, records: Iterable[UeRecord]) -> UeTable:
        """The table of ``records``, any iterable of :class:`UeRecord`s."""
        return cls.from_rows(
            (r.ue_id, r.beam_id, r.uv.u, r.uv.v, r.ground.x_km, r.ground.y_km, r.ground.z_km,
             r.slant_range_km, r.elevation_deg, r.zod_deg, r.aod_deg)
            for r in records
        )

    @staticmethod
    def _record(ue_id: int, beam_id: int, u: float, v: float, x: float, y: float, z: float, *link: float) -> UeRecord:
        return UeRecord(ue_id, beam_id, UvPoint(u, v), GroundPoint(x, y, z), *link)


def beam_rng(seed: int, beam_id: int) -> np.random.Generator:
    """Independent generator for one beam: PCG64 seeded by the documented
    stream rule, see :data:`RNG_STREAM_RULE`.  ``seed`` must be an unsigned
    64-bit integer and ``beam_id`` an integer in ``[0, 2**32)``, else
    :class:`ValueError`."""
    seed = _check_count("seed", seed)
    beam_id = _check_count("beam_id", beam_id)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(beam_id,))))


class _Words:
    """One beam's ``generate_state(4, np.uint64)`` words, registered by
    :func:`_streams` as the NumPy ``ISeedSequence`` that PCG64 seeds from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def _streams(seed: int, beam_ids: list[int]) -> Iterator[np.random.PCG64]:
    """A PCG64 seeded by :data:`RNG_STREAM_RULE` for each beam id, in order.
    ``seed`` is an unsigned 64-bit integer and every id lies in
    ``[0, 2**32)``, so it is one spawn-key word.

    PCG64 seeds from the rule's ``generate_state(4, np.uint64)``.  The seed
    half of its mixing is the same for every beam and is read from one
    ``SeedSequence(seed)``; only the id step and ``generate_state`` run
    here, on ``uint32`` columns.  The tests pin it against NumPy.
    """
    ids = np.array(beam_ids, np.uint32)
    # SeedSequence.mix_entropy fills the 4-word pool from the seed's words,
    # zero-padded, and mixes it with itself: 16 hashmix steps, the same for
    # every beam, whose result is SeedSequence(seed).pool.  The pool words
    # stay arrays, since a uint32 scalar warns when a product wraps.
    pool = np.random.SeedSequence(seed).pool[:, None]
    hash_const, multiplier = _INIT_A * _MULT_A**16 & _MASK32, _MULT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    # Then it mixes the fifth entropy word, the id, into each pool word.
    pool = [mix(word, hashmix(ids)) for word in pool]
    # SeedSequence.generate_state: eight 32-bit words, read in little-endian
    # pairs as four 64-bit words.  PCG64 reads each row's buffer unchecked,
    # so each must be C-contiguous native uint64, as astype leaves it.
    hash_const, multiplier = _INIT_B, _MULT_B
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).astype("<u4").view("<u8").astype(np.uint64)
    # Not subclassed: numpy.random at import raised a CLI run's peak memory
    # by 0.5 MB, and a class made per call is garbage until a collection.
    np.random.bit_generator.ISeedSequence.register(_Words)
    yield from map(np.random.PCG64, map(_Words, words))


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
    if not 0.0 < circumradius <= _MAX_FLOAT:
        raise ValueError(f"circumradius must be positive and finite, got {_shown(circumradius)}")
    cu = center.u
    cv = center.v
    try:
        finite = math.isfinite(cu) and math.isfinite(cv)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"hexagon centre must be finite, got ({_shown(cu)}, {_shown(cv)})")
    k = int(rng.integers(6))
    a1 = rng.random()
    a2 = rng.random()
    if a1 + a2 > 1.0:
        a1, a2 = 1.0 - a1, 1.0 - a2
    # The fan triangle's corners, computed as hexagon_vertices does.
    c0u, c0v, c1u, c1v = _FAN[k]
    v0u = cu + circumradius * c0u
    v0v = cv + circumradius * c0v
    v1u = cu + circumradius * c1u
    v1v = cv + circumradius * c1v
    return _uv_point(
        cu + a1 * (v0u - cu) + a2 * (v1u - cu),
        cv + a1 * (v0v - cv) + a2 * (v1v - cv),
    )


def drop_ues(layout: BeamLayout, sat: SatelliteState, ues_per_beam: int, seed: int) -> UeTable:
    """Drop ``ues_per_beam`` uniform UEs in every beam and project them.

    UE ids are ``beam_id * ues_per_beam + k`` so they are stable under any
    iteration order; ids past ``2**63`` are rejected by the count rule.
    ``seed`` must be an unsigned 64-bit integer and every beam id lie in
    ``[0, 2**32)``, as for :func:`beam_rng`, and appear once, else
    :class:`ValueError` before any draw.  A
    :class:`~uvbeams.projection.HorizonError` from the projection would
    indicate a layout built past the horizon guard and is propagated as-is.

    The draws are not made by a ``Generator``: each beam's PCG64 from
    :func:`_streams` gives its raw outputs at once, decoded as NumPy's
    ``integers(6)`` (Lemire's multiply-shift on a 32-bit half word) and
    ``random()`` would decode them, 5 outputs per pair of UEs.  A beam whose
    draw would take Lemire's rejection branch (about 1e-9 per UE) is drawn
    as :func:`beam_rng` draws, by a ``Generator`` on a fresh PCG64.  Every UE
    is still placed by one :func:`sample_point_in_hexagon` call, fed the
    decoded values in its draw order: the fan-triangle arithmetic keeps one
    implementation, and a trace counts one sampler call per UE.
    """
    n = _check_count("ues_per_beam", ues_per_beam)
    seed = _check_count("seed", seed)
    beam_ids = layout.beams.id.tolist()
    _check_count("beam_id", min(beam_ids, default=0))
    greatest = _check_count("beam_id", max(beam_ids, default=0))
    if len(set(beam_ids)) < len(beam_ids):
        # An id picks its beam's stream and UE ids: a repeat repeats both.
        repeated = collections.Counter(beam_ids).most_common(1)[0][0]
        raise ValueError(f"beam_id {repeated} appears more than once; beam ids must be distinct")
    _check_count("beams * ues_per_beam", (greatest + 1) * n)
    count = len(beam_ids) * n
    # A pair of UEs reads 5 outputs: the triangle indices from the low and
    # high 32-bit halves of the first, then two uniforms each,
    # (raw >> 11) * 2**-53 as in NumPy's next_double.
    raw = np.empty((len(beam_ids), 5 * (n // 2) + 3 * (n % 2)), np.uint64)
    for i, stream in enumerate(_streams(seed, beam_ids)):
        raw[i] = stream.random_raw(raw.shape[1])
    scaled = np.ascontiguousarray(raw[:, ::5], "<u8").view("<u4")[:, :n].astype(np.uint64) * 6
    triangles = scaled >> 32
    uniforms = (raw[:, np.arange(raw.shape[1]) % 5 != 0] >> 11) * 2.0**-53
    del raw
    # Lemire's method redraws when the low word of scaled is below
    # 2**32 % 6 == 4; such a beam is drawn by a Generator on its stream
    # instead.
    for row in np.flatnonzero(((scaled & _MASK32) < 4).any(axis=1)):
        rng = np.random.Generator(next(_streams(seed, [beam_ids[row]])))
        for j in range(n):
            triangles[row, j] = rng.integers(6)
            uniforms[row, 2 * j : 2 * j + 2] = rng.random(), rng.random()
    del scaled
    # The sampler's Generator is stood in for by the decoded values, served
    # in call order and made Python numbers one at a time by one memoryview
    # of each whole array, its beams' rows end to end.  Its two methods are
    # C-level callables: integers(6) is next(triangle_values, 6), whose
    # default is never reached, since exactly n indices are fed per beam and
    # the sampler asks for one per UE.  Each beam's centre is one point, made
    # from the layout's columns and fed n times.
    triangle_values = iter(memoryview(triangles.reshape(-1)))
    uniform_values = iter(memoryview(uniforms.reshape(-1)))
    draws = SimpleNamespace(integers=functools.partial(next, triangle_values), random=uniform_values.__next__)
    beam_centres = map(_uv_point, layout.beams.u.tolist(), layout.beams.v.tolist())
    centres = itertools.chain.from_iterable(map(itertools.repeat, beam_centres, itertools.repeat(n)))
    points = map(sample_point_in_hexagon, centres, itertools.repeat(layout.beam_radius), itertools.repeat(draws))
    coordinates = itertools.chain.from_iterable(map(operator.attrgetter("u", "v"), points))
    u, v = np.fromiter(coordinates, np.float64, 2 * count).reshape(-1, 2).T.copy()
    del triangles, uniforms, triangle_values, uniform_values, draws, points, coordinates  # released before the projection
    # math.degrees is this one multiply, so the columns keep its bits.
    to_degrees = 180.0 / math.pi

    def ground_and_link(u, v, d_uv, cos_alpha, slant, x, y, z):
        _, zod, aod, alpha = _angles(u, v, d_uv, cos_alpha, *_ANGLE_COLUMNS)
        return x, y, z, slant, alpha * to_degrees, zod * to_degrees, aod * to_degrees

    beam_id_column = np.repeat(layout.beams.id, n)
    ue_ids = beam_id_column * n + np.tile(np.arange(n), len(layout))
    return UeTable(ue_ids, beam_id_column, u, v, *_project_columns(u, v, sat, ground_and_link))

