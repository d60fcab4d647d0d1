"""Hexagonal beam layout on the UV-plane.

Beam boresights form a hex lattice whose pitch is the adjacent beam spacing
``sqrt(3) * sin(beamwidth/2)``; the grid is shifted along +u so the centre
beam hits the ground at a requested elevation angle.  Hexagons are pointy-top:
lattice basis ``A1 = spacing * (1, 0)``, ``A2 = spacing * (1/2, sqrt(3)/2)``,
corners at 30 + 60k degrees.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from .projection import HorizonError, SatelliteState, UvPoint, _each, _shown, horizon_limit

__all__ = [
    "SQRT3",
    "STATISTICS_RINGS",
    "ScenarioConfig",
    "HexIndex",
    "BeamRole",
    "Beam",
    "BeamTable",
    "BeamLayout",
    "beam_radius",
    "adjacent_beam_spacing",
    "center_offset",
    "hex_grid",
    "frf_color",
    "hexagon_vertices",
    "hexagon_contains",
    "build_layout",
]

SQRT3 = math.sqrt(3.0)
_SQRT3_2 = SQRT3 / 2.0

# Inner rings whose beams collect statistics (centre beam + two rings = 19
# beams); everything further out only exists to generate interference.
STATISTICS_RINGS = 2

# Pointy-top corner directions (30 + 60k degrees) as unit vectors.
_CORNER_UNIT = tuple(
    (math.cos(math.radians(30.0 + 60.0 * k)), math.sin(math.radians(30.0 + 60.0 * k)))
    for k in range(6)
)
# Axial neighbour steps, counter-clockwise from +q; n times step k is the
# corner where side k of ring n starts, and side k runs along step k + 2.
_AXIAL_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# Outward edge normals: the first three steps in UV by build_layout's map
# (q, r) -> (q + r/2, r * sqrt(3)/2); opposite edges share an axis.
_EDGE_NORMAL = tuple((q + 0.5 * r, _SQRT3_2 * r) for q, r in _AXIAL_DIRECTIONS[:3])


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs for one layout-and-drop run and the one home of their defaults;
    construction runs every check.  Presets and CLI flags override fields.

    ``rings=None`` picks the conventional ring count for the reuse factor:
    4 rings (61 beams) for FRF=1 and 6 rings (127 beams) for FRF=3.
    """

    beamwidth_3db_deg: float
    altitude_km: float
    earth_radius_km: float = 6371.0
    frf: int = 1
    rings: int | None = None
    center_elevation_deg: float = 70.0
    ues_per_beam: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("beamwidth_3db_deg", "altitude_km", "earth_radius_km", "center_elevation_deg"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            # A NumPy scalar or a Fraction becomes a float, which the JSON
            # manifest holds; a Python int or float is kept as given.
            if type(value) not in (int, float):
                object.__setattr__(self, name, float(value))
        for name in ("frf", "rings", "ues_per_beam", "seed"):
            value = getattr(self, name)
            if name != "rings" or value is not None:
                object.__setattr__(self, name, _check_count(name, value))
        # The range checks of the physical inputs belong to the code that
        # uses them; calling it here rejects a bad config at construction.
        _lattice(self)
        frf_color(HexIndex(0, 0), self.frf)

    @property
    def ring_count(self) -> int:
        if self.rings is not None:
            return self.rings
        return 4 if self.frf == 1 else 6

    def satellite(self) -> SatelliteState:
        return SatelliteState(self.earth_radius_km, self.altitude_km)


@dataclass(frozen=True, slots=True)
class HexIndex:
    """Axial coordinates (q, r) of a cell in the beam lattice."""

    q: int
    r: int

    def ring(self) -> int:
        return (abs(self.q) + abs(self.r) + abs(self.q + self.r)) // 2

    def neighbors(self) -> tuple[HexIndex, ...]:
        return tuple(HexIndex(self.q + dq, self.r + dr) for dq, dr in _AXIAL_DIRECTIONS)


class BeamRole(str, Enum):
    STATISTICS = "statistics"
    INTERFERENCE = "interference"


@dataclass(frozen=True, slots=True)
class Beam:
    """One beam cell; ``radius`` is the layout's shared circumradius."""

    id: int
    index: HexIndex
    center_uv: UvPoint
    radius: float
    color: int
    role: BeamRole

    @property
    def vertices_uv(self) -> tuple[UvPoint, ...]:
        """Corners of the beam hexagon, computed by :func:`hexagon_vertices`."""
        return hexagon_vertices(self.center_uv, self.radius)


class _Table:
    """Columns of one length, and the record of each row.  A subclass's
    ``__slots__`` name its columns, one for each of its ``_dtypes``, then
    the values every row shares, which the constructor takes by keyword;
    its ``_record`` makes one row's record from the row's cells, each the
    ``tolist()`` of its element: a Python number, or a list for a row of a
    2-D column.  An int index and iteration yield records, a slice yields a
    table of the same class and shared values, and ``==`` compares every
    column and shared value."""

    # Plain classes: as dataclasses they would add about a millisecond to
    # import.
    __slots__ = ()
    _dtypes: tuple = ()

    def __init__(self, *columns: np.ndarray, **shared) -> None:
        values = (*columns, *map(shared.pop, self.__slots__[len(self._dtypes) :]))
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], **shared) -> _Table:
        """The table of ``rows``, each a tuple of one row's cells in column
        order, with the ``shared`` values."""
        columns = list(zip(*rows)) or [()] * len(cls._dtypes)
        return cls(*map(np.array, columns, cls._dtypes), **shared)

    def _stored(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__[: len(self._dtypes)]]

    # The columns of this table's CSV file; a table whose file has other
    # columns than it stores overrides this, and nothing here calls it.
    columns = _stored

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            shared = {name: getattr(self, name) for name in self.__slots__[len(self._dtypes) :]}
            return type(self)(*(c[index] for c in self._stored()), **shared)
        return self._record(*(c[index].tolist() for c in self._stored()))

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return type(other) is type(self) and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self.__slots__)


class BeamTable(_Table):
    """The beams of a layout as NumPy columns, in the order of ``beams.csv``:
    id, axial ``q`` and ``r``, the centre's ``u`` and ``v``, colour and role
    value.  ``radius`` is the circumradius every beam shares.  Its records
    are :class:`Beam`s."""

    __slots__ = ("id", "q", "r", "u", "v", "color", "role", "radius")
    _dtypes = (np.int64,) * 3 + (np.float64,) * 2 + (np.int64, str)

    def _record(self, beam_id: int, q: int, r: int, u: float, v: float, color: int, role: str) -> Beam:
        return Beam(beam_id, HexIndex(q, r), UvPoint(u, v), self.radius, color, BeamRole(role))


@dataclass(frozen=True, slots=True)
class BeamLayout:
    """Immutable collection of beams plus the lattice constants they share.
    ``beams`` may be given as any sequence of :class:`Beam`s, as
    ``dataclasses.replace(layout, beams=...)`` does; it is kept as a
    :class:`BeamTable` whose radius is ``beam_radius``, also when a table of
    another radius is given."""

    beams: BeamTable
    beam_radius: float
    spacing: float
    center_offset_u: float

    def __post_init__(self) -> None:
        if not isinstance(self.beams, BeamTable):
            rows = ((b.id, b.index.q, b.index.r, b.center_uv.u, b.center_uv.v, b.color, b.role.value) for b in self.beams)
            object.__setattr__(self, "beams", BeamTable.from_rows(rows, radius=self.beam_radius))
        elif self.beams.radius is not self.beam_radius:
            object.__setattr__(self, "beams", BeamTable(*self.beams._stored(), radius=self.beam_radius))

    def __len__(self) -> int:
        return len(self.beams)

    def __iter__(self) -> Iterator[Beam]:
        return iter(self.beams)


def beam_radius(beamwidth_3db_deg: float) -> float:
    """Beam circumradius on the UV-plane: sine of half the 3 dB beamwidth.
    A radius below ``2**-48`` raises :class:`ValueError`: past it, the
    centres of neighbouring beams stop being distinct floats."""
    if not 0.0 < beamwidth_3db_deg < 180.0:
        raise ValueError(
            f"3 dB beamwidth must lie in (0, 180) degrees, got {_shown(beamwidth_3db_deg)}"
        )
    radius = math.sin(math.radians(beamwidth_3db_deg) / 2.0)
    if radius < 2**-48:
        raise ValueError(f"3 dB beamwidth {beamwidth_3db_deg} degrees is too small: its UV radius {radius:.9g} is below 2**-48")
    return radius


def adjacent_beam_spacing(beamwidth_3db_deg: float) -> float:
    """Centre-to-centre distance of neighbouring beams, ``sqrt(3)`` times the
    circumradius (twice the hexagon apothem)."""
    return SQRT3 * beam_radius(beamwidth_3db_deg)


def center_offset(center_elevation_deg: float, earth_radius_km: float, altitude_km: float) -> float:
    """U-coordinate of the centre-beam boresight for a target ground elevation.

    A terminal seeing the satellite at elevation ``alpha`` sits at direction
    sine ``r_E * cos(alpha) / (r_E + a)`` from nadir; elevation 90 degrees
    puts the centre beam exactly at nadir.
    """
    if not 0.0 < center_elevation_deg <= 90.0:
        raise ValueError(
            f"centre elevation must lie in (0, 90] degrees, got {_shown(center_elevation_deg)}"
        )
    return (
        earth_radius_km
        * math.cos(math.radians(center_elevation_deg))
        / (earth_radius_km + altitude_km)
    )


def hex_grid(rings: int) -> list[HexIndex]:
    """All axial indices within ``rings`` of the origin.

    Ring-major order: ring 0 first, each ring swept counter-clockwise from
    its +q corner, so ids derived from this order are stable.  The count is
    ``1 + 3 * rings * (rings + 1)``.
    """
    q, r = _hex_columns(_check_count("rings", rings))[:2]
    return list(map(HexIndex, q.tolist(), r.tolist()))


# The one range table of the count rule: least value and exclusive bound.
# frf has no range here; frf_color owns its values, 1 and 3.
_COUNT_RANGE = {
    "frf": (-math.inf, math.inf),
    # 1 + 3 * rings * (rings + 1) beams, so every beam id is below 2**32.
    "rings": (0, 37837),
    "ues_per_beam": (1, math.inf),
    "bins": (1, math.inf),
    "samples_per_edge": (1, math.inf),
    "seed": (0, 2**64),
    "beam_id": (0, 2**32),
    # UE ids beam_id * ues_per_beam + k fit in int64.
    "beams * ues_per_beam": (1, 2**63),
}


def _check_count(name: str, value: int) -> int:
    """The one rule for counts, seeds and beam ids: a Python or NumPy
    integer, not a bool, inside ``name``'s range in :data:`_COUNT_RANGE`,
    else :class:`ValueError` naming ``name``.  Returns the value as a Python
    int; a name missing from the table raises :class:`KeyError`."""
    least, bound = _COUNT_RANGE[name]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not least <= value < bound:
        # A power-of-two bound is named as one: 2**64, not its digits.
        shown = bound if bound == math.inf or bound & (bound - 1) else f"2**{bound.bit_length() - 1}"
        below = "" if bound == math.inf else f" and below {shown}"
        raise ValueError(f"{name} must be at least {least}{below}, got {_shown(value)}")
    return value


def _hex_columns(rings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axial ``q`` and ``r`` and the ring of every cell within ``rings``, in
    :func:`hex_grid` order."""
    n = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    # Ring n starts at cell 1 + 3 * n * (n - 1); its cell k is step k % n
    # along side k // n.
    side, step = np.divmod(np.arange(len(n)) - 3 * n * (n - 1), n)
    steps = np.array(_AXIAL_DIRECTIONS)
    cells = n[:, None] * steps[side] + step[:, None] * steps[(side + 2) % 6]
    q, r = np.concatenate(([[0, 0]], cells)).T
    return q, r, np.concatenate(([0], n))


def frf_color(index: HexIndex, frf: int) -> int:
    """Reuse colour of a cell; ``(q - r) mod 3`` three-colours the lattice so
    no two edge-adjacent beams share a colour.  ``index`` may hold integer
    columns ``q`` and ``r``, as :func:`build_layout` passes them."""
    if frf == 1:
        return 0
    if frf == 3:
        return (index.q - index.r) % 3
    raise ValueError(f"unsupported frequency reuse factor {_shown(frf)}; expected 1 or 3")


def hexagon_vertices(center: UvPoint, circumradius: float) -> tuple[UvPoint, ...]:
    """Corners of the pointy-top hexagon around ``center``."""
    return tuple(
        UvPoint(center.u + circumradius * cx, center.v + circumradius * cy)
        for cx, cy in _CORNER_UNIT
    )


def hexagon_contains(center: UvPoint, circumradius: float, point: UvPoint, tol: float = 1e-9) -> bool:
    """Half-plane membership test for the closed hexagon.

    Boundary points count as inside; ``tol`` scales with the circumradius to
    absorb float round-off on the edges.  An int too large for a float, as a
    coordinate or the circumradius, raises :class:`ValueError`.
    """
    try:
        limit = _SQRT3_2 * circumradius + tol * circumradius
        du = point.u - center.u
        dv = point.v - center.v
        return all(abs(du * nx + dv * ny) <= limit for nx, ny in _EDGE_NORMAL)
    except OverflowError:
        raise ValueError("a hexagon coordinate or circumradius is too large for a float") from None


def _lattice(config: ScenarioConfig) -> tuple[float, float, float, float]:
    """The beam radius, spacing, centre offset and horizon limit of
    ``config``: the constants :func:`build_layout` places the beams by and
    ``scenario_summary`` reports."""
    # The satellite first: it names an int too large for a float, not an OverflowError.
    limit = horizon_limit(config.satellite())
    return (
        beam_radius(config.beamwidth_3db_deg),
        adjacent_beam_spacing(config.beamwidth_3db_deg),
        center_offset(config.center_elevation_deg, config.earth_radius_km, config.altitude_km),
        limit,
    )


def build_layout(config: ScenarioConfig) -> BeamLayout:
    """Place the hexagonal beam grid on the UV-plane.

    Beam ids follow :func:`hex_grid` order.  The build aborts with
    :class:`HorizonError`, for the first beam in id order, if any beam
    hexagon would poke past the horizon disk, because points beyond it
    cannot be projected onto the Earth.  The beams are built as columns, of
    no more rings than the horizon admits, so a ring count far past the
    horizon fails as fast as one just past it.
    """
    radius, spacing, u_c, limit = _lattice(config)
    # Every cell of ring n lies at least n * spacing * sqrt(3) / 2 from the
    # centre beam, at u_c >= 0, so from ring (limit + u_c) / (spacing *
    # sqrt(3) / 2) on every beam is past the horizon.  One ring more absorbs
    # round-off; the first bad beam, if any, lies in the rings built.
    rings = min(config.ring_count, math.ceil((limit + u_c) / (_SQRT3_2 * spacing)) + 1)
    q, r, ring = _hex_columns(rings)
    u = u_c + spacing * (q + 0.5 * r)
    v = spacing * (_SQRT3_2 * r)
    # UvPoint.norm() on columns: math.hypot element by element.
    extent = _each(math.hypot)(u, v) + radius
    bad = np.flatnonzero(extent > limit)
    if len(bad):
        i = bad[0].item()
        raise HorizonError(
            f"beam {i} at hex ({q[i]}, {r[i]}) spans UV radius {extent[i].item():.9g}, "
            f"beyond the horizon limit {limit:.9g}"
        )
    # frf_color reads only .q and .r; FRF 1's scalar 0 becomes a column.
    color = np.zeros_like(q) + frf_color(SimpleNamespace(q=q, r=r), config.frf)
    role = np.where(ring <= STATISTICS_RINGS, BeamRole.STATISTICS.value, BeamRole.INTERFERENCE.value)
    beams = BeamTable(np.arange(len(q), dtype=np.int64), q, r, u, v, color, role, radius=radius)
    return BeamLayout(beams, radius, spacing, u_c)
