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
from typing import Iterator

from .projection import HorizonError, SatelliteState, UvPoint, horizon_limit

__all__ = [
    "SQRT3",
    "STATISTICS_RINGS",
    "ScenarioConfig",
    "HexIndex",
    "BeamRole",
    "Beam",
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
# Outward edge normals; three suffice because opposite edges share an axis.
_EDGE_NORMAL = tuple(
    (math.cos(math.radians(60.0 * k)), math.sin(math.radians(60.0 * k))) for k in range(3)
)

# Axial neighbour steps, counter-clockwise from +q.
_AXIAL_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# Walk order that sweeps ring n counter-clockwise starting at (n, 0).
_RING_WALK = ((-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1))


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
        self.satellite()
        beam_radius(self.beamwidth_3db_deg)
        frf_color(HexIndex(0, 0), self.frf)
        center_offset(self.center_elevation_deg, self.earth_radius_km, self.altitude_km)

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


@dataclass(frozen=True, slots=True)
class BeamLayout:
    """Immutable collection of beams plus the lattice constants they share."""

    beams: tuple[Beam, ...]
    beam_radius: float
    spacing: float
    center_offset_u: float

    def __len__(self) -> int:
        return len(self.beams)

    def __iter__(self) -> Iterator[Beam]:
        return iter(self.beams)


def beam_radius(beamwidth_3db_deg: float) -> float:
    """Beam circumradius on the UV-plane: sine of half the 3 dB beamwidth."""
    if not 0.0 < beamwidth_3db_deg < 180.0:
        raise ValueError(
            f"3 dB beamwidth must lie in (0, 180) degrees, got {beamwidth_3db_deg}"
        )
    return math.sin(math.radians(beamwidth_3db_deg) / 2.0)


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
            f"centre elevation must lie in (0, 90] degrees, got {center_elevation_deg}"
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
    return list(_hex_cells(_check_count("rings", rings)))


# The one range table of the count rule: least value and exclusive bound.
# frf has no range here; frf_color owns its values, 1 and 3.
_COUNT_RANGE = {
    "frf": (-math.inf, math.inf),
    "rings": (0, math.inf),
    "ues_per_beam": (1, math.inf),
    "bins": (1, math.inf),
    "samples_per_edge": (1, math.inf),
    "seed": (0, 2**64),
    "beam_id": (0, 2**32),
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
        below = "" if bound == math.inf else f" and below 2**{bound.bit_length() - 1}"
        raise ValueError(f"{name} must be at least {least}{below}, got {value}")
    return value


def _hex_cells(rings: int) -> Iterator[HexIndex]:
    """Lazy :func:`hex_grid`: cells are made only as they are consumed."""
    yield HexIndex(0, 0)
    for n in range(1, rings + 1):
        q, r = n, 0
        for dq, dr in _RING_WALK:
            for _ in range(n):
                yield HexIndex(q, r)
                q += dq
                r += dr


def frf_color(index: HexIndex, frf: int) -> int:
    """Reuse colour of a cell; ``(q - r) mod 3`` three-colours the lattice so
    no two edge-adjacent beams share a colour."""
    if frf == 1:
        return 0
    if frf == 3:
        return (index.q - index.r) % 3
    raise ValueError(f"unsupported frequency reuse factor {frf}; expected 1 or 3")


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


def build_layout(config: ScenarioConfig) -> BeamLayout:
    """Place the hexagonal beam grid on the UV-plane.

    Beam ids follow :func:`hex_grid` order.  The build aborts with
    :class:`HorizonError` if any beam hexagon would poke past the horizon
    disk, because points beyond it cannot be projected onto the Earth.
    Cells are enumerated lazily, so a ring count far past the horizon fails
    at the first beam outside it instead of listing every cell first.
    """
    radius = beam_radius(config.beamwidth_3db_deg)
    spacing = adjacent_beam_spacing(config.beamwidth_3db_deg)
    u_c = center_offset(
        config.center_elevation_deg, config.earth_radius_km, config.altitude_km
    )
    limit = horizon_limit(config.satellite())
    beams = []
    for i, idx in enumerate(_hex_cells(config.ring_count)):
        center = UvPoint(
            u_c + spacing * (idx.q + 0.5 * idx.r),
            spacing * (_SQRT3_2 * idx.r),
        )
        extent = center.norm() + radius
        if extent > limit:
            raise HorizonError(
                f"beam {i} at hex ({idx.q}, {idx.r}) spans UV radius {extent:.9g}, "
                f"beyond the horizon limit {limit:.9g}"
            )
        role = BeamRole.STATISTICS if idx.ring() <= STATISTICS_RINGS else BeamRole.INTERFERENCE
        beams.append(
            Beam(
                id=i,
                index=idx,
                center_uv=center,
                radius=radius,
                color=frf_color(idx, config.frf),
                role=role,
            )
        )
    return BeamLayout(tuple(beams), radius, spacing, u_c)
