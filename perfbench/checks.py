"""Correctness checks on the five files one uvbeams run writes.

The checks re-derive every invariant from the written bytes, so they hold the
program to its output contract rather than to its own intermediate objects:

- all five files exist, and every number in them is finite;
- ``ues.csv`` has ``beams * ues_per_beam`` rows;
- every ground point lies on the Earth sphere within the CSV's 9-digit
  precision;
- every UE lies in its beam's hexagon (tested with ``hexagon_contains``);
- the slant-range extrema in ``stats.json`` match ``ues.csv``, and each
  beam's histogram counts sum to its ``ue_count``.

Byte identity of two runs with the same inputs is checked by the caller from
the SHA-256 digests returned here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from uvbeams import UvPoint, hexagon_contains

OUTPUT_FILES = ("beams.csv", "ues.csv", "footprints.csv", "stats.json", "manifest.json")

# Failure messages kept per file; one corrupt column would otherwise repeat
# the same message for every row.
_MAX_MESSAGES = 3


@dataclass(frozen=True)
class Expect:
    """What a run's outputs must show, derived from its inputs alone."""

    beams: int
    ues_per_beam: int
    beamwidth_deg: float
    earth_radius_km: float = 6371.0


def _half_ulp9(magnitude: float) -> float:
    """Largest rounding error of a 9-significant-digit value below ``magnitude``."""
    return 0.5 * 10.0 ** (math.floor(math.log10(magnitude)) - 8)


class _Failures(list):
    def add(self, where: str, message: str) -> None:
        if sum(1 for f in self if f.startswith(where + ":")) < _MAX_MESSAGES:
            self.append(f"{where}: {message}")


def _csv(
    text: str, name: str, wanted: tuple[str, ...], failures: _Failures, text_columns: tuple[str, ...] = ()
) -> list[list[float]]:
    """The ``wanted`` columns of a CSV file's rows, as floats.

    Every cell outside ``text_columns`` must parse as a finite number; rows
    with a wrong cell count, an unparsable cell or a non-finite value are
    reported and dropped.
    """
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in wanted if c not in header]
    if missing:
        failures.add(name, f"missing columns {missing}")
        return []
    numeric = [i for i, c in enumerate(header) if c not in text_columns]
    picks = [numeric.index(header.index(c)) for c in wanted]
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            failures.add(name, f"row {number} has {len(cells)} cells, header has {len(header)}")
            continue
        try:
            values = [float(cells[i]) for i in numeric]
        except ValueError:
            failures.add(name, f"row {number} has a non-numeric value")
            continue
        if not all(map(math.isfinite, values)):
            failures.add(name, f"row {number} has a non-finite value")
            continue
        rows.append([values[i] for i in picks])
    return rows


def _json(text: str, name: str, failures: _Failures):
    """Parse a JSON file, reporting NaN, Infinity and -Infinity, the only
    spellings of a non-finite number that ``json.dump`` writes."""

    def constant(token: str) -> float:
        failures.add(name, f"non-finite number {token}")
        return math.nan

    try:
        return json.loads(text, parse_constant=constant)
    except ValueError as exc:
        failures.add(name, f"not valid JSON ({exc})")
        return None


def _close(a: float, b: float) -> bool:
    """Equal within the 9-digit rounding of one side."""
    return abs(a - b) <= 2.0 * _half_ulp9(max(abs(a), abs(b), 1e-300))


def check_outputs(out_dir: Path, expect: Expect) -> tuple[list[str], dict]:
    """Check one run's output directory.

    Returns the failure messages (empty when every check passes) and facts
    about the files: SHA-256 and byte count per file, UE rows and footprint
    rows.
    """
    failures = _Failures()
    facts: dict = {"sha256": {}, "bytes": {}, "beam_rows": 0, "ue_rows": 0, "footprint_rows": 0}
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        failures.add("outputs", f"missing {', '.join(missing)}")
        return failures, facts
    text = {}
    for name in OUTPUT_FILES:
        data = (out_dir / name).read_bytes()
        facts["sha256"][name] = hashlib.sha256(data).hexdigest()
        facts["bytes"][name] = len(data)
        text[name] = data.decode("utf-8")

    r_e = expect.earth_radius_km
    sphere_tol = 2.0 * math.sqrt(3.0) * _half_ulp9(r_e)
    radius = math.sin(math.radians(expect.beamwidth_deg) / 2.0)
    # A centre and a UE coordinate are each rounded to 9 digits (|uv| < 1),
    # so an in-hexagon UE can land up to ~2e-9 UV outside after rounding.
    hex_tol = 3e-9 / radius

    beams = _csv(text["beams.csv"], "beams.csv", ("id", "u", "v"), failures, text_columns=("role",))
    centers = {int(b_id): UvPoint(u, v) for b_id, u, v in beams}
    facts["beam_rows"] = len(beams)
    if len(beams) != expect.beams:
        failures.add("beams.csv", f"{len(beams)} valid rows, expected {expect.beams}")

    ues = _csv(
        text["ues.csv"],
        "ues.csv",
        ("beam_id", "u", "v", "x_km", "y_km", "z_km", "slant_km"),
        failures,
    )
    facts["ue_rows"] = len(ues)
    expected_ues = expect.beams * expect.ues_per_beam
    if len(ues) != expected_ues:
        failures.add("ues.csv", f"{len(ues)} valid rows, expected {expected_ues}")
    slants: dict[int, list[float]] = {}
    for number, (b_id, u, v, x, y, z, slant) in enumerate(ues, start=1):
        if abs(math.hypot(x, y, z) - r_e) > sphere_tol:
            failures.add("ues.csv", f"row {number} ground point is off the sphere")
        center = centers.get(int(b_id))
        if center is None:
            failures.add("ues.csv", f"row {number} names unknown beam {int(b_id)}")
        elif not hexagon_contains(center, radius, UvPoint(u, v), tol=hex_tol):
            failures.add("ues.csv", f"row {number} lies outside beam {int(b_id)}'s hexagon")
        slants.setdefault(int(b_id), []).append(slant)

    footprints = _csv(
        text["footprints.csv"], "footprints.csv", ("x_km", "y_km", "z_km"), failures
    )
    facts["footprint_rows"] = len(footprints)
    for number, (x, y, z) in enumerate(footprints, start=1):
        if abs(math.hypot(x, y, z) - r_e) > sphere_tol:
            failures.add("footprints.csv", f"row {number} is off the sphere")

    _json(text["manifest.json"], "manifest.json", failures)
    stats = _json(text["stats.json"], "stats.json", failures)
    if stats is not None and slants:
        _check_stats(stats, slants, len(ues), failures)
    return failures, facts


def _check_stats(stats: dict, slants: dict[int, list[float]], ue_rows: int, failures: _Failures) -> None:
    where = "stats.json"
    try:
        glob = stats["global"]
        beams = stats["beams"]
        if glob["ue_count"] != ue_rows:
            failures.add(where, f"global ue_count {glob['ue_count']} != {ue_rows} UE rows")
        all_slants = [s for group in slants.values() for s in group]
        if not _close(glob["min_slant_km"], min(all_slants)):
            failures.add(where, "global min_slant_km does not match ues.csv")
        if not _close(glob["max_slant_km"], max(all_slants)):
            failures.add(where, "global max_slant_km does not match ues.csv")
        if {b["beam_id"] for b in beams} != set(slants):
            failures.add(where, "beam ids do not match the beams with UEs in ues.csv")
        for b in beams:
            group = slants.get(b["beam_id"], [])
            if b["ue_count"] != len(group):
                failures.add(where, f"beam {b['beam_id']} ue_count {b['ue_count']} != {len(group)}")
            if sum(count for _, _, count in b["histogram"]) != b["ue_count"]:
                failures.add(where, f"beam {b['beam_id']} histogram does not sum to ue_count")
            if group and not (
                _close(b["min_slant_km"], min(group)) and _close(b["max_slant_km"], max(group))
            ):
                failures.add(where, f"beam {b['beam_id']} slant extrema do not match ues.csv")
    except (KeyError, TypeError, ValueError) as exc:
        failures.add(where, f"unexpected layout ({exc!r})")
