"""Command-line pipeline: scenario presets, layout -> drop -> project ->
analyse orchestration, and CSV/JSON emission.

Exit codes: 0 success, 1 configuration error, 2 horizon/geometry error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .analysis import BeamStats, _beam_stats, _check_bins, _check_samples_per_edge, project_footprints
from .deployment import RNG_ALGORITHM, RNG_STREAM_RULE, drop_ues
from .layout import BeamLayout, BeamRole, ScenarioConfig, build_layout
from .projection import _CHUNK, HorizonError, SatelliteState, horizon_limit

__all__ = [
    "GEO_ALTITUDE_KM",
    "LEO_ALTITUDE_KM",
    "PRESET_BEAMWIDTH_DEG",
    "RunManifest",
    "preset",
    "run",
    "main",
]

GEO_ALTITUDE_KM = 35786.0
LEO_ALTITUDE_KM = 1200.0

# 3GPP TR 38.821 Set-1/Set-2 3 dB beamwidths per orbit and band, degrees.
PRESET_BEAMWIDTH_DEG = {
    ("set1", "geo_s"): 0.4011,
    ("set1", "geo_ka"): 0.1765,
    ("set1", "leo_s"): 4.4127,
    ("set1", "leo_ka"): 1.7647,
    ("set2", "geo_s"): 0.7353,
    ("set2", "geo_ka"): 0.4412,
    ("set2", "leo_s"): 8.832,
    ("set2", "leo_ka"): 4.4127,
}

OUTPUT_FILES = ("beams.csv", "ues.csv", "footprints.csv", "stats.json", "manifest.json")

BEAMS_CSV_HEADER = "id,q,r,u,v,color,role"
UES_CSV_HEADER = "ue_id,beam_id,u,v,x_km,y_km,z_km,slant_km,elev_deg,zod_deg,aod_deg"
FOOTPRINTS_CSV_HEADER = "beam_id,vertex_idx,x_km,y_km,z_km"
_BEAMS_ROW = "%d,%d,%d,%.9g,%.9g,%d,%s\n"
_UES_ROW = "%d,%d" + ",%.9g" * 9 + "\n"
_FOOTPRINTS_ROW = "%d,%d,%.9g,%.9g,%.9g\n"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run byte-for-byte."""

    version: str
    config: dict
    derived: dict
    rng: dict
    outputs: tuple[str, ...]


def preset(set_name: str, scenario: str) -> ScenarioConfig:
    """Scenario config for a named TR 38.821 parameter set.

    ``set_name`` is ``set1`` or ``set2``; ``scenario`` is one of ``geo_s``,
    ``geo_ka``, ``leo_s``, ``leo_ka``.  A preset sets only the beamwidth and
    the altitude; every other field, including the ring count that follows
    the reuse factor, is the :class:`ScenarioConfig` default.  So
    ``dataclasses.replace(preset(...), frf=3)`` has 6 rings.
    """
    key = (set_name, scenario)
    if key not in PRESET_BEAMWIDTH_DEG:
        known = ", ".join(f"{s}:{sc}" for s, sc in sorted(PRESET_BEAMWIDTH_DEG))
        raise ValueError(f"unknown preset {set_name}:{scenario}; known presets: {known}")
    return ScenarioConfig(
        beamwidth_3db_deg=PRESET_BEAMWIDTH_DEG[key],
        altitude_km=GEO_ALTITUDE_KM if scenario.startswith("geo") else LEO_ALTITUDE_KM,
    )


def _config_dict(config: ScenarioConfig) -> dict:
    out = dataclasses.asdict(config)
    out["rings"] = config.ring_count
    return out


# The text json.dump(doc, f, indent=2) writes for the stats document, as
# %-templates.  Floats go through %r, which is float.__repr__, the form json
# uses for finite floats; the pipeline's slant ranges and elevations are
# always finite.  Role values are plain identifiers that need no escaping.
_STATS_HEAD = """{
  "bins": %d,
  "global": {
    "ue_count": %d,
    "min_slant_km": %r,
    "max_slant_km": %r
  },
  "beams": [
"""
_STATS_BEAM = """    {
      "beam_id": %d,
      "role": "%s",
      "ue_count": %d,
      "min_slant_km": %r,
      "max_slant_km": %r,
      "mean_slant_km": %r,
      "min_elevation_deg": %r,
      "max_elevation_deg": %r,
      "histogram": [
%s
      ]
    }"""
_STATS_BIN = """        [
          %r,
          %r,
          %%d
        ]"""
_STATS_TAIL = "\n  ]\n}\n"


def _stats_json(stats: list[BeamStats], bins: int, ue_count: int) -> Iterator[str]:
    """Yield ``stats.json`` one beam at a time.

    The text is byte-identical to ``json.dump(doc, f, indent=2)`` followed by
    a newline, where ``doc`` holds the bin count, the global UE count and
    slant extrema, and one object per beam with its histogram as
    ``[lo, hi, count]`` lists.  Each distinct sequence of bin bounds is
    rendered once; a beam's histogram is then one format call.
    """
    yield _STATS_HEAD % (
        bins,
        ue_count,
        min(s.min_slant_km for s in stats),
        max(s.max_slant_km for s in stats),
    )
    # Histogram text per distinct bin-bound sequence, with a %d per count.
    templates: dict[tuple, str] = {}
    separator = ""
    for s in stats:
        los, his, counts = zip(*s.histogram)
        template = templates.get((los, his))
        if template is None:
            template = templates[(los, his)] = ",\n".join(
                _STATS_BIN % bounds for bounds in zip(los, his)
            )
        yield separator + _STATS_BEAM % (
            s.beam_id,
            s.role.value,
            s.ue_count,
            s.min_slant_km,
            s.max_slant_km,
            s.mean_slant_km,
            s.min_elevation_deg,
            s.max_elevation_deg,
            template % counts,
        )
        separator = ",\n"
    yield _STATS_TAIL


def _csv(header: str, template: str, *columns: np.ndarray) -> Iterator[str]:
    """``header`` and one ``template % row`` line per row of ``columns``."""
    yield header + "\n"
    yield from _rows(template, *columns)


def _rows(template: str, *columns: np.ndarray) -> Iterator[str]:
    """One ``template % row`` line per row of ``columns``, read :data:`_CHUNK`
    rows at a time; ``+ 0.0`` turns a float -0.0 into 0.0."""
    for start in range(0, len(columns[0]), _CHUNK):
        chunk = (c[start : start + _CHUNK] for c in columns)
        values = ((c + 0.0 if c.dtype.kind == "f" else c).tolist() for c in chunk)
        yield from map(template.__mod__, zip(*values))


def _beam_chunks(layout: BeamLayout, per_beam: int) -> Iterator[tuple[int, BeamLayout]]:
    """The first beam index and the sub-layout of each run of ``max(1,
    _CHUNK // per_beam)`` consecutive beams, for work of ``per_beam`` rows
    per beam."""
    step = max(1, _CHUNK // per_beam)
    for start in range(0, len(layout), step):
        yield start, dataclasses.replace(layout, beams=layout.beams[start : start + step])


def _ues_csv(
    layout: BeamLayout, sat: SatelliteState, ues_per_beam: int, seed: int, slants: np.ndarray, elevations: np.ndarray
) -> Iterator[str]:
    """``ues.csv``, dropped and formatted one beam chunk at a time.  Each
    chunk's slant ranges and elevations are copied into ``slants`` and
    ``elevations`` as it goes; every beam's draws depend only on the seed
    and its id, so the rows are those of one whole-layout drop."""
    yield UES_CSV_HEADER + "\n"
    for start, chunk in _beam_chunks(layout, ues_per_beam):
        ues = drop_ues(chunk, sat, ues_per_beam, seed)
        rows = slice(start * ues_per_beam, start * ues_per_beam + len(ues))
        slants[rows] = ues.slant_range_km
        elevations[rows] = ues.elevation_deg
        yield from _rows(_UES_ROW, *ues.columns())


def _footprints_csv(layout: BeamLayout, sat: SatelliteState, samples_per_edge: int) -> Iterator[str]:
    """``footprints.csv``, projected and formatted one chunk of at most
    :data:`_CHUNK` boundary points (but at least one beam) at a time."""
    yield FOOTPRINTS_CSV_HEADER + "\n"
    for _, chunk in _beam_chunks(layout, 6 * samples_per_edge + 1):
        yield from _rows(_FOOTPRINTS_ROW, *project_footprints(chunk, sat, samples_per_edge).columns())


def _write(path: Path, *parts: Iterable[str]) -> None:
    """Write ``parts``, each an iterable of text chunks, to ``path`` as UTF-8
    with no newline translation.  The text goes to ``<name>.tmp`` first, which
    then replaces ``path``; a failed write removes the temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            for part in parts:
                f.writelines(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run(config: ScenarioConfig, out_dir: Path, bins: int = 50, edge_samples: int = 8) -> RunManifest:
    """Run the full pipeline and write the output files into ``out_dir``.

    Each file is replaced atomically.  A stale manifest is removed before the
    data files are written and the new one is written last, so a run that
    fails partway leaves no manifest beside data files it does not describe.
    """
    layout = build_layout(config)
    _check_bins(bins)
    _check_samples_per_edge(edge_samples)
    sat = config.satellite()

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)

    # CSV floats carry 9 significant digits.
    beams = ((b.id, b.index.q, b.index.r, b.center_uv.u, b.center_uv.v, b.color, b.role.value) for b in layout)
    _write(out_dir / "beams.csv", _csv(BEAMS_CSV_HEADER, _BEAMS_ROW, *map(np.array, zip(*beams))))
    # The statistics need only each UE's slant range and elevation.
    n = config.ues_per_beam
    slants, elevations = np.empty((2, len(layout) * n))
    _write(out_dir / "ues.csv", _ues_csv(layout, sat, n, config.seed, slants, elevations))
    _write(out_dir / "footprints.csv", _footprints_csv(layout, sat, edge_samples))
    # UE ids are beam_id * n + k, as drop_ues numbers them.
    beam_ids = np.array([beam.id for beam in layout.beams], np.int64)
    ue_ids = np.add.outer(beam_ids * n, np.arange(n)).ravel()
    stats = _beam_stats(ue_ids, beam_ids.repeat(n), slants, elevations, layout, bins)
    del ue_ids, slants, elevations  # not needed to format stats.json
    _write(out_dir / "stats.json", _stats_json(stats, bins, len(layout) * n))

    manifest = RunManifest(
        version=__version__,
        config=_config_dict(config),
        derived={
            "beam_radius": layout.beam_radius,
            "adjacent_beam_spacing": layout.spacing,
            "center_offset_u": layout.center_offset_u,
            "horizon_limit": horizon_limit(sat),
            "beam_count": len(layout),
            "statistics_beam_count": sum(beam.role is BeamRole.STATISTICS for beam in layout),
        },
        rng={
            "generator": RNG_ALGORITHM,
            "stream_rule": RNG_STREAM_RULE,
            "seed": config.seed,
        },
        outputs=OUTPUT_FILES,
    )
    _write(out_dir / "manifest.json", [json.dumps(dataclasses.asdict(manifest), indent=2), "\n"])
    return manifest


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config error code."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="uvbeams",
        description="Generate a UV-plane beam layout, drop UEs, and project them onto the Earth.",
    )
    parser.add_argument(
        "--preset",
        metavar="SET:SCENARIO",
        help="named scenario, e.g. set1:leo_s (sets beamwidth and altitude; flags override)",
    )
    parser.add_argument("--beamwidth-deg", dest="beamwidth_3db_deg", metavar="BEAMWIDTH_DEG", type=float, help="3 dB beamwidth in degrees")
    parser.add_argument("--altitude-km", type=float, help="satellite altitude in km")
    parser.add_argument("--earth-radius-km", type=float, help="Earth radius in km (default 6371)")
    parser.add_argument("--elevation-deg", dest="center_elevation_deg", metavar="ELEVATION_DEG", type=float, help="centre-beam elevation in degrees (default 70)")
    parser.add_argument("--frf", type=int, choices=(1, 3), help="frequency reuse factor (default 1)")
    parser.add_argument("--rings", type=int, help="hex rings around the centre beam (default 4 for FRF=1, 6 for FRF=3)")
    parser.add_argument("--ues-per-beam", type=int, help="UEs dropped per beam (default 10)")
    parser.add_argument("--seed", type=int, help="RNG seed, unsigned 64-bit (default 0)")
    parser.add_argument("--bins", type=int, default=50, help="slant-range histogram bins (default 50)")
    parser.add_argument("--edge-samples", type=int, default=8, help="boundary samples per hexagon edge (default 8)")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """The preset, or the bare :class:`ScenarioConfig`, with the given flags
    applied over it; each scenario flag's ``dest`` is its field name."""
    given = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(ScenarioConfig)
        if getattr(args, field.name) is not None
    }
    if args.preset is not None:
        set_name, sep, scenario = args.preset.partition(":")
        if not sep:
            raise ValueError(f"preset must look like set1:leo_s, got {args.preset!r}")
        return dataclasses.replace(preset(set_name, scenario), **given)
    if "beamwidth_3db_deg" not in given or "altitude_km" not in given:
        raise ValueError("--beamwidth-deg and --altitude-km are required without --preset")
    return ScenarioConfig(**given)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        manifest = run(config, Path(args.out), bins=args.bins, edge_samples=args.edge_samples)
    except (ValueError, OSError) as exc:
        print(f"uvbeams: error: {exc}", file=sys.stderr)
        if isinstance(exc, HorizonError):
            return 2
        return 1 if isinstance(exc, ValueError) else 3
    print(
        f"{manifest.derived['beam_count']} beams, "
        f"{manifest.config['ues_per_beam'] * manifest.derived['beam_count']} UEs -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
