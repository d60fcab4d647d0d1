"""Command-line pipeline: scenario presets, layout -> drop -> project ->
analyse orchestration, and CSV/JSON emission.

Exit codes: 0 success, 1 configuration error, 2 horizon/geometry error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import __version__
from .analysis import BeamStats, beam_stats, project_footprints, scenario_summary
from .deployment import RNG_ALGORITHM, RNG_STREAM_RULE, drop_ues
from .layout import ScenarioConfig, build_layout
from .projection import HorizonError

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


def run(config: ScenarioConfig, out_dir: Path, bins: int = 50, edge_samples: int = 8) -> RunManifest:
    """Run the full pipeline and write the output files into ``out_dir``."""
    layout = build_layout(config)
    sat = config.satellite()
    ues = drop_ues(layout, sat, config.ues_per_beam, config.seed)
    stats = beam_stats(ues, layout, bins)
    footprints = project_footprints(layout, sat, edge_samples)
    summary = scenario_summary(config)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # CSV floats carry 9 significant digits; "+ 0.0" turns -0.0 into 0.0.
    with open(out_dir / "beams.csv", "w", encoding="utf-8", newline="") as f:
        f.write(BEAMS_CSV_HEADER + "\n")
        f.writelines(
            "%d,%d,%d,%.9g,%.9g,%d,%s\n"
            % (
                beam.id,
                beam.index.q,
                beam.index.r,
                beam.center_uv.u + 0.0,
                beam.center_uv.v + 0.0,
                beam.color,
                beam.role.value,
            )
            for beam in layout.beams
        )

    with open(out_dir / "ues.csv", "w", encoding="utf-8", newline="") as f:
        f.write(UES_CSV_HEADER + "\n")
        f.writelines(
            "%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n"
            % (
                ue.ue_id,
                ue.beam_id,
                ue.uv.u + 0.0,
                ue.uv.v + 0.0,
                ue.ground.x_km + 0.0,
                ue.ground.y_km + 0.0,
                ue.ground.z_km + 0.0,
                ue.slant_range_km + 0.0,
                ue.elevation_deg + 0.0,
                ue.zod_deg + 0.0,
                ue.aod_deg + 0.0,
            )
            for ue in ues
        )

    with open(out_dir / "footprints.csv", "w", encoding="utf-8", newline="") as f:
        f.write(FOOTPRINTS_CSV_HEADER + "\n")
        f.writelines(
            "%d,%d,%.9g,%.9g,%.9g\n" % (fp.beam_id, idx, p.x_km + 0.0, p.y_km + 0.0, p.z_km + 0.0)
            for fp in footprints
            for idx, p in enumerate(fp.boundary)
        )

    with open(out_dir / "stats.json", "w", encoding="utf-8") as f:
        f.writelines(_stats_json(stats, bins, len(ues)))

    manifest = RunManifest(
        version=__version__,
        config=_config_dict(config),
        derived={
            "beam_radius": summary.beam_radius,
            "adjacent_beam_spacing": summary.spacing,
            "center_offset_u": summary.center_offset_u,
            "horizon_limit": summary.horizon_limit,
            "beam_count": summary.beam_count,
            "statistics_beam_count": summary.statistics_beam_count,
        },
        rng={
            "generator": RNG_ALGORITHM,
            "stream_rule": RNG_STREAM_RULE,
            "seed": config.seed,
        },
        outputs=OUTPUT_FILES,
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(manifest), f, indent=2)
        f.write("\n")
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
    if args.bins < 1:
        print("uvbeams: error: --bins must be at least 1", file=sys.stderr)
        return 1
    if args.edge_samples < 1:
        print("uvbeams: error: --edge-samples must be at least 1", file=sys.stderr)
        return 1
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
