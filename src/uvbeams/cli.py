"""Command-line pipeline: scenario presets, layout -> drop -> project ->
analyse orchestration, and CSV/JSON emission.

Exit codes: 0 success, 1 configuration error, 2 horizon/geometry error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import inspect
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .analysis import _beam_chunks, _stat_columns, project_footprints, scenario_summary
from .deployment import RNG_ALGORITHM, RNG_STREAM_RULE, drop_ues
from .layout import BeamLayout, ScenarioConfig, _check_count, build_layout
from .projection import _CHUNK, HorizonError, SatelliteState

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
# CSV lines per string handed to the file: fewer, longer writes.
_ROWS_PER_WRITE = 64


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


def _stats_json(columns: Iterator, ue_count: int) -> Iterator[str]:
    """Yield ``stats.json`` one beam at a time from ``columns``, the bin
    edges and then the column chunks of ``analysis._stat_columns``.

    The text is byte-identical to ``json.dump(doc, f, indent=2)`` followed by
    a newline, where ``doc`` holds the count of bins written (one when every
    slant range is equal, whatever was asked for), the global UE count and
    slant extrema, and one object per beam with its histogram as
    ``[lo, hi, count]`` lists.  The global extrema are the ends of the grid,
    which linspace keeps exactly.  ``json`` renders the text from
    placeholder documents once per run: ``doc`` with two ``None`` beams,
    split on ``null`` into the head, the separator between beams and the
    tail; and one beam whose scalars are ``"%d"``, ``"%s"`` and ``"%r"`` and
    whose histogram is ``[lo, hi, "%d"]`` per cell of the grid every beam
    shares, indented to its place in the list and with the quotes around
    ``%d`` and ``%r`` stripped.  That beam template is split before its
    histogram: the scalars stay a template, and the histogram with every
    ``%d`` written ``0`` is the text of an empty beam.  Each beam is then one
    ``%`` for its scalars and one splice of its count into the empty text per
    occupied cell, so a beam costs its occupied cells, not ``bins``.  ``%r``
    is ``float.__repr__``, the form json uses for finite floats, and every
    statistic is finite, since SatelliteState bounds the orbit radius so that
    no square in the slant range overflows.  Role values are plain
    identifiers that need no escaping.
    """
    edges = next(columns).tolist()
    whole_run = {"ue_count": ue_count, "min_slant_km": edges[0], "max_slant_km": edges[-1]}
    head, separator, tail = json.dumps({"bins": len(edges) - 1, "global": whole_run, "beams": [None, None]}, indent=2).split("null")
    floats = ("min_slant_km", "max_slant_km", "mean_slant_km", "min_elevation_deg", "max_elevation_deg")
    cells = [[lo, hi, "%d"] for lo, hi in zip(edges, edges[1:])]
    template = json.dumps({"beam_id": "%d", "role": "%s", "ue_count": "%d", **dict.fromkeys(floats, "%r"), "histogram": cells}, indent=2)
    del edges, cells
    template = template.replace("\n", separator[1:]).replace('"%d"', "%d").replace('"%r"', "%r")
    cut = template.index('"histogram"')
    scalars, histogram = template[:cut], template[cut:]
    pieces = histogram.split("%d")
    empty = "0".join(pieces)
    # Where each cell's count starts in the empty text: its piece and those
    # before it, and the one-character "0" of each earlier cell.
    starts = np.cumsum([len(piece) + 1 for piece in pieces[:-1]]) - 1
    del template, histogram, pieces
    for *fields, counts in columns:
        bins = counts.shape[1]
        flat = np.flatnonzero(counts)
        # Each occupied cell's start and count, made Python numbers lazily,
        # and each beam's number of occupied cells, since flat is in row
        # order.
        cells = zip(memoryview(starts[flat % bins]), memoryview(counts.reshape(-1)[flat]))
        per_beam = np.diff(np.searchsorted(flat, np.arange(0, counts.size + 1, bins))).tolist()
        del flat
        for values, occupied in zip(zip(*(c.tolist() for c in fields)), per_beam):
            text = [head, scalars % values]
            end = 0
            for start, count in itertools.islice(cells, occupied):
                text += empty[end:start], str(count)
                end = start + 1
            text.append(empty[end:])
            yield "".join(text)
            head = separator
        del cells, fields, counts  # released before the next chunk is made
    yield tail + "\n"


def _csv(header: str, template: str, tables: Iterable[list[np.ndarray]]) -> Iterator[str]:
    """``header``, then one ``template % row`` line per row of each table in
    ``tables``, a list of columns, joined :data:`_ROWS_PER_WRITE` lines to a
    string.  A table is released before the next is made.

    The columns are formatted as given, so a -0.0 would be written ``-0``.
    No float column that :func:`run` writes holds one.  Beam centres are
    ``u_c > 0`` plus lattice offsets, and UE and boundary points are the
    centre plus fan offsets.  Under round-to-nearest a sum is -0 only when
    both terms are -0, and ``x - y`` only when ``x`` is -0, so no ``u`` or
    ``v`` is -0.  The ground point is ``slant * u``, ``slant * v`` and
    ``r_s - slant * cos_omega``, with ``slant`` and ``r_s`` positive.  Of
    the angles, ``pi - asin`` and ``acos`` are never -0, and ``atan2``
    returns -0 only for a -0 ``v``.  A product cannot underflow to zero:
    the slant range is at least the altitude, which
    :class:`~uvbeams.projection.SatelliteState` keeps at or above the square
    root of the least normal float, about 1.5e-154, so ``slant * u`` could
    underflow only for ``|u|`` below about 1e-170; a nonzero ``u`` or ``v``
    is a sum of terms made from a UV radius of at least ``2**-48``, far
    larger."""
    yield header + "\n"
    for columns in tables:
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            rows = zip(*(c[start : start + _ROWS_PER_WRITE].tolist() for c in columns))
            yield "".join(map(template.__mod__, rows))
        del columns


def _ue_tables(
    layout: BeamLayout, sat: SatelliteState, ues_per_beam: int, seed: int, slants: np.ndarray, extrema: np.ndarray
) -> Iterator[list[np.ndarray]]:
    """The ``ues.csv`` columns of each beam chunk's drop.  As it goes, each
    chunk's slant ranges are copied into ``slants``, and each of its beams'
    least and greatest elevation into the beam's column of ``extrema``, shape
    ``(2, beams)``; every beam's draws depend only on the seed and its id, so
    the rows are those of one whole-layout drop."""
    for start, chunk in _beam_chunks(layout, ues_per_beam):
        ues = drop_ues(chunk, sat, ues_per_beam, seed)
        slants[start * ues_per_beam : start * ues_per_beam + len(ues)] = ues.slant_range_km
        beams = np.arange(0, len(ues), ues_per_beam)
        extrema[:, start : start + len(chunk)] = [f.reduceat(ues.elevation_deg, beams) for f in (np.minimum, np.maximum)]
        yield ues.columns()
        del ues  # released, as _csv releases its list, before the next drop


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` as UTF-8 with no newline
    translation.  The text goes to ``<name>.tmp`` first, which then replaces
    ``path``; a failed write removes the temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run(config: ScenarioConfig, out_dir: Path, bins: int = 50, edge_samples: int = 8) -> RunManifest:
    """Run the full pipeline and write the output files into ``out_dir``.

    Every check and every whole-run allocation comes before ``out_dir`` is
    made: a drop whose UE ids would pass ``2**63``, or a ``ues_per_beam``,
    ``bins`` or ``edge_samples`` whose arrays cannot be allocated, raises
    :class:`ValueError` with nothing written.
    Each file is replaced atomically.  A stale manifest is removed before the
    data files are written and the new one is written last, so a run that
    fails partway leaves no manifest beside data files it does not describe.
    A run holds an exclusive ``flock`` on ``out_dir`` from before that
    removal to its end; a run into a directory another run holds raises
    :class:`OSError` with nothing written or removed.  The lock is POSIX
    ``flock(2)``, so the package runs on POSIX systems only.
    """
    layout = build_layout(config)
    bins = _check_count("bins", bins)
    edge_samples = _check_count("samples_per_edge", edge_samples)
    sat = config.satellite()
    n = config.ues_per_beam
    _check_count("beams * ues_per_beam", len(layout) * n)
    # Each parameter's working set is tried here, in words: tracemalloc's
    # growth of run() with the parameter, rounded up to whole words, plus
    # one word of margin.  For ues_per_beam, the slant ranges, which with
    # each beam's elevation extrema are all the statistics need, and one
    # drop chunk, one beam or up to _CHUNK UEs, at about 88 B per UE; for
    # bins, json rendering the grid into the stats.json beam template,
    # about 519 B per bin in placeholder cells, json's text chunks and the
    # text; for edge_samples, one footprint chunk, one beam or up to _CHUNK
    # boundary points, at about 61 B per point.
    beams, points = len(layout), 6 * edge_samples + 1
    sizes = (("ues_per_beam", n, beams * n + 12 * min(beams * n, max(n, _CHUNK)), "slant ranges and one drop chunk"),
             ("bins", bins, 66 * (bins + 1), "histogram text"),
             ("edge_samples", edge_samples, 9 * min(beams * points, max(points, _CHUNK)), "one footprint chunk"))
    for name, value, size, what in sizes:
        try:
            np.empty(size)
        except (MemoryError, ValueError):  # NumPy raises ValueError past its size limit
            raise ValueError(f"{name}={value} needs {8 * size} bytes of {what}, which cannot be allocated") from None
    slants, extrema = np.empty(len(layout) * n), np.empty((2, len(layout)))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Closing the descriptor releases the lock; so does the process's end.
    lock = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"{out_dir} is in use by another run") from None
        (out_dir / "manifest.json").unlink(missing_ok=True)

        _write(out_dir / "beams.csv", _csv(BEAMS_CSV_HEADER, _BEAMS_ROW, [layout.beams.columns()]))
        _write(out_dir / "ues.csv", _csv(UES_CSV_HEADER, _UES_ROW, _ue_tables(layout, sat, n, config.seed, slants, extrema)))
        footprints = (project_footprints(chunk, sat, edge_samples).columns() for _, chunk in _beam_chunks(layout, points))
        _write(out_dir / "footprints.csv", _csv(FOOTPRINTS_CSV_HEADER, _FOOTPRINTS_ROW, footprints))
        # drop_ues emits each beam's n UEs together, in layout order.
        columns = _stat_columns(layout.beams.id, layout.beams.role, np.arange(0, len(slants), n), slants, extrema, bins)
        _write(out_dir / "stats.json", _stats_json(columns, len(slants)))

        summary = dataclasses.asdict(scenario_summary(config))
        manifest = RunManifest(
            version=__version__,
            config={**dataclasses.asdict(config), "rings": config.ring_count},
            derived={"adjacent_beam_spacing" if key == "spacing" else key: value for key, value in summary.items()},
            rng={
                "generator": RNG_ALGORITHM,
                "stream_rule": RNG_STREAM_RULE,
                "seed": config.seed,
            },
            outputs=OUTPUT_FILES,
        )
        _write(out_dir / "manifest.json", [json.dumps(dataclasses.asdict(manifest), indent=2), "\n"])
    finally:
        os.close(lock)
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
    # ScenarioConfig's fields and run()'s signature are the one home of the
    # defaults, and the help reads them off both.  An unset --bins or
    # --edge-samples leaves no attribute, and main passes only the flags given.
    default = {name: p.default for name, p in inspect.signature(run).parameters.items()}
    default.update((field.name, field.default) for field in dataclasses.fields(ScenarioConfig))
    parser.add_argument("--beamwidth-deg", dest="beamwidth_3db_deg", metavar="BEAMWIDTH_DEG", type=float, help="3 dB beamwidth in degrees")
    parser.add_argument("--altitude-km", type=float, help="satellite altitude in km")
    parser.add_argument("--earth-radius-km", type=float, help=f"Earth radius in km (default {default['earth_radius_km']})")
    parser.add_argument("--elevation-deg", dest="center_elevation_deg", metavar="ELEVATION_DEG", type=float, help=f"centre-beam elevation in degrees (default {default['center_elevation_deg']})")
    parser.add_argument("--frf", type=int, choices=(1, 3), help=f"frequency reuse factor (default {default['frf']})")
    parser.add_argument("--rings", type=int, help="hex rings around the centre beam (default 4 for FRF=1, 6 for FRF=3)")
    parser.add_argument("--ues-per-beam", type=int, help=f"UEs dropped per beam (default {default['ues_per_beam']})")
    parser.add_argument("--seed", type=int, help=f"RNG seed, unsigned 64-bit (default {default['seed']})")
    parser.add_argument("--bins", type=int, default=argparse.SUPPRESS, help=f"slant-range histogram bins (default {default['bins']})")
    parser.add_argument("--edge-samples", type=int, default=argparse.SUPPRESS, help=f"boundary samples per hexagon edge (default {default['edge_samples']})")
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
        counts = {name: value for name, value in vars(args).items() if name in ("bins", "edge_samples")}
        manifest = run(config, Path(args.out), **counts)
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
