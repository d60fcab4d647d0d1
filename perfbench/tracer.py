"""Call tracing of uvbeams, installed from outside the package.

A :class:`Tracer` replaces every binding of the public functions of the
``layout``, ``deployment``, ``projection``, ``analysis`` and ``cli`` modules
with a timing wrapper, in every loaded ``uvbeams`` module namespace, and puts
the originals back on exit.  Rebinding each namespace matters: ``cli`` calls
``drop_ues`` through its own global and ``uv_to_earth`` calls ``los_geometry``
through the ``projection`` global.

Each wrapped function gets a call count, inclusive time and self time (its
time minus the time of the wrapped calls made inside it).  Calls of the
pipeline stages in :data:`STAGES` are also kept as spans with their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
import types

LAYERS = ("layout", "deployment", "projection", "analysis", "cli")

# Calls kept as individual spans; the hot inner functions called per UE or
# per point are only counted and timed in aggregate.
STAGES = frozenset(
    {
        "cli.main",
        "cli.run",
        "layout.build_layout",
        "deployment.drop_ues",
        "analysis.beam_stats",
        "analysis.project_footprints",
        "analysis.scenario_summary",
    }
)

# Names the benchmark's per-layer metrics are computed from.
REQUIRED = STAGES | {
    "deployment.beam_rng",
    "deployment.sample_point_in_hexagon",
    "projection.los_geometry",
    "projection.uv_to_earth",
    "projection.earth_to_uv",
}


class Tracer:
    """Context manager that traces uvbeams calls made while it is open.

    ``stats`` maps ``layer.function`` to ``[calls, total_s, self_s]``;
    ``spans`` holds ``(span_id, parent_id, label, start, end)`` tuples in
    ``time.perf_counter`` seconds; ``absent`` lists the :data:`REQUIRED`
    names that the package does not define.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._frames: list[list[float]] = []
        self._open: list[int] = []
        self._ids = itertools.count()

    def __enter__(self) -> Tracer:
        targets: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"uvbeams.{layer}")
            except ModuleNotFoundError:
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if isinstance(fn, types.FunctionType) and id(fn) not in targets:
                    targets[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        self.absent = sorted(REQUIRED - set(self.stats))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "uvbeams" and not mod_name.startswith("uvbeams."):
                continue
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and target[0] is value:
                    setattr(module, attr, target[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over each layer's functions."""
        out = dict.fromkeys(LAYERS, 0.0)
        for label, (_, _, self_s) in self.stats.items():
            out[label.split(".", 1)[0]] += self_s
        return out

    def _wrap(self, fn, label: str):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        frames, open_spans, spans, ids = self._frames, self._open, self.spans, self._ids
        stage = label in STAGES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if stage:
                parent = open_spans[-1] if open_spans else None
                span_id = next(ids)
                open_spans.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if stage:
                    open_spans.pop()
                    spans.append((span_id, parent, label, start, end))

        return wrapper
