"""Package surface: one list of public names, owned by the modules, and
one statement of the version; and the test settings in ``pyproject.toml``
keep a failing test from stopping the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import uvbeams
from uvbeams import analysis, cli, deployment, layout, projection

# Every name the package exported before the modules' own lists became the
# package's list; none may be dropped.
EXPORTED_BEFORE = [
    "__version__",
    "GroundPoint",
    "HorizonError",
    "LosGeometry",
    "SatelliteState",
    "UvPoint",
    "earth_to_uv",
    "horizon_limit",
    "los_geometry",
    "uv_to_earth",
    "Beam",
    "BeamLayout",
    "BeamRole",
    "HexIndex",
    "ScenarioConfig",
    "adjacent_beam_spacing",
    "beam_radius",
    "build_layout",
    "center_offset",
    "frf_color",
    "hex_grid",
    "hexagon_contains",
    "hexagon_vertices",
    "RNG_ALGORITHM",
    "RNG_STREAM_RULE",
    "UeRecord",
    "beam_rng",
    "drop_ues",
    "sample_point_in_hexagon",
    "BeamStats",
    "Footprint",
    "ScenarioSummary",
    "beam_stats",
    "footprint_area_km2",
    "project_footprints",
    "scenario_summary",
    "RunManifest",
    "main",
    "preset",
    "run",
]


def test_all_has_no_duplicates():
    assert len(uvbeams.__all__) == len(set(uvbeams.__all__))


def test_all_is_the_module_lists():
    modules = (projection, layout, deployment, analysis, cli)
    assert uvbeams.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]


def test_every_name_resolves_to_its_module_object():
    for module in (projection, layout, deployment, analysis, cli):
        for name in module.__all__:
            assert getattr(uvbeams, name) is getattr(module, name), name
    assert uvbeams.__version__ == "0.2.0"


def test_no_earlier_name_is_dropped():
    assert len(EXPORTED_BEFORE) == 40
    assert set(EXPORTED_BEFORE) <= set(uvbeams.__all__)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_stated_once():
    # The package metadata takes its version from uvbeams.__version__.
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "uvbeams.__version__"}


FAILING_GIVEN_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Reporting a failing @given test, Hypothesis's pytest plugin imports
    # libcst, which raises a DeprecationWarning; under a bare "error" filter
    # that became an INTERNALERROR and no later test ran.  The project's
    # settings, in a child pytest, must report both tests.
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_GIVEN_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
