"""Golden SHA-256 digests of every output file for four fixed configs.

The bytes of the five files are the package's behaviour contract: a change
that alters any digest changes the output and needs a version bump, not an
edit of this table.
"""

from __future__ import annotations

import hashlib

import pytest

from uvbeams import ScenarioConfig, __version__
from uvbeams.cli import OUTPUT_FILES, run

CONFIGS = {
    # Criterion-4 drop: Set-1 LEO S-band, FRF 3, 127 beams x 200 UEs.
    "dense": ScenarioConfig(
        beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=3, rings=6, ues_per_beam=200, seed=7
    ),
    # Set-1 GEO Ka-band, 1261 beams x 1 UE.
    "wide": ScenarioConfig(
        beamwidth_3db_deg=0.1765, altitude_km=35786.0, frf=1, rings=20, ues_per_beam=1, seed=3
    ),
    # Odd UE count per beam and a seed above 2**63.
    "odd": ScenarioConfig(
        beamwidth_3db_deg=4.4127, altitude_km=1200.0, frf=1, rings=4, ues_per_beam=7, seed=2**63 + 5
    ),
    # One nadir beam with one UE: the slant range has zero width, so the
    # histogram takes the one-bin branch.
    "nadir": ScenarioConfig(
        beamwidth_3db_deg=4.4127,
        altitude_km=1200.0,
        rings=0,
        center_elevation_deg=90.0,
        ues_per_beam=1,
        seed=11,
    ),
}

GOLDEN = {
    "dense": {
        "beams.csv": "48dccdbf0b7d62808b6b6af35fd161de8dd51483cf5598eaaf3e32e5006b6b7e",
        "ues.csv": "503bc7713879c4f4e87270bb70bd212a0a2da2dd697b481f008d36168f6ed0f0",
        "footprints.csv": "548186e4bf830001f79fc48ea34acfdadcb887e16609b8171fe165c3b8e2b867",
        "stats.json": "9d9240c14176b3eddcf071304df37009a8eb9863e6ace73e2c9977cef1386b74",
        "manifest.json": "cc69ce9574b51ea579982051805b01d0a9a76607839ba021641f4bbecd02f913",
    },
    "wide": {
        "beams.csv": "d266634a158d48185f826b92ac64d0ce1f0ff8c264583eddeb9610e671d6b1bc",
        "ues.csv": "177d108219f01e3b96ef7e4e77895cbb0ee36abe99666b7c2ab7522e2a2b703b",
        "footprints.csv": "4bc7e8bccd5d8ad35da845143935789bc6919d640ad504fe4c8075b011f0a121",
        "stats.json": "d1544b36f405f6f2f2f082a51d7d6456a9b68e2daf67f496180e30374dbf8ea7",
        "manifest.json": "95dbe39bd1a81ede8e9b66cb0d8c1dbcc19d1f6249c60a775db059eb173f5004",
    },
    "odd": {
        "beams.csv": "9f615d3c7e8204de1d18c9d3c9d800e0995e73fe91d4caa50749d43ade21fac6",
        "ues.csv": "65a9c0d26399d4ded114617263eb48dbf8dd9f521d345573d27bf23ba2ac628a",
        "footprints.csv": "fcc51d0dfbda65b95a7398cee7247cabe1a60c738f4a371aa7778669f1258ab1",
        "stats.json": "dc76f038d85d4e14b3f345e710763f42ac9fe7e2e7df2a1bbf2dd8ab0d4d3a66",
        "manifest.json": "3f8b9a9c31eddf84d656bce1abb234de5f6f05ee0984e747f0e09600e5ee12ad",
    },
    "nadir": {
        "beams.csv": "1b50596f31c5ae12dcabd5b298d46970d0147d79837b9e47963dbef124f3d8bb",
        "ues.csv": "b3d611675ba9fb5d4c1ede469c85ca0d9ae7138c79c239c5b707ba6f1ceb5dd7",
        "footprints.csv": "7da57f42a5b60fc7c27bfc7b113422280fa0b8cae69e8e122e1a86cf523385bf",
        "stats.json": "de542b78d3cadc9368a33b71cc8dcc9254635467c44dab62f5e07d9868a842b3",
        "manifest.json": "9a8d3604e231baf8d93bdf80f5928424b3829ee378a9a8c655af8fa69eb25284",
    },
}


def test_version_matches_golden_outputs():
    # The manifest digests embed the version string.
    assert __version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_golden(name, tmp_path):
    run(CONFIGS[name], tmp_path, bins=50, edge_samples=8)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in OUTPUT_FILES}
    assert digests == GOLDEN[name]
