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
    # histogram takes the one-bin branch and stats.json says "bins": 1.
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
        "footprints.csv": "688518b21a63ef3eaf84fc70119d0a8aa03bfa01f7fbf1010b49b182ae963103",
        "stats.json": "d288bdfb641ab98f75430908937d2d9e6b25f0a169462b9bccc81b51cec4f161",
        "manifest.json": "376b53d7de6a4a666fbbbb1ef276b35bfc5a6d77a47526600b269db536124676",
    },
    "wide": {
        "beams.csv": "d266634a158d48185f826b92ac64d0ce1f0ff8c264583eddeb9610e671d6b1bc",
        "ues.csv": "177d108219f01e3b96ef7e4e77895cbb0ee36abe99666b7c2ab7522e2a2b703b",
        "footprints.csv": "d64a254cc24d5b5249ed380dc25f749128859a1b811ec1ab8ad2b71c5d51842a",
        "stats.json": "b3c54ec18fbb5de7fceb788b5a0861b7feec1110508408c6a3f307e9f63864cf",
        "manifest.json": "de4555d5a6e0ff0f598b8af76462fbabcdd034f5fabf195f27bc09268df01b50",
    },
    "odd": {
        "beams.csv": "9f615d3c7e8204de1d18c9d3c9d800e0995e73fe91d4caa50749d43ade21fac6",
        "ues.csv": "65a9c0d26399d4ded114617263eb48dbf8dd9f521d345573d27bf23ba2ac628a",
        "footprints.csv": "68fe3a894ed6967fe089cad47dc10af3fa55a8d6f2bd48848f21a059267220bb",
        "stats.json": "60385f0c6b305536e4d46129d333eb0dd6742cbc6a3b091a78d7a965ba9148f5",
        "manifest.json": "fb94c030cb5bce83c76d06666e7b3cba0415f42d4eedbf4ea898f89d59a5c1d7",
    },
    "nadir": {
        "beams.csv": "1b50596f31c5ae12dcabd5b298d46970d0147d79837b9e47963dbef124f3d8bb",
        "ues.csv": "b3d611675ba9fb5d4c1ede469c85ca0d9ae7138c79c239c5b707ba6f1ceb5dd7",
        "footprints.csv": "f3e34e4f537a742448b840c4de69538b219ebbcdc3f200e9aff75902323fd512",
        "stats.json": "cbf84fafbfe49bb9ca8303ebaa3b3a2f55f37d8248010fc10967873e0d2e6ac4",
        "manifest.json": "86406184172a47974e7911557a56460a2fcf98f660ec4311cc9c4d813f987794",
    },
}


def test_version_matches_golden_outputs():
    # The manifest digests embed the version string.
    assert __version__ == "0.2.0"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_golden(name, tmp_path):
    run(CONFIGS[name], tmp_path, bins=50, edge_samples=8)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in OUTPUT_FILES}
    assert digests == GOLDEN[name]
