"""Every committed BENCH_*.json artifact matches its typed manifest entry.

``benchmarks/bench_schema.json`` maps each artifact to its required
top-level keys and their JSON types; a re-recorded artifact that drops a
key or changes a key's type fails here, as does an artifact the manifest
does not list.
"""

import json
from pathlib import Path

import pytest

from repro.schema import check

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = {name: keys for name, keys in json.loads(
    (ROOT / "benchmarks" / "bench_schema.json").read_text()).items()
    if not name.startswith("_")}
ARTIFACTS = sorted(path.name for path in ROOT.glob("BENCH_*.json"))


def test_manifest_lists_exactly_the_committed_artifacts():
    assert sorted(MANIFEST) == ARTIFACTS


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_matches_manifest(name):
    payload = json.loads((ROOT / name).read_text())
    assert check(payload, {"keys": MANIFEST.get(name, {})}) == []
