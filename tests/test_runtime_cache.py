"""The evaluation runtime: content-addressed cache + parallel map.

Covers the invariants the harness relies on: hit/miss accounting, the
on-disk tier round-tripping to the same results as in-memory, key
invalidation when the graph or the NPU configuration changes, and
``parallel_map`` matching serial execution element-for-element.
"""

import concurrent.futures
import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.compiler import compile_model
from repro.graph import GraphBuilder
from repro.models import build_model
from repro.npu import NPUTandem, table3_config
from repro.runtime import (
    EvalCache,
    cached_evaluate,
    get_cache,
    graph_fingerprint,
    parallel_map,
    set_cache,
)
from repro.telemetry import scoped_telemetry


@pytest.fixture(autouse=True)
def _restore_session_cache():
    """Re-install the suite's isolated cache after every test here.

    Tests in this module swap the process-wide cache singleton; leaving
    it reset (``set_cache(None)``) would make the next ``get_cache()``
    lazily build the *default* cache over the working tree's
    ``.repro_cache``, silently de-hermetizing every test that runs
    afterwards (and exposing them to stale records from older code).
    """
    previous = get_cache()
    yield
    set_cache(previous)


@pytest.fixture
def fresh_cache(tmp_path):
    cache = EvalCache(directory=tmp_path / "cache")
    set_cache(cache)
    yield cache
    set_cache(None)


def _small_graph(name="t", shape=(4, 8)):
    b = GraphBuilder(name)
    x = b.input("x", shape, dtype="int32")
    return b.finish([b.relu(x)])


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
def test_graph_fingerprint_is_structural():
    assert graph_fingerprint(_small_graph()) == \
        graph_fingerprint(_small_graph())


def test_graph_fingerprint_changes_with_structure():
    assert graph_fingerprint(_small_graph(shape=(4, 8))) != \
        graph_fingerprint(_small_graph(shape=(4, 9)))


#: Every zoo graph's fingerprint. These are cache keys: a change here
#: orphans every artifact cached on disk, so it needs a CACHE_EPOCH bump.
ZOO_FINGERPRINTS = {
    "bert": "086c9dc8ff2122ad9fc623f732a97fb3",
    "efficientnet": "db0ccd8d16307096d169f6a16a519b74",
    "gpt2": "7207871f0004487528539f763e30c9fa",
    "gpt2_rms": "c8f9d460be29ae9c738b24f27b6323ff",
    "mobilenetv2": "7fbf0681127e4c359b93cce0633cfbc9",
    "resnet50": "4d4127cb2749edd893f3be521808aa02",
    "tinynet": "143a2ebce00eded14e92d39413c65b8b",
    "vgg16": "b9cc194b79a91986fbf31141d2a5dcf5",
    "yolov3": "694d902835ebf17b7efbbfa38ed1f146",
}


@pytest.mark.parametrize("name", sorted(ZOO_FINGERPRINTS))
def test_zoo_graph_fingerprints_are_pinned(name):
    # A fresh graph: the memoized zoo graph may carry a cached digest.
    graph = build_model.__wrapped__(name)
    assert graph_fingerprint(graph) == ZOO_FINGERPRINTS[name]


# ---------------------------------------------------------------------------
# Hit/miss accounting and tiers
# ---------------------------------------------------------------------------
def test_result_cache_hit_and_miss_accounting(fresh_cache):
    npu = NPUTandem()
    first = npu.evaluate("resnet50")
    assert fresh_cache.stats.misses >= 1
    assert fresh_cache.stats.stores >= 1
    hits_before = fresh_cache.stats.hits
    second = npu.evaluate("resnet50")
    assert fresh_cache.stats.hits > hits_before
    assert second == first
    # Hits rehydrate fresh objects: mutating one cannot leak into the
    # cache or into other callers.
    assert second is not first
    second.energy_breakdown["dram"] = -1.0
    assert npu.evaluate("resnet50").energy_breakdown != \
        second.energy_breakdown


def test_disk_tier_round_trip_equals_in_memory(tmp_path):
    directory = tmp_path / "cache"
    set_cache(EvalCache(directory=directory))
    try:
        npu = NPUTandem()
        warm = npu.evaluate("resnet50")
        # A brand-new cache over the same directory has an empty memory
        # tier, so this lookup can only come from disk.
        set_cache(EvalCache(directory=directory))
        cold_process = NPUTandem().evaluate("resnet50")
        assert get_cache().stats.hits >= 1
        assert get_cache().stats.misses == 0
        assert cold_process == warm
    finally:
        set_cache(None)


def test_compiled_artifact_round_trips_from_disk(tmp_path):
    directory = tmp_path / "cache"
    graph = build_model("mobilenetv2")
    config = table3_config()
    set_cache(EvalCache(directory=directory))
    try:
        first = compile_model(graph, config.sim, config.gemm)
        set_cache(EvalCache(directory=directory))
        second = compile_model(graph, config.sim, config.gemm)
        assert get_cache().stats.hits == 1
        assert [type(b.tile).__name__ for b in second.blocks] == \
            [type(b.tile).__name__ for b in first.blocks]
        assert second.total_instructions() == first.total_instructions()
        for a, b in zip(first.blocks, second.blocks):
            assert a.tiles == b.tiles
            assert a.name == b.name
            if a.tile is not None:
                assert list(b.tile.program.pack()) == \
                    list(a.tile.program.pack())
    finally:
        set_cache(None)


def test_compile_cache_shares_blocks_within_process(fresh_cache):
    graph = build_model("resnet50")
    config = table3_config()
    first = compile_model(graph, config.sim, config.gemm)
    second = compile_model(graph, config.sim, config.gemm)
    assert second.blocks is first.blocks


# ---------------------------------------------------------------------------
# Invalidation by construction
# ---------------------------------------------------------------------------
def test_result_key_changes_with_config(fresh_cache):
    base = NPUTandem()
    base.evaluate("resnet50")
    misses = fresh_cache.stats.misses
    bigger = table3_config()
    bigger = replace(bigger, sim=replace(
        bigger.sim, tandem=replace(bigger.sim.tandem, lanes=64)))
    NPUTandem(bigger).evaluate("resnet50")
    assert fresh_cache.stats.misses > misses


def test_result_key_changes_with_graph(fresh_cache):
    npu = NPUTandem()
    a = npu.evaluate(_small_graph(shape=(4, 8)))
    b = npu.evaluate(_small_graph(shape=(8, 8)))
    assert fresh_cache.stats.misses >= 2
    assert a.total_seconds != b.total_seconds or a != b


def test_corrupt_disk_entry_invalidates(fresh_cache):
    npu = NPUTandem()
    npu.evaluate("resnet50")
    (path,) = (fresh_cache.directory / "results").glob("*.json")
    path.write_text("{not json")
    # New cache instance: memory tier empty, disk entry corrupt.
    set_cache(EvalCache(directory=fresh_cache.directory))
    NPUTandem().evaluate("resnet50")
    assert get_cache().stats.invalidations == 1
    assert not path.exists() or path.read_text() != "{not json"


def test_truncated_compiled_words_invalidate_and_recompile(fresh_cache):
    graph = build_model("mobilenetv2")
    config = table3_config()
    first = compile_model(graph, config.sim, config.gemm)
    original = [list(b.tile.program.pack()) for b in first.blocks
                if b.tile is not None]
    (path,) = (fresh_cache.directory / "compiled").glob("*.json")
    data = json.loads(path.read_text())
    entry = data["programs"][0]
    entry["words"] = entry["words"][:-4]
    path.write_text(json.dumps(data))
    set_cache(EvalCache(directory=fresh_cache.directory))
    second = compile_model(graph, config.sim, config.gemm)
    assert get_cache().stats.invalidations == 1
    assert [list(b.tile.program.pack()) for b in second.blocks
            if b.tile is not None] == original


def test_unencodable_put_leaves_no_temp_file(fresh_cache):
    with pytest.raises(TypeError):
        fresh_cache.put("results", "bad", {"value": object()})
    assert list(fresh_cache.directory.rglob("*.tmp")) == []


def test_disabled_cache_stores_nothing(tmp_path):
    set_cache(EvalCache(directory=tmp_path / "cache", enabled=False))
    try:
        NPUTandem().evaluate("resnet50")
        assert get_cache().stats.stores == 0
        assert get_cache().entry_counts() == {}
    finally:
        set_cache(None)


# ---------------------------------------------------------------------------
# cached_evaluate for non-NPU designs
# ---------------------------------------------------------------------------
def test_cached_evaluate_baseline(fresh_cache):
    from repro.baselines import CpuFallbackDesign
    design = CpuFallbackDesign()
    first = cached_evaluate(design, "resnet50")
    hits = fresh_cache.stats.hits
    second = cached_evaluate(CpuFallbackDesign(), "resnet50")
    assert fresh_cache.stats.hits > hits
    assert second == first


# ---------------------------------------------------------------------------
# Parallel map
# ---------------------------------------------------------------------------
def test_parallel_map_matches_serial():
    items = list(range(17))
    assert parallel_map(_square, items, jobs=4) == [i * i for i in items]


def test_parallel_map_preserves_order_and_length():
    items = ["fig14", "fig15", "fig16"]
    assert parallel_map(_identity, items, jobs=2) == items
    assert parallel_map(_identity, [], jobs=8) == []


def test_parallel_map_propagates_work_errors():
    with pytest.raises(KeyError, match="three"):
        parallel_map(_fail_on_three, range(6), jobs=2)
    with pytest.raises(FileNotFoundError):
        parallel_map(_missing_file, range(3), jobs=2)


def test_parallel_map_falls_back_only_when_the_pool_cannot_start(
        monkeypatch):
    def no_pool(*args, **kwargs):
        raise PermissionError("no semaphores here")

    with scoped_telemetry() as tel:
        # Workers that die before any result: the pool never ran.
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
            assert parallel_map(_exit_in_worker, range(4), jobs=2) == \
                [0, 1, 2, 3]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        with pytest.warns(RuntimeWarning, match="running 5 items serially"):
            assert parallel_map(_square, range(5), jobs=2) == \
                [0, 1, 4, 9, 16]
    assert tel.snapshot()["counters"]["parallel.serial_fallback"] == 2


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise KeyError("three")
    return value


def _missing_file(value):
    raise FileNotFoundError(f"item {value}")


def _exit_in_worker(value):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return value


def _identity(value):
    return value
