"""Compile, cache-load and CLI start-up paths run without numpy.

The import guards run each path in a fresh interpreter (with a private
``REPRO_CACHE_DIR``) and list the modules it loaded.  The exactness
tests pin the pure-Python replacements of the numpy calls those paths
used to make to the numpy expressions they replaced.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.builder import _broadcast
from repro.npu import iso_a100_config, table3_config
from repro.runtime import seeded_rng
from repro.simulator import DramParams, ProgramMeta, estimate

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_modules(tmp_path, code):
    """Modules loaded by ``code`` in a fresh interpreter, with the cache
    under ``tmp_path``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(REPO_SRC),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_RESOLVE = ("from repro.serving import ServiceCosts\n"
            "ServiceCosts.resolve(['tinynet', 'bert'])")


def test_cold_and_warm_resolve_leave_numpy_unloaded(tmp_path):
    cold = _loaded_modules(tmp_path, _RESOLVE)
    assert any(m.startswith("repro.compiler.") for m in cold)
    assert "numpy" not in cold
    # The second process reads every artifact back from the disk cache.
    warm = _loaded_modules(tmp_path, _RESOLVE)
    assert "numpy" not in warm
    assert "repro.analysis.verifier" not in warm


def test_warm_autotune_cli_leaves_numpy_unloaded(tmp_path):
    code = ("from repro.cli import main\n"
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['autotune', 'tinynet']) == 0")
    _loaded_modules(tmp_path, code)
    warm = _loaded_modules(tmp_path, code)
    assert "repro.compiler.autotune" in warm
    assert "numpy" not in warm


def test_import_repro_loads_no_subpackage(tmp_path):
    loaded = _loaded_modules(tmp_path, "import repro")
    subpackages = [m for m in loaded if m.startswith("repro.")
                   and (REPO_SRC / m.replace(".", "/")).is_dir()]
    assert subpackages == []
    assert "numpy" not in loaded


def test_import_analysis_loads_no_submodule(tmp_path):
    loaded = _loaded_modules(tmp_path, "import repro.analysis")
    assert "repro.analysis" in loaded
    assert [m for m in loaded if m.startswith("repro.analysis.")] == []
    # ``roofline`` is still a name of the package, loaded on first use.
    roofline = _loaded_modules(
        tmp_path, "from repro.analysis import roofline\nassert roofline()")
    assert "repro.analysis.roofline_points" in roofline


# ---------------------------------------------------------------------------
# Exactness of the pure-Python replacements
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("a, b", [
    ((2, 3), (2, 3)),                   # equal shapes
    ((), ()),
    ((4, 8, 8), (8,)),                  # rank mismatch
    ((8,), (1, 4, 8, 8)),
    ((1, 4, 1, 1), (1, 4, 8, 8)),       # 1-dims on either side
    ((5, 1, 3), (1, 7, 1)),
    ((0,), (1,)),                       # zero-size dims
    ((0, 3), (1, 3)),
    ((1, 0), (6, 1)),
    ((), (0, 2)),
])
def test_broadcast_matches_numpy(a, b):
    assert _broadcast(a, b) == tuple(np.broadcast_shapes(a, b))
    assert _broadcast(b, a) == tuple(np.broadcast_shapes(b, a))


@pytest.mark.parametrize("a, b", [((2, 3), (3, 2)), ((0,), (3,)),
                                  ((4, 2), (2, 4, 3))])
def test_broadcast_mismatch_raises_like_numpy(a, b):
    with pytest.raises(ValueError):
        np.broadcast_shapes(a, b)
    with pytest.raises(ValueError):
        _broadcast(a, b)


def _fractional_bandwidth():
    params = table3_config().sim
    dram = DramParams(bandwidth_bytes_per_s=25.6e9)
    assert (dram.bandwidth_bytes_per_s / params.tandem.frequency_hz) % 1
    return dataclasses.replace(params, dram=dram)


@pytest.mark.parametrize("params", [
    table3_config().sim, iso_a100_config().sim, _fractional_bandwidth()],
    ids=["table3", "iso_a100", "fractional"])
def test_dae_cycles_match_the_numpy_expression(params):
    bytes_per_cycle = (params.dram.bandwidth_bytes_per_s
                       / params.tandem.frequency_hz)
    rng = seeded_rng("dae-cycles")
    for _ in range(300):
        # Byte counts near a multiple of the per-cycle bandwidth probe
        # the rounding of the division.
        near = [round(int(k) * bytes_per_cycle) + int(d) for k, d in
                zip(rng.integers(1, 4096, 2), rng.integers(-1, 2, 2))]
        loads = [int(n) for n in rng.integers(0, 1 << 24, rng.integers(3))]
        loads += near[:rng.integers(3)]
        stores = [int(n) for n in rng.integers(0, 1 << 20, rng.integers(3))]
        transfers = loads + stores
        result = estimate(ProgramMeta(dram_loads=loads, dram_stores=stores),
                          params)
        expected = int(np.ceil(np.asarray(transfers, dtype=np.float64)
                               / bytes_per_cycle).sum())
        latency = params.dram.latency_cycles if transfers else 0
        assert result.dae_cycles == latency + expected, transfers


def test_seeded_rng_accepts_numpy_integers():
    assert np.array_equal(seeded_rng(np.int64(7)).integers(0, 1 << 30, 16),
                          seeded_rng(7).integers(0, 1 << 30, 16))
    assert np.array_equal(seeded_rng("s", np.uint8(3)).random(8),
                          seeded_rng("s", 3).random(8))
