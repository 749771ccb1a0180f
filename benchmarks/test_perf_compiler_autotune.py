"""Autotuned pass-pipeline search: cycle wins, warm cache, determinism.

Runs ``python -m repro autotune`` over the model zoo against one cache
directory: once cold (every candidate compiled and scored) and once warm
(the whole report served from the content-addressed cache). The searched
pipelines must beat the fixed seed flow by >= 5% geomean cycles with
every winner verifier-clean, the warm re-search must be >= 5x faster,
and a serial re-run must produce byte-identical reports to a ``--jobs``
run. The measured numbers land in ``BENCH_compiler_autotune.json`` (at
the repo root under ``pytest --record``) so the perf trajectory is
visible across PRs.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS = ("bert", "efficientnet", "gpt2", "mobilenetv2", "resnet50",
          "tinynet", "vgg16", "yolov3")
BUDGET = 16
BENCH_ARTIFACT = "BENCH_compiler_autotune.json"


def _autotune(cache_dir, model, report_path, jobs=4):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "autotune", model,
         "--budget", str(BUDGET), "--jobs", str(jobs),
         "--json", str(report_path)],
        capture_output=True, env=env, cwd=REPO_ROOT, check=True)
    return time.perf_counter() - start


def test_autotune_beats_fixed_flow_and_caches(tmp_path, bench_dir):
    cache_dir = tmp_path / "repro_cache"

    cold_seconds = 0.0
    reports = {}
    for model in MODELS:
        path = tmp_path / f"cold-{model}.json"
        cold_seconds += _autotune(cache_dir, model, path)
        reports[model] = path.read_text()

    warm_seconds = 0.0
    for model in MODELS:
        path = tmp_path / f"warm-{model}.json"
        warm_seconds += _autotune(cache_dir, model, path)
        # The cached report must be byte-identical to the cold search.
        assert path.read_text() == reports[model], model

    # Search determinism: a serial cold run in a fresh cache equals the
    # --jobs run (candidate batches are fixed before dispatch and the
    # winner is chosen by (cycles, submission order)).
    serial_path = tmp_path / "serial-efficientnet.json"
    _autotune(tmp_path / "serial_cache", "efficientnet", serial_path,
              jobs=1)
    assert serial_path.read_text() == reports["efficientnet"]

    ratios = {}
    for model in MODELS:
        payload = json.loads(reports[model])
        best = payload["best"]
        assert best["cycles"] <= payload["baseline_cycles"], model
        # The winner was compiled with verify=True during scoring: its
        # candidate entry must be a clean "ok", never "verify-rejected".
        winner = [c for c in payload["candidates"]
                  if c["config"] == best["config"]]
        assert winner and all(c["status"] == "ok" for c in winner), model
        ratios[model] = best["cycles"] / payload["baseline_cycles"]

    geomean = math.exp(sum(math.log(r) for r in ratios.values())
                       / len(ratios))

    (bench_dir / BENCH_ARTIFACT).write_text(json.dumps({
        "models": list(MODELS),
        "budget": BUDGET,
        "cycle_ratio": {m: round(r, 4) for m, r in sorted(ratios.items())},
        "best_pipeline": {
            m: json.loads(reports[m])["best"]["label"] for m in MODELS},
        "geomean_cycle_ratio": round(geomean, 4),
        "geomean_cycle_reduction_pct": round((1 - geomean) * 100, 2),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "speedup_warm_over_cold": round(cold_seconds / warm_seconds, 2),
    }, indent=2) + "\n")

    assert geomean <= 0.95, (
        f"autotuned geomean cycle ratio {geomean:.4f} misses the 5% bar")
    assert warm_seconds * 5 <= cold_seconds, (
        f"warm re-search {warm_seconds:.2f}s not 5x faster than "
        f"cold {cold_seconds:.2f}s")
