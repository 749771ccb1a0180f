"""Cold vs. warm evaluation-pipeline timing (the PR-over-PR perf track).

Runs a representative experiment subset through ``python -m
repro.harness`` twice against the same cache directory: once cold
(empty cache) and once warm (everything served from the
content-addressed cache). The warm run must be at least 2x faster and
byte-identical, as must a parallel ``--jobs`` run. The measured numbers
land in ``BENCH_eval_pipeline.json`` (at the repo root under
``pytest --record``) so the perf trajectory is visible across PRs.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ("fig14", "fig15", "fig16", "fig18", "fig22")
BENCH_ARTIFACT = "BENCH_eval_pipeline.json"


def _run_harness(cache_dir, *extra, verify=True, telemetry=False):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if not verify:
        env["REPRO_VERIFY"] = "0"
    if telemetry:
        env["REPRO_TELEMETRY"] = "1"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness", *EXPERIMENTS, *extra],
        capture_output=True, env=env, cwd=REPO_ROOT, check=True)
    return time.perf_counter() - start, proc.stdout


def test_warm_pipeline_at_least_twice_as_fast(tmp_path, bench_dir):
    cache_dir = tmp_path / "repro_cache"
    cold_seconds, cold_stdout = _run_harness(cache_dir)
    warm_seconds, warm_stdout = _run_harness(cache_dir)
    jobs_seconds, jobs_stdout = _run_harness(cache_dir, "--jobs", "2")
    # Warm runs serve compiled programs (already verified at compile
    # time) straight from the cache, so static verification must cost
    # nothing once the cache is hot.
    noverify_seconds, noverify_stdout = _run_harness(cache_dir,
                                                     verify=False)
    # Telemetry is observational only: with REPRO_TELEMETRY=1 the same
    # warm run records counters + spans yet must not change one output
    # byte, and the disabled-by-default path (every run above) costs
    # nothing more than attribute checks.
    telemetry_seconds, telemetry_stdout = _run_harness(cache_dir,
                                                       telemetry=True)

    # Correctness first: the cache and the process pool may only change
    # the speed, never a single output byte.
    assert warm_stdout == cold_stdout
    assert jobs_stdout == cold_stdout
    assert noverify_stdout == cold_stdout
    assert telemetry_stdout == cold_stdout

    (bench_dir / BENCH_ARTIFACT).write_text(json.dumps({
        "experiments": list(EXPERIMENTS),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "warm_jobs2_seconds": round(jobs_seconds, 3),
        "warm_verify_off_seconds": round(noverify_seconds, 3),
        "warm_telemetry_seconds": round(telemetry_seconds, 3),
        "speedup_warm_over_cold": round(cold_seconds / warm_seconds, 2),
        "verify_warm_overhead": round(
            warm_seconds / noverify_seconds - 1.0, 3),
        "telemetry_warm_overhead": round(
            telemetry_seconds / warm_seconds - 1.0, 3),
    }, indent=2) + "\n")

    assert warm_seconds <= 0.5 * cold_seconds, (
        f"warm run {warm_seconds:.2f}s not 2x faster than "
        f"cold {cold_seconds:.2f}s")
    # Generous noise margin; the recorded artifact tracks the real gap.
    assert warm_seconds <= 1.25 * noverify_seconds, (
        f"verification added {warm_seconds - noverify_seconds:.2f}s to a "
        f"warm run")
    # The telemetry layer must stay within 5% of the warm-run time even
    # when it is actively recording; the disabled default can only be
    # cheaper. A small absolute slack absorbs subprocess start-up noise.
    assert telemetry_seconds <= 1.05 * warm_seconds + 0.3, (
        f"telemetry added {telemetry_seconds - warm_seconds:.2f}s to a "
        f"warm run ({warm_seconds:.2f}s)")


def _run_serve(*extra, monitor_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_MONITOR", None)
    if monitor_env is not None:
        env["REPRO_MONITOR"] = monitor_env
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--model", "bert",
         "--devices", "6", "--rate", "120", "--duration", "10", *extra],
        capture_output=True, env=env, cwd=REPO_ROOT, check=True)
    return time.perf_counter() - start, proc.stdout


def test_monitoring_is_observational_and_cheap(tmp_path):
    """The serve monitor mirrors the telemetry discipline (ISSUE 9).

    ``REPRO_MONITOR=0`` must make ``--monitor`` a byte-for-byte no-op,
    and an actively-monitoring warm serve run must stay within 5% of
    the unmonitored command (same absolute slack as the telemetry gate
    above, for subprocess start-up noise).
    """
    plain_json = tmp_path / "plain.json"
    off_json = tmp_path / "off.json"
    # Warm the compile cache once so every timed run below is warm.
    _run_serve()
    plain_seconds, plain_stdout = _run_serve("--json", str(plain_json))
    off_seconds, off_stdout = _run_serve("--monitor", "--json",
                                         str(off_json), monitor_env="0")
    monitored_seconds, monitored_stdout = _run_serve("--monitor")

    # Kill switch: byte-identical stdout and report JSON.
    assert off_stdout.replace(bytes(str(off_json), "utf-8"),
                              bytes(str(plain_json), "utf-8")) == plain_stdout
    assert off_json.read_bytes() == plain_json.read_bytes()
    # Monitoring is additive: the serving table is untouched, the
    # dashboard only appends after it.
    table = plain_stdout.split(b"wrote")[0]
    assert monitored_stdout.startswith(table)
    assert b"alert" in monitored_stdout
    assert monitored_seconds <= 1.05 * plain_seconds + 0.3, (
        f"monitoring added {monitored_seconds - plain_seconds:.2f}s to a "
        f"{plain_seconds:.2f}s serve run")
    assert off_seconds <= 1.05 * plain_seconds + 0.3
