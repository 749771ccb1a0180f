"""Smoke tests of the benchmark; run with ``pytest bench/``.

The smoke runs (one repetition per workload on small inputs, untraced
and traced) write under ``bench/out/pytest``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "pytest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402


def _bench(*flags, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *flags], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request):
    proc = _bench("--smoke", "--trace", str(request.param), "--out", str(OUT))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return request.param, proc.stdout.splitlines()


def test_every_metric_prints_with_its_unit(smoke):
    trace, lines = smoke
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SPEC["workloads"])
    section = "per_layer" if trace else "end_to_end"
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    error_rates = [line.split()[1] for line in lines
                   if line.split()[:1] == ["error_rate"]]
    assert error_rates == ["0"] * len(SPEC["workloads"])


def test_compare_of_a_run_with_itself_finds_nothing_worse(smoke):
    _, lines = smoke
    path = next(line.split(": ", 1)[1] for line in lines
                if line.startswith("results: "))
    proc = _bench("--compare", path, path)
    verdicts = {line.rsplit("  ", 1)[1] for line in proc.stdout.splitlines()[2:]}
    # The two passes of a smoke repetition may spread past a bound.
    assert verdicts <= {"within bound", "identical", "unscaled, no bound",
                        "unresolved"}, proc.stdout
    assert proc.returncode == (1 if "unresolved" in verdicts else 0)


def _results(run_s, seed):
    return {"seed": seed, "workloads": {"w": {"values": {
        "run_s": run_s, "sim_p99_ms": [25.0 + seed]}}}}


def test_compare_of_run_directories_uses_run_to_run_spread(tmp_path, capsys):
    # Passes spread 40% inside each run, but the runs' medians agree.
    # The sim output depends on the seed only.
    sides = {"a": (1.0, 0), "b": (1.0, 3), "slow": (1.5, 0)}
    for side, (scale, first_seed) in sides.items():
        (tmp_path / side).mkdir()
        for i in range(3):
            passes = [scale * (1.0 + 0.01 * i + x) for x in (-0.2, 0.0, 0.2)]
            (tmp_path / side / f"results-{i}.json").write_text(
                json.dumps(_results(passes, first_seed + i)))
    assert run.compare(tmp_path / "a", tmp_path / "b", SPEC) == 0
    out = capsys.readouterr().out
    assert "within bound" in out and "other seeds" in out
    assert run.compare(tmp_path / "a", tmp_path / "slow", SPEC) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "identical" in out
    # One run a side: the spread of its own passes leaves it unresolved.
    assert run.compare(tmp_path / "a" / "results-0.json",
                       tmp_path / "slow" / "results-0.json", SPEC) == 1
    assert "unresolved" in capsys.readouterr().out


def test_spec_names_exactly_the_produced_layer_metrics():
    produced = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == produced


def test_broken_layer_entry_fails(monkeypatch):
    broken = layers.Layer("compiler.search_tiles",
                          ("repro.compiler.tiling:search_tile",), ("zoo_cold",))
    monkeypatch.setattr(layers, "LAYERS", (broken,))
    with pytest.raises(layers.LayerMapError, match="search_tile"):
        layers.Tracer("zoo_cold/0").install()


def test_idle_expected_layer_fails():
    calls = {layer.name: 1 for layer in layers.LAYERS}
    layers.check_expected("zoo_cold", calls)
    calls["compiler.lower_tile"] = 0
    with pytest.raises(layers.LayerMapError, match="compiler.lower_tile"):
        layers.check_expected("zoo_cold", calls)


def test_fails_without_the_program_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    # Not this file: pytest would collect the copy under bench/out.
    for name in ("run.py", "layers.py", "workloads.py"):
        shutil.copy(BENCH / name, bare / "bench")
    proc = _bench("--workload", "zoo_cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
