"""The fleet core against frozen golden outputs, byte for byte.

Each scenario in :mod:`tests.fleet_golden` (fault scenarios, fault-free
routing/closed-loop/overload runs, monitored chaos storms, the
``monitoring_slo`` runs, chaos sweeps, a ``serve --trace-out`` event
list, and continuous and one-shot LLM batching) is re-run and rendered; the text must equal the committed
fixture exactly.  The BENCH artifacts that publish numbers from these
scenarios must agree with the fixtures too.
"""

import json
from pathlib import Path

import pytest

from tests import fleet_golden

REPO_ROOT = Path(__file__).resolve().parent.parent


def _fixture(name):
    return (fleet_golden.FIXTURES / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(fleet_golden.SCENARIOS))
def test_scenario_matches_golden_fixture(name, monkeypatch):
    monkeypatch.setenv("REPRO_SEED", fleet_golden.SEED)
    assert fleet_golden.render(fleet_golden.SCENARIOS[name]()) == \
        _fixture(name)


def test_bench_monitoring_alerts_match_fixture():
    bench = json.loads((REPO_ROOT / "BENCH_monitoring.json").read_text())
    crashed = json.loads(_fixture("monitoring_slo_crashed"))
    assert bench["seed"] == int(fleet_golden.SEED)
    assert crashed["monitor_alerts"] == bench["alerts"]


def test_bench_chaos_numbers_match_fixture():
    bench = json.loads((REPO_ROOT / "BENCH_chaos.json").read_text())
    rows = {r["policy"]: r for r in
            json.loads(_fixture("chaos_bench_crash_1pct"))["rows"]
            if r["fault_scale"] == 1.0}
    assert bench["seed"] == int(fleet_golden.SEED)
    assert bench["resilient_retries"] == rows["resilient"]["retries"]
    assert bench["resilient_ejects"] == rows["resilient"]["devices_ejected"]
    for policy, retention in bench["goodput_retention"].items():
        assert round(rows[policy]["goodput_retention"], 4) == retention


def test_bench_llm_numbers_match_fixture():
    bench = json.loads((REPO_ROOT / "BENCH_llm_serving.json").read_text())
    sweep = json.loads(_fixture("llm_bench_5s"))
    costs = json.loads(fleet_golden.LLM_COSTS_FILE.read_text())
    assert bench["seed"] == int(fleet_golden.SEED)
    assert bench["duration_s"] == sweep["duration_s"] == 5.0
    assert bench["prefill_token_us"] == round(costs["prefill_token_s"] * 1e6,
                                              3)
    assert bench["decode_step_us"] == round(costs["decode_step_s"] * 1e6, 3)
    for scheduler, goodput in bench["goodput_at_slo_rps"].items():
        assert round(sweep["summary"][scheduler]["goodput_at_slo_rps"],
                     2) == goodput
    light = bench["light_load"]
    rows = {r["scheduler"]: r for r in sweep["rows"]
            if r["rate_rps"] == light["rate_rps"]}
    assert set(rows) == {"oneshot", "continuous"}
    for metric in ("ttft_p95_ms", "itl_p95_ms"):
        for scheduler, value in light[metric].items():
            assert round(rows[scheduler][metric], 3) == value
