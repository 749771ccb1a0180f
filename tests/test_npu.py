"""Execution controller FSM and end-to-end NPU evaluation."""

import pytest

from repro.compiler import LoweredTile
from repro.models import MODEL_ORDER
from repro.npu import (
    ExecutionController,
    FsmState,
    NPUTandem,
    iso_a100_config,
    table3_config,
)
from repro.simulator import estimate


# -- controller ----------------------------------------------------------------
def test_state_sequences():
    controller = ExecutionController()
    assert controller.state_sequence("gemm_tandem") == [
        FsmState.BLOCK_START, FsmState.INST_DISPATCH, FsmState.GEMM_TANDEM,
        FsmState.BLOCK_DONE]
    assert FsmState.TANDEM in controller.state_sequence("tandem")


def test_gemm_only_schedule():
    controller = ExecutionController()
    sched = controller.schedule("gemm", tiles=4, gemm_tile_cycles=100)
    assert sched.total_cycles == 400
    assert sched.gemm_busy_cycles == 400
    assert sched.tandem_busy_cycles == 0


def test_tandem_only_schedule():
    controller = ExecutionController()
    sched = controller.schedule("tandem", tiles=3, tandem_tile_cycles=50,
                                dispatch_insts=10)
    assert sched.total_cycles == 10 + 150


def test_overlap_bounded_by_serial_and_critical_path():
    controller = ExecutionController()
    g, t, tiles = 100, 70, 16
    overlapped = controller.schedule("gemm_tandem", tiles, g, t,
                                     obuf_release_cycles=10)
    serial = controller.schedule("gemm_tandem", tiles, g, t, overlap=False)
    assert overlapped.total_cycles < serial.total_cycles
    # Steady state: one tile per max(g, t) plus fill.
    assert overlapped.total_cycles >= tiles * max(g, t)
    assert overlapped.total_cycles <= tiles * max(g, t) + g + t


def test_early_obuf_release_helps_when_gemm_bound():
    controller = ExecutionController()
    late = controller.schedule("gemm_tandem", 32, 50, 200,
                               obuf_release_cycles=200)
    early = controller.schedule("gemm_tandem", 32, 50, 200,
                                obuf_release_cycles=200)
    # With t > g the tandem unit is the bottleneck either way.
    assert early.total_cycles == late.total_cycles


def test_utilizations_sum_sensibly():
    controller = ExecutionController()
    sched = controller.schedule("gemm_tandem", 8, 100, 100,
                                obuf_release_cycles=50)
    assert 0.5 < sched.gemm_utilization <= 1.0
    assert 0.5 < sched.tandem_utilization <= 1.0


def test_large_tile_count_uses_steady_state():
    controller = ExecutionController()
    sched = controller.schedule("gemm_tandem", 100_000, 10, 7,
                                obuf_release_cycles=3)
    assert sched.total_cycles >= 100_000 * 10
    assert sched.total_cycles <= 100_000 * 10 + 10_000


# -- end-to-end evaluation ----------------------------------------------------------
@pytest.mark.parametrize("name", MODEL_ORDER)
def test_evaluate_every_benchmark(name, npu_results):
    result = npu_results[name]
    assert result.total_seconds > 0
    assert result.energy_joules > 0
    assert 0 <= result.gemm_utilization <= 1
    assert 0 <= result.nongemm_utilization <= 1
    # Busy time never exceeds wall-clock per unit.
    assert result.gemm_seconds <= result.total_seconds * 1.001
    assert result.nongemm_seconds <= result.total_seconds * 1.001


def test_per_op_seconds_accounted(npu_results):
    result = npu_results["bert"]
    assert result.per_op_seconds
    assert set(result.per_op_seconds) >= {"Softmax", "Gelu", "ReduceMean"}
    assert all(v >= 0 for v in result.per_op_seconds.values())


def test_energy_breakdown_sums_to_total(npu_results):
    for name in MODEL_ORDER:
        result = npu_results[name]
        assert sum(result.energy_breakdown.values()) == pytest.approx(
            result.energy_joules, rel=1e-6)


def test_overlap_beats_layerwise():
    tile = NPUTandem(overlap=True).evaluate("resnet50")
    layer = NPUTandem(overlap=False).evaluate("resnet50")
    assert tile.total_seconds < layer.total_seconds
    assert tile.gemm_utilization > layer.gemm_utilization


def test_depthwise_runs_on_tandem_not_gemm(npu_results):
    result = npu_results["mobilenetv2"]
    assert result.per_op_seconds.get("DepthwiseConv", 0) > 0


def test_scaled_config_is_faster():
    base = NPUTandem().evaluate("bert")
    scaled = NPUTandem(iso_a100_config()).evaluate("bert")
    assert scaled.total_seconds < base.total_seconds / 2


def test_table3_config_values():
    config = table3_config()
    assert config.sim.tandem.lanes == 32
    assert config.gemm.rows == config.gemm.cols == 32
    assert config.sim.tandem.interim_buf_kb * 2 == 128
    assert config.frequency_hz == 1.0e9


def test_iso_config_scales_tops():
    config = iso_a100_config()
    assert config.tandem_units == 216
    base = table3_config()
    assert (config.gemm.peak_ops_per_s
            > 200 * base.gemm.peak_ops_per_s)


def test_compile_accepts_graph_or_name():
    from repro.models import build_model
    npu = NPUTandem()
    by_name = npu.compile("tinynet")
    by_graph = npu.compile(build_model("tinynet"))
    assert by_name.total_instructions() == by_graph.total_instructions()


# -- one estimate per distinct tile timing -------------------------------------
@pytest.fixture(scope="module")
def bert_model():
    return NPUTandem().compile("bert")


def test_repeated_blocks_are_estimated_once(bert_model, monkeypatch):
    import repro.npu.npu as npu_module
    calls = []

    def counting(meta, params):
        calls.append(meta)
        return estimate(meta, params)

    monkeypatch.setattr(npu_module, "estimate", counting)
    NPUTandem()._evaluate(bert_model)
    tiles = [cb.tile for cb in bert_model.blocks if cb.tile is not None]
    distinct = {tile.timing_key: tile for tile in tiles}
    assert len(distinct) < len(tiles)
    assert len(calls) == sum(1 + len(tile.op_ranges)
                             for tile in distinct.values())
    for tile in tiles:
        first = distinct[tile.timing_key]
        assert tile.meta == first.meta
        assert tile.op_metas == first.op_metas


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_estimating_once_keeps_results_bit_identical(name, monkeypatch):
    model = NPUTandem().compile(name)
    memoized = NPUTandem()._evaluate(model)
    # A fresh key per tile: every tile is estimated on its own.
    monkeypatch.setattr(LoweredTile, "timing_key",
                        property(lambda tile: object()))
    assert NPUTandem()._evaluate(model) == memoized
