"""Design-space exploration and execution tracing."""

import pytest

from repro.analysis import DesignPoint, config_for, pareto_frontier, sweep
from repro.npu import (
    ExecutionController,
    NPUTandem,
    overlap_fraction,
    render_timeline,
    trace_block,
    trace_model,
)


@pytest.fixture(scope="module")
def dse_results():
    return sweep("mobilenetv2", lanes=(16, 32), interim_buf_kb=(32, 64))


def test_sweep_covers_grid(dse_results):
    assert len(dse_results) == 4
    labels = {r.point.label() for r in dse_results}
    assert "32L/64KB/32x32" in labels


def test_more_lanes_never_slower(dse_results):
    by_point = {(r.point.lanes, r.point.interim_buf_kb): r
                for r in dse_results}
    assert by_point[(32, 64)].seconds <= by_point[(16, 64)].seconds


def test_pareto_frontier_subset(dse_results):
    frontier = pareto_frontier(dse_results)
    assert frontier
    assert set(id(r) for r in frontier) <= set(id(r) for r in dse_results)
    # Every non-frontier point is dominated by some frontier point.
    for result in dse_results:
        if result in frontier:
            continue
        assert any(f.seconds <= result.seconds
                   and f.energy_joules <= result.energy_joules
                   and f.tandem_area_mm2 <= result.tandem_area_mm2
                   for f in frontier)


def test_config_for_sets_knobs():
    config = config_for(DesignPoint(64, 128, 16))
    assert config.sim.tandem.lanes == 64
    assert config.sim.tandem.interim_buf_kb == 128
    assert config.gemm.rows == 16


# -- tracing -------------------------------------------------------------------
def _block(tiles, g, t, release):
    """Events of one gemm_tandem block under the controller's schedule."""
    schedule = ExecutionController().schedule(
        "gemm_tandem", tiles, gemm_tile_cycles=g, tandem_tile_cycles=t,
        obuf_release_cycles=release, max_spans=64)
    return trace_block("b", schedule)


def test_trace_block_pipelines():
    events = _block(tiles=4, g=100, t=60, release=20)
    gemm = [e for e in events if e.unit == "gemm"]
    tandem = [e for e in events if e.unit == "tandem"]
    assert len(gemm) == len(tandem) == 4
    # Tandem tile i starts only after GEMM tile i finishes...
    for ge, te in zip(gemm, tandem):
        assert te.start_cycle >= ge.end_cycle
    # ...while GEMM tile i+1 overlaps Tandem tile i (software pipelining).
    assert gemm[1].start_cycle < tandem[0].end_cycle


def test_trace_model_orders_blocks():
    events = trace_model("tinynet")
    assert events
    block_order = []
    for event in events:
        if event.block not in block_order:
            block_order.append(event.block)
    starts = [min(e.start_cycle for e in events if e.block == b)
              for b in block_order]
    assert starts == sorted(starts)


def test_overlap_fraction_nonzero_for_fused_models():
    events = trace_model("resnet50")
    assert 0.0 < overlap_fraction(events) < 1.0


def test_render_timeline_shapes():
    events = _block(tiles=3, g=50, t=50, release=10)
    art = render_timeline(events, width=40)
    lines = art.splitlines()
    assert len(lines) == 3
    assert "#" in lines[1] and "#" in lines[2]
    assert render_timeline([]) == "(empty trace)"
