"""npu/trace.py: the ASCII Gantt rendering and the overlap metric."""

import pytest

from repro.models import available_models
from repro.npu import (
    ExecutionController,
    NPUTandem,
    overlap_fraction,
    render_timeline,
    trace_block,
    trace_model,
)
from repro.telemetry import scoped_telemetry


def _block(tiles, g, t, release, max_tiles=64):
    """Events of one gemm_tandem block under the controller's schedule."""
    schedule = ExecutionController().schedule(
        "gemm_tandem", tiles, gemm_tile_cycles=g, tandem_tile_cycles=t,
        obuf_release_cycles=release, max_spans=max_tiles)
    return trace_block("b", schedule)


def test_tinynet_trace_produces_events_for_both_units():
    events = trace_model("tinynet")
    assert events
    units = {e.unit for e in events}
    assert units == {"gemm", "tandem"}
    for event in events:
        assert event.end_cycle > event.start_cycle
        assert event.duration == event.end_cycle - event.start_cycle


def test_ascii_gantt_renders_for_tinynet():
    events = trace_model("tinynet")
    art = render_timeline(events, width=60)
    lines = art.splitlines()
    assert lines[0].startswith("cycles ")
    assert len(lines) == 3
    for label, line in zip(("gemm", "tandem"), lines[1:]):
        assert label in line
        # One fixed-width lane between the two '|' delimiters.
        assert line.count("|") == 2
        assert len(line.split("|")[1]) == 60
    assert "#" in art


def test_empty_timeline_renders_placeholder():
    assert render_timeline([]) == "(empty trace)"
    assert overlap_fraction([]) == 0.0


def test_overlap_fraction_in_unit_interval_for_tinynet():
    # TinyNet's blocks are single-tile, so the double-buffered
    # recurrence has nothing to overlap — but the metric must stay
    # within [0, 1] (here exactly 0).
    events = trace_model("tinynet")
    assert 0.0 <= overlap_fraction(events) <= 1.0


def test_multi_tile_block_overlaps_the_units():
    # With 4 tiles and an early Output BUF release, the GEMM unit works
    # on tile i+1 while the Tandem Processor consumes tile i.
    events = _block(tiles=4, g=10, t=10, release=2)
    overlap = overlap_fraction(events)
    assert 0.0 < overlap <= 1.0


def test_gemm_only_block_has_zero_overlap():
    events = _block(tiles=4, g=10, t=0, release=0)
    assert {e.unit for e in events} == {"gemm"}
    assert overlap_fraction(events) == 0.0


def test_trace_respects_max_tiles_cap():
    events = _block(tiles=100, g=5, t=5, release=2, max_tiles=8)
    assert max(e.tile for e in events) == 7


def test_trace_accepts_compiled_model():
    npu = NPUTandem()
    model = npu.compile("tinynet")
    assert trace_model(model, npu=npu) == trace_model("tinynet", npu=npu)


@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("name", available_models())
def test_trace_ends_at_the_evaluated_cycle_count(name, overlap):
    # The timeline is drawn from the evaluator's own schedule, dispatch,
    # fan-out and layer-wise mode included; every zoo model's last block
    # has one tile, so its last event closes the evaluated total.
    npu = NPUTandem(overlap=overlap)
    model = npu.compile(name)
    assert model.blocks[-1].tiles == 1
    with scoped_telemetry() as tel:
        npu.evaluate(model)
    events = trace_model(model, npu=npu)
    end = max(e.end_cycle for e in events)
    assert end == events[-1].end_cycle == tel.counters.get("npu.total_cycles")


def test_trace_draws_the_schedule_it_evaluates():
    # Dispatch and layer-wise coordination shift the drawn spans exactly
    # as they shift the block total.
    schedule = ExecutionController().schedule(
        "gemm_tandem", 3, gemm_tile_cycles=10, tandem_tile_cycles=4,
        dispatch_insts=7, overlap=False, max_spans=64)
    events = trace_block("b", schedule, origin=100)
    assert [(e.unit, e.tile, e.start_cycle, e.end_cycle) for e in events] == [
        ("gemm", 0, 107, 117), ("tandem", 0, 137, 141),
        ("gemm", 1, 117, 127), ("tandem", 1, 141, 145),
        ("gemm", 2, 127, 137), ("tandem", 2, 145, 149)]
    assert 100 + schedule.total_cycles == events[-1].end_cycle
