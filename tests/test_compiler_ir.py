"""Compiler IR: allocation, residency, relayout, broadcast fusion."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    CompileError,
    Resident,
    TileContext,
    broadcast_views,
    recipe_body,
)
from repro.compiler.integer_ops import Step, gelu_recipe
from repro.compiler.ir import TRef, c_strides
from repro.isa import Namespace
from repro.simulator.params import TandemParams


def _ctx(**kwargs):
    return TileContext(TandemParams(), **kwargs)


# -- allocation --------------------------------------------------------------
def test_alloc_first_fit_spills_to_second_buffer():
    ctx = _ctx()
    words = TandemParams().interim_buf_words
    ns1, base1 = ctx.alloc(words)
    ns2, base2 = ctx.alloc(10)
    assert ns1 == Namespace.IBUF1
    assert ns2 == Namespace.IBUF2
    assert base2 == 0


def test_alloc_capacity_exhausted():
    ctx = _ctx()
    words = TandemParams().interim_buf_words
    ctx.alloc(words)
    ctx.alloc(words)
    with pytest.raises(CompileError, match="exhausted"):
        ctx.alloc(1)


def test_peak_words_tracked():
    ctx = _ctx()
    ctx.alloc(100)
    ctx.alloc(50)
    assert ctx.peak_words == 150


# -- immediates ----------------------------------------------------------------
def test_imm_interning_dedupes():
    ctx = _ctx()
    a = ctx.imm(42)
    b = ctx.imm(42)
    c = ctx.imm(43)
    assert a == b
    assert c.base != a.base
    assert ctx.imm_values == [42, 43]


def test_imm_buf_capacity_is_32():
    ctx = _ctx()
    for i in range(32):
        ctx.imm(i)
    with pytest.raises(CompileError, match="IMM BUF"):
        ctx.imm(1000)


# -- residency --------------------------------------------------------------------
def test_source_loads_once_then_reuses():
    ctx = _ctx()
    first = ctx.source("x", (64,))
    second = ctx.source("x", (64,))
    assert first == second
    assert len(ctx.transfers) == 1


def test_source_relayouts_with_permute_engine():
    ctx = _ctx()
    ctx.source("x", (4, 8))
    ctx.source("x", (4, 8), layout=(1, 0))
    assert len(ctx.permutes) == 1
    assert ctx.permutes[0].perm == (1, 0)


def test_source_reinterprets_flat_to_shaped():
    ctx = _ctx()
    flat = ctx.source("x", (32,))
    shaped = ctx.source("x", (4, 8))
    assert shaped.ns == flat.ns
    assert shaped.base == flat.base
    assert len(ctx.permutes) == 0  # contiguous reinterpret is free


def test_strict_mode_rejects_numel_mismatch():
    ctx = _ctx(strict=True)
    ctx.source("x", (64,))
    with pytest.raises(CompileError, match="elements"):
        ctx.source("x", (65,))


def test_cost_mode_reuses_larger_resident():
    ctx = _ctx(strict=False)
    ctx.source("x", (64,))
    smaller = ctx.source("x", (32,))
    assert len(ctx.transfers) == 1  # no refetch
    assert smaller.shape == (32,)


def test_cost_mode_refetches_larger_request():
    ctx = _ctx(strict=False)
    ctx.source("x", (32,))
    ctx.source("x", (64,))
    assert len(ctx.transfers) == 2


def test_pad_resident_emits_fill_and_copy_nests():
    ctx = _ctx()
    ctx.source("x", (2, 4, 4))
    before = len(ctx.nests)
    padded = ctx.source("x", (2, 4, 4), layout=(1, 2, 0),
                        pad=((0, 0), (1, 1), (1, 1)), pad_value=-5)
    assert len(ctx.nests) == before + 2
    assert padded.shape == (6, 6, 2)


def test_zero_pad_treated_as_no_pad():
    ctx = _ctx()
    ctx.source("x", (2, 4))
    res = ctx.source("x", (2, 4), pad=((0, 0), (0, 0)))
    assert len(ctx.transfers) == 1
    assert res.shape == (2, 4)


def test_store_requires_residency():
    ctx = _ctx()
    with pytest.raises(CompileError, match="non-resident"):
        ctx.store("ghost")


def test_store_carries_layout_perm():
    ctx = _ctx()
    ctx.dest("y", (4, 8), layout=(1, 0))
    ctx.store("y")
    st_slot = ctx.transfers[-1]
    assert st_slot.direction == "st"
    assert st_slot.perm == (1, 0)


def test_alias_shares_storage():
    ctx = _ctx()
    ctx.dest("a", (24,))
    ctx.alias("b", "a", shape=(4, 6))
    assert ctx.resident("b").base == ctx.resident("a").base
    assert ctx.resident("b").shape == (4, 6)


def test_dram_alias_renames_transfer_target():
    ctx = _ctx()
    ctx.dram_alias["reshaped"] = "original"
    ctx.source("reshaped", (16,))
    assert ctx.transfers[0].tensor == "original"


def test_events_record_emission_order():
    ctx = _ctx()
    ctx.source("x", (8,))
    ctx.nest([("i", 8)], [])
    ctx.store("x")
    kinds = [type(e).__name__ for e in ctx.events]
    assert kinds == ["TransferSlot", "Nest", "TransferSlot"]


def test_nest_depth_limit():
    ctx = _ctx()
    with pytest.raises(CompileError, match="8-level"):
        ctx.nest([(f"l{i}", 2) for i in range(9)], [])


def test_nest_drops_unit_loops():
    ctx = _ctx()
    nest = ctx.nest([("a", 1), ("b", 5), ("c", 1)], [])
    assert nest.loops == [("b", 5)]


# -- broadcast fusion ---------------------------------------------------------------
def test_broadcast_same_shape_collapses_to_one_loop():
    loops, in_maps, out_map = broadcast_views((2, 3, 4), [(2, 3, 4), (2, 3, 4)])
    assert len(loops) == 1
    assert loops[0][1] == 24
    assert in_maps[0][loops[0][0]] == 1


def test_broadcast_bias_pattern():
    # (128, 768) + (768,): the bias blocks row/column collapse, so the
    # nest keeps two loops with the bias broadcast over rows.
    loops, in_maps, out_map = broadcast_views((128, 768), [(128, 768), (768,)])
    assert [c for _, c in loops] == [128, 768]
    row_var, col_var = loops[0][0], loops[1][0]
    assert in_maps[1][row_var] == 0
    assert in_maps[1][col_var] == 1
    assert out_map[row_var] == 768
    assert out_map[col_var] == 1


def test_broadcast_channel_scale_pattern():
    # (1, C, H, W) * (1, C, 1, 1): two loops (c, hw).
    loops, in_maps, out_map = broadcast_views((1, 8, 4, 4),
                                              [(1, 8, 4, 4), (1, 8, 1, 1)])
    counts = [c for _, c in loops]
    assert counts == [8, 16]
    c_var, hw_var = loops[0][0], loops[1][0]
    assert in_maps[1][c_var] == 1
    assert in_maps[1][hw_var] == 0


def test_broadcast_mask_pattern():
    # (1, H, S, S) + (1, 1, S, S): loops (h, s*s).
    loops, in_maps, _ = broadcast_views((1, 12, 16, 16),
                                        [(1, 12, 16, 16), (1, 1, 16, 16)])
    counts = [c for _, c in loops]
    assert counts == [12, 256]
    h_var = loops[0][0]
    assert in_maps[1][h_var] == 0


def test_broadcast_drops_batch_one_dim():
    loops, _, _ = broadcast_views((1, 64), [(1, 64), (1, 64)])
    assert [c for _, c in loops] == [64]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_broadcast_points_cover_output(shape):
    loops, in_maps, out_map = broadcast_views(tuple(shape),
                                              [tuple(shape), tuple(shape)])
    points = 1
    for _, c in loops:
        points *= c
    expected = 1
    for d in shape:
        expected *= d
    assert points == expected


# -- recipe lowering -----------------------------------------------------------------
def test_recipe_body_reuses_temps():
    ctx = _ctx()
    src = TRef(Namespace.IBUF1, 0, {"i": 1})
    dst = TRef(Namespace.IBUF1, 100, {"i": 1})
    body = recipe_body(ctx, gelu_recipe(), src, dst, [("i", 50)], 50)
    # Linear-scan reuse keeps scratch demand far below one buffer per step.
    temp_bases = {s.dst.base for s in body} - {100}
    assert len(temp_bases) <= 5
    assert body[-1].dst == dst


def test_recipe_body_interns_constants():
    ctx = _ctx()
    src = TRef(Namespace.IBUF1, 0, {"i": 1})
    dst = TRef(Namespace.IBUF1, 10, {"i": 1})
    steps = [Step("add", "t", "x", 99), Step("add", "out", "t", 99)]
    recipe_body(ctx, steps, src, dst, [("i", 10)], 10)
    assert ctx.imm_values == [99]


def test_c_strides():
    assert c_strides((2, 3, 4)) == [12, 4, 1]
    assert c_strides((5,)) == [1]


@pytest.mark.parametrize("op", ["maxpool", "depthwise"])
@pytest.mark.parametrize("tiles", [2, 3, 8])
def test_window_tile_walk_stays_inside_its_input(op, tiles):
    # The (kh, kw, oh, ow, c) input walk of a multi-tile padded window
    # must stay inside the input tile the setup loads, halo included.
    from repro.compiler.templates import _window_setup
    from repro.graph import GraphBuilder
    b = GraphBuilder("win")
    x = b.input("x", (1, 8, 12, 12), dtype="int32")
    y = (b.maxpool(x, 3, stride=1, pad=1) if op == "maxpool"
         else b.depthwise_conv(x, 3))
    graph = b.finish([y])
    node = next(n for n in graph.nodes if n.outputs[0] == y)
    ctx = _ctx(strict=False)
    c, hp, wp, kh, kw, stride, oh_t, ow, res = _window_setup(
        ctx, node, graph, tiles, 0)
    last = ((kh - 1) * wp * c + (kw - 1) * c + (oh_t - 1) * stride * wp * c
            + (ow - 1) * stride * c + (c - 1))
    assert last < prod(res.shape)
    assert res.shape == (hp, wp, c)
