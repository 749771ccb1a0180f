"""Property-based fuzzing: random graphs compile and run bit-exactly.

Hypothesis builds random small DAGs from the non-GEMM operator pool,
compiles them, executes the instruction streams on the detailed machine,
and requires bit-exact agreement with the reference executor — the
strongest whole-stack invariant the library has.

Value tensors come from ``seeded_rng(REPRO_SEED, "fuzz", drawn seed)``:
hypothesis controls the structural choices, while the single
``REPRO_SEED`` environment variable pins the data, so any failure
replays exactly from the printed example plus the seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.verifier import verify_model
from repro.compiler import ReferenceExecutor, compile_model
from repro.graph import GraphBuilder
from repro.npu import FunctionalRunner
from repro.runtime import seeded_rng

#: (method name, needs second operand, input value range)
_UNARY_POOL = [
    ("relu", (-300, 300)),
    ("clip", (-900, 900)),
    ("gelu", (-800, 800)),
    ("sigmoid", (-700, 700)),
    ("tanh", (-700, 700)),
    ("leaky_relu", (-300, 300)),
    ("softmax", (-500, 500)),
]
_BINARY_POOL = ["add", "sub", "mul", "max", "min"]


@st.composite
def random_pipelines(draw):
    """A random chain of elementwise/reduction ops with optional skips."""
    rows = draw(st.integers(2, 5))
    cols = draw(st.integers(3, 17))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("unary"),
                      st.sampled_from(range(len(_UNARY_POOL)))),
            st.tuples(st.just("binary"), st.sampled_from(_BINARY_POOL)),
        ),
        min_size=1, max_size=5))
    seed = draw(st.integers(0, 2 ** 16))
    return rows, cols, ops, seed


def pipeline_graph(case):
    """The graph a :func:`random_pipelines` example describes."""
    rows, cols, ops, _seed = case
    b = GraphBuilder("fuzz")
    x = b.input("x", (rows, cols), dtype="int32")
    current = x
    previous = x
    for kind, op in ops:
        if kind == "unary":
            name, _rng = _UNARY_POOL[op]
            previous, current = current, getattr(b, name)(current)
        elif op in ("max", "min"):
            out = b.emit(op.capitalize(), [current, previous], (rows, cols))
            previous, current = current, out
        else:
            previous, current = current, getattr(b, op)(current, previous)
    return b.finish([current])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_pipelines())
def test_random_pipeline_bit_exact(case):
    rows, cols, _ops, seed = case
    rng = seeded_rng("fuzz", seed)
    graph = pipeline_graph(case)
    data = rng.integers(-300, 300, (rows, cols))
    reference = ReferenceExecutor(graph).run({"x": data})
    model = compile_model(graph)
    # Every randomly generated lowering must survive static verification.
    assert verify_model(model).errors == 0
    # Both execution modes (point-major scalar and instruction-major
    # vectorized) must match the reference bit-for-bit.
    for fast in (False, True):
        runner = FunctionalRunner(model, fast=fast)
        outputs = runner.run({"x": data})
        np.testing.assert_array_equal(outputs[graph.graph_outputs[0]],
                                      reference[graph.graph_outputs[0]],
                                      err_msg=f"fast={fast}")


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(4, 10), st.integers(0, 2 ** 16))
def test_random_conv_block_bit_exact(channels, size, seed):
    """Random conv -> relu -> residual add blocks stay exact."""
    rng = seeded_rng("fuzz", seed)
    b = GraphBuilder("fuzz-conv")
    x = b.input("x", (1, channels, size, size), dtype="int8")
    y = b.relu(b.conv(x, channels, 3))
    z = b.add(y, y)
    graph = b.finish([z])
    bindings = {}
    for name, spec in graph.tensors.items():
        if graph.producer(name) is None:
            hi = 3 if name.startswith(("w_", "b_")) else 10
            bindings[name] = rng.integers(-hi, hi, spec.shape)
    model = compile_model(graph)
    runner = FunctionalRunner(model)
    runner.bind(bindings)
    outputs = runner.run({"x": bindings["x"]})
    reference = ReferenceExecutor(graph).run(bindings)
    np.testing.assert_array_equal(outputs[graph.graph_outputs[0]],
                                  reference[graph.graph_outputs[0]])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(4, 24), st.integers(0, 2 ** 16),
       st.booleans())
def test_random_reduction_chain_bit_exact(rows, cols, seed, end_softmax):
    """Reduction-into-broadcast chains exercise the widened fast path:
    streamed recipe temporaries plus accumulators with trailing
    consumers must stay bit-exact in both execution modes."""
    rng = seeded_rng("fuzz", seed)
    b = GraphBuilder("fuzz-red")
    x = b.input("x", (rows, cols), dtype="int32")
    mean = b.reduce_mean(x, axis=-1, keepdims=True)
    centered = b.sub(x, mean)
    out = b.softmax(centered) if end_softmax else centered
    graph = b.finish([out])
    data = rng.integers(-400, 400, (rows, cols))
    reference = ReferenceExecutor(graph).run({"x": data})
    for fast in (False, True):
        runner = FunctionalRunner(compile_model(graph), fast=fast)
        outputs = runner.run({"x": data})
        np.testing.assert_array_equal(outputs[graph.graph_outputs[0]],
                                      reference[graph.graph_outputs[0]],
                                      err_msg=f"fast={fast}")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=4),
       st.integers(0, 2 ** 16))
def test_random_transpose_chain_bit_exact(shape, seed):
    rng = seeded_rng("fuzz", seed)
    perm = list(rng.permutation(len(shape)))
    b = GraphBuilder("fuzz-perm")
    x = b.input("x", tuple(shape), dtype="int32")
    y = b.transpose(x, perm)
    graph = b.finish([y])
    data = rng.integers(-99, 99, tuple(shape))
    runner = FunctionalRunner(compile_model(graph))
    outputs = runner.run({"x": data})
    np.testing.assert_array_equal(outputs[graph.graph_outputs[0]],
                                  data.transpose(perm))
