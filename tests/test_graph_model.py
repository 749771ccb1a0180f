"""Graph container: validation, topological order, census, cost model."""

import pytest

from repro.graph import Graph, GraphBuilder, GraphError, Node, OpClass, TensorSpec
from repro.models import available_models, build_model


def _mini_graph():
    b = GraphBuilder("mini")
    x = b.input("x", (1, 2, 4, 4))
    y = b.relu(b.conv(x, 4, 3))
    z = b.add(y, y)
    return b.finish([z])


def test_validate_passes_on_builder_output():
    graph = _mini_graph()
    graph.validate()


def test_topological_order_covers_all_nodes():
    graph = _mini_graph()
    order = graph.topological_order()
    assert len(order) == len(graph.nodes)
    seen = set(graph.graph_inputs)
    for node in order:
        for inp in node.inputs:
            assert inp in seen
        seen.update(node.outputs)


def test_duplicate_tensor_rejected():
    g = Graph("g")
    g.add_tensor(TensorSpec("t", (1,)))
    with pytest.raises(GraphError, match="already defined"):
        g.add_tensor(TensorSpec("t", (2,)))


def test_duplicate_producer_rejected():
    g = Graph("g")
    g.add_tensor(TensorSpec("a", (4,)))
    g.add_tensor(TensorSpec("b", (4,)))
    g.mark_input("a")
    g.add_node(Node("n1", "Relu", ["a"], ["b"]))
    with pytest.raises(GraphError, match="produced twice"):
        g.add_node(Node("n2", "Relu", ["a"], ["b"]))


def test_dangling_input_rejected():
    g = Graph("g")
    g.add_tensor(TensorSpec("a", (4,)))
    g.add_tensor(TensorSpec("b", (4,)))
    g.add_node(Node("n1", "Relu", ["a"], ["b"]))
    with pytest.raises(GraphError):
        g.validate()


def test_undefined_tensor_rejected():
    g = Graph("g")
    g.add_tensor(TensorSpec("a", (4,)))
    g.mark_input("a")
    g.add_node(Node("n1", "Relu", ["a"], ["missing"]))
    with pytest.raises(GraphError, match="undefined tensor"):
        g.validate()


def test_non_topological_insertion_rejected():
    g = Graph("g")
    for name in ("a", "b", "c"):
        g.add_tensor(TensorSpec(name, (4,)))
    g.mark_input("a")
    g.add_node(Node("n2", "Relu", ["b"], ["c"]))
    g.add_node(Node("n1", "Relu", ["a"], ["b"]))
    with pytest.raises(GraphError, match="not topological"):
        g.validate()


def test_producer_and_consumers():
    graph = _mini_graph()
    conv = graph.nodes[0]
    out = conv.outputs[0]
    assert graph.producer(out) is conv
    consumers = graph.consumers(out)
    assert [c.op_type for c in consumers] == ["Relu"]


def test_node_reading_a_tensor_twice_consumes_it_once():
    graph = _mini_graph()
    relu_out = graph.nodes[1].outputs[0]
    assert [c.op_type for c in graph.consumers(relu_out)] == ["Add"]
    assert graph.consumers("no-such-tensor") == []


@pytest.mark.parametrize("model", available_models())
def test_consumer_index_matches_brute_force_scan(model):
    graph = build_model(model)
    for name in graph.tensors:
        assert graph.consumers(name) == \
            [n for n in graph.nodes if name in n.inputs], name


def test_class_counts_and_gemm_fraction():
    graph = _mini_graph()
    counts = graph.class_counts()
    assert counts[OpClass.GEMM] == 1
    assert counts[OpClass.ACTIVATION] == 1
    assert 0 < graph.gemm_fraction() < 1


def test_conv_cost_counts_macs():
    graph = _mini_graph()
    conv = graph.nodes[0]
    cost = graph.node_cost(conv)
    out = graph.out_spec(conv)
    # 2 * OH*OW*OC * KH*KW*IC flops.
    assert cost.flops == 2 * out.numel * 9 * 2
    assert cost.bytes_out == out.nbytes


def test_layout_ops_are_zero_flop():
    b = GraphBuilder("t")
    x = b.input("x", (1, 2, 4, 4), dtype="int32")
    y = b.transpose(x, (0, 2, 3, 1))
    g = b.finish([y])
    assert g.node_cost(g.nodes[0]).flops == 0


def test_gather_cost_does_not_count_whole_table():
    b = GraphBuilder("t")
    tokens = b.input("tok", (1, 8), dtype="int32")
    table = b.param("w_embed", (30522, 64), "int32")
    out = b.emit("Gather", [tokens], (1, 8, 64), "int32", {}, [table])
    g = b.finish([out])
    cost = g.node_cost(g.nodes[0])
    # Only the gathered rows are streamed, not the 30522-row table.
    assert cost.bytes_in < 2 * cost.bytes_out + 64


def test_total_cost_sums_nodes():
    graph = _mini_graph()
    total = graph.total_cost()
    per_node = sum(graph.node_cost(n).flops for n in graph.nodes)
    assert total.flops == per_node


def test_arithmetic_intensity():
    graph = _mini_graph()
    add = graph.nodes[-1]
    cost = graph.node_cost(add)
    assert cost.arithmetic_intensity == pytest.approx(
        cost.flops / cost.bytes_total)
