"""Add an *emerging* operator end-to-end — the paper's core thesis.

The Tandem Processor needs no new hardware for a new operator: the
compiler lowers it to primitive INT32 instructions. This example adds
HardSwish (MobileNetV3, published after many NPUs taped out):

    hardswish(x) = x * clip(x + 3, 0, 6) / 6

Steps: (1) register the operator and its fixed-point recipe, (2) reuse
the generic unary template, (3) define the reference semantics, then
compile a model containing it and validate bit-exactness on the
cycle-level machine.

Run:  python examples/emerging_operator.py
"""

import numpy as np

from repro import FunctionalRunner, GraphBuilder, ReferenceExecutor, compile_model
from repro.compiler import TEMPLATES, run_recipe
from repro.compiler.integer_ops import FRAC_BITS, Step, UNARY_RECIPES
from repro.compiler.reference import ReferenceExecutor as _Ref
from repro.graph import OpClass, OpInfo, is_registered, ops
from repro.runtime import seeded_rng


def hardswish_recipe(frac_bits: int = FRAC_BITS):
    """x * clip(x + 3, 0, 6) / 6 in Qm.f — seven primitive ops."""
    one = 1 << frac_bits
    inv6 = int(round(one / 6))
    return [
        Step("add", "t", "x", 3 * one),
        Step("max", "lo", "t", 0),
        Step("min", "hi", "lo", 6 * one),
        Step("mul", "xg", "hi", "x"),
        Step("rshift", "xgs", "xg", frac_bits),
        Step("mul", "scaled", "xgs", inv6),
        Step("rshift", "out", "scaled", frac_bits),
    ]


def register_hardswish() -> None:
    if not is_registered("HardSwish"):
        ops.register(OpInfo("HardSwish", OpClass.ACTIVATION,
                            ops_per_element=7.0))
    # The compiler's generic unary template handles any recipe-backed op.
    UNARY_RECIPES["HardSwish"] = hardswish_recipe
    TEMPLATES["HardSwish"] = TEMPLATES["Relu"]
    # Reference semantics: execute the same recipe with numpy.
    _Ref._op_hardswish = lambda self, node, values: run_recipe(
        hardswish_recipe(), values[node.inputs[0]])


def main() -> None:
    register_hardswish()

    b = GraphBuilder("hswish-net")
    x = b.input("x", (1, 8, 12, 12), dtype="int32")
    y = b.emit("HardSwish", [x], (1, 8, 12, 12), "int32")
    graph = b.finish([y])

    model = compile_model(graph)
    rng = seeded_rng("example-hardswish")
    data = rng.integers(-1024, 1024, (1, 8, 12, 12))

    runner = FunctionalRunner(model)
    outputs = runner.run({"x": data})
    reference = ReferenceExecutor(graph).run({"x": data})

    got = outputs[graph.graph_outputs[0]]
    want = reference[graph.graph_outputs[0]]
    machine = runner.total_machine_result()
    float_ref = data / 256 * np.clip(data / 256 + 3, 0, 6) / 6
    max_err = np.max(np.abs(got / 256 - float_ref))

    print("HardSwish lowered to", model.total_instructions(),
          "Tandem instructions")
    print("bit-exact vs integer reference:", np.array_equal(got, want))
    print(f"max abs error vs float hardswish: {max_err:.4f}")
    print(f"cycles: {machine.cycles}")
    if not np.array_equal(got, want):
        raise SystemExit("mismatch against the reference executor")


if __name__ == "__main__":
    main()
