"""Integer-only implementations of complex non-GEMM operators.

Section 3.4 / Section 6: the Tandem Processor has no special-function
hardware; the compiler translates Softmax, GeLU, Exp, Sqrt, Sigmoid,
Tanh, ... into sequences of primitive INT32 ops following I-BERT
(Kim et al., ICML'21) and gemmlowp.

This module is the single source of truth for those algorithms, in two
forms that must agree bit-exactly:

* numpy functions (``i_exp``, ``i_gelu``, ...) — the reference executor;
* primitive-op *recipes* (:func:`exp_recipe`, ...) — sequences of
  (func, operand-roles) steps the template layer turns into loop-nest
  bodies for the machine.

All values are INT32 fixed point with ``FRAC_BITS`` fractional bits;
every step wraps to 32 bits exactly like the machine's write-back path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

# The compiler reads the recipes and constants here on every compile
# and never runs a vector op, so each op imports numpy itself.

#: Default fixed-point precision: Q23.8.
FRAC_BITS = 8

#: Additive causal-attention mask: ``-(1 << (frac_bits +
#: CAUSAL_MASK_SHIFT))`` stamped over invisible score columns — far
#: enough below any realistic row maximum that ``i_exp`` underflows to
#: exactly zero, yet small enough that the max-subtract can never wrap
#: 32 bits.
CAUSAL_MASK_SHIFT = 12

# I-BERT polynomial coefficients.
_ERF_A = -0.2888
_ERF_B = -1.769
_ERF_C = 1.0
_EXP_A = 0.3585
_EXP_B = 1.353
_EXP_C = 0.344


def to_fixed(x, frac_bits: int = FRAC_BITS):
    """Quantize a float (array) to fixed point."""
    import numpy as np
    return np.round(np.asarray(x, dtype=np.float64) * (1 << frac_bits)).astype(
        np.int64)


def from_fixed(x, frac_bits: int = FRAC_BITS):
    """Fixed-point words back to floats (testing convenience)."""
    import numpy as np
    return np.asarray(x, dtype=np.float64) / (1 << frac_bits)


# ---------------------------------------------------------------------------
# Primitive semantics, vectorized, with INT32 wraparound — these mirror
# repro.simulator.alu exactly.
# ---------------------------------------------------------------------------
def w32(x):
    """Wrap to signed 32-bit two's-complement range."""
    import numpy as np
    x = np.asarray(x, dtype=np.int64) & 0xFFFFFFFF
    return np.where(x >= 1 << 31, x - (1 << 32), x).astype(np.int64)


def v_add(a, b):
    """Elementwise ADD at 32-bit wraparound."""
    import numpy as np
    return w32(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64))


def v_sub(a, b):
    """Elementwise SUB at 32-bit wraparound."""
    import numpy as np
    return w32(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64))


def v_mul(a, b):
    # 64-bit internal product, wrapped at write-back.
    """Elementwise MUL at 32-bit wraparound."""
    import numpy as np
    return w32(np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64))


def v_div(a, b):
    """Elementwise truncating DIV (zero divisor saturates to +/-INT_MAX)."""
    import numpy as np
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    sat = np.where(a >= 0, (1 << 31) - 1, -(1 << 31))
    safe_b = np.where(b == 0, 1, b)
    q = np.abs(a) // np.abs(safe_b)
    q = np.where((a < 0) != (b < 0), -q, q)
    return w32(np.where(b == 0, sat, q))


def v_rshift(a, n):
    """Arithmetic right shift."""
    import numpy as np
    return np.asarray(a, dtype=np.int64) >> (np.asarray(n, dtype=np.int64) & 31)


def v_lshift(a, n):
    """Left shift at 32-bit wraparound."""
    import numpy as np
    return w32(np.asarray(a, dtype=np.int64) << (np.asarray(n, dtype=np.int64) & 31))


def v_max(a, b):
    """Elementwise maximum."""
    import numpy as np
    return np.maximum(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def v_min(a, b):
    """Elementwise minimum."""
    import numpy as np
    return np.minimum(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def v_and(a, b):
    """Bitwise AND."""
    import numpy as np
    return w32(np.asarray(a, dtype=np.int64) & np.asarray(b, dtype=np.int64))


def v_or(a, b):
    """Bitwise OR."""
    import numpy as np
    return w32(np.asarray(a, dtype=np.int64) | np.asarray(b, dtype=np.int64))


def v_abs(a):
    """Elementwise absolute value."""
    import numpy as np
    return w32(np.abs(np.asarray(a, dtype=np.int64)))


def v_sign(a):
    """Elementwise sign (-1, 0, +1)."""
    import numpy as np
    return np.sign(np.asarray(a, dtype=np.int64)).astype(np.int64)


def v_neg(a):
    """Elementwise negation."""
    import numpy as np
    return w32(-np.asarray(a, dtype=np.int64))


# ---------------------------------------------------------------------------
# Recipe representation: a straight-line program over named values.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Step:
    """One primitive op: ``out = func(a, b)``.

    ``a``/``b`` name earlier values: the literal string "x" is the recipe
    input; other strings are intermediates; integers are fixed-point
    immediate constants (placed in IMM BUF by the lowering pass).
    """

    func: str              # AluFunc/CalculusFunc name, lower-case
    out: str
    a: Union[str, int]
    b: Union[str, int, None] = None


_NUMPY_FUNCS = {
    "add": v_add, "sub": v_sub, "mul": v_mul, "div": v_div,
    "max": v_max, "min": v_min, "rshift": v_rshift, "lshift": v_lshift,
    "abs": v_abs, "sign": v_sign, "neg": v_neg, "and": v_and, "or": v_or,
}


def run_recipe(steps: List[Step], x):
    """Execute a recipe with numpy — the bit-exact reference."""
    import numpy as np
    values: Dict[str, np.ndarray] = {"x": np.asarray(x, dtype=np.int64)}

    def resolve(ref):
        if isinstance(ref, str):
            return values[ref]
        return np.int64(ref)

    result = values["x"]
    for step in steps:
        fn = _NUMPY_FUNCS[step.func]
        if step.func in ("abs", "sign", "neg"):
            result = fn(resolve(step.a))
        else:
            result = fn(resolve(step.a), resolve(step.b))
        values[step.out] = result
    return result


def _inline(steps: List[Step], prefix: str, x: str) -> List[Step]:
    """Re-target a nested recipe: its input ``"x"`` reads ``x`` and
    every intermediate (and its ``out``) gets ``prefix``, so the names
    do not collide with the enclosing recipe's."""
    def ref(name):
        if not isinstance(name, str):
            return name
        return x if name == "x" else prefix + name
    return [Step(step.func, prefix + step.out, ref(step.a), ref(step.b))
            for step in steps]


# ---------------------------------------------------------------------------
# Recipes for each complex operator.
# ---------------------------------------------------------------------------
def exp_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """I-BERT integer exp for x <= 0 (clamped): ~11 primitive ops.

    exp(r) on r in (-ln2, 0] is approximated by A(r + B)^2 + C, then the
    range-reduction shift 2^-z is applied with an arithmetic shift.
    """
    one = 1 << frac_bits
    ln2 = int(round(math.log(2) * one))
    a = int(round(_EXP_A * one))
    b = int(round(_EXP_B * one))
    c = int(round(_EXP_C * one))
    return [
        Step("min", "xc0", "x", 0),             # clamp to the supported range
        Step("max", "xc", "xc0", -30 * ln2),    # below this exp(x) == 0 in Qf
        Step("neg", "nx", "xc"),
        Step("div", "z0", "nx", ln2),           # z = floor(-x / ln2)
        Step("min", "z", "z0", 30),             # barrel shifter is 5 bits wide
        Step("mul", "zl", "z", ln2),
        Step("add", "r", "xc", "zl"),           # r = x + z*ln2  in (-ln2, 0]
        Step("add", "t", "r", b),
        Step("mul", "t2", "t", "t"),
        Step("rshift", "t2s", "t2", frac_bits),
        Step("mul", "p", "t2s", a),
        Step("rshift", "ps", "p", frac_bits),
        Step("add", "e", "ps", c),
        Step("rshift", "out", "e", "z"),        # exp(x) = poly(r) >> z
    ]


def erf_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """I-BERT integer erf: sign(x) * (a * (min(|x|, -b) + b)^2 + c)."""
    one = 1 << frac_bits
    a = int(round(_ERF_A * one))
    b = int(round(_ERF_B * one))
    c = int(round(_ERF_C * one))
    return [
        Step("abs", "ax", "x"),
        Step("min", "q", "ax", -b),
        Step("add", "t", "q", b),
        Step("mul", "t2", "t", "t"),
        Step("rshift", "t2s", "t2", frac_bits),
        Step("mul", "p", "t2s", a),
        Step("rshift", "ps", "p", frac_bits),
        Step("add", "l", "ps", c),
        Step("sign", "s", "x"),
        Step("mul", "out", "l", "s"),
    ]


def gelu_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """GeLU(x) = x * (1 + erf(x / sqrt(2))) / 2.

    This is the decomposition the paper quotes ("five multiplications,
    three additions, a sign, an absolute, and a minimum") with the
    fixed-point rescaling shifts made explicit.
    """
    one = 1 << frac_bits
    inv_sqrt2 = int(round(one / math.sqrt(2)))
    steps = [
        Step("mul", "y0", "x", inv_sqrt2),
        Step("rshift", "y", "y0", frac_bits),
    ]
    steps += _inline(erf_recipe(frac_bits), "g_", "y")
    steps += [
        Step("add", "h", "g_out", one),
        Step("mul", "xh", "h", "x"),
        Step("rshift", "out", "xh", frac_bits + 1),
    ]
    return steps


def sigmoid_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """sigma(x) = p / (1 + p) with p = i_exp(-|x|), mirrored by sign.

    For x >= 0: sigma = 1 / (1 + p) = 1 - p/(1+p); the mirror is applied
    with sign/compare-free arithmetic: out = neg_branch + is_pos * (one -
    2 * neg_branch) ... implemented with max/sign primitives.
    """
    one = 1 << frac_bits
    steps = [
        Step("abs", "ax", "x"),
        Step("neg", "nax", "ax"),
    ]
    steps += _inline(exp_recipe(frac_bits), "e_", "nax")
    steps += [
        Step("add", "den", "e_out", one),              # 1 + p
        Step("lshift", "num", "e_out", frac_bits),
        Step("div", "neg_branch", "num", "den"),       # p/(1+p)  == sigma(-|x|)
        Step("sign", "s", "x"),
        Step("max", "is_pos", "s", 0),                 # 1 if x > 0 else 0
        Step("sub", "mirror", one, "neg_branch"),      # sigma(|x|)
        Step("sub", "delta", "mirror", "neg_branch"),
        Step("mul", "sel", "delta", "is_pos"),
        Step("add", "out", "neg_branch", "sel"),
    ]
    return steps


def silu_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """SiLU(x) = x * sigma(x) — the gate activation inside SwiGLU."""
    return _inline(sigmoid_recipe(frac_bits), "s_", "x") + [
        Step("mul", "xs", "s_out", "x"),
        Step("rshift", "out", "xs", frac_bits),
    ]


def tanh_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """tanh(x) = 2 * sigma(2x) - 1."""
    one = 1 << frac_bits
    steps = [Step("lshift", "x2", "x", 1)]
    steps += _inline(sigmoid_recipe(frac_bits), "t_", "x2")
    steps += [
        Step("lshift", "sig2", "t_out", 1),
        Step("sub", "out", "sig2", one),
    ]
    return steps


def sqrt_recipe(frac_bits: int = FRAC_BITS, iterations: int = 16) -> List[Step]:
    """Newton iterations on y' = (y + x/y) / 2 (gemmlowp style).

    Produces sqrt in the same Qm.f format: out = sqrt(x * 2^f) since
    sqrt(v * 2^f) * 2^(f/2) ... we fold the format correction by first
    shifting x left by ``frac_bits`` so that out has ``frac_bits``
    fractional bits again.
    """
    steps = [
        Step("lshift", "xs", "x", frac_bits),
        Step("rshift", "y0", "xs", 1),
        Step("max", "y", "y0", 1),  # avoid divide-by-zero on tiny inputs
    ]
    prev = "y"
    for i in range(iterations):
        steps += [
            Step("div", f"q{i}", "xs", prev),
            Step("add", f"s{i}", prev, f"q{i}"),
            Step("rshift", f"y{i + 1}", f"s{i}", 1),
        ]
        prev = f"y{i + 1}"
    steps.append(Step("max", "out", prev, 0))
    return steps


def reciprocal_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """1/x in fixed point: (1 << 2f) / x."""
    return [
        Step("lshift", "one2f", 1, 2 * frac_bits),
        Step("div", "out", "one2f", "x"),
    ]


def leaky_relu_recipe(alpha: float, frac_bits: int = FRAC_BITS) -> List[Step]:
    """max(x, 0) + alpha * min(x, 0) with a fixed-point alpha."""
    a = int(round(alpha * (1 << frac_bits)))
    return [
        Step("max", "pos", "x", 0),
        Step("min", "neg", "x", 0),
        Step("mul", "scaled", "neg", a),
        Step("rshift", "scaled_s", "scaled", frac_bits),
        Step("add", "out", "pos", "scaled_s"),
    ]


def relu_recipe() -> List[Step]:
    """ReLU as MAX against zero."""
    return [Step("max", "out", "x", 0)]


def floor_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """Clear the fractional bits (arithmetic AND with the integer mask)."""
    return [Step("and", "out", "x", -(1 << frac_bits))]


def ceil_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """Ceiling via add-then-mask at the fixed-point fraction boundary."""
    return [
        Step("add", "up", "x", (1 << frac_bits) - 1),
        Step("and", "out", "up", -(1 << frac_bits)),
    ]


def abs_recipe() -> List[Step]:
    """Absolute value as a single CALCULUS step."""
    return [Step("abs", "out", "x")]


def sign_recipe() -> List[Step]:
    """Sign extraction as a single CALCULUS step."""
    return [Step("sign", "out", "x")]


def square_recipe(frac_bits: int = FRAC_BITS) -> List[Step]:
    """Pow with exponent 2 (the only Pow the benchmarks use: LayerNorm)."""
    return [
        Step("mul", "sq", "x", "x"),
        Step("rshift", "out", "sq", frac_bits),
    ]


def clip_recipe(lo: int, hi: int) -> List[Step]:
    """Clamp into [lo, hi] via MIN/MAX steps."""
    return [
        Step("max", "low", "x", lo),
        Step("min", "out", "low", hi),
    ]


#: Unary operators the template layer resolves through recipes.
UNARY_RECIPES = {
    "Exp": exp_recipe,
    "Erf": erf_recipe,
    "Gelu": gelu_recipe,
    "Sigmoid": sigmoid_recipe,
    "Silu": silu_recipe,
    "Tanh": tanh_recipe,
    "Sqrt": sqrt_recipe,
    "Reciprocal": reciprocal_recipe,
}


# Convenience bit-exact reference entry points.
def i_exp(x, frac_bits: int = FRAC_BITS):
    """Integer-only exponential (I-BERT-style polynomial)."""
    return run_recipe(exp_recipe(frac_bits), x)


def i_erf(x, frac_bits: int = FRAC_BITS):
    """Integer-only error function for i_gelu."""
    return run_recipe(erf_recipe(frac_bits), x)


def i_gelu(x, frac_bits: int = FRAC_BITS):
    """Integer-only GeLU: x * (1 + erf(x/sqrt(2))) / 2."""
    return run_recipe(gelu_recipe(frac_bits), x)


def i_sigmoid(x, frac_bits: int = FRAC_BITS):
    """Integer-only sigmoid via i_exp."""
    return run_recipe(sigmoid_recipe(frac_bits), x)


def i_tanh(x, frac_bits: int = FRAC_BITS):
    """Integer-only tanh via i_exp."""
    return run_recipe(tanh_recipe(frac_bits), x)


def i_sqrt(x, frac_bits: int = FRAC_BITS):
    """Integer-only square root (Newton iterations)."""
    return run_recipe(sqrt_recipe(frac_bits), x)


def i_reciprocal(x, frac_bits: int = FRAC_BITS):
    """Integer-only reciprocal (Newton iterations)."""
    return run_recipe(reciprocal_recipe(frac_bits), x)
