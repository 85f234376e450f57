"""Tape ops and a replay check that only the tests use.

No program path records `matmul`, `transpose`, `add_bias`, `mul` or
`sum_all`: the model runs every affine map through the fused `linear`, the
continual-learning class mask is a constant (B, C) addend of `add`, and every
loss term is already a scalar (`softmax_xent`, `distill_kl`), combined by
`add` and `smul`. The tests use them to spell out the unfused composition a
fused op must match bit for bit, and to reduce an output to a scalar seed.
They are registered through the public `register_op`, which rejects a second
registration of one name, so import this module under this one name only.
"""

import numpy as np

import iemf.tensor as T
from iemf.errors import ShapeError
from iemf.tensor import Tape, Tensor, register_op

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C[i,j] = sum_p A[i,p] B[p,j] for 2-D operands."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return T._apply("matmul", (a, b))


def transpose(a: Tensor) -> Tensor:
    a = T.as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return T._apply("transpose", (a,))


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast bias add: (B,N) + (N,)."""
    m, bias = T.as_tensor(m), T.as_tensor(bias)
    if m.data.ndim != 2 or bias.data.ndim != 1 or m.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias needs (B,N)+(N,), got {m.shape} and {bias.shape}")
    return T._apply("add_bias", (m, bias))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    return T._apply("mul", (a, b))


def sum_all(a: Tensor) -> Tensor:
    return T._apply("sum_all", (T.as_tensor(a),))


def _bwd_matmul(g, out, ins, aux, needs):
    a, b = ins
    return [g @ b.T, a.T @ g]


def _bwd_add_bias(g, out, ins, aux, needs):
    return [g, g.sum(axis=0) if needs[1] else None]


def _bwd_sum_all(g, out, ins, aux, needs):
    return [np.full(ins[0].shape, float(g))]


register_op("matmul", lambda ins, aux: ins[0] @ ins[1], _bwd_matmul)
register_op(
    "transpose",
    lambda ins, aux: np.ascontiguousarray(ins[0].T),
    lambda g, out, ins, aux, needs: [np.ascontiguousarray(g.T)],
)
register_op("add_bias", lambda ins, aux: ins[0] + ins[1], _bwd_add_bias)
register_op(
    "mul",
    lambda ins, aux: ins[0] * ins[1],
    lambda g, out, ins, aux, needs: [g * ins[1], g * ins[0]],
)
register_op("sum_all", lambda ins, aux: np.asarray(ins[0].sum()), _bwd_sum_all)


def replay_forward(tape: Tape) -> bool:
    """Recompute every non-leaf node from its recorded inputs.

    Returns True iff all recomputed values are bit-identical to the cached
    ones; an op registered with saves=True is compared on its value only.
    The tape itself is never modified.
    """
    ok = True
    for node in tape.nodes:
        if node.op == "leaf":
            continue
        ins = [tape.nodes[i].value for i in node.inputs]
        rule = T._OPS[node.op]
        value = rule.forward(ins, node.aux)
        if rule.saves:
            value = value[0]
        if value.shape != node.value.shape or not np.array_equal(value, node.value):
            ok = False
    return ok
