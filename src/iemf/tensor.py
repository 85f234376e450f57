"""Dense float64 tensors and reverse-mode differentiation over a recorded tape.

The tape is append-only, so recording order doubles as topological order.
Every node caches its forward value; `replay_forward` recomputes the whole
recording and certifies bit-identical results. Operations registered through
`register_op` (see `neurons` for the spiking kernels) are replayable and
differentiable like the built-ins.

Shape rules are deliberately narrow: the only broadcast is the bias-row add.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

Array = np.ndarray


def _as_array(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to 1-d; 0-d is trivially contiguous
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


def _require_finite(arr: Array, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {where}")


class Tensor:
    """Dense row-major float64 array, optionally recorded on a tape.

    Tensors are treated as immutable once created; operations always
    allocate fresh arrays.
    """

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "Tape | None" = None, node: int | None = None):
        arr = _as_array(data)
        _require_finite(arr, "tensor construction")
        self.data = arr
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        where = "untraced" if self.tape is None else f"node={self.node}"
        return f"Tensor(shape={self.shape}, {where})"


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    value: Array
    aux: Any = None
    param_id: str | None = None


# forward(input_values, aux) -> value; backward(out_grad, out_value, input_values, aux)
# -> one gradient (or None) per input.
ForwardRule = Callable[[list[Array], Any], Array]
BackwardRule = Callable[[Array, Array, list[Array], Any], list[Array | None]]


@dataclass(frozen=True)
class OpRule:
    forward: ForwardRule
    backward: BackwardRule


_OPS: dict[str, OpRule] = {}


def register_op(name: str, forward: ForwardRule, backward: BackwardRule) -> None:
    if name in _OPS:
        raise ContractError(f"operation {name!r} is already registered")
    _OPS[name] = OpRule(forward, backward)


class Tape:
    """Append-only operation record; node order equals topological order."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, data, param_id: str | None = None) -> Tensor:
        t = data if isinstance(data, Tensor) else Tensor(data)
        nid = len(self.nodes)
        self.nodes.append(Node("leaf", (), t.data, None, param_id))
        return Tensor(t.data, self, nid)


def _record(op: str, operands: Sequence[Tensor], value: Array, aux: Any = None) -> Tensor:
    tape = None
    for t in operands:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("operands were recorded on different tapes")
    if tape is None:
        return Tensor(value)
    ids = tuple(
        t.node if t.tape is tape else tape.leaf(t).node  # lift constants for replay
        for t in operands
    )
    nid = len(tape.nodes)
    tape.nodes.append(Node(op, ids, value, aux))
    return Tensor(value, tape, nid)


def _apply(op: str, operands: Sequence[Tensor], aux: Any = None) -> Tensor:
    value = _OPS[op].forward([t.data for t in operands], aux)
    _require_finite(value, op)
    return _record(op, operands, value, aux)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# kernels


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C[i,j] = sum_p A[i,p] B[p,j] for 2-D operands."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return _apply("matmul", (a, b))


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _apply("transpose", (a,))


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _apply("add", (a, b))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    return _apply("sub", (a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    return _apply("mul", (a, b))


def smul(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar held constant on the tape."""
    return _apply("smul", (as_tensor(a),), float(c))


def sadd(a: Tensor, c: float) -> Tensor:
    """Add a python scalar held constant on the tape."""
    return _apply("sadd", (as_tensor(a),), float(c))


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast bias add: (B,N) + (N,). The only broadcast in the engine."""
    m, bias = as_tensor(m), as_tensor(bias)
    if m.data.ndim != 2 or bias.data.ndim != 1 or m.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias needs (B,N)+(N,), got {m.shape} and {bias.shape}")
    return _apply("add_bias", (m, bias))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols needs matching row counts, got {a.shape} and {b.shape}")
    return _apply("concat_cols", (a, b), a.shape[1])


def select_cols(a: Tensor, cols: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"select_cols needs a 2-D tensor, got {a.shape}")
    cols = tuple(int(c) for c in cols)
    if len(cols) == 0:
        raise ShapeError("select_cols needs at least one column")
    for c in cols:
        if not 0 <= c < a.shape[1]:
            raise IndexError(f"column {c} out of range for width {a.shape[1]}")
    return _apply("select_cols", (a,), cols)


def detach(a: Tensor) -> Tensor:
    """Identity in the forward pass; blocks all gradient flow."""
    return _apply("detach", (as_tensor(a),))


def sum_all(a: Tensor) -> Tensor:
    return _apply("sum_all", (as_tensor(a),))


def mean_tensors(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of same-shaped tensors via an add chain; a single
    tensor is returned as it is, without a tape node."""
    if len(tensors) == 0:
        raise ShapeError("mean_tensors needs at least one tensor")
    acc = as_tensor(tensors[0])
    if len(tensors) == 1:
        return acc
    for t in tensors[1:]:
        acc = add(acc, t)
    return smul(acc, 1.0 / len(tensors))


def softmax(v: Tensor) -> Tensor:
    """Stabilized softmax over the last axis (1-D vector or batch of rows)."""
    v = as_tensor(v)
    if v.data.ndim not in (1, 2) or v.data.size == 0 or v.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty 1-D or 2-D tensor, got {v.shape}")
    return _apply("softmax", (v,))


def _check_labels(labels, n_rows: int, n_classes: int) -> tuple[int, ...]:
    labels = tuple(int(y) for y in np.asarray(labels).reshape(-1))
    if len(labels) != n_rows:
        raise ShapeError(f"expected {n_rows} labels, got {len(labels)}")
    for y in labels:
        if not 0 <= y < n_classes:
            raise IndexError(f"label {y} out of range for {n_classes} classes")
    return labels


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[Tensor, Tensor]:
    """Mean of -ln softmax(logits)[y] over the batch.

    Returns (scalar loss, per-sample probabilities). The probabilities are
    untraced: they feed confidence probes, never gradients.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2 or logits.shape[0] == 0 or logits.shape[1] == 0:
        raise ShapeError(f"cross entropy needs a non-empty (B,M) tensor, got {logits.shape}")
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    loss = _apply("softmax_xent", (logits,), labels)
    probs = Tensor(_softmax_values(logits.data))
    return loss, probs


def distill_kl(new_logits: Tensor, old_logits: Tensor, temperature: float) -> Tensor:
    """Mean over the batch of KL(softmax(old/T) || softmax(new/T)).

    Gradient flows into `new_logits` only; the reference logits are constants.
    """
    new_logits, old_logits = as_tensor(new_logits), as_tensor(old_logits)
    if new_logits.data.ndim != 2 or new_logits.shape != old_logits.shape:
        raise ShapeError(
            f"distill_kl needs matching (B,C) tensors, got {new_logits.shape} and {old_logits.shape}"
        )
    if new_logits.shape[0] == 0 or new_logits.shape[1] == 0:
        raise ShapeError("distill_kl needs a non-empty tensor")
    temperature = float(temperature)
    if temperature <= 0.0:
        raise ContractError("distillation temperature must be positive")
    return _apply("distill_kl", (new_logits, detach(old_logits)), temperature)


# ---------------------------------------------------------------------------
# value helpers shared by forward + backward rules


def _softmax_values(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_values(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _xent_values(logits: Array, labels) -> Array:
    b = logits.shape[0]
    ls = _log_softmax_values(logits)
    picked = ls[np.arange(b), list(labels)]
    return np.asarray(-picked.mean())


def _distill_values(new: Array, old: Array, temperature: float) -> Array:
    ls_new = _log_softmax_values(new / temperature)
    ls_old = _log_softmax_values(old / temperature)
    p_old = np.exp(ls_old)
    kl = (p_old * (ls_old - ls_new)).sum(axis=1)
    return np.asarray(kl.mean())


# ---------------------------------------------------------------------------
# backward rules


def _bwd_matmul(g, out, ins, aux):
    a, b = ins
    return [g @ b.T, a.T @ g]


def _bwd_add_bias(g, out, ins, aux):
    return [g, g.sum(axis=0)]


def _bwd_concat_cols(g, out, ins, aux):
    split = aux
    return [np.ascontiguousarray(g[:, :split]), np.ascontiguousarray(g[:, split:])]


def _bwd_select_cols(g, out, ins, aux):
    grad = np.zeros_like(ins[0])
    np.add.at(grad, (slice(None), list(aux)), g)
    return [grad]


def _bwd_sum_all(g, out, ins, aux):
    return [np.full(ins[0].shape, float(g))]


def _bwd_softmax(g, out, ins, aux):
    inner = (g * out).sum(axis=-1, keepdims=True)
    return [out * (g - inner)]


def _bwd_softmax_xent(g, out, ins, aux):
    logits = ins[0]
    labels = list(aux)
    probs = _softmax_values(logits)
    grad = probs.copy()
    grad[np.arange(logits.shape[0]), labels] -= 1.0
    return [grad * (float(g) / logits.shape[0])]


def _bwd_distill_kl(g, out, ins, aux):
    new, old = ins
    temperature = aux
    p_new = _softmax_values(new / temperature)
    p_old = _softmax_values(old / temperature)
    scale = float(g) / (new.shape[0] * temperature)
    return [(p_new - p_old) * scale, None]


register_op("matmul", lambda ins, aux: ins[0] @ ins[1], _bwd_matmul)
register_op(
    "transpose",
    lambda ins, aux: np.ascontiguousarray(ins[0].T),
    lambda g, out, ins, aux: [np.ascontiguousarray(g.T)],
)
register_op("add", lambda ins, aux: ins[0] + ins[1], lambda g, out, ins, aux: [g, g])
register_op("sub", lambda ins, aux: ins[0] - ins[1], lambda g, out, ins, aux: [g, -g])
register_op(
    "mul",
    lambda ins, aux: ins[0] * ins[1],
    lambda g, out, ins, aux: [g * ins[1], g * ins[0]],
)
register_op("smul", lambda ins, aux: ins[0] * aux, lambda g, out, ins, aux: [g * aux])
register_op("sadd", lambda ins, aux: ins[0] + aux, lambda g, out, ins, aux: [g])
register_op("add_bias", lambda ins, aux: ins[0] + ins[1], _bwd_add_bias)
register_op(
    "concat_cols", lambda ins, aux: np.concatenate([ins[0], ins[1]], axis=1), _bwd_concat_cols
)
register_op(
    "select_cols",
    lambda ins, aux: np.ascontiguousarray(ins[0][:, list(aux)]),
    _bwd_select_cols,
)
register_op("detach", lambda ins, aux: ins[0], lambda g, out, ins, aux: [None])
register_op("sum_all", lambda ins, aux: np.asarray(ins[0].sum()), _bwd_sum_all)
register_op("softmax", lambda ins, aux: _softmax_values(ins[0]), _bwd_softmax)
register_op("softmax_xent", lambda ins, aux: _xent_values(ins[0], aux), _bwd_softmax_xent)
register_op("distill_kl", lambda ins, aux: _distill_values(ins[0], ins[1], aux), _bwd_distill_kl)


# ---------------------------------------------------------------------------
# reverse pass


class GradientSet(Mapping):
    """Gradients keyed by parameter id; each entry matches its parameter's shape."""

    def __init__(self, grads: dict[str, Tensor]):
        self._grads = dict(grads)

    def __getitem__(self, key: str) -> Tensor:
        return self._grads[key]

    def __iter__(self):
        return iter(self._grads)

    def __len__(self) -> int:
        return len(self._grads)

    def __repr__(self) -> str:
        return f"GradientSet({sorted(self._grads)})"


def backward(tape: Tape, seed: Tensor) -> GradientSet:
    """Accumulate d(seed)/d(param) for every parameter leaf on the tape.

    The seed must be a scalar node of this tape. Non-parameter leaves are
    skipped; parameter leaves the seed does not depend on get zero gradients.
    """
    if seed.tape is not tape or seed.node is None:
        raise ContractError("seed is not recorded on this tape")
    if seed.data.shape != ():
        raise ContractError(f"seed must be scalar, got shape {seed.data.shape}")
    adjoints: list[Array | None] = [None] * (seed.node + 1)
    adjoints[seed.node] = np.ones((), dtype=np.float64)
    for nid in range(seed.node, -1, -1):
        out_grad = adjoints[nid]
        if out_grad is None:
            continue
        node = tape.nodes[nid]
        if node.op == "leaf":
            continue
        in_values = [tape.nodes[i].value for i in node.inputs]
        in_grads = _OPS[node.op].backward(out_grad, node.value, in_values, node.aux)
        for iid, g in zip(node.inputs, in_grads):
            if g is None:
                continue
            adjoints[iid] = g if adjoints[iid] is None else adjoints[iid] + g
    grads: dict[str, Tensor] = {}
    for nid, node in enumerate(tape.nodes):
        if node.op != "leaf" or node.param_id is None:
            continue
        if node.param_id in grads:
            raise ContractError(f"parameter {node.param_id!r} bound twice on one tape")
        g = adjoints[nid] if nid <= seed.node else None
        arr = np.zeros_like(node.value) if g is None else np.asarray(g)
        _require_finite(arr, "backward")
        grads[node.param_id] = Tensor(arr)
    return GradientSet(grads)


def replay_forward(tape: Tape) -> bool:
    """Recompute every non-leaf node from its recorded inputs.

    Returns True iff all recomputed values are bit-identical to the cached
    ones. The tape itself is never modified.
    """
    ok = True
    for node in tape.nodes:
        if node.op == "leaf":
            continue
        ins = [tape.nodes[i].value for i in node.inputs]
        value = _OPS[node.op].forward(ins, node.aux)
        if value.shape != node.value.shape or not np.array_equal(value, node.value):
            ok = False
    return ok
