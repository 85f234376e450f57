"""Dense float64 tensors and reverse-mode differentiation over a recorded tape.

The tape is append-only, so recording order doubles as topological order.
Every node caches its forward value; `replay_forward` recomputes the whole
recording and certifies bit-identical results. Operations registered through
`register_op` (see `neurons` for the spiking kernels) are replayable and
differentiable like the built-ins. An op registered with `saves=True` keeps
one extra forward result on its node for its backward rule; replay compares
values only. The criteria use it to compute each softmax once:
`softmax_xent` keeps its probabilities, and `softmax_cross_entropy` hands
that same array to its caller, so the loss, its gradient and the confidence
scores all read one softmax; `distill_kl` keeps both of its softmaxes.

Every value is checked for finiteness once: op outputs in `_apply`, raw
arrays where they enter through `Tensor(...)` or `Tape.leaf`, and parameter
gradients at the end of `backward`. Arrays that already passed are wrapped
without a second check.

Shape rules are deliberately narrow: the only broadcast is the bias-row add,
in `add_bias` and in the fused affine map `linear`.

A T-step spiking layer runs its steps as one node over the stacked (T*B, N)
rows, step t in rows t*B to (t+1)*B (the multi-step mode of SpikingJelly's
`SeqToANNContainer`): `linear` and `step_mean` take that step count, and
their results equal the per-step composition bit for bit.
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
    if not np.isfinite(arr).all():
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

    @classmethod
    def _checked(cls, arr: Array, tape: "Tape | None" = None, node: int | None = None) -> "Tensor":
        """Wrap a contiguous float64 array that already passed the finiteness check."""
        t = cls.__new__(cls)
        t.data, t.tape, t.node = arr, tape, node
        return t

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
    saved: Any = None


# forward(input_values, aux) -> value, a C-contiguous float64 array, or
# (value, saved) for an op registered with saves=True;
# backward(out_grad, out_value, input_values, aux[, saved]) -> one gradient
# (or None) per input.
ForwardRule = Callable[[list[Array], Any], Any]
BackwardRule = Callable[..., list[Array | None]]


@dataclass(frozen=True)
class OpRule:
    forward: ForwardRule
    backward: BackwardRule
    saves: bool = False


_OPS: dict[str, OpRule] = {}


def register_op(name: str, forward: ForwardRule, backward: BackwardRule,
                saves: bool = False) -> None:
    if name in _OPS:
        raise ContractError(f"operation {name!r} is already registered")
    _OPS[name] = OpRule(forward, backward, saves)


class Tape:
    """Append-only operation record; node order equals topological order."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, data, param_id: str | None = None) -> Tensor:
        arr = (data if isinstance(data, Tensor) else Tensor(data)).data
        nid = len(self.nodes)
        self.nodes.append(Node("leaf", (), arr, None, param_id))
        return Tensor._checked(arr, self, nid)


def _record(op: str, operands: Sequence[Tensor], value: Array, aux: Any = None,
            saved: Any = None) -> Tensor:
    tape = None
    for t in operands:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("operands were recorded on different tapes")
    if tape is None:
        return Tensor._checked(value)
    ids = tuple(
        t.node if t.tape is tape else tape.leaf(t).node  # lift constants for replay
        for t in operands
    )
    nid = len(tape.nodes)
    tape.nodes.append(Node(op, ids, value, aux, None, saved))
    return Tensor._checked(value, tape, nid)


def _run(op: str, operands: Sequence[Tensor], aux: Any = None) -> tuple[Array, Any]:
    """Forward rule and finiteness check of `_apply`: (value, saved or None)."""
    rule = _OPS[op]
    value, saved = rule.forward([t.data for t in operands], aux), None
    if rule.saves:
        value, saved = value
    _require_finite(value, op)
    return value, saved


def _apply(op: str, operands: Sequence[Tensor], aux: Any = None) -> Tensor:
    value, saved = _run(op, operands, aux)
    return _record(op, operands, value, aux, saved)


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    return _apply("mul", (a, b))


def smul(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar held constant on the tape."""
    return _apply("smul", (as_tensor(a),), float(c))


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast bias add: (B,N) + (N,)."""
    m, bias = as_tensor(m), as_tensor(bias)
    if m.data.ndim != 2 or bias.data.ndim != 1 or m.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias needs (B,N)+(N,), got {m.shape} and {bias.shape}")
    return _apply("add_bias", (m, bias))


def _check_steps(a: Tensor, steps: int, where: str) -> int:
    steps = int(steps)
    if a.data.ndim != 2 or steps < 1 or a.shape[0] % steps != 0:
        raise ShapeError(f"{where}: cannot split {a.shape} into {steps} equal row blocks")
    return steps


def linear(x: Tensor, w: Tensor, b: Tensor, steps: int = 1) -> Tensor:
    """Affine map x W^T + b: (B,K) rows through (N,K) weights plus an (N,) bias row.

    `x` stacks `steps` equal row blocks, one per time step. One node whose
    forward and backward evaluate exactly what the per-block composition of
    `add_bias(matmul(x_t, transpose(w)), b)` does, so the results are
    bit-identical: every product runs block by block, and the backward sums
    the weight and bias gradients from the last block down, in the order the
    tape would add them.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(f"linear needs (B,K), (N,K), (N,), got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeError(f"linear shapes disagree: {x.shape} x {w.shape}^T + {b.shape}")
    return _apply("linear", (x, w, b), _check_steps(x, steps, "linear"))


def step_mean(a: Tensor, steps: int) -> Tensor:
    """Mean of the `steps` equal row blocks of `a`, added in step order then
    scaled by 1/steps; one block is returned as it is, without a tape node."""
    a = as_tensor(a)
    steps = _check_steps(a, steps, "step_mean")
    return a if steps == 1 else _apply("step_mean", (a,), steps)


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


def _check_labels(labels, n_rows: int, n_classes: int) -> Array:
    """Labels as one int64 array; non-integer values truncate as `int()` does."""
    y = np.asarray(labels).reshape(-1)
    if y.dtype.kind == "f":
        y = np.trunc(y)
        bad = ~np.isfinite(y)
        if bad.any():
            int(y[bad][0])  # raises ValueError or OverflowError, as int() does
    elif y.dtype.kind not in "biu":
        y = y.astype(np.int64)
    if y.shape[0] != n_rows:
        raise ShapeError(f"expected {n_rows} labels, got {y.shape[0]}")
    bad = (y < 0) | (y >= n_classes)
    if bad.any():
        raise IndexError(f"label {int(y[bad][0])} out of range for {n_classes} classes")
    return np.array(y, dtype=np.int64)


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[Tensor, Tensor]:
    """Mean of -ln softmax(logits)[y] over the batch.

    Returns (scalar loss, per-sample probabilities). The op computes the
    softmax once and keeps it for its backward rule; the probabilities
    returned are that kept array, untraced: they feed confidence probes,
    never gradients.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2 or logits.shape[0] == 0 or logits.shape[1] == 0:
        raise ShapeError(f"cross entropy needs a non-empty (B,M) tensor, got {logits.shape}")
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    loss, probs = _run("softmax_xent", (logits,), labels)
    _require_finite(probs, "softmax_xent probabilities")
    return _record("softmax_xent", (logits,), loss, labels, probs), Tensor._checked(probs)


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


def _softmax_parts(x: Array) -> tuple[Array, Array, Array]:
    """x minus its row maxima, their exponentials, and the row sums as a column.

    softmax = e / s and log-softmax = shifted - log(s).
    """
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def _fwd_softmax_xent(ins, labels):
    shifted, e, s = _softmax_parts(ins[0])
    picked = shifted[np.arange(shifted.shape[0]), labels] - np.log(s)[:, 0]
    return np.asarray(-picked.mean()), e / s


def _fwd_distill_kl(ins, temperature):
    sh_new, e_new, s_new = _softmax_parts(ins[0] / temperature)
    sh_old, e_old, s_old = _softmax_parts(ins[1] / temperature)
    ls_new = sh_new - np.log(s_new)
    ls_old = sh_old - np.log(s_old)
    p_old = np.exp(ls_old)
    kl = (p_old * (ls_old - ls_new)).sum(axis=1)
    return np.asarray(kl.mean()), (e_new / s_new, e_old / s_old)


# ---------------------------------------------------------------------------
# backward rules


def _bwd_matmul(g, out, ins, aux):
    a, b = ins
    return [g @ b.T, a.T @ g]


def _bwd_add_bias(g, out, ins, aux):
    return [g, g.sum(axis=0)]


def _linear_values(ins, steps):
    x, w, b = ins
    wt = np.ascontiguousarray(w.T)
    # one (T*B)-row product is not bit-identical to the per-block ones at
    # every shape (one-row blocks, one- or two-column outputs)
    rows = x.shape[0] // steps
    out = np.empty((x.shape[0], w.shape[0]))
    for t in range(steps):
        np.matmul(x[t * rows:(t + 1) * rows], wt, out=out[t * rows:(t + 1) * rows])
    out += b
    return out


def _bwd_linear(g, out, ins, steps):
    x, w, _ = ins
    wt = np.ascontiguousarray(w.T)
    rows = x.shape[0] // steps
    gx = np.empty_like(x)
    gw = gb = None
    for t in range(steps - 1, -1, -1):
        blk = slice(t * rows, (t + 1) * rows)
        g_t = g[blk]
        np.matmul(g_t, wt.T, out=gx[blk])
        gw_t, gb_t = x[blk].T @ g_t, g_t.sum(axis=0)
        gw, gb = (gw_t, gb_t) if gw is None else (gw + gw_t, gb + gb_t)
    return [gx, np.ascontiguousarray(gw.T), gb]


def _step_mean_values(x: Array, steps: int) -> Array:
    rows = x.shape[0] // steps
    acc = x[:rows] + x[rows:2 * rows]
    for t in range(2, steps):
        acc = acc + x[t * rows:(t + 1) * rows]
    return acc * (1.0 / steps)


def _bwd_step_mean(g, out, ins, steps):
    return [np.tile(g * (1.0 / steps), (steps, 1))]


def _bwd_concat_cols(g, out, ins, aux):
    split = aux
    return [np.ascontiguousarray(g[:, :split]), np.ascontiguousarray(g[:, split:])]


def _bwd_select_cols(g, out, ins, aux):
    grad = np.zeros_like(ins[0])
    np.add.at(grad, (slice(None), list(aux)), g)
    return [grad]


def _bwd_sum_all(g, out, ins, aux):
    return [np.full(ins[0].shape, float(g))]


def _bwd_softmax_xent(g, out, ins, labels, probs):
    b = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    grad *= float(g) / b
    return [grad]


def _bwd_distill_kl(g, out, ins, temperature, saved):
    p_new, p_old = saved
    scale = float(g) / (ins[0].shape[0] * temperature)
    return [(p_new - p_old) * scale, None]


register_op("matmul", lambda ins, aux: ins[0] @ ins[1], _bwd_matmul)
register_op(
    "transpose",
    lambda ins, aux: np.ascontiguousarray(ins[0].T),
    lambda g, out, ins, aux: [np.ascontiguousarray(g.T)],
)
register_op("add", lambda ins, aux: ins[0] + ins[1], lambda g, out, ins, aux: [g, g])
register_op(
    "mul",
    lambda ins, aux: ins[0] * ins[1],
    lambda g, out, ins, aux: [g * ins[1], g * ins[0]],
)
register_op("smul", lambda ins, aux: ins[0] * aux, lambda g, out, ins, aux: [g * aux])
register_op("add_bias", lambda ins, aux: ins[0] + ins[1], _bwd_add_bias)
register_op("linear", _linear_values, _bwd_linear)
register_op("step_mean", lambda ins, aux: _step_mean_values(ins[0], aux), _bwd_step_mean)
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
register_op("softmax_xent", _fwd_softmax_xent, _bwd_softmax_xent, saves=True)
register_op("distill_kl", _fwd_distill_kl, _bwd_distill_kl, saves=True)


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
        rule = _OPS[node.op]
        if rule.saves:
            in_grads = rule.backward(out_grad, node.value, in_values, node.aux, node.saved)
        else:
            in_grads = rule.backward(out_grad, node.value, in_values, node.aux)
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
        arr = np.zeros_like(node.value) if g is None else _as_array(g)
        _require_finite(arr, "backward")
        grads[node.param_id] = Tensor._checked(arr)
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
        rule = _OPS[node.op]
        value = rule.forward(ins, node.aux)
        if rule.saves:
            value = value[0]
        if value.shape != node.value.shape or not np.array_equal(value, node.value):
            ok = False
    return ok
