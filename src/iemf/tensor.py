"""Dense float64 tensors and reverse-mode differentiation over a recorded tape.

The tape is append-only, so recording order doubles as topological order.
Every node caches its forward value for the backward rules. Operations
registered through `register_op` (see `neurons` for the spiking kernels) are
differentiable like the built-ins. An op registered with `saves=True` keeps
one extra forward result on its node for its backward rule. The criteria use
it to compute each softmax once:
`softmax_xent` keeps its probabilities, and `softmax_cross_entropy` hands
that same array to its caller, so the loss, its gradient and the confidence
scores all read one softmax; `distill_kl` keeps both of its softmaxes.
Each softmax takes its row maxima over a class-major copy of the logits:
along a short last axis numpy runs its reduce loop once per row, and a max
is exact in any order, so the values are those of the row-wise form.
A `Tensor` is only what an op records or reads: results that leave the tape,
those probabilities and the gradient vector `backward` returns, are numpy arrays.

Every value is checked for finiteness once: op outputs in `_run` (scalars by
`math.isfinite`), raw arrays where they enter through `Tensor(...)` or
`Tape.leaf`, and parameter gradients at the end of `backward`, as one vector;
a softmax, e / s with e in [0, 1] and s >= 1, is finite by construction.
Arrays that already passed are wrapped without a second check. Model
parameters are such arrays: checked where they are written (`MultimodalModel`,
`sgd_step`, the evaluation points of `analysis.model_objective`) and bound
unchecked, so a non-finite value written into a model some other way fails at
the first op that reads it.

`backward` computes only what some parameter reads. Each node is flagged
when it is recorded if its gradient can reach a parameter leaf (a
non-parameter leaf's never can); `backward` visits only flagged nodes and
hands each rule its inputs' flags, as PyTorch autograd hands a function
`needs_input_grad`. `linear` uses them to skip the input gradient of a batch
input, a detached latent or a cached constant. A non-parameter leaf is the
tape's only gradient stop: `detach` returns an untraced constant, which the
next op lifts as such a leaf.

Shape rules are deliberately narrow: the only broadcast is the bias-row add
in the fused affine map `linear`.

A T-step spiking layer runs its steps as one node over a (T, B, N) array,
time on the leading axis (the multi-step mode of SpikingJelly's
`SeqToANNContainer`): `linear` takes (B, K) or (T, B, K) rows, `step_mean`
averages the leading axis, and their results equal the per-step composition
bit for bit. Sums across steps run one step at a time (`_sum_steps`), in the
order a tape of single steps would add them.

Every op kind also registers a FLOPs rule over its node's shapes; `Tape.flops`
sums the rules over the ops a pass recorded (see `training.forward_flops`).
"""

from __future__ import annotations

import inspect
import math
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
    if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
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


@dataclass(slots=True)
class Node:
    op: str
    inputs: tuple[int, ...]
    value: Array
    aux: Any = None
    param_id: str | None = None
    saved: Any = None
    needs: bool = False  # whether its gradient can reach a parameter leaf


# forward(input_values, aux) -> value, a C-contiguous float64 array, or
# (value, saved) for an op registered with saves=True;
# backward(out_grad, out_value, input_values, aux, needs[, saved]) -> one
# gradient (or None) per input, where `needs` holds one bool per input: False
# where no parameter reads that input's gradient, so the rule may return None;
# flops(out_value, input_values, aux) -> the FLOPs of one node's forward.
ForwardRule = Callable[[list[Array], Any], Any]
BackwardRule = Callable[..., list[Array | None]]
FlopsRule = Callable[[Array, list[Array], Any], int]


@dataclass(frozen=True)
class OpRule:
    forward: ForwardRule
    backward: BackwardRule
    flops: FlopsRule
    saves: bool = False


_OPS: dict[str, OpRule] = {}


def register_op(name: str, forward: ForwardRule, backward: BackwardRule, flops: FlopsRule,
                saves: bool = False) -> None:
    """Register an op kind; `backward` and `flops` must accept the argument
    lists above.

    Its `needs` flags let a rule skip gradients no parameter reads; a gradient
    returned for an input whose flag is False is dropped, never accumulated.
    """
    if name in _OPS:
        raise ContractError(f"operation {name!r} is already registered")
    for kind, rule, params in (
        ("backward", backward,
         "out_grad, out_value, input_values, aux, needs" + (", saved" if saves else "")),
        ("flops", flops, "out_value, input_values, aux"),
    ):
        try:
            inspect.signature(rule).bind(*(None,) * len(params.split(", ")))
        except TypeError as exc:
            raise ContractError(f"{kind} rule of {name!r} must take ({params}): {exc}") from None
    _OPS[name] = OpRule(forward, backward, flops, saves)


class Tape:
    """Append-only operation record; node order equals topological order."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, data, param_id: str | None = None) -> Tensor:
        return self.checked_leaf(as_tensor(data).data, param_id)

    def checked_leaf(self, arr: Array, param_id: str | None = None) -> Tensor:
        """`leaf` of an array that already passed the finiteness check."""
        nid = len(self.nodes)
        self.nodes.append(Node("leaf", (), arr, None, param_id, None, param_id is not None))
        return Tensor._checked(arr, self, nid)

    def flops(self) -> int:
        """The FLOPs rules of the recorded ops summed; leaves cost nothing."""
        nodes = self.nodes
        return sum(_OPS[n.op].flops(n.value, [nodes[i].value for i in n.inputs], n.aux)
                   for n in nodes if n.op != "leaf")


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
    # a constant becomes a leaf, so `backward` reads it as an input value
    ids = tuple([t.node if t.tape is tape else tape.checked_leaf(t.data).node for t in operands])
    nodes, nid = tape.nodes, len(tape.nodes)
    nodes.append(Node(op, ids, value, aux, None, saved, any([nodes[i].needs for i in ids])))
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


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _apply("add", (a, b))


def smul(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar held constant on the tape."""
    return _apply("smul", (as_tensor(a),), float(c))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x W^T + b: (B,K) rows, or (T,B,K) steps of them, through
    (N,K) weights plus an (N,) bias row.

    One node whose forward and backward evaluate exactly what the unfused
    per-step composition, the product x_t W^T and then a row-broadcast bias
    add, does, so the results are bit-identical: `np.matmul` runs a stacked
    product as one 2-D product per step, and the backward sums the weight
    and bias gradients from the last step down, in the order the tape would
    add them.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim not in (2, 3) or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"linear needs (B,K) or (T,B,K), (N,K), (N,), got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeError(f"linear shapes disagree: {x.shape} x {w.shape}^T + {b.shape}")
    return _apply("linear", (x, w, b))


def step_mean(a: Tensor) -> Tensor:
    """Mean over the leading (step) axis of a (T,B,N) tensor, the steps added
    in step order then scaled by 1/T; a (B,N) tensor is one step and is
    returned as it is, without a tape node."""
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"step_mean needs (B,N) or (T,B,N), got {a.shape}")
    return a if a.data.ndim == 2 else _apply("step_mean", (a,))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Join along the last axis; every leading axis must match."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_cols needs matching leading shapes, got {a.shape} and {b.shape}")
    return _apply("concat_cols", (a, b), a.shape[-1])


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
    """The value of `a` as an untraced constant sharing its array: no node is
    recorded, and an op that reads it lifts it as a non-parameter leaf, which
    stops the gradient. A constant may be read on any tape."""
    return Tensor._checked(as_tensor(a).data)


def _check_labels(labels, n_rows: int, n_classes: int) -> Array:
    """Labels as one int64 array (a 1-D int64 one as it is); non-integer values
    truncate as `int()` does."""
    int64 = type(labels) is np.ndarray and labels.dtype == np.int64 and labels.ndim == 1
    y = labels if int64 else np.asarray(labels).reshape(-1)
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
    return y if int64 else np.array(y, dtype=np.int64)


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[Tensor, Array]:
    """Mean of -ln softmax(logits)[y] over the batch.

    Returns (scalar loss, per-sample probabilities). The op computes the
    softmax once and keeps it for its backward rule; the probabilities
    returned are that kept array itself, a plain (B,M) array: they feed
    confidence probes, never gradients.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2 or logits.shape[0] == 0 or logits.shape[1] == 0:
        raise ShapeError(f"cross entropy needs a non-empty (B,M) tensor, got {logits.shape}")
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    loss, probs = _run("softmax_xent", (logits,), labels)
    return _record("softmax_xent", (logits,), loss, labels, probs), probs


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
    # numpy runs its reduce loop once per short row; over a class-major copy
    # the maxima are one vectorised pass, and a max is exact in any order
    shifted = x - np.ascontiguousarray(x.T).max(axis=0)[:, None]
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def _fwd_softmax_xent(ins, labels):
    """FLOPs: max-shift, exp, sum and normalise per logit; pick, log and mean per row."""
    shifted, e, s = _softmax_parts(ins[0])
    picked = shifted[np.arange(shifted.shape[0]), labels] - np.log(s)[:, 0]
    return np.asarray(-(picked.sum() / picked.shape[0])), e / s


def _fwd_distill_kl(ins, temperature):
    """FLOPs, 16 per logit pair: two 1/T scalings, two softmax parts (max-shift,
    exp, sum), two log-softmax subtractions, the teacher's exp, the log-ratio,
    its weighting, the row sum and the two normalisations; 3 per row: two logs
    and the mean."""
    sh_new, e_new, s_new = _softmax_parts(ins[0] / temperature)
    sh_old, e_old, s_old = _softmax_parts(ins[1] / temperature)
    ls_new = sh_new - np.log(s_new)
    ls_old = sh_old - np.log(s_old)
    p_old = np.exp(ls_old)
    kl = (p_old * (ls_old - ls_new)).sum(axis=1)
    return np.asarray(kl.mean()), (e_new / s_new, e_old / s_old)


# ---------------------------------------------------------------------------
# backward rules


def _sum_steps(stack: Array, last_first: bool = False) -> Array:
    """The leading-axis slices of `stack` added one at a time, in step order
    or from the last step down. `stack.sum(axis=0)` would not do: over 8 or
    more one-element steps numpy sums pairwise, and the bits move."""
    steps = stack[::-1] if last_first else stack
    total = steps[0]
    for step in steps[1:]:
        total = total + step
    return total


def _linear_values(ins, aux):
    x, w, b = ins
    out = np.matmul(x, np.ascontiguousarray(w.T))
    out += b
    return out


def _bwd_linear(g, out, ins, aux, needs):
    x, w, _ = ins
    # through the copy's transposed view, not `w`: that picks another BLAS call, and other bits
    gx = np.matmul(g, np.ascontiguousarray(w.T).T) if needs[0] else None
    gw, gb = np.swapaxes(x, -1, -2) @ g, g.sum(axis=-2)
    if g.ndim == 3:
        gw, gb = _sum_steps(gw, last_first=True), _sum_steps(gb, last_first=True)
    return [gx, np.ascontiguousarray(gw.T), gb]


def _bwd_step_mean(g, out, ins, aux, needs):
    steps = ins[0].shape[0]
    return [np.tile(g * (1.0 / steps), (steps, 1, 1))]


def _bwd_concat_cols(g, out, ins, aux, needs):
    split = aux
    return [np.ascontiguousarray(g[..., :split]), np.ascontiguousarray(g[..., split:])]


def _bwd_select_cols(g, out, ins, aux, needs):
    grad = np.zeros_like(ins[0])
    np.add.at(grad, (slice(None), list(aux)), g)
    return [grad]


def _bwd_softmax_xent(g, out, ins, labels, needs, probs):
    b = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    grad *= float(g) / b
    return [grad]


def _bwd_distill_kl(g, out, ins, temperature, needs, saved):
    p_new, p_old = saved
    scale = float(g) / (ins[0].shape[0] * temperature)
    return [(p_new - p_old) * scale, None]


register_op("add", lambda ins, aux: ins[0] + ins[1], lambda g, out, ins, aux, needs: [g, g],
            lambda out, ins, aux: out.size)
register_op("smul", lambda ins, aux: ins[0] * aux, lambda g, out, ins, aux, needs: [g * aux],
            lambda out, ins, aux: out.size)
# a multiply and an add per inner-product term, plus the bias add
register_op("linear", _linear_values, _bwd_linear,
            lambda out, ins, aux: out.size * (2 * ins[0].shape[-1] + 1))
register_op("step_mean", lambda ins, aux: _sum_steps(ins[0]) * (1.0 / ins[0].shape[0]),
            _bwd_step_mean, lambda out, ins, aux: ins[0].size)
register_op("concat_cols", lambda ins, aux: np.concatenate([ins[0], ins[1]], axis=-1),
            _bwd_concat_cols, lambda out, ins, aux: 0)
register_op("select_cols", lambda ins, aux: np.ascontiguousarray(ins[0][:, list(aux)]),
            _bwd_select_cols, lambda out, ins, aux: 0)
register_op("softmax_xent", _fwd_softmax_xent, _bwd_softmax_xent,
            lambda out, ins, aux: ins[0].shape[0] * (4 * ins[0].shape[1] + 3), saves=True)
register_op("distill_kl", _fwd_distill_kl, _bwd_distill_kl,
            lambda out, ins, aux: ins[0].shape[0] * (16 * ins[0].shape[1] + 3), saves=True)


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, seed: Tensor) -> Array:
    """d(seed)/d(param) for every parameter leaf on the tape, as one vector.

    The seed must be a scalar node of this tape. Each node carries the
    needs-gradient flag it was recorded with: a parameter leaf needs one, a
    non-parameter leaf (a constant, or a detached value) needs none, and any
    other node needs one if any of its inputs does. The reverse pass visits
    only flagged nodes, hands each rule its inputs' flags, and accumulates
    only flagged inputs' gradients. Returns each parameter leaf's gradient
    flattened, in leaf order, zero where the seed does not depend on the
    leaf, checked once; for a tape bound by `model.bind_params` that is the
    layout of `model.flat`, and `model.holding(grad).params` names the parts.
    """
    if seed.tape is not tape or seed.node is None:
        raise ContractError("seed is not recorded on this tape")
    if seed.data.shape != ():
        raise ContractError(f"seed must be scalar, got shape {seed.data.shape}")
    nodes = tape.nodes
    adjoints: list[Array | None] = [None] * (seed.node + 1)
    if nodes[seed.node].needs:
        adjoints[seed.node] = np.ones((), dtype=np.float64)
    for nid in range(seed.node, -1, -1):
        out_grad = adjoints[nid]
        if out_grad is None:  # needs no gradient, or the seed does not depend on it
            continue
        node = nodes[nid]
        if node.op == "leaf":
            continue
        in_values = [nodes[i].value for i in node.inputs]
        in_needs = [nodes[i].needs for i in node.inputs]
        rule = _OPS[node.op]
        if rule.saves:
            in_grads = rule.backward(out_grad, node.value, in_values, node.aux, in_needs,
                                     node.saved)
        else:
            in_grads = rule.backward(out_grad, node.value, in_values, node.aux, in_needs)
        adjoints[nid] = None  # read by its rule; parameter leaves keep theirs
        for iid, need, g in zip(node.inputs, in_needs, in_grads):
            if g is None or not need:
                continue
            adjoints[iid] = g if adjoints[iid] is None else adjoints[iid] + g
    params = [(nid, node.value.size) for nid, node in enumerate(nodes)
              if node.op == "leaf" and node.param_id is not None]
    grad, offset = np.zeros(sum([size for _, size in params])), 0
    for nid, size in params:
        if nid <= seed.node and adjoints[nid] is not None:
            grad[offset:offset + size] = adjoints[nid].reshape(-1)
        offset += size
    _require_finite(grad, "backward")
    return grad
