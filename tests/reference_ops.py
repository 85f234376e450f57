"""Tape ops, a replay check, the per-step compositions of the stacked step
ops, the hand-written FLOPs count of the network, gradients named by
parameter leaf, the dense finite-difference Hessian and the per-parameter SGD
update: references that only the tests use.

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
from iemf.analysis import model_objective
from iemf.errors import ContractError, NumericError, ShapeError
from iemf.model import ModelConfig, MultimodalModel
from iemf.neurons import LIFParams, lif_layer
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


def _per_output(out, ins, aux):
    return out.size


register_op("matmul", lambda ins, aux: ins[0] @ ins[1], _bwd_matmul,
            lambda out, ins, aux: 2 * out.size * ins[0].shape[1])
register_op(
    "transpose",
    lambda ins, aux: np.ascontiguousarray(ins[0].T),
    lambda g, out, ins, aux, needs: [np.ascontiguousarray(g.T)],
    lambda out, ins, aux: 0,
)
register_op("add_bias", lambda ins, aux: ins[0] + ins[1], _bwd_add_bias, _per_output)
register_op(
    "mul",
    lambda ins, aux: ins[0] * ins[1],
    lambda g, out, ins, aux, needs: [g * ins[1], g * ins[0]],
    _per_output,
)
register_op("sum_all", lambda ins, aux: np.asarray(ins[0].sum()), _bwd_sum_all,
            lambda out, ins, aux: ins[0].size)


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


def per_step_linear_and_mean(x0: np.ndarray, w0: np.ndarray, b0: np.ndarray,
                             weights: np.ndarray) -> tuple:
    """`linear` over (T, B, K) steps and the `step_mean` of its output, as a
    tape of single steps records them: one leaf and one (B, K) `linear` per
    step, an add chain in step order, then a 1/T scale. The tape adds the
    weight and bias gradients from the last step down. Returns (out, mean,
    gx, gw, gb) for the seed sum(mean * weights)."""
    steps, tape = x0.shape[0], Tape()
    w, b = tape.leaf(w0, param_id="w"), tape.leaf(b0, param_id="b")
    outs = [T.linear(tape.leaf(x_t, param_id=f"x{t}"), w, b) for t, x_t in enumerate(x0)]
    mean = outs[0]
    for out in outs[1:]:
        mean = T.add(mean, out)
    mean = T.smul(mean, 1.0 / steps)
    grads = named_grads(tape, sum_all(mul(mean, Tensor(weights))))
    gx = np.stack([grads[f"x{t}"] for t in range(steps)])
    return np.stack([out.data for out in outs]), mean.data, gx, grads["w"], grads["b"]


def shared_drive_grad(drive0: np.ndarray, weights: np.ndarray, p: LIFParams) -> np.ndarray:
    """d sum(lif_layer(drive) * weights) / d drive for one (B, N) drive shared
    by every step, as a tape that fed the drive to each step would add it:
    the per-step currents' gradients of the same layer, from the last step
    down."""
    tape = Tape()
    currents = tape.leaf(np.stack([drive0] * p.t_steps), param_id="currents")
    per_step = named_grads(tape, sum_all(mul(lif_layer(currents, p), Tensor(weights))))
    total = per_step["currents"][-1]
    for t in range(p.t_steps - 2, -1, -1):
        total = total + per_step["currents"][t]
    return total


def hand_forward_flops(cfg: ModelConfig, batch: int) -> int:
    """The network's forward FLOPs counted by hand from its configuration,
    layer by layer, over the rows each layer runs; the package counts them
    from the recorded tape instead. Every layer counts once per time step,
    except each spiking encoder's first affine layer, whose drive is the same
    at every step. The last term counts the loss combination as 4, where the
    tape records three scalar nodes."""

    def affine(rows: int, fan_in: int, fan_out: int) -> int:
        return 2 * rows * fan_in * fan_out + rows * fan_out

    spiking = cfg.neuron_mode == "spiking"
    # rows past each encoder's first LIF layer, over all time steps
    rows = (cfg.lif.t_steps if spiking else 1) * batch
    total = 0
    for modality in ("a", "v"):
        widths = cfg.encoder_widths(modality)
        for i in range(cfg.depth):
            total += affine(batch if i == 0 else rows, widths[i], widths[i + 1])
            if spiking:
                total += 5 * rows * widths[i + 1]  # leaky accumulate, fire, reset
            elif i < cfg.depth - 1:
                total += batch * widths[i + 1]  # relu
    total += affine(rows, 2 * cfg.latent, cfg.n_classes)
    total += 2 * affine(rows, cfg.latent, cfg.n_classes)
    if spiking:
        total += 3 * rows * cfg.n_classes  # rate-decoding averages
    total += 3 * (4 * batch * cfg.n_classes + 3 * batch)  # the three cross entropies
    return total + 4


MAX_DENSE_PARAMS = 2000


def named_grads(tape: Tape, seed: Tensor) -> dict:
    """`backward`'s vector cut into one array per parameter leaf of `tape`, keyed by its id."""
    grad, named, offset = T.backward(tape, seed), {}, 0
    for node in tape.nodes:
        if node.op == "leaf" and node.param_id is not None:
            named[node.param_id] = grad[offset:offset + node.value.size].reshape(node.value.shape)
            offset += node.value.size
    return named


def finite_difference_hessian(grad_fn, w0: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Column j = (grad(w + h e_j) - grad(w - h e_j)) / (2h)."""
    dim = w0.size
    hess = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        hess[:, j] = (grad_fn(w0 + e) - grad_fn(w0 - e)) / (2.0 * h)
    return hess


def hessian_eigens(model, data, h: float = 1e-4) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized finite-difference Hessian of
    the whole-model objective."""
    _, grad_fn, w0, _ = model_objective(model, data)
    if w0.size > MAX_DENSE_PARAMS:
        raise ContractError(
            f"dense Hessian supports at most {MAX_DENSE_PARAMS} parameters, model has {w0.size}"
        )
    hess = finite_difference_hessian(grad_fn, w0, h)
    sym = 0.5 * (hess + hess.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericError("Hessian eigendecomposition produced non-finite values")
    return eigenvalues


def _group_lr(group: str, cfg, xi: float) -> float:
    if group == "fusion":
        return cfg.eta * xi
    if cfg.method == "mslr":
        if group == "enc_a":
            return cfg.eta * cfg.mult_a
        if group == "enc_v":
            return cfg.eta * cfg.mult_v
    return cfg.eta * 1.0


def per_parameter_sgd_step(params: dict, grads: dict, cfg, xi: float) -> dict:
    """New values of `params` after one SGD step, computed a parameter at a
    time with its group's scalar rate and decay: `training.sgd_step` as it ran
    before it became one expression over the parameter vector."""
    new = {}
    for pid, w in params.items():
        lr = _group_lr(MultimodalModel.group_of(pid), cfg, xi)
        wd = cfg.weight_decay if pid.endswith(".W") else 0.0
        new[pid] = w - lr * (grads[pid] + wd * w)
    return new
