"""Two-branch encoder network with concatenation fusion and unimodal probe heads.

Both branches are independent stacks (MLP layers in continuous mode, LIF
layers in spiking mode). The fusion layer maps the concatenated latents
straight to class logits, so it doubles as the classifier. Each modality also
gets a linear probe head whose confidence feeds the fusion-modulation scores;
in the default ``probe_detached`` mode the head losses stop at the encoder
outputs, in ``joint`` mode they train the encoders too.

Spiking mode injects the same input current at every step (direct coding) and
decodes by averaging the fusion-layer output over the steps (rate decoding).
Every layer runs all T steps as one tape node over the stacked (T*B, N) rows,
step t in rows t*B to (t+1)*B; continuous mode is the one-step case, and the
mode picks only each layer's activation. A forward pass returns its logits and
loss as tensors, for `backward`, and the criteria's probabilities as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .neurons import LIFParams, lif_layer, relu
from .tensor import Tape, Tensor, softmax_cross_entropy
from .util import STREAM_MODEL, seeded_rng

# bench/spans.py wraps `iemf.model.lif_step` by name; nothing here calls it.
lif_step = lif_layer

NEURON_MODES = ("continuous", "spiking")
HEAD_MODES = ("probe_detached", "joint")


@dataclass
class ModelConfig:
    d_in_a: int
    d_in_v: int
    n_classes: int
    hidden: int = 64
    latent: int = 32
    depth: int = 2
    neuron_mode: str = "continuous"
    lif: LIFParams = field(default_factory=LIFParams)
    head_mode: str = "probe_detached"
    head_loss_weight: float = 1.0

    def __post_init__(self):
        for name in ("d_in_a", "d_in_v", "n_classes", "hidden", "latent", "depth"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        if self.neuron_mode not in NEURON_MODES:
            raise ConfigError(f"neuron_mode must be one of {NEURON_MODES}")
        if self.head_mode not in HEAD_MODES:
            raise ConfigError(f"head_mode must be one of {HEAD_MODES}")
        if self.head_loss_weight < 0.0:
            raise ConfigError("head_loss_weight must be non-negative")

    @property
    def steps(self) -> int:
        """Time steps stacked in every layer's rows: T in spiking mode, else 1."""
        return self.lif.t_steps if self.neuron_mode == "spiking" else 1

    def encoder_widths(self, modality: str) -> list[int]:
        d_in = self.d_in_a if modality == "a" else self.d_in_v
        return [d_in] + [self.hidden] * (self.depth - 1) + [self.latent]


@dataclass
class Batch:
    """One mini-batch of paired two-modality inputs and class labels."""

    x_a: Tensor
    x_v: Tensor
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if self.x_a.data.ndim != 2 or self.x_v.data.ndim != 2:
            raise ShapeError("batch inputs must be 2-D (samples x features)")
        if not (self.x_a.shape[0] == self.x_v.shape[0] == self.y.shape[0]):
            raise ShapeError(
                f"inconsistent batch sizes: {self.x_a.shape[0]}, {self.x_v.shape[0]}, {self.y.shape[0]}"
            )
        if self.y.shape[0] < 1:
            raise ShapeError("batch must hold at least one sample")

    @property
    def size(self) -> int:
        return int(self.y.shape[0])

    def subset(self, indices) -> "Batch":
        idx = np.asarray(indices)
        # rows picked from checked data are fresh contiguous float64 copies
        return Batch(Tensor._checked(self.x_a.data[idx]), Tensor._checked(self.x_v.data[idx]),
                     self.y[idx])


@dataclass
class ForwardOutputs:
    logits_av: Tensor
    logits_a: Tensor
    logits_v: Tensor
    p_av: np.ndarray
    p_a: np.ndarray
    p_v: np.ndarray
    loss: Tensor


class MultimodalModel:
    """Parameter store for the two encoders, fusion layer, and probe heads."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = {k: np.ascontiguousarray(np.asarray(v, dtype=np.float64)) for k, v in params.items()}
        for pid, arr in self.params.items():
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"parameter {pid} holds non-finite values")

    def encoder_param_ids(self, modality: str) -> list[tuple[str, str]]:
        n_layers = self.cfg.depth
        return [(f"enc_{modality}.{i}.W", f"enc_{modality}.{i}.b") for i in range(n_layers)]

    @staticmethod
    def group_of(param_id: str) -> str:
        return param_id.split(".")[0]

    def clone(self) -> "MultimodalModel":
        return MultimodalModel(self.cfg, {k: v.copy() for k, v in self.params.items()})


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Id and shape of every parameter `init_model` creates, in creation order."""
    shapes: dict[str, tuple[int, ...]] = {}

    def linear(name: str, fan_in: int, fan_out: int) -> None:
        shapes[f"{name}.W"] = (fan_out, fan_in)
        shapes[f"{name}.b"] = (fan_out,)

    for modality in ("a", "v"):
        widths = cfg.encoder_widths(modality)
        for i in range(cfg.depth):
            linear(f"enc_{modality}.{i}", widths[i], widths[i + 1])
    linear("fusion", 2 * cfg.latent, cfg.n_classes)
    linear("head_a", cfg.latent, cfg.n_classes)
    linear("head_v", cfg.latent, cfg.n_classes)
    return shapes


def init_model(cfg: ModelConfig, seed: int) -> MultimodalModel:
    """Seeded init: W ~ N(0, 1/fan_in), biases zero."""
    rng = seeded_rng(seed, STREAM_MODEL)
    params = {pid: rng.standard_normal(shape) / np.sqrt(shape[1]) if len(shape) == 2
              else np.zeros(shape) for pid, shape in param_shapes(cfg).items()}
    return MultimodalModel(cfg, params)


def bind_params(model: MultimodalModel, tape: Tape | None) -> dict[str, Tensor]:
    """Parameter tensors for one forward pass; tape leaves when tracing.

    The arrays are wrapped without a finiteness check: every parameter is
    checked where it is written, by `MultimodalModel`, `training.sgd_step`
    and `analysis.model_objective`'s evaluation points. A non-finite value
    written into `model.params` directly fails at the first op that reads it.
    """
    if tape is None:
        return {pid: Tensor._checked(arr) for pid, arr in model.params.items()}
    return {pid: tape.leaf(Tensor._checked(arr), param_id=pid) for pid, arr in model.params.items()}


def _encode(x: Tensor, layers: list[tuple[Tensor, Tensor]], cfg: ModelConfig) -> Tensor:
    """Encoder stack: a ReLU between continuous layers, a T-step LIF layer after
    every spiking one. The first drive is the same at every step, so it is
    computed once: rows stack one step up to the first LIF layer, T after it.
    """
    z, steps = x, 1
    for i, (w, b) in enumerate(layers):
        z = T.linear(z, w, b, steps)
        if cfg.neuron_mode == "spiking":
            z, steps = lif_layer(z, cfg.lif, steps), cfg.steps
        elif i < len(layers) - 1:
            z = relu(z)
    return z


def _check_input_widths(batch: Batch, cfg: ModelConfig) -> None:
    if batch.x_a.shape[1] != cfg.d_in_a or batch.x_v.shape[1] != cfg.d_in_v:
        raise ShapeError(
            f"input widths ({batch.x_a.shape[1]}, {batch.x_v.shape[1]}) do not match "
            f"model configuration ({cfg.d_in_a}, {cfg.d_in_v})"
        )


def step_latents(batch: Batch, model: MultimodalModel,
                 leaves: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Stacked per-step encoder latents of both modalities (audio, visual).

    One step in continuous mode; the last layer's (T*B, N) spike train in
    spiking mode.
    """
    cfg = model.cfg
    _check_input_widths(batch, cfg)

    def latents(x: Tensor, modality: str) -> Tensor:
        layers = [(leaves[w_id], leaves[b_id]) for w_id, b_id in model.encoder_param_ids(modality)]
        return _encode(x, layers, cfg)

    return latents(batch.x_a, "a"), latents(batch.x_v, "v")


def fused_logits(cat: Tensor, model: MultimodalModel, leaves: dict[str, Tensor]) -> Tensor:
    """Fusion-layer logits of the stacked concatenated latents, averaged over
    the steps; reads only the fusion leaves."""
    steps = model.cfg.steps
    return T.step_mean(T.linear(cat, leaves["fusion.W"], leaves["fusion.b"], steps), steps)


def probe_logits(z: Tensor, name: str, model: MultimodalModel,
                 leaves: dict[str, Tensor]) -> Tensor:
    """One probe head's logits of the stacked latents, averaged over the steps.

    In probe_detached mode the head reads detached latents, so its loss stops
    at the encoder output.
    """
    steps = model.cfg.steps
    if model.cfg.head_mode == "probe_detached":
        z = T.detach(z)
    return T.step_mean(T.linear(z, leaves[f"{name}.W"], leaves[f"{name}.b"], steps), steps)


def network_logits(batch: Batch, model: MultimodalModel, tape: Tape | None = None):
    """The three logit sets (fused, audio probe, visual probe).

    The fusion layer and the probe heads read every step of `step_latents`
    and their logits are averaged over the steps.
    """
    leaves = bind_params(model, tape)
    za, zv = step_latents(batch, model, leaves)
    logits_av = fused_logits(T.concat_cols(za, zv), model, leaves)
    logits_a = probe_logits(za, "head_a", model, leaves)
    logits_v = probe_logits(zv, "head_v", model, leaves)
    return logits_av, logits_a, logits_v


def head_loss_share(loss_a: Tensor, loss_v: Tensor, cfg: ModelConfig) -> Tensor:
    """The probe heads' part of the total loss: head_loss_weight * (audio + visual) / 2."""
    return T.smul(T.add(loss_a, loss_v), 0.5 * cfg.head_loss_weight)


def forward_full(batch: Batch, model: MultimodalModel, tape: Tape | None = None,
                 fused_loss=softmax_cross_entropy, head_loss=softmax_cross_entropy) -> ForwardOutputs:
    """Full pass: three logit sets, their probabilities, and the total loss.

    total = fused_loss(fused) + head_loss_weight * (head_loss(audio) + head_loss(visual)) / 2

    A criterion maps (logits, labels) to (loss, probability array); both default
    to plain cross entropy, and continual learning passes masked variants.
    """
    logits_av, logits_a, logits_v = network_logits(batch, model, tape)
    loss_av, p_av = fused_loss(logits_av, batch.y)
    loss_a, p_a = head_loss(logits_a, batch.y)
    loss_v, p_v = head_loss(logits_v, batch.y)
    loss = T.add(loss_av, head_loss_share(loss_a, loss_v, model.cfg))
    return ForwardOutputs(logits_av, logits_a, logits_v, p_av, p_a, p_v, loss)
