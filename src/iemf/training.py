"""SGD training loop, per-modality learning-rate variants, and FLOPs accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .model import Batch, MultimodalModel, forward_full
from .modulation import IEMFConfig, iemf_train_step
from .tensor import GradientSet, Tensor
from .util import STREAM_TRAIN, seeded_rng

METHODS = ("vanilla", "mslr")


@dataclass
class OptimConfig:
    eta: float = 1e-2
    weight_decay: float = 1e-4
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    method: str = "vanilla"
    mult_a: float = 1.0
    mult_v: float = 1.0
    iemf: IEMFConfig = field(default_factory=IEMFConfig)

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0.0:
            raise ConfigError("weight decay must be non-negative")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if not (self.mult_a > 0.0 and self.mult_v > 0.0):
            raise ConfigError("learning-rate multipliers must be positive")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    mean_xi: float
    flops_cumulative: int


@dataclass
class XiRecord:
    step: int
    epoch: int
    s_unimodal: float
    s_multimodal: float
    xi: float


def top1_accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the lowest class."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if arr.shape[0] == 0:
        return 0.0
    return float(np.mean(arr.argmax(axis=-1) == y))


def _group_lr(group: str, cfg: OptimConfig, xi: float) -> float:
    if group == "fusion":
        return cfg.eta * xi
    if cfg.method == "mslr":
        if group == "enc_a":
            return cfg.eta * cfg.mult_a
        if group == "enc_v":
            return cfg.eta * cfg.mult_v
    return cfg.eta * 1.0


def sgd_step(model: MultimodalModel, grads: GradientSet, cfg: OptimConfig, xi: float = 1.0) -> None:
    """Per-group SGD step; the fusion layer's learning rate is eta * xi.

    Encoders use eta times their modality multiplier (1 under vanilla), probe
    heads use plain eta, and weight decay applies to weight matrices only.
    Everything is staged and validated before the commit, so a failed step (a
    missing gradient, or a non-finite update from a non-finite gradient, eta
    or xi) leaves the model unmodified.
    """
    staged: dict[str, np.ndarray] = {}
    for pid, w in model.params.items():
        if pid not in grads:
            raise NumericError(f"gradient set is missing {pid}; step aborted")
        wd = cfg.weight_decay if pid.endswith(".W") else 0.0
        delta = _group_lr(model.group_of(pid), cfg, xi) * (grads[pid].data + wd * w)
        if not np.all(np.isfinite(delta)):
            raise NumericError(f"non-finite update for {pid}; step aborted")
        staged[pid] = delta
    for pid, delta in staged.items():
        model.params[pid] = model.params[pid] - delta


def evaluate_accuracy(model: MultimodalModel, batch: Batch) -> float:
    out = forward_full(batch, model, tape=None)
    return top1_accuracy(out.logits_av, batch.y)


def iterate_batches(n: int, batch_size: int, perm: np.ndarray):
    """Start/stop index arrays over a permutation; the last short batch is kept."""
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def train(dataset, model: MultimodalModel, cfg: OptimConfig, on_epoch=None):
    """Epoch loop with a seeded shuffle; returns (model, epoch metrics, xi trace).

    `on_epoch(metrics, trace_rows)` fires after every epoch so callers can
    flush partial logs.
    """
    train_batch: Batch = dataset.train
    test_batch: Batch = dataset.test
    n = train_batch.size
    rng = seeded_rng(cfg.seed, STREAM_TRAIN)
    omega = flops_per_epoch(model, n, cfg)
    history: list[EpochMetrics] = []
    trace: list[XiRecord] = []
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct_sum = 0.0
        xi_sum = 0.0
        n_steps = 0
        epoch_trace: list[XiRecord] = []
        for idx in iterate_batches(n, cfg.batch_size, perm):
            batch = train_batch.subset(idx)
            step += 1
            scores, sm = iemf_train_step(batch, model, cfg)
            epoch_trace.append(
                XiRecord(step, epoch, scores.s_unimodal, scores.s_multimodal, scores.xi)
            )
            loss_sum += sm.loss * batch.size
            correct_sum += sm.accuracy * batch.size
            xi_sum += sm.xi
            n_steps += 1
        metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=correct_sum / n,
            test_acc=evaluate_accuracy(model, test_batch),
            mean_xi=xi_sum / n_steps,
            flops_cumulative=epoch * omega,
        )
        history.append(metrics)
        trace.extend(epoch_trace)
        if on_epoch is not None:
            on_epoch(metrics, epoch_trace)
    return model, history, trace


# ---------------------------------------------------------------------------
# analytic FLOPs accounting


def matmul_flops(m: int, k: int, n: int) -> int:
    """2*m*k*n: one multiply and one add per inner-product term."""
    return 2 * m * k * n


def _affine_flops(batch: int, fan_in: int, fan_out: int) -> int:
    return matmul_flops(batch, fan_in, fan_out) + batch * fan_out


def _xent_flops(batch: int, n_classes: int) -> int:
    # max-shift, exp, sum, normalize (~4 per logit) plus per-sample pick/log/mean.
    return 4 * batch * n_classes + 3 * batch


def forward_flops(model: MultimodalModel, batch: int) -> int:
    """Nominal forward cost of one batch at the stated counting rules."""
    cfg = model.cfg
    total = 0
    if cfg.neuron_mode == "continuous":
        for modality in ("a", "v"):
            widths = cfg.encoder_widths(modality)
            for i in range(cfg.depth):
                total += _affine_flops(batch, widths[i], widths[i + 1])
                if i < cfg.depth - 1:
                    total += batch * widths[i + 1]  # relu
        total += _affine_flops(batch, 2 * cfg.latent, cfg.n_classes)
        total += 2 * _affine_flops(batch, cfg.latent, cfg.n_classes)
    else:
        t_steps = cfg.lif.t_steps
        per_step = 0
        for modality in ("a", "v"):
            widths = cfg.encoder_widths(modality)
            for i in range(cfg.depth):
                per_step += _affine_flops(batch, widths[i], widths[i + 1])
                per_step += 5 * batch * widths[i + 1]  # leaky accumulate, fire, reset
        per_step += _affine_flops(batch, 2 * cfg.latent, cfg.n_classes)
        per_step += 2 * _affine_flops(batch, cfg.latent, cfg.n_classes)
        total += t_steps * per_step
        total += 3 * t_steps * batch * cfg.n_classes  # rate-decoding averages
    total += 3 * _xent_flops(batch, cfg.n_classes)
    total += 4  # scalar loss combination
    return total


def flops_per_epoch(model: MultimodalModel, n_train: int, cfg: OptimConfig) -> int:
    """Training cost of one epoch: (forward + 2x forward for backward) per batch."""
    total = 0
    full, rem = divmod(n_train, cfg.batch_size)
    total += full * 3 * forward_flops(model, cfg.batch_size)
    if rem:
        total += 3 * forward_flops(model, rem)
    return total
