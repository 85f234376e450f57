"""SGD training loop, per-modality learning-rate variants, and FLOPs accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .model import Batch, MultimodalModel, network_logits
from .modulation import IEMFConfig, iemf_train_step
from .tensor import Tensor
from .util import STREAM_TRAIN, seeded_rng

# Unused here, but bench/spans.py rebinds this attribute of this module by name,
# so it must stay importable from it.
from .model import forward_full  # noqa: F401

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
    if y.shape[0] != arr.shape[0]:
        raise ShapeError(f"expected {arr.shape[0]} labels, got {y.shape[0]}")
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


def sgd_step(model: MultimodalModel, grads: dict[str, np.ndarray], cfg: OptimConfig,
             xi: float = 1.0) -> None:
    """Per-group SGD step; the fusion layer's learning rate is eta * xi.

    Encoders use eta times their modality multiplier (1 under vanilla), probe
    heads use plain eta, and weight decay applies to weight matrices only.

    This is where trained parameters are checked for finiteness: each new
    value is checked once here, and `model.bind_params` binds it unchecked.
    A finite new value from a finite old one implies a finite update, and the
    check also catches an overflow of the subtraction itself. Everything is
    staged and validated before the commit, so a failed step (a missing
    gradient, a non-finite gradient, eta or xi, or an overflowing update)
    leaves the model unmodified.
    """
    lrs: dict[str, float] = {}
    staged: dict[str, np.ndarray] = {}
    for pid, w in model.params.items():
        try:
            g = grads[pid]
        except KeyError:
            raise NumericError(f"gradient set is missing {pid}; step aborted") from None
        group = model.group_of(pid)
        lr = lrs.get(group)
        if lr is None:
            lr = lrs[group] = _group_lr(group, cfg, xi)
        wd = cfg.weight_decay if pid.endswith(".W") else 0.0
        new = w - lr * (g + wd * w)
        if not np.isfinite(new).all():
            raise NumericError(f"non-finite update for {pid}; step aborted")
        staged[pid] = new
    model.params.update(staged)


def evaluate_accuracy(model: MultimodalModel, batch: Batch) -> float:
    """Top-1 accuracy of the fused logits; the probe heads' logits are not read."""
    return top1_accuracy(network_logits(batch, model)[0], batch.y)


def train_epoch(batch: Batch, cfg: OptimConfig, rng: np.random.Generator, epoch: int,
                trace: list[XiRecord], step) -> tuple[float, float]:
    """One seeded shuffled pass of `step(mini_batch) -> StepRecord` over `batch`.

    Mini-batches hold cfg.batch_size samples; the last short one is kept. Each
    step appends an XiRecord numbered on from the length of `trace`. Returns
    the sample-weighted sums of the steps' loss and accuracy.
    """
    perm = rng.permutation(batch.size)
    loss_sum = 0.0
    correct_sum = 0.0
    for start in range(0, batch.size, cfg.batch_size):
        mini = batch.subset(perm[start : start + cfg.batch_size])
        rec = step(mini)
        trace.append(XiRecord(len(trace) + 1, epoch, rec.s_unimodal, rec.s_multimodal, rec.xi))
        loss_sum += rec.loss * mini.size
        correct_sum += rec.accuracy * mini.size
    return loss_sum, correct_sum


def train(dataset, model: MultimodalModel, cfg: OptimConfig, on_epoch=None):
    """Epoch loop with a seeded shuffle; returns (model, epoch metrics, xi trace).

    `on_epoch(metrics, trace_rows)` fires after every epoch so callers can
    flush partial logs.
    """
    n = dataset.train.size
    rng = seeded_rng(cfg.seed, STREAM_TRAIN)
    omega = flops_per_epoch(model, n, cfg)
    history: list[EpochMetrics] = []
    trace: list[XiRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        first = len(trace)
        loss_sum, correct_sum = train_epoch(dataset.train, cfg, rng, epoch, trace,
                                            lambda b: iemf_train_step(b, model, cfg))
        rows = trace[first:]
        metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=correct_sum / n,
            test_acc=evaluate_accuracy(model, dataset.test),
            mean_xi=sum(r.xi for r in rows) / len(rows),
            flops_cumulative=epoch * omega,
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics, rows)
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
    """Nominal forward cost of one batch, counted over the rows each layer runs.

    Every layer counts once per time step, except each spiking encoder's first
    affine layer: its drive is the same at every step, so `model._encode`
    computes it once per batch.
    """
    cfg = model.cfg
    spiking = cfg.neuron_mode == "spiking"
    rows = cfg.steps * batch  # rows past each encoder's first LIF layer
    total = 0
    for modality in ("a", "v"):
        widths = cfg.encoder_widths(modality)
        for i in range(cfg.depth):
            total += _affine_flops(batch if i == 0 else rows, widths[i], widths[i + 1])
            if spiking:
                total += 5 * rows * widths[i + 1]  # leaky accumulate, fire, reset
            elif i < cfg.depth - 1:
                total += batch * widths[i + 1]  # relu
    total += _affine_flops(rows, 2 * cfg.latent, cfg.n_classes)
    total += 2 * _affine_flops(rows, cfg.latent, cfg.n_classes)
    if spiking:
        total += 3 * rows * cfg.n_classes  # rate-decoding averages
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
