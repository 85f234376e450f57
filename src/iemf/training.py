"""SGD training loop, per-modality learning-rate variants, and FLOPs counted from the tape."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .model import Batch, MultimodalModel, forward_full, network_logits
from .modulation import IEMFConfig, iemf_train_step
from .tensor import Tape, Tensor
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


@dataclass(slots=True)  # one per training step, kept for the whole run
class XiRecord:
    step: int
    epoch: int
    s_unimodal: float
    s_multimodal: float
    xi: float


def top1_accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the lowest class."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if arr.ndim != 2:
        raise ShapeError(f"top-1 accuracy needs (B,M) logits, got shape {arr.shape}")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape[0] != arr.shape[0]:
        raise ShapeError(f"expected {arr.shape[0]} labels, got {y.shape[0]}")
    if arr.shape[0] == 0:
        return 0.0
    return float((arr.argmax(axis=-1) == y).sum() / arr.shape[0])  # np.mean's own division


# (key, lr, wd, fusion runs) of the last layout and settings `sgd_step` met: one
# entry, replaced whole and never written in place, however many models train.
_last_rates: list = [(None,)]


def _element_rates(model: MultimodalModel, cfg: OptimConfig, xi: float):
    """Learning rate and weight decay per element of `model.flat`, eta * xi on the fusion runs."""
    key = (model.spans, cfg.eta, cfg.method, cfg.mult_a, cfg.mult_v, cfg.weight_decay)
    entry = _last_rates[0]
    if entry[0] != key:
        mults = {"enc_a": cfg.mult_a, "enc_v": cfg.mult_v} if cfg.method == "mslr" else {}
        lr, wd = np.empty(model.flat.size), np.zeros(model.flat.size)
        for pid, start, stop, _ in model.spans:
            lr[start:stop] = cfg.eta * mults.get(model.group_of(pid), 1.0)
            wd[start:stop] = cfg.weight_decay if pid.endswith(".W") else 0.0
        entry = _last_rates[0] = (key, lr, wd, [slice(start, stop) for pid, start, stop, _
                                                in model.spans if model.group_of(pid) == "fusion"])
    _, lr, wd, fusion = entry
    lr = lr.copy()
    for run in fusion:
        lr[run] = cfg.eta * xi
    return lr, wd


def sgd_step(model: MultimodalModel, grad: np.ndarray, cfg: OptimConfig,
             xi: float = 1.0) -> None:
    """Per-group SGD step on `grad`, laid out like `model.flat` (as `backward`
    returns it); the fusion layer's learning rate is eta * xi.

    Encoders use eta times their modality multiplier (1 under vanilla), probe
    heads use plain eta, and weight decay applies to weight matrices only.
    The step is one expression, w - lr * (g + wd * w), over the parameter vector
    with per-element rates: the IEEE operations of a step per parameter, so its bits.

    This is where trained parameters are checked for finiteness: the new
    vector is checked once here, and `model.bind_params` binds it unchecked.
    A finite new value from a finite old one implies a finite update, and the
    check also catches an overflow of the subtraction itself. Everything is
    staged and validated before the commit, so a failed step (a gradient of
    another shape, a non-finite gradient, eta or xi, or an overflowing
    update) leaves the model unmodified; it names the first parameter at
    fault, with numpy's floating-point warnings off.
    """
    if np.shape(grad) != model.flat.shape:
        raise NumericError(f"gradient of shape {np.shape(grad)} for {model.flat.size} "
                           "parameters; step aborted")
    lr, wd = _element_rates(model, cfg, xi)
    w = model.flat
    with np.errstate(all="ignore"):
        new = w - lr * (grad + wd * w)
    if not np.isfinite(new).all():
        bad = next(pid for pid, start, stop, _ in model.spans
                   if not np.isfinite(new[start:stop]).all())
        raise NumericError(f"non-finite update for {bad}; step aborted")
    w[...] = new


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
# FLOPs accounting


def forward_flops(model: MultimodalModel, batch: int) -> int:
    """FLOPs of one forward pass over `batch` rows: the op kinds' FLOPs rules
    summed over one recorded `forward_full` of a zero batch, so every op that
    a training forward runs is counted, and nothing else."""
    cfg, tape = model.cfg, Tape()
    zeros = Batch(Tensor._checked(np.zeros((batch, cfg.d_in_a))),
                  Tensor._checked(np.zeros((batch, cfg.d_in_v))), np.zeros(batch, np.int64))
    forward_full(zeros, model, tape)
    return tape.flops()


def flops_per_epoch(model: MultimodalModel, n_train: int, cfg: OptimConfig) -> int:
    """Training cost of one epoch: (forward + 2x forward for backward) per batch."""
    full, rem = divmod(n_train, cfg.batch_size)
    total = 3 * full * forward_flops(model, cfg.batch_size) if full else 0
    return total + (3 * forward_flops(model, rem) if rem else 0)
