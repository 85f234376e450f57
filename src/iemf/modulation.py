"""Inverse-effectiveness gradient modulation for the fusion layer.

Each training batch yields a unimodal strength score (mean probe-head
confidence on the true labels) and a multimodal one (mean fused confidence).
The fusion coefficient

    xi = gamma * (1 + gate(1 - S_unimodal / S_multimodal))

scales only the fusion layer's gradient: weak unimodal evidence pushes xi
toward 2*gamma and accelerates fusion learning, strong unimodal evidence pulls
it toward 0. The gate is a bounded odd saturating function (tanh by default),
so 0 < xi < 2*gamma and the update never reverses the descent direction. xi is
treated as a constant scalar: no gradient flows through the score computation,
which reads the criteria's probabilities as plain arrays, off the tape.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError
from .model import Batch, MultimodalModel, forward_full
from .tensor import Tape, backward, softmax_cross_entropy

log = logging.getLogger(__name__)

EPS_DIV = 1e-12

# tanh saturates to exactly +-1.0 in float64 for |x| >~ 19; the clamp keeps
# xi strictly inside the open interval (0, 2*gamma).
_GATE_LIMIT = 1.0 - 1e-12

GATINGS: dict[str, Callable[[float], float]] = {
    "tanh": math.tanh,
    "softsign": lambda r: r / (1.0 + abs(r)),
    "arctan": lambda r: math.atan(r) * (2.0 / math.pi),
}


@dataclass
class IEMFConfig:
    gamma: float = 1.0
    gating: str = "tanh"
    enabled: bool = True

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ConfigError("gamma must be positive")
        if self.gating not in GATINGS:
            raise ConfigError(f"unknown gating {self.gating!r}; choose from {sorted(GATINGS)}")


@dataclass
class StepRecord:
    """Strength scores, fusion coefficient, loss and top-1 accuracy of one step."""

    s_unimodal: float
    s_multimodal: float
    xi: float
    loss: float
    accuracy: float


def per_sample_content(probs: np.ndarray, labels) -> np.ndarray:
    """Probability each sample's head assigned to its true label: c_i = probs[i, y_i]."""
    if probs.ndim != 2:
        raise ContractError(f"probabilities must be (B,M), got shape {probs.shape}")
    if probs.shape[0] == 0:
        raise ContractError("per-sample content needs a non-empty batch")
    # np.allclose(row_sums, 1.0, atol=1e-9) written out: its default rtol is
    # 1e-5, and NaN or infinite sums fail the comparison
    if not (np.abs(probs.sum(axis=1) - 1.0) <= 1e-9 + 1e-5).all():
        raise ContractError("probability rows must sum to 1")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape[0] != probs.shape[0]:
        raise ContractError(f"expected {probs.shape[0]} labels, got {y.shape[0]}")
    if y.min() < 0 or y.max() >= probs.shape[1]:
        raise IndexError("label out of range")
    return probs[np.arange(probs.shape[0]), y]


def batch_strength_scores(c_a: np.ndarray, c_v: np.ndarray,
                          c_av: np.ndarray) -> tuple[float, float]:
    """Means over the batch: ((sum c_a + sum c_v) / 2B, mean c_av)."""
    a, v, av = c_a.reshape(-1), c_v.reshape(-1), c_av.reshape(-1)
    if not (a.shape == v.shape == av.shape):
        raise ContractError("per-sample content vectors must have equal length")
    if a.shape[0] < 1:
        raise ContractError("strength scores need a non-empty batch")
    s_unimodal = float((a + v).sum() / (2.0 * a.shape[0]))
    s_multimodal = float(av.mean())
    return s_unimodal, s_multimodal


def iemf_coefficient(s_unimodal: float, s_multimodal: float, cfg: IEMFConfig) -> float:
    """Bounded fusion coefficient in (0, 2*gamma); equals gamma when the scores tie."""
    if s_multimodal <= EPS_DIV:
        log.warning(
            "degenerate batch: multimodal strength %.3e <= %.0e, using xi = gamma",
            s_multimodal, EPS_DIV,
        )
        return float(cfg.gamma)
    g = GATINGS[cfg.gating](1.0 - s_unimodal / s_multimodal)
    g = min(max(g, -_GATE_LIMIT), _GATE_LIMIT)
    return cfg.gamma * (1.0 + g)


def iemf_train_step(batch: Batch, model: MultimodalModel, cfg,
                    fused_loss=softmax_cross_entropy,
                    head_loss=softmax_cross_entropy) -> StepRecord:
    """One modulated SGD step: forward, scores, coefficient, backward, update.

    The criteria go to `forward_full`; the scores read the probabilities they
    return, so continual learning's masked losses are scored on the classes
    they allow. With modulation disabled the coefficient is forced to 1 and
    the update is bit-identical to a vanilla step; the scores are still
    computed for the trace. Any failure propagates before parameters are
    modified.
    """
    from .training import sgd_step, top1_accuracy

    tape = Tape()
    out = forward_full(batch, model, tape, fused_loss, head_loss)
    c_a = per_sample_content(out.p_a, batch.y)
    c_v = per_sample_content(out.p_v, batch.y)
    c_av = per_sample_content(out.p_av, batch.y)
    s_unimodal, s_multimodal = batch_strength_scores(c_a, c_v, c_av)
    icfg = cfg.iemf
    xi = iemf_coefficient(s_unimodal, s_multimodal, icfg) if icfg.enabled else 1.0
    grads = backward(tape, out.loss)
    sgd_step(model, grads, cfg, xi)
    return StepRecord(s_unimodal, s_multimodal, xi, out.loss.item(),
                      top1_accuracy(out.logits_av, batch.y))
