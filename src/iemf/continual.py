"""Class-incremental task streams, sequential training, and forgetting metrics.

One shared output layer covers all classes from the start; classes outside the
allowed set for a loss are masked by adding a large negative constant to their
logits. Fine-tuning masks to the classes seen so far; the distillation variant
trains the current task's classes against labels while matching the pre-task
model's softened fused logits on previously seen classes. Each step is the
standard modulated step (`modulation.iemf_train_step`) with these criteria in
place of plain cross entropy, so xi scales the fusion layer's learning rate
exactly as in standard training. Each epoch runs `training.train_epoch`, and
each task's test split is scored by `training.evaluate_accuracy` on the fused
logits of `model.network_logits`, as in standard training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from . import training
from .data import Dataset
from .errors import ConfigError, ContractError
from .model import Batch, MultimodalModel, network_logits
from .modulation import StepRecord, iemf_train_step
from .tensor import Tensor
from .training import OptimConfig, XiRecord, train_epoch
from .util import STREAM_TASKS, STREAM_TRAIN, seeded_rng

# Unused here, but bench/spans.py rebinds these attributes of this module by
# name, so they must stay importable from it.
from .modulation import batch_strength_scores, iemf_coefficient, per_sample_content  # noqa: F401
from .tensor import backward  # noqa: F401
from .training import sgd_step  # noqa: F401

MASK_NEG = -1e30
CONTINUAL_METHODS = ("finetune", "lwf")


@dataclass
class Task:
    classes: list[int]
    train: Batch
    test: Batch


@dataclass
class TaskStream:
    tasks: list[Task]
    n_classes: int

    def seen_classes(self, upto: int) -> list[int]:
        """Classes of tasks 1..upto (1-based), in task order."""
        seen: list[int] = []
        for task in self.tasks[:upto]:
            seen.extend(task.classes)
        return seen


def _restrict(batch: Batch, classes: Sequence[int]) -> Batch:
    mask = np.isin(batch.y, list(classes))
    return batch.subset(np.nonzero(mask)[0])


def build_task_stream(dataset: Dataset, k: int, classes_per_task: int, seed: int) -> TaskStream:
    """Seeded disjoint class partition into k tasks of classes_per_task each."""
    m = dataset.spec.n_classes
    if k < 1 or classes_per_task < 1:
        raise ConfigError("task count and classes per task must be positive")
    if k * classes_per_task > m:
        raise ConfigError(
            f"{k} tasks x {classes_per_task} classes need {k * classes_per_task} classes, "
            f"dataset has {m}"
        )
    order = seeded_rng(seed, STREAM_TASKS).permutation(m)
    tasks = []
    for t in range(k):
        classes = [int(c) for c in order[t * classes_per_task : (t + 1) * classes_per_task]]
        tasks.append(Task(classes, _restrict(dataset.train, classes), _restrict(dataset.test, classes)))
    return TaskStream(tasks=tasks, n_classes=m)


def _mask_row(allowed: Sequence[int], n_classes: int) -> np.ndarray:
    row = np.full(n_classes, MASK_NEG)
    row[list(allowed)] = 0.0
    return row


def masked_cross_entropy(logits: Tensor, labels,
                         allowed: Sequence[int]) -> tuple[Tensor, np.ndarray]:
    """Cross entropy over a class subset; blocked logits get an additive -1e30."""
    if len(allowed) == 0:
        raise ContractError("masked cross entropy needs at least one allowed class")
    mask = np.broadcast_to(_mask_row(allowed, logits.shape[1]), logits.shape)
    masked = T.add(logits, Tensor(mask))
    return T.softmax_cross_entropy(masked, labels)


def lwf_loss(new_logits: Tensor, labels, old_logits: Tensor, current_classes: Sequence[int],
             prev_classes: Sequence[int], temperature: float,
             lam: float) -> tuple[Tensor, np.ndarray]:
    """Masked CE on the current task plus softened distillation on earlier classes.

    loss = CE(new over current classes) + lam * T^2 * KL(soft old || soft new)
    where the KL runs over the previously seen classes. With no previous
    classes (or lam = 0) the distillation term is exactly zero.
    """
    ce, probs = masked_cross_entropy(new_logits, labels, current_classes)
    if len(prev_classes) == 0 or lam == 0.0:
        return ce, probs
    new_sel = T.select_cols(new_logits, prev_classes)
    old_sel = Tensor(old_logits.data[:, list(prev_classes)])
    kl = T.distill_kl(new_sel, old_sel, temperature)
    return T.add(ce, T.smul(kl, lam * temperature**2)), probs


def _incremental_step(batch: Batch, model: MultimodalModel, cfg: OptimConfig, method: str,
                      ce_classes: Sequence[int], prev_classes: Sequence[int],
                      old_model: MultimodalModel | None, temperature: float,
                      lam: float) -> StepRecord:
    """One modulated step of standard training, with masked criteria.

    The probe heads use cross entropy masked to `ce_classes`, and so does the
    fused output, except under LwF with earlier classes: there it also
    distils the pre-task model's fused logits on `prev_classes`.
    """
    def head_loss(logits: Tensor, labels) -> tuple[Tensor, np.ndarray]:
        return masked_cross_entropy(logits, labels, ce_classes)

    fused_loss = head_loss
    if method == "lwf" and old_model is not None and len(prev_classes) > 0:
        old_av, _, _ = network_logits(batch, old_model, None)

        def fused_loss(logits: Tensor, labels) -> tuple[Tensor, np.ndarray]:
            return lwf_loss(logits, labels, old_av, ce_classes, prev_classes, temperature, lam)

    return iemf_train_step(batch, model, cfg, fused_loss, head_loss)


def train_incremental(stream: TaskStream, method: str, model: MultimodalModel,
                      cfg: OptimConfig, lwf_temperature: float = 2.0, lwf_lambda: float = 1.0):
    """Sequential training over the stream; returns (accuracy matrix, xi trace).

    Row k of the matrix holds a_{k,j} for j <= k: accuracy on task j's test
    split after finishing task k. Evaluation argmaxes over all classes (the
    head is shared and fixed-size), so a frozen model repeats its rows.
    """
    if method not in CONTINUAL_METHODS:
        raise ConfigError(f"method must be one of {CONTINUAL_METHODS}")
    rng = seeded_rng(cfg.seed, STREAM_TRAIN)
    matrix: list[list[float]] = []
    trace: list[XiRecord] = []
    for k, task in enumerate(stream.tasks, start=1):
        prev_classes = stream.seen_classes(k - 1)
        ce_classes = task.classes if method == "lwf" else stream.seen_classes(k)
        old_model = model.clone() if (method == "lwf" and prev_classes) else None

        def step(batch: Batch) -> StepRecord:
            return _incremental_step(batch, model, cfg, method, ce_classes, prev_classes,
                                     old_model, lwf_temperature, lwf_lambda)

        for epoch in range(1, cfg.epochs + 1):
            train_epoch(task.train, cfg, rng, epoch, trace, step)
        # read from the module at call time: bench/spans.py rebinds it to time evaluations
        matrix.append([training.evaluate_accuracy(model, t.test) for t in stream.tasks[:k]])
    return matrix, trace


# ---------------------------------------------------------------------------
# metrics over the lower-triangular accuracy matrix


def _check_matrix(matrix) -> list[list[float]]:
    rows = [list(map(float, row)) for row in matrix]
    if len(rows) == 0:
        raise ContractError("accuracy matrix is empty")
    for k, row in enumerate(rows, start=1):
        if len(row) != k:
            raise ContractError(f"row {k} must hold {k} entries, got {len(row)}")
    return rows


def aa_aia(matrix) -> tuple[list[float], float]:
    """Average accuracy after each task and its mean over the whole sequence."""
    rows = _check_matrix(matrix)
    aa = [sum(row) / len(row) for row in rows]
    return aa, sum(aa) / len(aa)


def afr(matrix) -> float:
    """Mean drop from best-ever accuracy on earlier tasks, averaged over steps 2..K."""
    rows = _check_matrix(matrix)
    k_total = len(rows)
    if k_total < 2:
        raise ContractError("forgetting needs at least two tasks")
    f_values = []
    for k in range(2, k_total + 1):
        drops = []
        for j in range(1, k):
            best = max(rows[ell - 1][j - 1] for ell in range(j, k))
            drops.append(best - rows[k - 1][j - 1])
        f_values.append(sum(drops) / (k - 1))
    return sum(f_values) / (k_total - 1)
