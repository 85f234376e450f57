"""Seeded two-modality Gaussian-prototype datasets with controllable noise.

Each class gets one prototype per modality, drawn once from a scaled standard
normal. Samples are the prototype plus modality-specific Gaussian noise; a
modality can additionally be zeroed per sample with a drop probability, which
models a fully lost cue. Asymmetric sigma_a/sigma_v reproduce the
weak-modality condition at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import Batch
from .tensor import Tensor
from .util import STREAM_DATA, seeded_rng


@dataclass
class DataSpec:
    n_classes: int = 6
    d_a: int = 32
    d_v: int = 32
    train_per_class: int = 200
    test_per_class: int = 50
    sigma_a: float = 1.5
    sigma_v: float = 0.5
    drop_prob_a: float = 0.0
    drop_prob_v: float = 0.0
    prototype_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        for name in ("d_a", "d_v", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.sigma_a < 0.0 or self.sigma_v < 0.0:
            raise ConfigError("noise scales must be non-negative")
        for name in ("drop_prob_a", "drop_prob_v"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.prototype_scale <= 0.0:
            raise ConfigError("prototype_scale must be positive")


@dataclass
class Dataset:
    train: Batch
    test: Batch
    spec: DataSpec


def _sample_split(rng: np.random.Generator, spec: DataSpec, protos_a, protos_v,
                  per_class: int) -> Batch:
    m = spec.n_classes
    n = m * per_class
    labels = np.repeat(np.arange(m, dtype=np.int64), per_class)
    x_a = protos_a[labels] + spec.sigma_a * rng.standard_normal((n, spec.d_a))
    x_v = protos_v[labels] + spec.sigma_v * rng.standard_normal((n, spec.d_v))
    drop_a = rng.random(n) < spec.drop_prob_a
    drop_v = rng.random(n) < spec.drop_prob_v
    x_a[drop_a] = 0.0
    x_v[drop_v] = 0.0
    perm = rng.permutation(n)
    return Batch(Tensor(x_a[perm]), Tensor(x_v[perm]), labels[perm])


def generate(spec: DataSpec) -> Dataset:
    """Deterministic dataset for one spec; same seed gives bit-identical data."""
    rng = seeded_rng(spec.seed, STREAM_DATA)
    protos_a = spec.prototype_scale * rng.standard_normal((spec.n_classes, spec.d_a))
    protos_v = spec.prototype_scale * rng.standard_normal((spec.n_classes, spec.d_v))
    train = _sample_split(rng, spec, protos_a, protos_v, spec.train_per_class)
    test = _sample_split(rng, spec, protos_a, protos_v, spec.test_per_class)
    return Dataset(train=train, test=test, spec=spec)
