"""Synthetic two-modality dataset generation."""

import numpy as np
import pytest

from iemf.data import DataSpec, generate
from iemf.errors import ConfigError
from iemf.model import Batch, ModelConfig, init_model
from iemf.training import OptimConfig, train


def test_noiseless_samples_equal_prototypes():
    spec = DataSpec(n_classes=3, d_a=5, d_v=4, train_per_class=6, test_per_class=3,
                    sigma_a=0.0, sigma_v=0.0, seed=0)
    ds = generate(spec)
    for batch in (ds.train, ds.test):
        for cls in range(3):
            rows = batch.x_a.data[batch.y == cls]
            assert np.all(rows == rows[0])  # every sample is its class prototype
        # prototypes agree across splits
    proto_train = {c: ds.train.x_a.data[ds.train.y == c][0] for c in range(3)}
    proto_test = {c: ds.test.x_a.data[ds.test.y == c][0] for c in range(3)}
    for c in range(3):
        assert np.array_equal(proto_train[c], proto_test[c])


def test_full_drop_zeroes_the_modality():
    spec = DataSpec(n_classes=2, d_a=4, d_v=4, train_per_class=5, test_per_class=2,
                    drop_prob_a=1.0, seed=3)
    ds = generate(spec)
    assert np.array_equal(ds.train.x_a.data, np.zeros_like(ds.train.x_a.data))
    assert np.array_equal(ds.test.x_a.data, np.zeros_like(ds.test.x_a.data))
    assert np.any(ds.train.x_v.data != 0.0)


def test_same_seed_bit_identical():
    spec = DataSpec(seed=11, train_per_class=4, test_per_class=2)
    a, b = generate(spec), generate(spec)
    for split in ("train", "test"):
        ba, bb = getattr(a, split), getattr(b, split)
        assert np.array_equal(ba.x_a.data, bb.x_a.data)
        assert np.array_equal(ba.x_v.data, bb.x_v.data)
        assert np.array_equal(ba.y, bb.y)


def test_class_balance_exact():
    spec = DataSpec(n_classes=5, train_per_class=7, test_per_class=3, seed=2)
    ds = generate(spec)
    assert np.array_equal(np.bincount(ds.train.y), np.full(5, 7))
    assert np.array_equal(np.bincount(ds.test.y), np.full(5, 3))


def test_separability_monotone_in_noise():
    """Linear-classifier accuracy is 1.0 at sigma -> 0 and non-increasing in sigma."""
    sigmas = [0.0, 2.0, 6.0]
    mean_accs = []
    for sigma in sigmas:
        accs = []
        for seed in range(5):
            spec = DataSpec(n_classes=3, d_a=8, d_v=8, train_per_class=30, test_per_class=15,
                            sigma_a=sigma, sigma_v=sigma, seed=seed)
            ds = generate(spec)
            model = init_model(ModelConfig(d_in_a=8, d_in_v=8, n_classes=3, latent=8, depth=1), seed)
            cfg = OptimConfig(eta=0.05, weight_decay=0.0, epochs=25, batch_size=15, seed=seed)
            _, history, _ = train(ds, model, cfg)
            accs.append(history[-1].test_acc)
        mean_accs.append(float(np.mean(accs)))
    assert mean_accs[0] == 1.0
    inversions = sum(1 for a, b in zip(mean_accs, mean_accs[1:]) if b > a)
    assert inversions <= 1


def test_spec_validation():
    with pytest.raises(ConfigError):
        DataSpec(n_classes=1)
    with pytest.raises(ConfigError):
        DataSpec(sigma_a=-0.1)
    with pytest.raises(ConfigError):
        DataSpec(drop_prob_v=1.5)
    with pytest.raises(ConfigError):
        DataSpec(train_per_class=0)
