"""Optimizer, epoch loop, FLOPs accounting, and reproducibility."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iemf.tensor as T
from iemf.config import load_config
from iemf.data import DataSpec, generate
from iemf.errors import ConfigError, NumericError, ShapeError
from iemf.model import Batch, ModelConfig, forward_full, init_model
from iemf.modulation import IEMFConfig
from iemf.neurons import LIFParams
from iemf.tensor import Tape, Tensor
from iemf.training import (
    EpochMetrics,
    OptimConfig,
    flops_per_epoch,
    forward_flops,
    sgd_step,
    top1_accuracy,
    train,
)

from reference_ops import hand_forward_flops

# frozen 2-epoch seed-0 regression values (generated once)
GOLDEN_EPOCHS = [
    dict(train_loss=3.459833514659893, train_acc=0.375, test_acc=0.25,
         mean_xi=0.9800986193160047, flops=23652),
    dict(train_loss=3.2615834730554862, train_acc=0.375, test_acc=0.25,
         mean_xi=0.9362126172949232, flops=47304),
]

# SHA-256 of the (s_unimodal, s_multimodal, xi) trace and of the final
# parameters (sorted by id), little-endian float64, of a small spiking run
# (T=4, depth 2), per head mode
GOLDEN_SPIKING = {
    "probe_detached": ("0ed688eedc54d1b6a2f64c5390adbb62b799da7d220c1c7c9e203d110a0e4152",
                       "d545add52a996abbbd228c76a7e12c55bc0f1690200e70de1c926d6a7f0a902d"),
    "joint": ("fd9b81a59bf4fb7c1a9f90c03884e2e38221803ed8a04bc3524cb2d22d05221b",
              "5bb59df42ed7f5bd2f4182f87a953281aa84d775e25e94129c6aefea8f9b9adc"),
}

# The same two digests of a 2-epoch run at the shape of configs/spiking.json
# (1200 samples in batches of 32, the last one 16 rows), per
# (head mode, depth, time steps)
GOLDEN_SPIKING_SHIPPED = {
    ("joint", 2, 4): ("22303c05edec759ef0b3c0bc5452a5918661a0569e8f6877430d96da4b5fb9ac",
                      "bd2921cfa70763bc8f458b4f7b9419e1fecd4a66cfd28eb055d5e86a3f5778ca"),
    ("joint", 3, 3): ("73cd6ab6c035b5dcfd6cba4143645f54c8fcea660a749cfc0e4f9e16a3282ded",
                      "cbb1c08b461964b9bb4a5fcb469d4ef26e1ba1334b9e195f37f2c5cfc92b2ea6"),
    ("probe_detached", 2, 4): (
        "b72b190b4d58d27bbc537780208a40e75ad5d749f094acd2f81a40d803902cc2",
        "600a3f9666acdc3da960b865836d7a698b3db44637bc83630f4cceadce4548df"),
    ("probe_detached", 3, 3): (
        "99f1718c8e57289420cd8cbc49c35f6f3b7b5c80c9d1025ffc0939e058152c0d",
        "89d01f75d66d4fc29db978f3bbe553ff21f35cd6c231df28d1817241e138576a"),
}
SPIKING_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "spiking.json"


def small_setup():
    spec = DataSpec(n_classes=3, d_a=4, d_v=3, train_per_class=8, test_per_class=4, seed=0)
    ds = generate(spec)
    model = init_model(ModelConfig(d_in_a=4, d_in_v=3, n_classes=3, hidden=5, latent=4), 0)
    return ds, model


def grads_like(model, value=0.0):
    return {pid: np.full_like(arr, value) for pid, arr in model.params.items()}


def test_sgd_plain_everywhere_with_unit_multipliers():
    _, model = small_setup()
    twin = model.clone()
    cfg = OptimConfig(eta=0.1, weight_decay=0.0, method="mslr", mult_a=1.0, mult_v=1.0)
    sgd_step(model, grads_like(model, 0.5), cfg, xi=1.0)
    for pid in model.params:
        assert np.array_equal(model.params[pid], twin.params[pid] - 0.1 * 0.5)


def test_sgd_zero_gradients_no_change():
    _, model = small_setup()
    before = {pid: arr.copy() for pid, arr in model.params.items()}
    cfg = OptimConfig(eta=0.1, weight_decay=0.0)
    sgd_step(model, grads_like(model, 0.0), cfg, xi=1.3)
    for pid, arr in before.items():
        assert np.array_equal(model.params[pid], arr)


def test_sgd_weight_decay_hand_case():
    # w=1, g=1, eta=0.1, wd=0.1 -> w' = 1 - 0.1*(1 + 0.1*1) = 0.89
    _, model = small_setup()
    model.params["enc_a.0.W"] = np.ones_like(model.params["enc_a.0.W"])
    cfg = OptimConfig(eta=0.1, weight_decay=0.1)
    sgd_step(model, grads_like(model, 1.0), cfg, xi=1.0)
    assert np.allclose(model.params["enc_a.0.W"], 0.89, atol=1e-15)
    # biases are excluded from weight decay: b' = b - 0.1*1
    assert np.allclose(model.params["enc_a.0.b"], -0.1, atol=1e-15)


def test_mslr_multiplier_scales_update_exactly():
    _, model = small_setup()
    # zeroed parameters make the applied update exactly recoverable: w' = -delta
    for pid in model.params:
        model.params[pid] = np.zeros_like(model.params[pid])
    base = model.clone()
    scaled = model.clone()
    rng = np.random.default_rng(8)
    g = {pid: rng.standard_normal(arr.shape) for pid, arr in model.params.items()}
    sgd_step(base, g, OptimConfig(eta=0.1, weight_decay=0.0, method="mslr",
                                  mult_a=0.5, mult_v=1.0), xi=1.0)
    sgd_step(scaled, g, OptimConfig(eta=0.1, weight_decay=0.0, method="mslr",
                                    mult_a=1.0, mult_v=1.0), xi=1.0)
    for pid in model.params:
        if model.group_of(pid) == "enc_a":
            # power-of-two multiplier: scaling is exact in floating point
            assert np.array_equal(2.0 * base.params[pid], scaled.params[pid]), pid
        else:
            assert np.array_equal(base.params[pid], scaled.params[pid]), pid


def test_sgd_overflowing_update_aborts_and_leaves_the_model_untouched():
    """A finite parameter and a finite update whose difference overflows: the
    new value is checked before the commit, so no parameter changes."""
    _, model = small_setup()
    model.params["head_v.W"] = np.full_like(model.params["head_v.W"], 1.5e308)
    before = {pid: arr.copy() for pid, arr in model.params.items()}
    cfg = OptimConfig(eta=1.0, weight_decay=0.0)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="head_v.W"):
        sgd_step(model, grads_like(model, -1.5e308), cfg, xi=1.0)
    for pid, arr in before.items():
        assert np.array_equal(model.params[pid], arr), pid


def test_train_lr_epsilon_one_epoch_changes_little_and_lr_path_is_pure():
    ds, model = small_setup()
    initial = {pid: arr.copy() for pid, arr in model.params.items()}
    tiny = OptimConfig(eta=1e-300, weight_decay=0.0, epochs=1, batch_size=6, seed=0)
    train(ds, model, tiny)
    for pid, arr in initial.items():
        assert np.allclose(model.params[pid], arr, atol=1e-250)


def test_train_reaches_full_accuracy_on_separable_data():
    spec = DataSpec(n_classes=2, d_a=6, d_v=6, train_per_class=20, test_per_class=10,
                    sigma_a=0.05, sigma_v=0.05, seed=1)
    ds = generate(spec)
    model = init_model(ModelConfig(d_in_a=6, d_in_v=6, n_classes=2, hidden=8, latent=4), 1)
    cfg = OptimConfig(eta=0.05, epochs=50, batch_size=8, seed=1)
    _, history, _ = train(ds, model, cfg)
    assert max(h.train_acc for h in history) == 1.0


def test_train_reproducibility_bit_identical():
    ds, _ = small_setup()
    runs = []
    for _ in range(2):
        model = init_model(ModelConfig(d_in_a=4, d_in_v=3, n_classes=3, hidden=5, latent=4), 0)
        cfg = OptimConfig(eta=1e-2, epochs=3, batch_size=6, seed=0)
        m, history, trace = train(ds, model, cfg)
        runs.append((m, history, trace))
    m1, h1, t1 = runs[0]
    m2, h2, t2 = runs[1]
    assert h1 == h2
    assert [(r.step, r.epoch, r.s_unimodal, r.s_multimodal, r.xi) for r in t1] == \
           [(r.step, r.epoch, r.s_unimodal, r.s_multimodal, r.xi) for r in t2]
    for pid in m1.params:
        assert np.array_equal(m1.params[pid], m2.params[pid])


def test_train_golden_metrics():
    ds, model = small_setup()
    cfg = OptimConfig(eta=1e-2, epochs=2, batch_size=6, seed=0)
    _, history, _ = train(ds, model, cfg)
    for h, gold in zip(history, GOLDEN_EPOCHS):
        assert h.train_loss == gold["train_loss"]
        assert h.train_acc == gold["train_acc"]
        assert h.test_acc == gold["test_acc"]
        assert h.mean_xi == gold["mean_xi"]
        assert h.flops_cumulative == gold["flops"]


def _sha256_f64(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("head_mode", sorted(GOLDEN_SPIKING))
def test_train_spiking_golden_digests(head_mode):
    ds = generate(DataSpec(n_classes=3, d_a=6, d_v=5, train_per_class=8, test_per_class=4, seed=0))
    model = init_model(ModelConfig(d_in_a=6, d_in_v=5, n_classes=3, hidden=8, latent=6, depth=2,
                                   neuron_mode="spiking", lif=LIFParams(t_steps=4),
                                   head_mode=head_mode), 0)
    cfg = OptimConfig(eta=5e-2, epochs=3, batch_size=6, seed=0)
    model, _, trace = train(ds, model, cfg)
    xi_digest, param_digest = GOLDEN_SPIKING[head_mode]
    assert len(trace) == 12  # 3 epochs x 4 batches of 6
    assert _sha256_f64([[(r.s_unimodal, r.s_multimodal, r.xi) for r in trace]]) == xi_digest
    assert _sha256_f64([model.params[pid] for pid in sorted(model.params)]) == param_digest


@pytest.mark.parametrize("head_mode, depth, t_steps", sorted(GOLDEN_SPIKING_SHIPPED))
def test_train_spiking_golden_digests_at_shipped_shape(head_mode, depth, t_steps):
    cfg = load_config(str(SPIKING_CONFIG))
    model_cfg = replace(cfg.model, head_mode=head_mode, depth=depth,
                        lif=replace(cfg.model.lif, t_steps=t_steps))
    model, _, trace = train(generate(cfg.data), init_model(model_cfg, cfg.seed),
                            replace(cfg.optim, epochs=2))
    xi_digest, param_digest = GOLDEN_SPIKING_SHIPPED[head_mode, depth, t_steps]
    assert len(trace) == 76  # 2 epochs x 38 batches, the last of 16 rows
    assert _sha256_f64([[(r.s_unimodal, r.s_multimodal, r.xi) for r in trace]]) == xi_digest
    assert _sha256_f64([model.params[pid] for pid in sorted(model.params)]) == param_digest


def test_train_on_epoch_callback_streams_partial_logs():
    ds, model = small_setup()
    seen = []
    cfg = OptimConfig(eta=1e-2, epochs=3, batch_size=6, seed=0)
    train(ds, model, cfg, on_epoch=lambda em, rows: seen.append((em.epoch, len(rows))))
    assert [e for e, _ in seen] == [1, 2, 3]
    assert all(n == 4 for _, n in seen)  # 24 samples / batch 6


def test_top1_accuracy_cases():
    assert top1_accuracy(Tensor([[2.0, 1.0], [0.0, 3.0]]), [0, 1]) == 1.0
    assert top1_accuracy(Tensor([[1.0, 2.0], [3.0, 0.0]]), [0, 1]) == 0.0
    logits = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    assert top1_accuracy(logits, [0, 1, 0, 1]) == 0.75
    # argmax ties break toward the lowest class index
    assert top1_accuracy(Tensor([[0.5, 0.5]]), [0]) == 1.0
    assert top1_accuracy(Tensor([[0.5, 0.5]]), [1]) == 0.0
    # a label list of the wrong length is refused, not broadcast
    with pytest.raises(ShapeError, match="expected 4 labels, got 1"):
        top1_accuracy(logits, [0])
    with pytest.raises(ShapeError, match="expected 2 labels, got 3"):
        top1_accuracy(Tensor([[2.0, 1.0], [0.0, 3.0]]), [0, 1, 0])
    # logits that are not (B,M) are refused, not reduced along their last axis
    with pytest.raises(ShapeError, match=r"top-1 accuracy needs \(B,M\) logits, got shape \(2,\)"):
        top1_accuracy(np.zeros(2), [0, 1])
    with pytest.raises(ShapeError, match=r"got shape \(2, 2, 1\)"):
        top1_accuracy(np.zeros((2, 2, 1)), [0, 1])


def test_flops_double_batches_double_cost():
    _, model = small_setup()
    cfg = OptimConfig(batch_size=8)
    base = flops_per_epoch(model, 64, cfg)
    assert base > 0
    assert flops_per_epoch(model, 128, cfg) == 2 * base


def test_flops_spiking_scales_with_steps():
    cont = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    spik4 = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4,
                                   neuron_mode="spiking", lif=LIFParams(t_steps=4)), 0)
    spik8 = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4,
                                   neuron_mode="spiking", lif=LIFParams(t_steps=8)), 0)
    f_cont, f4, f8 = (forward_flops(m, 16) for m in (cont, spik4, spik8))
    assert f4 > f_cont
    # everything except the loss kernels (three cross entropies of 4BC + 3B,
    # and three scalar nodes combining them) and the two encoders' first
    # affine layers (2*16*4*5 + 16*5 each), whose drive is computed once for
    # all steps, scales linearly with the step count
    const = 3 * (4 * 16 * 3 + 3 * 16) + 3 + 2 * (2 * 16 * 4 * 5 + 16 * 5)
    assert f8 == 2 * f4 - const


@pytest.mark.parametrize("name, at_32, at_300", [
    ("default", 586_851, 5_501_703), ("spiking", 1_649_699, 15_465_903),
])
def test_forward_flops_at_the_shipped_shapes(name, at_32, at_300):
    """Frozen counts at configs/<name>.json, for a batch and for 300 rows (the
    test split); a change of the counting rules must change them on purpose.
    The spiking counts moved from 2,448,420 and 22,953,904 when each encoder's
    shared first drive began to count once rather than once per step. Both
    moved down by 1 when the count came from the tape, which records the loss
    combination as three scalar nodes where the hand count said 4."""
    cfg = load_config(str(SPIKING_CONFIG.parent / f"{name}.json"))
    model = init_model(cfg.model, cfg.seed)
    assert (forward_flops(model, 32), forward_flops(model, 300)) == (at_32, at_300)


def _random_batch(cfg: ModelConfig, rows: int, seed: int = 0) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(Tensor(rng.standard_normal((rows, cfg.d_in_a))),
                 Tensor(rng.standard_normal((rows, cfg.d_in_v))),
                 rng.integers(0, cfg.n_classes, size=rows))


@pytest.mark.parametrize("name", ["default", "spiking"])
@pytest.mark.parametrize("rows", [32, 300])
def test_forward_flops_affine_part_matches_the_recorded_linear_nodes(monkeypatch, name, rows):
    """The affine part of `forward_flops` (what is left when the `linear`
    rule counts nothing) is 2*rows*K*N + rows*N summed over the `linear` nodes
    one recorded forward pass runs, at each node's own row count."""
    cfg = load_config(str(SPIKING_CONFIG.parent / f"{name}.json"))
    model = init_model(cfg.model, cfg.seed)
    tape = Tape()
    forward_full(_random_batch(cfg.model, rows), model, tape)
    recorded = 0
    for node in tape.nodes:
        if node.op == "linear":
            (n_rows, k), n = tape.nodes[node.inputs[0]].value.shape, node.value.shape[1]
            recorded += 2 * n_rows * k * n + n_rows * n
    total = forward_flops(model, rows)
    no_linear = replace(T._OPS["linear"], flops=lambda out, ins, aux: 0)
    monkeypatch.setitem(T._OPS, "linear", no_linear)
    assert total - forward_flops(model, rows) == recorded


@pytest.mark.parametrize("name", ["default", "spiking"])
@pytest.mark.parametrize("rows", [1, 16, 32, 300, 1200])
def test_forward_flops_is_the_rule_sum_over_a_recorded_forward(name, rows):
    """`forward_flops`, over a zero batch, counts what a forward pass of real
    data records, and the hand count less the loss combination's 1."""
    cfg = load_config(str(SPIKING_CONFIG.parent / f"{name}.json"))
    model = init_model(cfg.model, cfg.seed)
    tape = Tape()
    forward_full(_random_batch(cfg.model, rows, seed=rows), model, tape)
    assert forward_flops(model, rows) == tape.flops() == hand_forward_flops(cfg.model, rows) - 1


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 3), d_a=st.integers(1, 6), d_v=st.integers(1, 6),
       hidden=st.integers(1, 6), latent=st.integers(1, 6), n_classes=st.integers(2, 5),
       t_steps=st.integers(1, 5), neuron_mode=st.sampled_from(["continuous", "spiking"]),
       head_mode=st.sampled_from(["probe_detached", "joint"]), rows=st.integers(1, 40))
def test_forward_flops_is_the_hand_count_minus_one(depth, d_a, d_v, hidden, latent, n_classes,
                                                   t_steps, neuron_mode, head_mode, rows):
    """The tape count equals the hand count of `reference_ops` minus 1: the loss
    combination is three scalar nodes (add, smul, add) where the hand count
    says 4. A one-step spiking model also runs no rate-decoding averages,
    which the hand count charges: `step_mean` of one step records no node."""
    cfg = ModelConfig(d_in_a=d_a, d_in_v=d_v, n_classes=n_classes, hidden=hidden,
                      latent=latent, depth=depth, neuron_mode=neuron_mode,
                      lif=LIFParams(t_steps=t_steps), head_mode=head_mode)
    unrun_averages = 3 * rows * n_classes if cfg.steps == 1 and neuron_mode == "spiking" else 0
    assert (forward_flops(init_model(cfg, 0), rows)
            == hand_forward_flops(cfg, rows) - 1 - unrun_averages)


def test_optim_config_validation():
    with pytest.raises(ConfigError):
        OptimConfig(eta=0.0)
    with pytest.raises(ConfigError):
        OptimConfig(epochs=0)
    with pytest.raises(ConfigError):
        OptimConfig(method="adam")
    with pytest.raises(ConfigError):
        OptimConfig(mult_a=0.0)
