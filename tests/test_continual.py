"""Task streams, incremental training, masked losses, and forgetting metrics."""

import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest

import iemf.tensor as T
from iemf.continual import (
    MASK_NEG,
    aa_aia,
    afr,
    build_task_stream,
    lwf_loss,
    masked_cross_entropy,
    train_incremental,
)
from iemf.data import DataSpec, generate
from iemf.errors import ConfigError, ContractError
from iemf.model import ModelConfig, init_model
from iemf.modulation import IEMFConfig
from iemf.tensor import Tape, Tensor, softmax_cross_entropy
from iemf.training import OptimConfig, train

import reference_ops as R

# frozen 3-task seed-0 regression fixture (generated once)
GOLDEN_MATRIX = [[0.5833333333333334],
                 [0.6666666666666666, 0.16666666666666666],
                 [0.5833333333333334, 0.16666666666666666, 0.08333333333333333]]
# SHA-256 of the (s_unimodal, s_multimodal, xi) trace and of the final
# parameters (sorted by id), little-endian float64, for the same 3-task run
GOLDEN_CONTINUAL = {
    "lwf": ("4ee6f1eee0485d9318eebcbd8ce74c0c9c573c21db1fa0cb859cf6bbda73f8fb",
            "10f949bd1f20460b6b96e645b1359fb8aca76fad25ef4416acee13dade1253f8"),
    "finetune": ("6f455a2543ee496c2d27ad4c06bbd5a641df040350603a37b2d3d4c033d4fccf",
                 "e7ee4e38fce20bd4cd733ec5e9de09094082d9baa82f012935098b382c38310c"),
}


def small_stream(seed=0, sigma_a=2.0, sigma_v=1.0):
    ds = generate(DataSpec(n_classes=6, d_a=6, d_v=6, train_per_class=12, test_per_class=6,
                           sigma_a=sigma_a, sigma_v=sigma_v, seed=seed))
    return ds, build_task_stream(ds, 3, 2, seed)


def small_model(seed=0):
    return init_model(ModelConfig(d_in_a=6, d_in_v=6, n_classes=6, hidden=8, latent=6), seed)


def test_single_task_stream_covers_chosen_classes():
    ds = generate(DataSpec(n_classes=4, d_a=4, d_v=4, train_per_class=5, test_per_class=3, seed=1))
    stream = build_task_stream(ds, 1, 4, 7)
    assert sorted(stream.tasks[0].classes) == [0, 1, 2, 3]
    assert stream.tasks[0].train.size == ds.train.size
    assert stream.tasks[0].test.size == ds.test.size


def test_task_streams_are_disjoint_and_counted():
    _, stream = small_stream()
    seen = set()
    for task in stream.tasks:
        assert len(task.classes) == 2
        assert not (seen & set(task.classes))
        seen.update(task.classes)
        assert set(np.unique(task.train.y)) == set(task.classes)
    assert len(seen) == 6


def test_task_stream_needs_enough_classes():
    ds = generate(DataSpec(n_classes=4, d_a=4, d_v=4, train_per_class=5, test_per_class=3, seed=1))
    with pytest.raises(ConfigError):
        build_task_stream(ds, 3, 2, 0)


def test_masked_cross_entropy_restricts_support():
    logits = Tensor([[5.0, 1.0, -2.0, 3.0]])
    loss, probs = masked_cross_entropy(logits, [1], [1, 2])
    assert probs[0, 0] == 0.0 and probs[0, 3] == 0.0
    expected = -math.log(math.exp(1.0) / (math.exp(1.0) + math.exp(-2.0)))
    assert abs(loss.item() - expected) < 1e-12


def test_lwf_loss_lambda_zero_is_masked_ce():
    logits = Tensor([[0.5, -0.2, 1.0, 0.0]])
    old = Tensor([[0.1, 0.2, 0.3, 0.4]])
    full, _ = lwf_loss(logits, [2], old, [2, 3], [0, 1], temperature=2.0, lam=0.0)
    ce, _ = masked_cross_entropy(logits, [2], [2, 3])
    assert full.item() == ce.item()


def test_lwf_loss_identical_logits_zero_distillation():
    logits = Tensor([[0.5, -0.2, 1.0, 0.0]])
    full, _ = lwf_loss(logits, [2], logits, [2, 3], [0, 1], temperature=2.0, lam=1.0)
    ce, _ = masked_cross_entropy(logits, [2], [2, 3])
    assert abs(full.item() - ce.item()) < 1e-15


def test_lwf_loss_empty_previous_classes_drops_distillation():
    logits = Tensor([[0.5, -0.2]])
    old = Tensor([[9.0, -9.0]])
    full, _ = lwf_loss(logits, [0], old, [0, 1], [], temperature=2.0, lam=1.0)
    ce, _ = masked_cross_entropy(logits, [0], [0, 1])
    assert full.item() == ce.item()


def _mask_case(b, m):
    """Logits holding ±0.0 and values up to 1e4, an allowed class subset in
    shuffled order (one class possible), the other classes, and labels drawn
    from the allowed ones."""
    rng = np.random.default_rng(100 * b + m)
    logits = rng.standard_normal((b, m)) * rng.choice([1.0, 1e2, 1e4], size=(b, m))
    logits[rng.random((b, m)) < 0.2] = 0.0
    logits[rng.random((b, m)) < 0.2] = -0.0
    order = rng.permutation(m)
    k = int(rng.integers(1, m))
    allowed, rest = [int(c) for c in order[:k]], [int(c) for c in order[k:]]
    return logits, allowed, rest, rng.choice(allowed, size=b)


def _add_bias_reference(logits, labels, allowed):
    row = np.full(logits.shape[1], MASK_NEG)
    row[allowed] = 0.0
    return softmax_cross_entropy(R.add_bias(logits, Tensor(row)), labels)


def _assert_bits_equal(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_a_blocked_class_gets_zero_probability_however_large_its_logit():
    """-2 against 0 over the allowed classes; a mask that leaves the blocked
    logit above the others (-1e3 against 1e4) would give it probability 1."""
    loss, probs = masked_cross_entropy(Tensor([[0.0, 1e4, -2.0]]), [0], [0, 2])
    assert probs[0, 1] == 0.0
    assert loss.item() == pytest.approx(math.log1p(math.exp(-2.0)), rel=1e-12)  # 0.1269


def _loss_probs_grad(criterion, logits0):
    tape = Tape()
    loss, probs = criterion(tape.leaf(logits0, param_id="logits"))
    return loss.data, probs, R.named_grads(tape, loss)["logits"]


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("b", [1, 2, 32])
def test_masked_criteria_equal_the_add_bias_composition_bit_for_bit(b, m):
    """The class mask added as a constant (B, C) addend gives the loss,
    probabilities and logits gradient of the row-broadcast bias add."""
    logits0, allowed, rest, labels = _mask_case(b, m)
    got = _loss_probs_grad(lambda z: masked_cross_entropy(z, labels, allowed), logits0)
    want = _loss_probs_grad(lambda z: _add_bias_reference(z, labels, allowed), logits0)
    for g, w in zip(got, want):
        _assert_bits_equal(g, w)

    old = Tensor(np.random.default_rng(m).standard_normal((b, m)))
    temp, lam = 2.0, 0.7

    def reference_lwf(z):
        ce, probs = _add_bias_reference(z, labels, allowed)
        kl = T.distill_kl(T.select_cols(z, rest), Tensor(old.data[:, rest]), temp)
        return T.add(ce, T.smul(kl, lam * temp**2)), probs

    got = _loss_probs_grad(lambda z: lwf_loss(z, labels, old, allowed, rest, temp, lam), logits0)
    want = _loss_probs_grad(reference_lwf, logits0)
    for g, w in zip(got, want):
        _assert_bits_equal(g, w)


def test_lwf_loss_two_class_hand_computation():
    temp, lam = 2.0, 0.7
    new = np.array([[1.0, -0.5, 0.8, 0.2]])
    old = np.array([[0.4, 0.1, 0.0, 0.0]])
    current, prev = [2, 3], [0, 1]
    loss, _ = lwf_loss(Tensor(new), [3], Tensor(old), current, prev, temp, lam)

    # independent scalar computation
    e = math.exp
    ce = -math.log(e(0.2) / (e(0.8) + e(0.2)))
    pn = [e(1.0 / temp), e(-0.5 / temp)]
    pn = [v / sum(pn) for v in pn]
    po = [e(0.4 / temp), e(0.1 / temp)]
    po = [v / sum(po) for v in po]
    kl = sum(p * (math.log(p) - math.log(q)) for p, q in zip(po, pn))
    assert abs(loss.item() - (ce + lam * temp**2 * kl)) < 1e-12


@pytest.mark.parametrize("neuron_mode", ["continuous", "spiking"])
def test_incremental_single_task_equals_plain_accuracy(neuron_mode):
    """One fine-tuning task over every class is plain training, bit for bit:
    the same xi trace, the same final parameters, and the last test accuracy."""
    ds, _ = small_stream()
    stream = build_task_stream(ds, 1, 6, 0)
    cfg = OptimConfig(eta=1e-2, epochs=3, batch_size=8, seed=0)
    model_cfg = ModelConfig(d_in_a=6, d_in_v=6, n_classes=6, hidden=8, latent=6,
                            neuron_mode=neuron_mode)
    incremental = init_model(model_cfg, 0)
    matrix, inc_trace = train_incremental(stream, "finetune", incremental, cfg)
    plain, history, trace = train(ds, init_model(model_cfg, 0), cfg)
    assert len(trace) == 27  # 3 epochs x 9 batches over 72 samples
    assert [astuple(r) for r in inc_trace] == [astuple(r) for r in trace]
    assert sorted(incremental.params) == sorted(plain.params)
    for pid, w in plain.params.items():
        assert incremental.params[pid].tobytes() == w.tobytes(), pid
    assert matrix == [[history[-1].test_acc]]


def test_incremental_frozen_model_repeats_rows():
    """With a vanishing learning rate the rows replay earlier accuracies."""
    _, stream = small_stream()
    cfg = OptimConfig(eta=1e-300, epochs=1, batch_size=8, seed=0)
    matrix, _ = train_incremental(stream, "finetune", small_model(), cfg)
    assert matrix[1][0] == matrix[0][0]
    assert matrix[2][0] == matrix[1][0] and matrix[2][1] == matrix[1][1]


def _sha256_f64(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def test_incremental_golden_matrix():
    for method, (xi_digest, param_digest) in GOLDEN_CONTINUAL.items():
        _, stream = small_stream()
        cfg = OptimConfig(eta=1e-2, epochs=3, batch_size=8, seed=0)
        model = small_model()
        matrix, trace = train_incremental(stream, method, model, cfg)
        if method == "lwf":
            assert matrix == GOLDEN_MATRIX
        assert len(trace) == 27  # 3 tasks x 3 epochs x 3 batches of 8
        assert _sha256_f64([[(r.s_unimodal, r.s_multimodal, r.xi) for r in trace]]) == xi_digest
        assert _sha256_f64([model.params[pid] for pid in sorted(model.params)]) == param_digest


def test_incremental_modulation_toggle_touches_only_fusion_after_one_step():
    _, stream = small_stream()
    model_on, model_off = small_model(), small_model()
    cfg_on = OptimConfig(eta=1e-2, epochs=1, batch_size=64, seed=0,
                         iemf=IEMFConfig(enabled=True))
    cfg_off = OptimConfig(eta=1e-2, epochs=1, batch_size=64, seed=0,
                          iemf=IEMFConfig(enabled=False))
    one_task = build_task_stream(generate(DataSpec(
        n_classes=6, d_a=6, d_v=6, train_per_class=8, test_per_class=4,
        sigma_a=2.0, sigma_v=1.0, seed=0)), 1, 6, 0)
    # batch 64 > 48 samples: exactly one step per epoch
    train_incremental(one_task, "finetune", model_on, cfg_on)
    train_incremental(one_task, "finetune", model_off, cfg_off)
    for pid in model_on.params:
        if model_on.group_of(pid) == "fusion":
            assert not np.array_equal(model_on.params[pid], model_off.params[pid])
        else:
            assert np.array_equal(model_on.params[pid], model_off.params[pid]), pid


def test_aa_aia_cases():
    aa, aia = aa_aia([[0.9]])
    assert aa == [0.9] and aia == 0.9
    aa, aia = aa_aia([[0.80], [0.70, 0.60]])
    assert aa[0] == 0.80 and abs(aa[1] - 0.65) < 1e-15 and abs(aia - 0.725) < 1e-15
    aa, aia = aa_aia([[0.5], [0.5, 0.5], [0.5, 0.5, 0.5]])
    assert aia == 0.5


def test_afr_worked_fixture():
    matrix = [[0.90], [0.80, 0.85], [0.70, 0.75, 0.88]]
    assert abs(afr(matrix) - 0.125) < 1e-15


def test_afr_never_dropping_is_nonpositive():
    matrix = [[0.5], [0.6, 0.7], [0.7, 0.8, 0.9]]
    assert afr(matrix) <= 0.0


def test_afr_constant_matrix_is_zero():
    matrix = [[0.4], [0.4, 0.4], [0.4, 0.4, 0.4]]
    assert afr(matrix) == 0.0


def test_afr_requires_two_tasks():
    with pytest.raises(ContractError):
        afr([[0.9]])


def test_metrics_reject_incomplete_matrices():
    with pytest.raises(ContractError):
        aa_aia([[0.9], [0.8]])
    with pytest.raises(ContractError):
        aa_aia([])


def _brute_force_aa_aia(matrix):
    aa = []
    for k in range(1, len(matrix) + 1):
        total = 0.0
        for j in range(1, k + 1):
            total += matrix[k - 1][j - 1]
        aa.append(total / k)
    return aa, sum(aa) / len(aa)


def _brute_force_afr(matrix):
    big_k = len(matrix)
    fs = []
    for k in range(2, big_k + 1):
        acc = 0.0
        for j in range(1, k):
            best = -np.inf
            for ell in range(j, k):
                best = max(best, matrix[ell - 1][j - 1])
            acc += best - matrix[k - 1][j - 1]
        fs.append(acc / (k - 1))
    return sum(fs) / (big_k - 1)


def test_metric_oracle_equivalence_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        matrix = [[float(rng.random()) for _ in range(i + 1)] for i in range(k)]
        aa, aia = aa_aia(matrix)
        ref_aa, ref_aia = _brute_force_aa_aia(matrix)
        assert np.max(np.abs(np.array(aa) - np.array(ref_aa))) < 1e-12
        assert abs(aia - ref_aia) < 1e-12
        assert abs(afr(matrix) - _brute_force_afr(matrix)) < 1e-12
