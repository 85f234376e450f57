"""Two-branch network: encoding, fusion, probe heads, and mode parity."""

from pathlib import Path

import numpy as np
import pytest

import iemf.tensor as T
from iemf.analysis import model_objective
from iemf.config import load_config
from iemf.container import load_checkpoint, save_checkpoint
from iemf.errors import NumericError, ShapeError
from iemf.model import (
    Batch,
    ModelConfig,
    MultimodalModel,
    bind_params,
    forward_full,
    fused_logits,
    init_model,
    param_shapes,
    step_latents,
)
from iemf.neurons import LIFParams
from iemf.tensor import Tape, Tensor, backward
from iemf.training import OptimConfig, sgd_step

import reference_ops as R

# frozen regression values from the seed-0 configuration (generated once)
GOLDEN_Z_A = [[0.1758463755323488, -0.8677794426204475, 1.169885736135079, -0.2451532285492979],
              [0.0, 0.0, 0.0, 0.0]]
GOLDEN_Z_V = [[0.05185938410870241, 0.03415672484506499, 0.04632973796254365, -0.09356696552611436],
              [0.6671557841886657, -0.5348510220735458, 1.085275084766099, 0.6703507133929854]]
GOLDEN_LOSS = 2.9130025683130576


def small_model(**overrides) -> MultimodalModel:
    kwargs = dict(d_in_a=4, d_in_v=3, n_classes=3, hidden=5, latent=4)
    kwargs.update(overrides)
    return init_model(ModelConfig(**kwargs), 0)


def fixed_batch() -> Batch:
    x_a = np.linspace(-1, 1, 8).reshape(2, 4)
    x_v = np.linspace(0.5, -0.5, 6).reshape(2, 3)
    return Batch(Tensor(x_a), Tensor(x_v), [0, 1])


def latents(batch: Batch, model: MultimodalModel):
    """The two step-averaged encoder latents (firing rates in spiking mode)."""
    return tuple(T.step_mean(z) for z in step_latents(batch, model, bind_params(model, None)))


def fused(z_a: Tensor, z_v: Tensor, model: MultimodalModel) -> Tensor:
    """One step's fused logits, built from the production pieces."""
    return fused_logits(T.concat_cols(z_a, z_v), model, bind_params(model, None))


def test_zero_weights_give_zero_latents():
    model = small_model()
    for pid in model.params:
        model.params[pid][...] = 0.0
    z_a, z_v = latents(fixed_batch(), model)
    assert np.array_equal(z_a.data, np.zeros((2, 4)))
    assert np.array_equal(z_v.data, np.zeros((2, 4)))


def test_one_layer_identity_encoder_passes_input_through():
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=2, latent=4, depth=1), 0)
    model.params["enc_a.0.W"][...] = np.eye(4)
    model.params["enc_a.0.b"][...] = 0.0
    batch = Batch(Tensor(np.arange(8, dtype=float).reshape(2, 4) - 3.0),
                  Tensor(np.zeros((2, 4))), [0, 1])
    z_a, _ = latents(batch, model)
    assert np.array_equal(z_a.data, batch.x_a.data)


def test_encode_golden_fixture():
    z_a, z_v = latents(fixed_batch(), small_model())
    assert np.array_equal(z_a.data, np.array(GOLDEN_Z_A))
    assert np.array_equal(z_v.data, np.array(GOLDEN_Z_V))


def test_fuse_concat_constant_bias():
    model = small_model()
    model.params["fusion.W"][...] = 0.0
    model.params["fusion.b"][...] = 1.5
    logits = fused(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))), model)
    assert np.array_equal(logits.data, np.full((2, 3), 1.5))


def test_fuse_concat_projection_block():
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=4, latent=4), 0)
    model.params["fusion.W"][...] = np.concatenate([np.eye(4), np.zeros((4, 4))], axis=1)
    model.params["fusion.b"][...] = 0.0
    z_a = Tensor(np.arange(8, dtype=float).reshape(2, 4))
    logits = fused(z_a, Tensor(np.ones((2, 4))), model)
    assert np.array_equal(logits.data, z_a.data)


def test_fuse_concat_hand_case():
    model = init_model(ModelConfig(d_in_a=2, d_in_v=2, n_classes=2, latent=2), 0)
    model.params["fusion.W"][...] = [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]
    model.params["fusion.b"][...] = [0.5, 0.0]
    logits = fused(Tensor([[1.0, 0.0]]), Tensor([[0.0, 2.0]]), model)
    assert logits.data[0, 0] == 3.5


def test_fuse_concat_width_mismatch():
    model = small_model()
    with pytest.raises(ShapeError):
        fused(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), model)


def test_forward_symmetric_model_gives_uniform_fused_probs():
    model = init_model(ModelConfig(d_in_a=2, d_in_v=2, n_classes=2, latent=2, depth=1), 0)
    for pid in model.params:
        model.params[pid][...] = 0.3
    batch = Batch(Tensor([[1.0, 1.0]]), Tensor([[1.0, 1.0]]), [0])
    out = forward_full(batch, model)
    assert np.allclose(out.p_av, [[0.5, 0.5]], atol=1e-15)


def test_forward_perfect_fused_logits_leave_head_losses():
    model = small_model()
    out = forward_full(fixed_batch(), model)
    # reconstruct: total = ce_av + 0.5 * (ce_a + ce_v)
    ce_av, _ = T.softmax_cross_entropy(out.logits_av, [0, 1])
    ce_a, _ = T.softmax_cross_entropy(out.logits_a, [0, 1])
    ce_v, _ = T.softmax_cross_entropy(out.logits_v, [0, 1])
    expected = ce_av.item() + 0.5 * (ce_a.item() + ce_v.item())
    assert abs(out.loss.item() - expected) < 1e-12


def test_forward_golden_loss():
    out = forward_full(fixed_batch(), small_model())
    assert out.loss.item() == GOLDEN_LOSS


def test_probability_rows_sum_to_one():
    out = forward_full(fixed_batch(), small_model())
    for p in (out.p_av, out.p_a, out.p_v):
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_probe_isolation_detached_heads_leave_encoders_untouched():
    model = small_model()
    batch = fixed_batch()
    tape = Tape()
    out = forward_full(batch, model, tape)
    ce_a, _ = T.softmax_cross_entropy(out.logits_a, batch.y)
    ce_v, _ = T.softmax_cross_entropy(out.logits_v, batch.y)
    grads = model.holding(backward(tape, T.add(ce_a, ce_v))).params
    for pid in model.params:
        if model.group_of(pid).startswith("enc"):
            assert np.array_equal(grads[pid], np.zeros_like(model.params[pid])), pid
        if model.group_of(pid).startswith("head"):
            assert np.any(grads[pid] != 0.0), pid


def test_joint_mode_heads_reach_encoders():
    model = small_model(head_mode="joint")
    batch = fixed_batch()
    tape = Tape()
    out = forward_full(batch, model, tape)
    ce_a, _ = T.softmax_cross_entropy(out.logits_a, batch.y)
    grads = model.holding(backward(tape, ce_a)).params
    assert np.any(grads["enc_a.0.W"] != 0.0)


def test_fusion_locality_matches_manual_concat():
    """d(loss)/d(W_f) equals the gradient of a single linear layer on [z_a; z_v]."""
    model = small_model()
    batch = fixed_batch()
    tape = Tape()
    out = forward_full(batch, model, tape)
    grads = model.holding(backward(tape, out.loss)).params

    z = np.concatenate([z.data for z in latents(batch, model)], axis=1)
    tape2 = Tape()
    w = tape2.leaf(model.params["fusion.W"], param_id="w")
    b = tape2.leaf(model.params["fusion.b"], param_id="b")
    logits = R.add_bias(R.matmul(tape2.leaf(z), R.transpose(w)), b)
    ce, _ = T.softmax_cross_entropy(logits, batch.y)
    manual = R.named_grads(tape2, ce)
    assert np.max(np.abs(grads["fusion.W"] - manual["w"])) < 1e-12
    assert np.max(np.abs(grads["fusion.b"] - manual["b"])) < 1e-12


def test_spiking_and_continuous_outputs_share_shapes():
    batch = fixed_batch()
    cont_model = small_model()
    spik_model = small_model(neuron_mode="spiking", lif=LIFParams(t_steps=4))
    for z_cont, z_spik in zip(latents(batch, cont_model), latents(batch, spik_model)):
        assert z_cont.shape == z_spik.shape
    cont, spik = forward_full(batch, cont_model), forward_full(batch, spik_model)
    for field in ("logits_av", "logits_a", "logits_v", "p_av", "p_a", "p_v"):
        assert getattr(cont, field).shape == getattr(spik, field).shape, field
    assert cont.loss.shape == spik.loss.shape == ()


def test_spiking_latents_are_rates():
    z_a, _ = latents(fixed_batch(), small_model(neuron_mode="spiking"))
    assert np.all(z_a.data >= 0.0) and np.all(z_a.data <= 1.0)


def test_input_width_mismatch_raises():
    with pytest.raises(ShapeError):
        forward_full(fixed_batch(), small_model(d_in_a=5))


def test_batch_validation():
    with pytest.raises(ShapeError):
        Batch(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), [0, 1])
    with pytest.raises(ShapeError):
        Batch(Tensor(np.ones((0, 3))), Tensor(np.ones((0, 3))), [])


@pytest.mark.parametrize("traced", [False, True])
def test_non_finite_parameter_written_directly_fails_at_first_read(traced):
    """Parameters are bound unchecked, so a NaN written straight into the
    store is caught by the first op that reads it."""
    model = small_model()
    model.params["enc_a.0.W"][0, 0] = np.nan
    with pytest.raises(NumericError, match="linear"):
        forward_full(fixed_batch(), model, Tape() if traced else None)


def test_clone_is_independent():
    model = small_model()
    twin = model.clone()
    twin.params["fusion.W"][0, 0] += 1.0
    assert model.params["fusion.W"][0, 0] != twin.params["fusion.W"][0, 0]
    assert not np.shares_memory(model.flat, twin.flat)


def test_params_are_views_of_one_vector_in_param_shapes_order():
    model = small_model()
    assert [pid for pid, _, _, _ in model.spans] == list(param_shapes(model.cfg))
    for pid, start, stop, shape in model.spans:
        assert model.params[pid].shape == shape
        assert np.shares_memory(model.params[pid], model.flat[start:stop])
    assert model.spans[-1][2] == model.flat.size


def test_assigning_into_params_raises():
    model = small_model()
    with pytest.raises(TypeError):
        model.params["fusion.b"] = np.zeros(3)
    with pytest.raises(TypeError):
        del model.params["fusion.b"]


def test_an_in_place_write_reaches_the_next_forward_pass_and_sgd_step():
    model = small_model()
    model.params["fusion.W"][...] = 0.0
    model.params["fusion.b"][...] = [0.5, -0.25, 2.0]
    logits = forward_full(fixed_batch(), model).logits_av.data
    assert np.array_equal(logits, np.tile([0.5, -0.25, 2.0], (2, 1)))
    sgd_step(model, np.ones_like(model.flat), OptimConfig(eta=0.5, weight_decay=0.0), xi=1.0)
    assert np.array_equal(model.params["fusion.b"], [0.0, -0.75, 1.5])


def test_model_objective_points_share_no_memory_with_their_source(monkeypatch):
    model = small_model()
    held = []
    holding = MultimodalModel.holding
    monkeypatch.setattr(MultimodalModel, "holding",
                        lambda self, flat: held.append(flat) or holding(self, flat))
    loss_fn, grad_fn, w0, _ = model_objective(model, fixed_batch())
    w = w0 + 0.01
    grad_fn(w)
    loss_fn(w)
    loss_fn(w0)
    work, points = held[0], held[1:]  # the objective's clone, then one vector per point
    assert len(points) == 2  # the loss at the gradient's point reuses its forward pass
    for vector in (w0, work, *points):
        assert not np.shares_memory(vector, model.flat)
    for vector in points:
        assert not any(np.shares_memory(vector, other) for other in (w, w0, work))


def test_checkpoint_round_trip_keeps_the_parameter_vector(tmp_path):
    model = small_model()
    sgd_step(model, np.full_like(model.flat, 0.1), OptimConfig(eta=0.3), xi=1.2)
    path = str(tmp_path / "model.iemf")
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.spans == model.spans
    assert loaded.flat.tobytes() == model.flat.tobytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, nodes", [("default", 34), ("spiking", 39)])
def test_tape_nodes_per_step_at_shipped_config_shapes(name, nodes):
    """One training step's tape at the shape of `configs/<name>.json`, batch included.

    Continuous: 14 parameter leaves, 2 input leaves, 2 constant leaves (the
    probe heads' detached latents), 7 `linear`, 2 `relu`, `concat_cols`,
    3 `softmax_xent` and 3 nodes combining the losses. Spiking (T=4, depth 2)
    swaps the 2 `relu`s for 4 `lif_layer` and adds one `step_mean` per logit
    set: every layer, the fusion layer and the heads run their T steps as one
    node over a (T, B, N) array.
    """
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    model = init_model(cfg.model, cfg.seed)
    rng = np.random.default_rng(0)
    b = cfg.optim.batch_size
    batch = Batch(Tensor(rng.standard_normal((b, cfg.model.d_in_a))),
                  Tensor(rng.standard_normal((b, cfg.model.d_in_v))),
                  rng.integers(0, cfg.model.n_classes, size=b))
    tape = Tape()
    forward_full(batch, model, tape)
    assert len(tape) == nodes
    for node in tape.nodes:  # the value contract of every op's forward rule
        assert node.value.dtype == np.float64 and node.value.flags.c_contiguous, node.op
