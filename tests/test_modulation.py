"""Strength scores, the bounded fusion coefficient, and the modulated update (sgd_step)."""

import logging
import math
from pathlib import Path

import numpy as np
import pytest

from iemf.analysis import landscape_slice, model_objective, sharpness
from iemf.config import load_config
from iemf.continual import _incremental_step
from iemf.data import DataSpec, generate
from iemf.errors import ConfigError, ContractError, NumericError
from iemf.model import Batch, ModelConfig, MultimodalModel, init_model
from iemf.modulation import (
    EPS_DIV,
    IEMFConfig,
    batch_strength_scores,
    iemf_coefficient,
    iemf_train_step,
    per_sample_content,
)
from iemf.neurons import LIFParams
from iemf.tensor import Tensor
from iemf.training import OptimConfig, sgd_step

# frozen seed-0 one-step regression values (generated once)
GOLDEN_STEP = dict(loss=3.2032050047817977, xi=1.2575576007470575,
                   s_uni=0.3642409228576502, s_multi=0.49455034275961207)


def test_per_sample_content_uniform():
    c = per_sample_content(np.full((3, 4), 0.25), [0, 1, 3])
    assert np.array_equal(c, [0.25, 0.25, 0.25])


def test_per_sample_content_one_hot():
    assert np.array_equal(per_sample_content(np.eye(3), [0, 1, 2]), np.ones(3))


def test_per_sample_content_reads_label_column():
    c = per_sample_content(np.array([[1.0 / 3.0, 2.0 / 3.0]]), [1])
    assert c[0] == 2.0 / 3.0


def test_per_sample_content_rejects_bad_rows():
    with pytest.raises(ContractError):
        per_sample_content(np.array([[0.9, 0.3]]), [0])
    with pytest.raises(ContractError):
        per_sample_content(np.array([[0.5, 0.5]]), [0, 1])
    with pytest.raises(IndexError):
        per_sample_content(np.array([[0.5, 0.5]]), [2])
    with pytest.raises(ContractError, match="per-sample content needs a non-empty batch"):
        per_sample_content(np.zeros((0, 3)), [])


def test_per_sample_content_row_sum_edge_matches_allclose():
    """The written-out row-sum test accepts and rejects what
    np.allclose(row_sums, 1.0, atol=1e-9) does, a few ulps either side of
    |sum - 1| = 1e-9 + 1e-5 and on NaN and infinite sums."""
    rows = [[1.0, 0.0], [0.25, 0.75], [1e308, 1e308], [np.nan, 0.0], [np.inf, 0.0],
            [-np.inf, 0.0]]
    for edge in (1.0 + (1e-9 + 1e-5), 1.0 - (1e-9 + 1e-5)):
        t = edge
        for _ in range(4):
            t = np.nextafter(t, 0.0)
        for _ in range(9):
            rows += [[t, 0.0], [t - 0.5, 0.5]]
            t = np.nextafter(t, 2.0)
    decisions = set()
    with np.errstate(over="ignore"):  # the [1e308, 1e308] row overflows its sum
        for row in rows:
            for batch in ([row], [[0.5, 0.5], row]):
                arr = np.array(batch)
                want = bool(np.allclose(arr.sum(axis=1), 1.0, atol=1e-9))
                try:
                    per_sample_content(arr, [0] * len(batch))
                    got = True
                except ContractError:
                    got = False
                assert got == want, batch
                decisions.add(want)
    assert decisions == {True, False}


def test_batch_strength_scores_constant():
    c = np.array([0.4, 0.4])
    assert batch_strength_scores(c, c, c) == (0.4, 0.4)


def test_batch_strength_scores_hand_cases():
    s_uni, s_multi = batch_strength_scores(
        np.array([0.2, 0.4]), np.array([0.6, 0.8]), np.array([0.5, 0.7])
    )
    assert abs(s_uni - 0.5) < 1e-15 and abs(s_multi - 0.6) < 1e-15
    s_uni, s_multi = batch_strength_scores(np.array([1.0]), np.array([0.0]),
                                            np.array([1.0]))
    assert (s_uni, s_multi) == (0.5, 1.0)


def test_batch_strength_scores_empty_batch():
    empty = np.zeros(0)
    with pytest.raises(ContractError):
        batch_strength_scores(empty, empty, empty)


def test_coefficient_equal_scores_gives_gamma():
    for gamma in (0.1, 0.5, 1.0, 2.0, 5.0):
        cfg = IEMFConfig(gamma=gamma)
        assert iemf_coefficient(0.37, 0.37, cfg) == gamma


def test_coefficient_derived_tanh_values():
    cfg = IEMFConfig(gamma=1.0)
    assert abs(iemf_coefficient(0.2, 0.4, cfg) - (1.0 + math.tanh(0.5))) < 1e-15
    assert abs(iemf_coefficient(0.2, 0.4, cfg) - 1.4621171572600098) < 1e-12
    assert abs(iemf_coefficient(0.9, 0.6, cfg) - (1.0 + math.tanh(-0.5))) < 1e-15
    assert abs(iemf_coefficient(0.9, 0.6, cfg) - 0.5378828427399902) < 1e-12


def test_coefficient_degenerate_batch_warns_and_returns_gamma(caplog):
    cfg = IEMFConfig(gamma=2.0)
    with caplog.at_level(logging.WARNING, logger="iemf.modulation"):
        assert iemf_coefficient(0.5, EPS_DIV / 2, cfg) == 2.0
    assert any("degenerate" in rec.message for rec in caplog.records)


def test_coefficient_at_exactly_eps_div_is_degenerate():
    """The fallback covers s_multimodal == EPS_DIV itself; just above it the
    ratio is used, and a large unimodal score drives xi to its floor."""
    cfg = IEMFConfig(gamma=1.5)
    assert iemf_coefficient(0.5, EPS_DIV, cfg) == 1.5
    assert iemf_coefficient(0.5, EPS_DIV * (1 + 1e-15), cfg) < 0.1


def test_coefficient_bounds_10000_random_triples():
    rng = np.random.default_rng(0)
    gammas = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    for _ in range(10_000):
        s_uni = float(rng.uniform(np.nextafter(0.0, 1.0), 1.0))
        s_multi = float(rng.uniform(np.nextafter(0.0, 1.0), 1.0))
        gamma = float(rng.choice(gammas))
        xi = iemf_coefficient(s_uni, s_multi, IEMFConfig(gamma=gamma))
        assert 0.0 < xi < 2.0 * gamma
        ratio = s_uni / s_multi
        if ratio > 1.0:
            assert xi < gamma
        elif ratio == 1.0:
            assert xi == gamma
        else:
            assert xi > gamma


def test_coefficient_monotonic_on_grid():
    cfg = IEMFConfig()
    grid = np.linspace(0.1, 1.0, 10)
    for s_multi in grid:
        xis = [iemf_coefficient(s, float(s_multi), cfg) for s in grid]
        assert all(a > b for a, b in zip(xis, xis[1:]))  # decreasing in s_unimodal
    for s_uni in grid:
        xis = [iemf_coefficient(float(s_uni), s, cfg) for s in grid]
        assert all(a < b for a, b in zip(xis, xis[1:]))  # increasing in s_multimodal


def test_alternative_gatings_stay_bounded_and_odd():
    for gating in ("softsign", "arctan"):
        cfg = IEMFConfig(gating=gating)
        assert iemf_coefficient(0.5, 0.5, cfg) == 1.0
        assert 1.0 < iemf_coefficient(0.1, 0.9, cfg) < 2.0
        assert 0.0 < iemf_coefficient(0.9, 0.1, cfg) < 1.0
    with pytest.raises(ConfigError):
        IEMFConfig(gating="sine")


def small_setup(batch_size=6):
    spec = DataSpec(n_classes=3, d_a=4, d_v=3, train_per_class=8, test_per_class=4, seed=0)
    ds = generate(spec)
    model = init_model(ModelConfig(d_in_a=4, d_in_v=3, n_classes=3, hidden=5, latent=4), 0)
    cfg = OptimConfig(eta=1e-2, epochs=2, batch_size=batch_size, seed=0)
    return ds, model, cfg


def zero_grads(model):
    return {pid: np.zeros_like(arr) for pid, arr in model.params.items()}


def test_modulated_update_hand_case():
    """xi multiplies the fusion layer's learning rate and no other group's."""
    _, model, _ = small_setup()
    model = MultimodalModel(model.cfg, {"fusion.W": [[1.0]], "fusion.b": [0.0],
                                        "head_a.W": [[1.0]]})
    grads = {"fusion.W": np.array([[2.0]]), "fusion.b": np.array([0.0]),
             "head_a.W": np.array([[2.0]])}
    sgd_step(model, grads, OptimConfig(eta=0.1, weight_decay=0.0), xi=1.5)
    assert abs(model.params["fusion.W"][0, 0] - 0.7) < 1e-15
    assert abs(model.params["head_a.W"][0, 0] - 0.8) < 1e-15


def test_modulated_update_zero_gradient_is_identity():
    _, model, _ = small_setup()
    before = {pid: arr.copy() for pid, arr in model.params.items()}
    sgd_step(model, zero_grads(model), OptimConfig(eta=0.1, weight_decay=0.0), xi=1.7)
    for pid, arr in before.items():
        assert np.array_equal(model.params[pid], arr)


def test_modulated_update_xi_one_equals_plain_sgd():
    _, model, _ = small_setup()
    twin = model.clone()
    grads = {pid: np.full_like(arr, -0.5 if pid.endswith(".b") else 0.25)
             for pid, arr in model.params.items()}
    sgd_step(model, grads, OptimConfig(eta=0.05, weight_decay=0.0), xi=1.0)
    for pid in model.params:
        assert np.array_equal(model.params[pid], twin.params[pid] - 0.05 * grads[pid]), pid


def test_modulated_update_missing_or_bad_gradients_abort_cleanly():
    _, model, _ = small_setup()
    before = {pid: arr.copy() for pid, arr in model.params.items()}
    cfg = OptimConfig(eta=0.1)
    zeros = zero_grads(model)
    without_fusion = {pid: g for pid, g in zeros.items() if model.group_of(pid) != "fusion"}
    with pytest.raises(NumericError):
        sgd_step(model, {}, cfg, xi=1.0)
    with pytest.raises(NumericError):
        sgd_step(model, without_fusion, cfg, xi=1.0)
    with pytest.raises(NumericError):
        sgd_step(model, zeros, cfg, xi=float("nan"))
    with pytest.raises(NumericError):
        sgd_step(model, zeros, OptimConfig(eta=float("inf")), xi=1.0)
    for pid, arr in before.items():
        assert np.array_equal(model.params[pid], arr)


def test_train_step_disabled_matches_vanilla_bitwise():
    ds, model, cfg = small_setup()
    twin = model.clone()
    batch = ds.train.subset(range(6))

    cfg_off = OptimConfig(eta=1e-2, epochs=1, batch_size=6, seed=0,
                          iemf=IEMFConfig(enabled=False))
    assert iemf_train_step(batch, model, cfg_off).xi == 1.0

    # a build without the modulation calls: plain forward/backward/sgd with xi=1
    from iemf.model import forward_full
    from iemf.tensor import Tape, backward

    tape = Tape()
    out = forward_full(batch, twin, tape)
    sgd_step(twin, backward(tape, out.loss), cfg_off, xi=1.0)
    for pid in model.params:
        assert np.array_equal(model.params[pid], twin.params[pid]), pid


def test_train_step_symmetric_degenerate_batch_gives_gamma():
    ds, model, cfg = small_setup()
    for pid in model.params:
        model.params[pid] = np.zeros_like(model.params[pid])
    rec = iemf_train_step(ds.train.subset(range(6)), model, cfg)
    # all heads uniform -> score ratio 1 -> xi = gamma
    assert rec.xi == cfg.iemf.gamma


def test_train_step_locality_non_fusion_updates_bit_identical():
    ds, model, cfg = small_setup()
    twin = model.clone()
    batch = ds.train.subset(range(6))
    iemf_train_step(batch, model, cfg)
    cfg_off = OptimConfig(eta=1e-2, epochs=2, batch_size=6, seed=0,
                          iemf=IEMFConfig(enabled=False))
    iemf_train_step(batch, twin, cfg_off)
    for pid in model.params:
        if model.group_of(pid) == "fusion":
            assert not np.array_equal(model.params[pid], twin.params[pid]), pid
        else:
            assert np.array_equal(model.params[pid], twin.params[pid]), pid


def test_train_step_golden_fixture():
    ds, model, cfg = small_setup()
    rec = iemf_train_step(ds.train.subset(range(6)), model, cfg)
    assert rec.loss == GOLDEN_STEP["loss"]
    assert rec.xi == GOLDEN_STEP["xi"]
    assert rec.s_unimodal == GOLDEN_STEP["s_uni"]
    assert rec.s_multimodal == GOLDEN_STEP["s_multi"]


def test_descent_direction_preserved():
    """The fusion step is the raw gradient scaled by a strictly positive factor."""
    ds, model, cfg = small_setup()
    batch = ds.train.subset(range(6))
    from iemf.model import forward_full
    from iemf.tensor import Tape, backward

    tape = Tape()
    out = forward_full(batch, model, tape)
    grads = backward(tape, out.loss)
    before = model.params["fusion.W"].copy()
    cfg_nowd = OptimConfig(eta=1e-2, weight_decay=0.0, epochs=1, batch_size=6, seed=0)
    xi = iemf_train_step(batch, model.clone(), cfg_nowd).xi
    stepped = model.clone()
    sgd_step(stepped, grads, cfg_nowd, xi)
    step = stepped.params["fusion.W"] - before
    raw = grads["fusion.W"]
    ratio = step[raw != 0.0] / raw[raw != 0.0]
    assert np.allclose(ratio, -cfg_nowd.eta * xi, rtol=1e-12)
    assert float((step * raw).sum()) <= 0.0


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_setup(name):
    """Config, seeded model and one random batch at a shipped config's shapes."""
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    model = init_model(cfg.model, cfg.seed)
    rng = np.random.default_rng(0)
    b = cfg.optim.batch_size
    batch = Batch(Tensor(rng.standard_normal((b, cfg.model.d_in_a))),
                  Tensor(rng.standard_normal((b, cfg.model.d_in_v))),
                  rng.integers(2, 4, size=b))
    return cfg, model, batch


def _count_calls(monkeypatch, numpy_name, fn) -> int:
    """Calls of `np.<numpy_name>` while `fn()` runs."""
    counted = []
    real = getattr(np, numpy_name)

    def counting(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, numpy_name, counting)
    fn()
    monkeypatch.undo()
    return len(counted)


def _counted_step(monkeypatch, numpy_name, name, lwf=False):
    """Calls of `np.<numpy_name>` in one step at a shipped config's shapes;
    the step must move the parameters."""
    cfg, model, batch = _shipped_setup(name)
    old = model.clone()

    def step():
        if lwf:
            _incremental_step(batch, model, cfg.optim, "lwf", [2, 3], [0, 1], old, 2.0, 1.0)
        else:
            iemf_train_step(batch, model, cfg.optim)

    counted = _count_calls(monkeypatch, numpy_name, step)
    assert any(not np.array_equal(model.params[k], old.params[k]) for k in model.params)
    return counted


@pytest.mark.parametrize("name, lwf, calls", [
    ("default", False, 3), ("spiking", False, 3), ("default", True, 6),
])
def test_exp_calls_per_step_at_shipped_config_shapes(monkeypatch, name, lwf, calls):
    """Each criterion computes its softmax once and keeps it for its backward
    rule and the strength scores: one np.exp per cross entropy, and three for
    the LwF distillation term (two softmaxes and the teacher's probabilities)."""
    assert _counted_step(monkeypatch, "exp", name, lwf) == calls


@pytest.mark.parametrize("name, calls", [("default", 34), ("spiking", 43)],
                         ids=["default", "spiking"])
def test_isfinite_calls_per_step_at_shipped_config_shapes(monkeypatch, name, calls):
    """Every value is checked once, where it is made or written: parameters
    are bound unchecked, `sgd_step` checks each new value, and `backward`
    checks the parameter gradients as one vector. Before that, a step made
    63 (default) and 72 (spiking) np.isfinite calls, and 36 and 45 while
    `detach` was an op that checked the two already-checked latents again."""
    assert _counted_step(monkeypatch, "isfinite", name) == calls


@pytest.mark.parametrize("name, lwf, calls", [
    ("default", False, 10), ("spiking", False, 34), ("default", True, 17),
])
def test_matmul_calls_per_step_at_shipped_config_shapes(monkeypatch, name, lwf, calls):
    """`linear` runs one np.matmul per row block forward, and one backward for
    the input gradient only where some parameter reads it: never for the batch
    inputs or the detached probe-head inputs. Before the needs-gradient mask, a
    step made 14 (default), 44 (spiking) and 21 (LwF) np.matmul calls."""
    assert _counted_step(monkeypatch, "matmul", name, lwf) == calls


@pytest.mark.parametrize("name, calls", [("default", 1), ("spiking", 4)],
                         ids=["default", "spiking"])
def test_matmul_calls_per_fusion_gradient_at_shipped_config_shapes(monkeypatch, name, calls):
    """A fusion-block gradient runs the fusion layer's forward products only:
    the cached concatenated latents are a constant, so no input gradient is
    formed for them (before the mask: 2 and 8 calls)."""
    _, model, batch = _shipped_setup(name)
    _, grad_fn, w0, spans = model_objective(model, batch)
    w = np.concatenate([w0[start:stop] for pid, start, stop, _ in spans
                        if pid.startswith("fusion.")])
    grad_fn(w, block="fusion")  # encodes once and caches the latents
    assert _count_calls(monkeypatch, "matmul", lambda: grad_fn(w, block="fusion")) == calls


@pytest.mark.parametrize("neuron_mode", ["continuous", "spiking"])
@pytest.mark.parametrize("blocks, calls", [("fusion", 11), ("all", 27)])
def test_forward_passes_per_sharpness_call(monkeypatch, neuron_mode, blocks, calls):
    """np.exp runs once per cross-entropy forward pass. A 2 x 3 sharpness call
    makes 9 loss and 6 gradient evaluations; each loss asked at the point of
    the gradient just taken reuses that gradient's forward pass, so 9 points
    run forward once each. That is 9 fused criteria plus the 2 head criteria
    the fusion block encodes once, or 9 x 3 criteria for all blocks (17 and 45
    when each point ran forward twice). The landscape takes no gradient, so its
    25 cells run 3 criteria each."""
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3,
                           seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4,
                                   neuron_mode=neuron_mode, lif=LIFParams(t_steps=3)), 0)
    assert _count_calls(monkeypatch, "exp", lambda: sharpness(
        model, ds, ball_radius=0.3, n_probes=2, ascent_steps=3, seed=0, blocks=blocks)) == calls
    assert _count_calls(monkeypatch, "exp", lambda: landscape_slice(
        model, ds, grid_n=5, extent=0.5)) == 75
