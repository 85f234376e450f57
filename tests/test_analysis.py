"""Contraction recursion, sharpness estimation, loss slices, cost metric, Hessian."""

import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from iemf.analysis import (
    QuadraticProblem,
    computational_cost,
    landscape_grid_of,
    landscape_slice,
    model_objective,
    sharpness,
    sharpness_of,
    verify_contraction,
)
from iemf.config import load_config
from iemf.data import DataSpec, generate
from iemf.errors import ContractError, NumericError
from iemf.model import ModelConfig, forward_full, init_model
from iemf.neurons import LIFParams
from iemf.tensor import Tape, backward
from iemf.training import OptimConfig, train

from reference_ops import finite_difference_hessian, hessian_eigens


def quadratic(lams, seed=None):
    """loss = 0.5 w^T H w with H = Q diag(lams) Q^T; returns (loss_fn, grad_fn, H)."""
    lams = np.asarray(lams, dtype=np.float64)
    if seed is None:
        q = np.eye(lams.size)
    else:
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((lams.size, lams.size)))
        q = q * np.sign(np.diag(r))
    h = q @ np.diag(lams) @ q.T
    return (lambda w: 0.5 * float(w @ h @ w)), (lambda w: h @ w), h


# ---------------------------------------------------------------------------
# contraction


def test_contraction_unit_schedule_equals_vanilla_descent():
    problem = QuadraticProblem(eigenvalues=[1.0, 4.0], alpha0=[1.0, -2.0], eta=0.1,
                               xi_schedule=[1.0] * 50)
    report = verify_contraction(problem)
    assert report.passed and not report.diverged
    # identity basis: alpha follows the plain GD recursion exactly; a direction run
    # alone has norm |alpha_i|, which pins each coordinate
    expect = np.array([1.0, -2.0])
    lam = np.array([1.0, 4.0])
    alone = [verify_contraction(QuadraticProblem(eigenvalues=[lam_i], alpha0=[a_i], eta=0.1,
                                                 xi_schedule=[1.0] * 50))
             for lam_i, a_i in zip(lam, expect)]
    for t in range(1, 51):
        expect = (1.0 - 0.1 * lam) * expect
        assert abs(report.norm_trace[t] - np.linalg.norm(expect)) < 1e-14
        for i in range(2):
            assert abs(alone[i].norm_trace[t] - abs(expect[i])) < 1e-14
    assert all(case == "equal" for case in report.step_cases)


def test_contraction_hand_recursion_first_step():
    problem = QuadraticProblem(eigenvalues=[1.0, 10.0], alpha0=[1.0, 1.0], eta=0.05,
                               xi_schedule=[0.5] * 10)
    report = verify_contraction(problem)
    assert report.passed
    assert abs(report.norm_trace[1] - np.hypot(0.975, 0.75)) < 1e-15
    # each direction alone: its norm is |alpha_i|, so the per-direction factors are pinned
    for lam, first in ((1.0, 0.975), (10.0, 0.75)):
        alone = verify_contraction(QuadraticProblem(eigenvalues=[lam], alpha0=[1.0], eta=0.05,
                                                    xi_schedule=[0.5]))
        assert abs(alone.norm_trace[1] - first) < 1e-15
    assert all(case == "reduced" for case in report.step_cases)


def test_contraction_near_double_step_still_converges():
    eps = 1e-3
    lam = [0.5, 2.0, 9.0]
    eta = 0.1  # eta * lam_max * (2 - eps) < 2
    problem = QuadraticProblem(eigenvalues=lam, alpha0=[1.0, 1.0, 1.0], eta=eta,
                               xi_schedule=[2.0 - eps] * 200, rotation_seed=3)
    report = verify_contraction(problem)
    assert report.passed and not report.diverged
    assert report.norm_trace[-1] < report.norm_trace[0]
    assert all(case == "amplified" for case in report.step_cases)


def test_contraction_rotated_basis_meets_tight_tolerance():
    rng = np.random.default_rng(12)
    lam = sorted(float(x) for x in 10 ** rng.uniform(-1.5, 1.5, size=6))
    xis = [float(x) for x in rng.uniform(0.05, 1.95, size=100)]
    problem = QuadraticProblem(eigenvalues=lam, alpha0=list(rng.standard_normal(6)),
                               eta=0.9 / (2.0 * max(lam)), xi_schedule=xis, rotation_seed=5)
    report = verify_contraction(problem)
    assert report.passed
    assert report.max_residual < 1e-10


def test_contraction_reports_divergence_not_failure():
    problem = QuadraticProblem(eigenvalues=[1.0, 10.0], alpha0=[1.0, 1.0], eta=0.5,
                               xi_schedule=[1.0] * 20)
    report = verify_contraction(problem)
    assert report.diverged
    assert not report.passed


def test_quadratic_problem_validation():
    with pytest.raises(ContractError):
        QuadraticProblem(eigenvalues=[2.0, 1.0], alpha0=[0.0, 0.0], eta=0.1, xi_schedule=[1.0])
    with pytest.raises(ContractError):
        QuadraticProblem(eigenvalues=[-1.0], alpha0=[0.0], eta=0.1, xi_schedule=[1.0])
    with pytest.raises(ContractError):
        QuadraticProblem(eigenvalues=[1.0], alpha0=[0.0], eta=0.1, xi_schedule=[])


# ---------------------------------------------------------------------------
# sharpness


def test_sharpness_closed_form_on_quadratic():
    lams = [0.5, 1.5, 4.0, 10.0]
    loss_fn, grad_fn, _ = quadratic(lams, seed=4)
    w0 = np.zeros(4)
    for radius in (0.1, 1.0):
        report = sharpness_of(loss_fn, grad_fn, w0, radius, n_probes=6, ascent_steps=25, seed=0)
        exact = 0.5 * max(lams) * radius**2
        assert abs(report.increase - exact) / exact < 0.01


def test_sharpness_vanishing_radius():
    loss_fn, grad_fn, _ = quadratic([1.0, 3.0])
    report = sharpness_of(loss_fn, grad_fn, np.zeros(2), 1e-8, n_probes=3, ascent_steps=5, seed=0)
    assert 0.0 <= report.increase < 1e-12


def test_sharpness_monotone_in_probe_count():
    loss_fn, grad_fn, _ = quadratic([0.5, 2.0, 8.0], seed=2)
    w0 = np.array([0.3, -0.2, 0.1])
    previous = -np.inf
    for n in (1, 2, 4, 8):
        report = sharpness_of(loss_fn, grad_fn, w0, 0.5, n_probes=n, ascent_steps=0, seed=7)
        assert report.increase >= previous
        previous = report.increase


def _counted_linear(c, dim=5):
    """loss = c u.w for a unit u, with counters of loss and gradient calls."""
    u = np.random.default_rng(11).standard_normal(dim)
    u /= np.linalg.norm(u)
    calls = {"loss": 0, "grad": 0}

    def loss_fn(w):
        calls["loss"] += 1
        return c * float(u @ w)

    def grad_fn(w):
        calls["grad"] += 1
        return c * u

    return loss_fn, grad_fn, calls


def test_sharpness_ascends_a_small_nonzero_gradient():
    """Ascent is normalised, so a gradient of norm 1e-6 climbs as far as a
    large one: each step halves the angle to the gradient, and the estimate
    reaches c * radius. Only an exactly vanishing gradient stops a probe."""
    c, radius = 1e-6, 0.5
    loss_fn, grad_fn, calls = _counted_linear(c)
    report = sharpness_of(loss_fn, grad_fn, np.zeros(5), radius, n_probes=3, ascent_steps=20)
    assert calls == {"loss": 1 + 3 * 21, "grad": 3 * 20}
    assert abs(report.increase - c * radius) <= 1e-9 * c * radius


def test_sharpness_stops_a_probe_at_a_zero_gradient():
    loss_fn, grad_fn, calls = _counted_linear(0.0)
    report = sharpness_of(loss_fn, grad_fn, np.zeros(5), 0.5, n_probes=3, ascent_steps=20)
    assert calls == {"loss": 1 + 3, "grad": 3}
    assert report.increase == 0.0


def test_sharpness_rejects_bad_radius():
    loss_fn, grad_fn, _ = quadratic([1.0])
    with pytest.raises(ContractError):
        sharpness_of(loss_fn, grad_fn, np.zeros(1), 0.0)


def test_model_sharpness_fusion_block_only_moves_fusion():
    """The fusion report is the full objective with every non-fusion parameter held at w0."""
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    for neuron_mode in ("continuous", "spiking"):
        model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4,
                                       neuron_mode=neuron_mode, lif=LIFParams(t_steps=3)), 0)
        before = {pid: arr.copy() for pid, arr in model.params.items()}
        report = sharpness(model, ds, ball_radius=0.3, n_probes=2, ascent_steps=3, seed=0)

        loss_fn, grad_fn, w0, spans = model_objective(model, ds)
        idx = np.concatenate([np.arange(start, stop) for pid, start, stop, _ in spans
                              if pid.startswith("fusion.")])

        def sub_loss(ws):
            w = w0.copy()
            w[idx] = ws
            return loss_fn(w)

        def sub_grad(ws):
            w = w0.copy()
            w[idx] = ws
            return grad_fn(w)[idx]

        inline = sharpness_of(sub_loss, sub_grad, w0[idx].copy(), 0.3, n_probes=2,
                              ascent_steps=3, seed=0)
        assert report.per_probe == inline.per_probe
        assert report.base_loss == inline.base_loss == loss_fn(w0)
        assert report.increase == inline.increase
        assert model.params.keys() == before.keys()
        for pid, arr in before.items():
            assert np.array_equal(model.params[pid], arr)
    full = sharpness(model, ds, ball_radius=0.3, n_probes=2, ascent_steps=3, seed=0, blocks="all")
    assert full.n_probes == 2 and full.ball_radius == 0.3


def test_grad_fn_returns_the_named_gradients_in_the_parameters_layout():
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    _, grad_fn, w0, spans = model_objective(model, ds)
    joint, tape = model.clone(), Tape()
    joint.cfg = replace(joint.cfg, head_mode="joint")
    named = joint.holding(backward(tape, forward_full(ds.train, joint, tape).loss)).params
    got = model.holding(grad_fn(w0)).params
    for pid, arr in named.items():
        assert np.array_equal(got[pid], arr), pid
    fusion = [(pid, shape) for pid, _, _, shape in spans if pid.startswith("fusion.")]
    idx = np.concatenate([np.arange(start, stop) for pid, start, stop, _ in spans
                          if pid.startswith("fusion.")])
    got, offset = grad_fn(w0[idx], block="fusion"), 0
    for pid, shape in fusion:
        size = named[pid].size
        assert np.array_equal(got[offset:offset + size].reshape(shape), named[pid]), pid
        offset += size
    assert offset == got.size


def test_model_objective_fusion_mode_matches_full_vector_and_rejects_other_blocks():
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    loss_fn, grad_fn, w0, spans = model_objective(model, ds)
    idx = np.concatenate([np.arange(start, stop) for pid, start, stop, _ in spans
                          if pid.startswith("fusion.")])
    w = w0.copy()
    w[idx] += 0.1 * np.random.default_rng(0).standard_normal(idx.size)
    assert loss_fn(w[idx], block="fusion") == loss_fn(w)
    assert np.array_equal(grad_fn(w[idx], block="fusion"), grad_fn(w)[idx])
    with pytest.raises(ContractError):
        loss_fn(w0[idx], block="heads")
    with pytest.raises(ContractError):
        grad_fn(w0[idx], block="heads")


@pytest.mark.parametrize("block", ["all", "fusion"])
def test_model_objective_rejects_a_non_finite_point(block):
    """The evaluation point is checked once, as one vector, before its
    parameters are bound unchecked."""
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    loss_fn, grad_fn, w0, spans = model_objective(model, ds)
    w = w0 if block == "all" else np.concatenate(
        [w0[start:stop] for pid, start, stop, _ in spans if pid.startswith("fusion.")])
    w = w.copy()
    w[-1] = np.inf
    for fn in (loss_fn, grad_fn):
        with pytest.raises(NumericError, match="evaluation point"):
            fn(w, block=block)



def _exp_calls(monkeypatch, fn):
    """(np.exp calls while fn() runs, its result): one per cross-entropy forward pass."""
    calls = []
    real = np.exp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    try:
        value = fn()
    finally:
        monkeypatch.undo()
    return len(calls), value


@pytest.mark.parametrize("neuron_mode", ["continuous", "spiking"])
@pytest.mark.parametrize("block", ["fusion", "all"])
def test_model_objective_reuses_a_gradient_loss_only_at_the_same_point(monkeypatch, block,
                                                                       neuron_mode):
    """`loss_fn` at the bytes of the point the last `grad_fn` call evaluated,
    in the same block, returns that forward pass's loss; any other point runs
    forward again, with the calls and the value of a fresh objective."""
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4,
                                   neuron_mode=neuron_mode, lif=LIFParams(t_steps=3)), 0)
    loss_fn, grad_fn, w0, spans = model_objective(model, ds)
    idx = np.concatenate([np.arange(start, stop) for pid, start, stop, _ in spans
                          if pid.startswith("fusion.")])

    def block_point(b):
        w = w0 + 0.1 * np.random.default_rng(1).standard_normal(w0.size)
        w = w[idx] if b == "fusion" else w
        w[0] = 0.0
        return w

    def fresh(w, b):
        """np.exp calls and loss of a fresh objective, its fusion latents encoded."""
        fresh_loss = model_objective(model, ds)[0]
        fresh_loss(block_point("fusion") + 1.0, block="fusion")
        return _exp_calls(monkeypatch, lambda: fresh_loss(w, block=b))

    def loss_after_gradient(p, q, b=block):
        grad_fn(p, block=block)
        return _exp_calls(monkeypatch, lambda: loss_fn(q, block=b))

    loss_fn(block_point("fusion") + 1.0, block="fusion")  # encodes, as in fresh()
    p = block_point(block)
    calls, value = loss_after_gradient(p, p.copy())
    assert calls == 0 and value == fresh(p, block)[1]

    one_ulp = p.copy()
    one_ulp[-1] = np.nextafter(one_ulp[-1], np.inf)
    negative_zero = p.copy()
    negative_zero[0] = -0.0
    assert negative_zero[0] == p[0] and np.signbit(negative_zero[0]) != np.signbit(p[0])
    for q in (one_ulp, negative_zero):
        assert loss_after_gradient(p, q) == fresh(q, block)

    grad_fn(p, block=block)
    p[1] += 0.5
    assert _exp_calls(monkeypatch, lambda: loss_fn(p, block=block)) == fresh(p, block)

    other = "all" if block == "fusion" else "fusion"
    q = block_point(other)
    assert loss_after_gradient(block_point(block), q, other) == fresh(q, other)

    bad = p.copy()
    bad[-1] = np.inf
    with pytest.raises(NumericError, match="evaluation point"):
        grad_fn(bad, block=block)
    with pytest.raises(NumericError, match="evaluation point"):
        loss_fn(bad, block=block)


def test_full_batch_spiking_gradient_peak_memory():
    """`backward` drops each adjoint once its node's rule has read it.

    One full-batch gradient at `configs/spiking.json` (1200 samples, T=4):
    the tracemalloc peak read 45,392,048 bytes (43.3 MiB) while every adjoint
    lived until `backward` returned, and 34,968,656 bytes (33.3 MiB) after.
    """
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "spiking.json"))
    _, grad_fn, w0, _ = model_objective(init_model(cfg.model, cfg.seed), generate(cfg.data))
    tracemalloc.start()
    try:
        grad_fn(w0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 38 * 2**20


# SHA-256 of per_probe + [base_loss, increase], little-endian float64, of a
# small trained model's sharpness (2 probes x 3 ascent steps), per neuron mode,
# head mode and perturbed block
GOLDEN_SHARPNESS = {
    ("continuous", "probe_detached", "fusion"):
        "ab857b26b84139966f6091bb22783273c919d40df2d186e6822f1b2b07a7fca6",
    ("continuous", "probe_detached", "all"):
        "ff397aef4c8bfb63e591701f68318db2acfd8697a03393caf5c624cd3a05557e",
    ("continuous", "joint", "fusion"):
        "b6d23d9b2398d8faca306cd4cce84f412e87553e31fc5c8cc8fbc30b7b4ef284",
    ("continuous", "joint", "all"):
        "9351e8e157a974ad6102594303d6f641c0801e91c2ac1c1aab721c21a3de28c9",
    ("spiking", "probe_detached", "fusion"):
        "d8e203793913a8d74903ef17c7dc7abd0ef731b148dd45874f7327a9432e2ed7",
    ("spiking", "probe_detached", "all"):
        "f615641193d714cb18d87f75903937fe2b71bfbbe913921bd8a72925d4ba2922",
    ("spiking", "joint", "fusion"):
        "8daf7e26083a3f3eddfc181b33025c8557e48dc03c80ead7a5822d3c0c2197d6",
    ("spiking", "joint", "all"):
        "9ec92c0e980168fab756a76e3fc4ae21408faeb4a403e2b03ef0d17413c20de0",
}


def _report_digest(report) -> str:
    values = [*report.per_probe, report.base_loss, report.increase]
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("neuron_mode,head_mode",
                         sorted({key[:2] for key in GOLDEN_SHARPNESS}))
def test_sharpness_golden_digests(neuron_mode, head_mode):
    ds = generate(DataSpec(n_classes=3, d_a=6, d_v=5, train_per_class=8, test_per_class=4, seed=0))
    model = init_model(ModelConfig(d_in_a=6, d_in_v=5, n_classes=3, hidden=8, latent=6, depth=2,
                                   neuron_mode=neuron_mode, lif=LIFParams(t_steps=4),
                                   head_mode=head_mode), 0)
    model, _, _ = train(ds, model, OptimConfig(eta=5e-2, epochs=3, batch_size=6, seed=0))
    for blocks in ("fusion", "all"):
        report = sharpness(model, ds, ball_radius=0.3, n_probes=2, ascent_steps=3, seed=0,
                           blocks=blocks)
        assert _report_digest(report) == GOLDEN_SHARPNESS[neuron_mode, head_mode, blocks]


# ---------------------------------------------------------------------------
# landscape slices


def test_landscape_center_equals_model_loss():
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    xs, ys, grid = landscape_slice(model, ds, grid_n=5, extent=0.5, seed=0)
    loss_fn, _, w0, _ = model_objective(model, ds)
    assert grid[2, 2] == loss_fn(w0)
    assert xs[2] == 0.0 and ys[2] == 0.0


def test_landscape_zero_extent_constant_grid():
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=3, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    _, _, grid = landscape_slice(model, ds, grid_n=3, extent=0.0, seed=0)
    assert np.all(grid == grid[0, 0])


def test_landscape_cells_keep_the_callers_numpy_error_state():
    """Every cell is evaluated under the numpy error state the caller set."""
    seen = []

    def loss_fn(w):
        seen.append(np.geterr()["over"])
        return float(w @ w)

    with np.errstate(over="ignore"):
        landscape_grid_of(loss_fn, np.ones(2), [(0, 2)], grid_n=3, extent=1.0, seed=0)
    assert seen == ["ignore"] * 9


def test_landscape_quadratic_matches_closed_form():
    lams = [1.0, 2.0, 5.0]
    loss_fn, _, h = quadratic(lams, seed=9)
    w0 = np.array([0.4, -0.3, 0.2])
    xs, ys, grid = landscape_grid_of(loss_fn, w0, [(0, 3)], grid_n=7, extent=1.0, seed=1)
    # recover the directions deterministically and compare against the closed form
    from iemf.util import STREAM_LANDSCAPE, seeded_rng

    rng = seeded_rng(1, STREAM_LANDSCAPE)
    dirs = []
    for _ in range(2):
        d = rng.standard_normal(3)
        d *= np.linalg.norm(w0) / np.linalg.norm(d)
        dirs.append(d)
    for ix in range(7):
        for iy in range(7):
            w = w0 + xs[ix] * dirs[0] + ys[iy] * dirs[1]
            assert abs(grid[ix, iy] - 0.5 * w @ h @ w) < 1e-10


def test_landscape_validation():
    loss_fn, _, _ = quadratic([1.0])
    with pytest.raises(ContractError):
        landscape_grid_of(loss_fn, np.zeros(1), [(0, 1)], grid_n=4, extent=1.0)
    with pytest.raises(ContractError):
        landscape_grid_of(loss_fn, np.zeros(1), [(0, 1)], grid_n=1, extent=1.0)


# ---------------------------------------------------------------------------
# computational cost


def _brute_force_cost(curves, flops, n_thresholds=5):
    upper = min(max(c) for c in curves.values())
    lower = max(min(c) for c in curves.values())
    # uniform levels, endpoints exact so the lower bound is reachable by construction
    thresholds = [upper + (lower - upper) * i / (n_thresholds - 1) for i in range(n_thresholds - 1)]
    thresholds.append(lower)
    out = {}
    for name, curve in curves.items():
        total = 0
        for thr in thresholds:
            epoch = len(curve)
            for i, err in enumerate(curve):
                if err <= thr:
                    epoch = i + 1
                    break
            total += epoch
        out[name] = total / n_thresholds * flops[name]
    return thresholds, out


def test_cost_identical_curves_identical_costs():
    curves = {"a": [0.5, 0.3, 0.1], "b": [0.5, 0.3, 0.1]}
    flops = {"a": 10.0, "b": 10.0}
    report = computational_cost(curves, flops)
    assert report.cost["a"] == report.cost["b"]


def test_cost_hand_curves_match_brute_force_oracle():
    curves = {"A": [0.5, 0.3, 0.1], "B": [0.5, 0.4, 0.2]}
    flops = {"A": 10.0, "B": 10.0}
    report = computational_cost(curves, flops)
    ref_thresholds, ref_costs = _brute_force_cost(curves, flops)
    assert np.allclose(report.thresholds, ref_thresholds, atol=1e-15)
    assert report.cost == ref_costs
    assert report.cost["A"] == 22.0 and report.cost["B"] == 24.0
    assert all(a > b for a, b in zip(report.thresholds, report.thresholds[1:]))
    assert not any(any(v) for v in report.unreached.values())


def test_cost_halving_flops_halves_cost():
    curves = {"A": [0.5, 0.3, 0.1], "B": [0.5, 0.4, 0.2]}
    r1 = computational_cost(curves, {"A": 10.0, "B": 10.0})
    r2 = computational_cost(curves, {"A": 5.0, "B": 5.0})
    assert r2.cost["A"] == r1.cost["A"] / 2.0
    assert r2.cost["B"] == r1.cost["B"] / 2.0


def test_cost_random_instances_match_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_methods = int(rng.integers(2, 5))
        curves = {}
        flops = {}
        for m in range(n_methods):
            length = int(rng.integers(3, 12))
            curves[f"m{m}"] = [float(x) for x in rng.uniform(0.05, 1.0, size=length)]
            flops[f"m{m}"] = float(rng.uniform(1.0, 100.0))
        upper = min(max(c) for c in curves.values())
        lower = max(min(c) for c in curves.values())
        if upper <= lower:
            with pytest.raises(ContractError):
                computational_cost(curves, flops)
            continue
        report = computational_cost(curves, flops)
        ref_thresholds, ref_costs = _brute_force_cost(curves, flops)
        assert np.max(np.abs(np.array(report.thresholds) - ref_thresholds)) < 1e-12
        for name in curves:
            assert abs(report.cost[name] - ref_costs[name]) < 1e-12


def test_cost_degenerate_range_reports_both_bounds():
    curves = {"a": [0.5, 0.5], "b": [0.5, 0.5]}
    with pytest.raises(ContractError, match="0.5"):
        computational_cost(curves, {"a": 1.0, "b": 1.0})


# ---------------------------------------------------------------------------
# Hessian eigenvalues


def test_hessian_recovers_quadratic_spectrum():
    lams = [0.1, 1.0, 7.5]
    _, grad_fn, _ = quadratic(lams, seed=8)
    hess = finite_difference_hessian(grad_fn, np.zeros(3), h=1e-4)
    eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    assert np.max(np.abs(eigs - np.array(lams)) / np.array(lams)) < 1e-6


def test_hessian_scales_linearly_with_loss():
    lams = [0.5, 2.0]
    _, grad_fn, _ = quadratic(lams, seed=1)
    scaled_grad = lambda w: 3.0 * grad_fn(w)
    hess = finite_difference_hessian(scaled_grad, np.zeros(2), h=1e-4)
    eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    assert np.allclose(eigs, 3.0 * np.array(lams), rtol=1e-6)


def test_hessian_model_symmetry_residual_small():
    ds = generate(DataSpec(n_classes=3, d_a=3, d_v=3, train_per_class=5, test_per_class=2, seed=0))
    model = init_model(ModelConfig(d_in_a=3, d_in_v=3, n_classes=3, hidden=4, latent=3), 0)
    _, grad_fn, w0, _ = model_objective(model, ds)
    hess = finite_difference_hessian(grad_fn, w0, h=1e-4)
    residual = np.linalg.norm(hess - hess.T) / np.linalg.norm(hess)
    assert residual < 1e-4
    eigs = hessian_eigens(model, ds)
    assert eigs.size == w0.size
    assert np.all(np.diff(eigs) >= 0.0)


def test_hessian_rejects_oversized_models():
    ds = generate(DataSpec(n_classes=6, d_a=32, d_v=32, train_per_class=2, test_per_class=1, seed=0))
    model = init_model(ModelConfig(d_in_a=32, d_in_v=32, n_classes=6, hidden=64, latent=32), 0)
    with pytest.raises(ContractError):
        hessian_eigens(model, ds)
