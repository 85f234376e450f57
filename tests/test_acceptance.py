"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criteria 5 and 8 share one set of trained model pairs
(default asymmetric-noise data, 40 epochs, modulation on/off, seeds 0-4).
"""

import os
import time

import numpy as np
import pytest

import iemf.tensor as T
from iemf.analysis import QuadraticProblem, computational_cost, sharpness, verify_contraction
from iemf.cli import main as cli_main
from iemf.continual import aa_aia, afr, build_task_stream, train_incremental
from iemf.data import DataSpec, generate
from iemf.model import Batch, ModelConfig, forward_full, init_model
from iemf.modulation import IEMFConfig, iemf_coefficient
from iemf.neurons import LIFParams, lif_layer
from iemf.tensor import Tape, Tensor, backward
from iemf.training import OptimConfig, top1_accuracy, train

import reference_ops as R

_SUITE_T0 = time.monotonic()

SEEDS = (0, 1, 2, 3, 4)

# default config: asymmetric noise, modulation gain 1 (criteria 5 and 8)
DEFAULT_DATA = dict(n_classes=6, d_a=32, d_v=32, train_per_class=200, test_per_class=50,
                    sigma_a=1.5, sigma_v=0.5)
DEFAULT_EPOCHS = 40
DEFAULT_ETA = 1e-2

# harsher asymmetric-noise config for the accuracy-benefit direction
# (criterion 6); the benefit is an acceleration effect, so the comparison sits
# at an epoch budget on the steep part of the learning curve
BENEFIT_DATA = dict(n_classes=6, d_a=32, d_v=32, train_per_class=200, test_per_class=50,
                    sigma_a=6.0, sigma_v=2.0)
BENEFIT_EPOCHS = 6
BENEFIT_ETA = 5e-3


def _report(criterion: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded its runtime budget"


def _train_pair(data_kw, seed, epochs, eta):
    out = {}
    trace = {}
    for enabled in (True, False):
        ds = generate(DataSpec(seed=seed, **data_kw))
        model = init_model(ModelConfig(d_in_a=data_kw["d_a"], d_in_v=data_kw["d_v"],
                                       n_classes=data_kw["n_classes"]), seed)
        cfg = OptimConfig(eta=eta, epochs=epochs, batch_size=32, seed=seed,
                          iemf=IEMFConfig(enabled=enabled, gamma=1.0))
        model, history, xi_trace = train(ds, model, cfg)
        out[enabled] = (model, history, ds)
        trace[enabled] = xi_trace
    return out, trace


@pytest.fixture(scope="module")
def default_pairs():
    """(per-seed trained pairs on the default config, build time)."""
    t0 = time.monotonic()
    pairs = {seed: _train_pair(DEFAULT_DATA, seed, DEFAULT_EPOCHS, DEFAULT_ETA)
             for seed in SEEDS}
    return pairs, time.monotonic() - t0


def test_criterion_1_xi_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    gammas = (0.1, 0.5, 1.0, 2.0, 5.0)
    checked = 0
    for _ in range(10_000):
        s_uni = float(rng.uniform(np.nextafter(0.0, 1.0), 1.0))
        s_multi = float(rng.uniform(np.nextafter(0.0, 1.0), 1.0))
        gamma = gammas[int(rng.integers(len(gammas)))]
        xi = iemf_coefficient(s_uni, s_multi, IEMFConfig(gamma=gamma))
        assert 0.0 < xi < 2.0 * gamma
        ratio = s_uni / s_multi
        if ratio > 1.0:
            assert xi < gamma
        elif ratio == 1.0:
            assert xi == gamma
        else:
            assert xi > gamma
        checked += 1
    _report("1 (xi contract)", checked == 10_000,
            f"{checked} random triples inside (0, 2*gamma) with exact sign cases",
            time.monotonic() - t0, 1.0)


def _finite_difference_full(model, batch, h=1e-5):
    grads_fd = {}
    work = model.clone()
    for pid, arr in model.params.items():
        fd = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            for sign, target in ((1.0, "plus"), (-1.0, "minus")):
                work.params[pid] = arr.copy()
                work.params[pid][idx] += sign * h
                loss = forward_full(batch, work, tape=None).loss.item()
                if target == "plus":
                    lp = loss
                else:
                    lm = loss
            fd[idx] = (lp - lm) / (2.0 * h)
        work.params[pid] = arr.copy()
        grads_fd[pid] = fd
    return grads_fd


def _hand_unrolled_bptt(w, b, x, c, p, t_steps):
    tau = p.tau
    drive = x @ w.T + b
    u = np.zeros_like(drive)
    pres, spikes = [], []
    for _ in range(t_steps):
        u_pre = tau * u + drive
        s = (u_pre >= p.u_th).astype(float)
        u = u_pre * (1.0 - s)
        pres.append(u_pre)
        spikes.append(s)

    def hat(u_pre):
        return np.maximum(0.0, 1.0 - np.abs(u_pre - p.u_th) / p.surrogate_width)

    a_u = np.zeros_like(drive)
    d_drive = np.zeros_like(drive)
    for t in reversed(range(t_steps)):
        a_pre = c * hat(pres[t]) + a_u * (1.0 - spikes[t])
        d_drive += a_pre
        a_u = tau * a_pre
    return d_drive.T @ x, d_drive.sum(axis=0)


def test_criterion_2_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        d_a = int(rng.integers(2, 5))
        d_v = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        cfg = ModelConfig(d_in_a=d_a, d_in_v=d_v, n_classes=m,
                          hidden=int(rng.integers(3, 6)), latent=int(rng.integers(2, 5)),
                          depth=int(rng.integers(1, 3)), head_mode="joint",
                          head_loss_weight=float(rng.uniform(0.0, 1.5)))
        model = init_model(cfg, trial)
        batch = Batch(Tensor(rng.standard_normal((4, d_a))),
                      Tensor(rng.standard_normal((4, d_v))),
                      rng.integers(0, m, size=4))
        tape = Tape()
        out = forward_full(batch, model, tape)
        grads = backward(tape, out.loss)
        fd = _finite_difference_full(model, batch)
        for pid in model.params:
            err = np.abs(grads[pid] - fd[pid]) / np.maximum(1e-6, np.abs(fd[pid]))
            worst = max(worst, float(np.max(err)))
    ann_ok = worst < 1e-6

    # spiking path against the independently hand-unrolled two-unit oracle
    p = LIFParams(u_th=0.5, tau_m=2.0, t_steps=4, surrogate_width=1.0)
    w0 = np.array([[0.8, 0.3], [-0.2, 0.9]])
    b0 = np.array([0.05, -0.1])
    x = np.array([[0.6, -0.4], [0.2, 0.7], [-0.3, 0.5]])
    c = np.array([1.0, 2.0])
    tape = Tape()
    w = tape.leaf(w0, param_id="w")
    b = tape.leaf(b0, param_id="b")
    spikes = lif_layer(T.linear(tape.leaf(x), w, b), p)
    grads = backward(tape, R.sum_all(R.mul(spikes, Tensor(np.tile(c, (3 * p.t_steps, 1))))))
    ref_dw, ref_db = _hand_unrolled_bptt(w0, b0, x, c, p, p.t_steps)
    snn_err = max(float(np.max(np.abs(grads["w"] - ref_dw))),
                  float(np.max(np.abs(grads["b"] - ref_db))))
    snn_ok = snn_err < 1e-10

    _report("2 (gradient correctness)", ann_ok and snn_ok,
            f"20 ANN models max rel err {worst:.2e}; BPTT oracle err {snn_err:.2e}",
            time.monotonic() - t0, 30.0)


def test_criterion_3_contraction_numerics():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(10):
        d = int(rng.integers(3, 8))
        lam = sorted(float(x) for x in 10 ** rng.uniform(-1.5, 1.5, size=d))  # 3 decades
        xis = [float(x) for x in rng.uniform(0.05, 1.95, size=100)]
        eta = 1.9 / (2.0 * max(lam))  # eta * lam_d * 2 < 2
        problem = QuadraticProblem(eigenvalues=lam, alpha0=list(rng.standard_normal(d)),
                                   eta=eta, xi_schedule=xis, rotation_seed=trial)
        report = verify_contraction(problem)
        assert report.passed and not report.diverged
        worst = max(worst, report.max_residual)
        norms = report.norm_trace
        assert all(b <= a + 1e-15 for a, b in zip(norms[1:], norms[2:])), \
            "deviation norm increased after the first step"
    _report("3 (contraction numerics)", worst <= 1e-10,
            f"10 quadratics x 100 steps, max residual {worst:.2e}, norms non-increasing",
            time.monotonic() - t0, 5.0)


def test_criterion_4_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)

    # worked forgetting fixture
    fixture = [[0.90], [0.80, 0.85], [0.70, 0.75, 0.88]]
    assert abs(afr(fixture) - 0.125) < 1e-15

    for _ in range(100):
        k = int(rng.integers(2, 7))
        matrix = [[float(rng.random()) for _ in range(i + 1)] for i in range(k)]
        aa, aia = aa_aia(matrix)
        ref_aa = [sum(row) / len(row) for row in matrix]
        assert np.max(np.abs(np.array(aa) - np.array(ref_aa))) < 1e-12
        assert abs(aia - sum(ref_aa) / len(ref_aa)) < 1e-12
        fs = []
        for kk in range(2, k + 1):
            total = 0.0
            for j in range(1, kk):
                total += max(matrix[l - 1][j - 1] for l in range(j, kk)) - matrix[kk - 1][j - 1]
            fs.append(total / (kk - 1))
        assert abs(afr(matrix) - sum(fs) / (k - 1)) < 1e-12

    for _ in range(100):
        n, m = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, m))
        labels = rng.integers(0, m, size=n)
        ref = sum(1 for i in range(n)
                  if max(range(m), key=lambda j: (logits[i, j], -j)) == labels[i]) / n
        assert abs(top1_accuracy(Tensor(logits), labels) - ref) < 1e-12

    for _ in range(100):
        n_methods = int(rng.integers(2, 5))
        curves = {f"m{i}": [float(x) for x in rng.uniform(0.05, 1.0, size=int(rng.integers(3, 12)))]
                  for i in range(n_methods)}
        flops = {name: float(rng.uniform(1.0, 100.0)) for name in curves}
        upper = min(max(c) for c in curves.values())
        lower = max(min(c) for c in curves.values())
        if upper <= lower:
            continue
        report = computational_cost(curves, flops)
        thresholds = [upper + (lower - upper) * i / 4 for i in range(4)] + [lower]
        for name, curve in curves.items():
            total = 0
            for thr in thresholds:
                total += next((i + 1 for i, e in enumerate(curve) if e <= thr), len(curve))
            assert abs(report.cost[name] - total / 5 * flops[name]) < 1e-12

    _report("4 (metric oracles)", True,
            "aa/aia, afr, top-1, and cost match brute force on 100 instances each",
            time.monotonic() - t0, 60.0)


def test_criterion_5_xi_dynamics(default_pairs):
    pairs, fixture_time = default_pairs
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in SEEDS:
        _, trace = pairs[seed]
        xis = [r.xi for r in trace[True]]
        k = max(1, len(xis) // 10)
        early, late = float(np.mean(xis[:k])), float(np.mean(xis[-k:]))
        wins += early > late
        details.append(f"{early:.3f}>{late:.3f}")
    _report("5 (xi falls back)", wins >= 4,
            f"{wins}/5 seeds with early-mean above late-mean ({', '.join(details)})",
            time.monotonic() - t0 + fixture_time, 180.0)


def test_criterion_6_benefit_direction():
    t0 = time.monotonic()
    on, off = [], []
    for seed in SEEDS:
        pair, _ = _train_pair(BENEFIT_DATA, seed, BENEFIT_EPOCHS, BENEFIT_ETA)
        on.append(pair[True][1][-1].test_acc)
        off.append(pair[False][1][-1].test_acc)
    wins = sum(1 for a, b in zip(on, off) if a >= b)
    mean_on, mean_off = float(np.mean(on)), float(np.mean(off))
    _report("6 (accuracy benefit)", mean_on >= mean_off and wins >= 4,
            f"mean {mean_on:.4f} vs {mean_off:.4f}, paired wins {wins}/5",
            time.monotonic() - t0, 300.0)


def test_criterion_7_continual_direction():
    t0 = time.monotonic()
    outcomes = {}
    for method in ("finetune", "lwf"):
        wins = 0
        for seed in SEEDS:
            ds = generate(DataSpec(seed=seed, **BENEFIT_DATA))
            stream = build_task_stream(ds, 3, 2, seed)
            aias = {}
            for enabled in (True, False):
                model = init_model(ModelConfig(d_in_a=32, d_in_v=32, n_classes=6), seed)
                cfg = OptimConfig(eta=5e-3, epochs=8, batch_size=32, seed=seed,
                                  iemf=IEMFConfig(enabled=enabled))
                matrix, _ = train_incremental(stream, method, model, cfg)
                _, aias[enabled] = aa_aia(matrix)
            wins += aias[True] >= aias[False]
        outcomes[method] = wins
    passed = all(w >= 3 for w in outcomes.values())
    _report("7 (continual direction)", passed,
            f"AIA wins finetune {outcomes['finetune']}/5, lwf {outcomes['lwf']}/5",
            time.monotonic() - t0, 300.0)


def test_criterion_8_sharpness_direction(default_pairs):
    pairs, fixture_time = default_pairs
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in SEEDS:
        pair, _ = pairs[seed]
        estimates = {}
        for enabled in (True, False):
            model, _, ds = pair[enabled]
            report = sharpness(model, ds, ball_radius=0.25, n_probes=6, ascent_steps=15,
                               seed=seed)
            estimates[enabled] = report.increase
        wins += estimates[True] <= estimates[False]
        details.append(f"{estimates[True]:.4f}<={estimates[False]:.4f}")
    _report("8 (flatter optimum)", wins >= 3,
            f"{wins}/5 seeds flatter with modulation ({', '.join(details)})",
            time.monotonic() - t0 + fixture_time, 180.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    import json

    cfg = {
        "seed": 3,
        "data": {"n_classes": 4, "d_a": 6, "d_v": 6, "train_per_class": 10,
                 "test_per_class": 4, "sigma_a": 2.0, "sigma_v": 0.8},
        "model": {"hidden": 8, "latent": 6},
        "optim": {"eta": 0.01, "epochs": 3, "batch_size": 8},
        "continual": {"tasks": 2, "classes_per_task": 2, "method": "lwf"},
        "analysis": {"contraction": {"eigenvalues": [1.0, 10.0], "alpha0": [1.0, 1.0],
                                     "eta": 0.05, "xi": 0.5, "steps": 50}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    data_path = str(tmp_path / "data.iemf")
    assert cli_main(["generate", "--config", str(cfg_path), "--out", data_path]) == 0

    compared = []
    for cmd, outputs in (
        (["train"], ["metrics.csv", "xi_trace.csv", "resolved_config.json"]),
        (["continual"], ["accuracy_matrix.csv", "continual_metrics.json", "xi_trace.csv"]),
        (["analyze", "contraction"], ["contraction_report.json"]),
    ):
        dirs = []
        for run in ("x", "y"):
            out = str(tmp_path / f"{'_'.join(cmd)}_{run}")
            argv = cmd + ["--config", str(cfg_path), "--data", data_path, "--out", out]
            assert cli_main(argv) == 0
            dirs.append(out)
        for name in outputs:
            with open(os.path.join(dirs[0], name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(dirs[1], name), "rb") as fh:
                second = fh.read()
            assert first == second, f"{cmd} {name} differs between reruns"
            compared.append(name)
    _report("9 (determinism)", True,
            f"{len(compared)} CSV/JSON outputs byte-identical across reruns",
            time.monotonic() - t0, 120.0)


def test_criterion_10_total_runtime():
    elapsed = time.monotonic() - _SUITE_T0
    _report("10 (total runtime)", elapsed < 20 * 60,
            f"acceptance suite finished in {elapsed:.1f}s", 0.0, 1.0)
