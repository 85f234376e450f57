"""LIF dynamics, the surrogate backward, and the hand-unrolled BPTT oracle."""

import numpy as np
import pytest

import iemf.tensor as T
from iemf.errors import ConfigError, ShapeError
from iemf.neurons import LIFParams, lif_layer, lif_scan, relu
from iemf.tensor import Tape, Tensor

import reference_ops as R


def test_relu_values():
    assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.array_equal(relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])


def test_relu_gradient():
    tape = Tape()
    x = tape.leaf(np.array([-1.0, 2.0]), param_id="x")
    grads = R.named_grads(tape, R.sum_all(relu(x)))
    assert np.array_equal(grads["x"], [0.0, 1.0])


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(20)
    x0[np.abs(x0) < 0.1] += 0.2  # keep clear of the kink
    tape = Tape()
    x = tape.leaf(x0, param_id="x")
    grads = R.named_grads(tape, R.sum_all(R.mul(relu(x), relu(x))))
    h = 1e-6
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = ((np.maximum(0, xp) ** 2).sum() - (np.maximum(0, xm) ** 2).sum()) / (2 * h)
        assert abs(grads["x"][i] - fd) < 1e-6


def test_lif_params_validation():
    assert LIFParams().tau == 0.5
    with pytest.raises(ConfigError):
        LIFParams(tau_m=1.0)
    with pytest.raises(ConfigError):
        LIFParams(t_steps=0)
    with pytest.raises(ConfigError):
        LIFParams(u_th=0.0)
    with pytest.raises(ConfigError):
        LIFParams(surrogate_width=0.0)


def _stack(currents):
    """One shared drive as it is, or the per-step currents on a leading step axis."""
    if len(currents) == 1:
        return currents[0]
    return Tensor(np.stack([c.data for c in currents]))


def _spikes(currents, p):
    """Per-step spikes of one layer run as the multi-step op."""
    return list(lif_layer(_stack(currents), p).data)


def _membranes(currents, p):
    """Per-step membranes after reset, from the op's own dynamics."""
    spikes, shifted = lif_scan(_stack(currents).data, p)
    return list((shifted + p.u_th) * (1.0 - spikes))


def _simulated(currents, p):
    """Per-step spikes and u_pre - u_th, simulated step by step in plain numpy."""
    u, spikes, shifted = np.zeros_like(currents[0].data), [], []
    for t in range(p.t_steps):
        u_pre = p.tau * u + currents[0 if len(currents) == 1 else t].data
        fired = u_pre >= p.u_th
        spikes.append(fired.astype(float))
        shifted.append(u_pre - p.u_th)
        u = np.where(fired, 0.0, u_pre)
    return np.stack(spikes), np.stack(shifted)


def test_lif_zero_input_stays_silent():
    p = LIFParams()
    drive = [Tensor(np.zeros((2, 4)))]
    assert len(_spikes(drive, p)) == p.t_steps
    for u, s in zip(_membranes(drive, p), _spikes(drive, p)):
        assert np.array_equal(u, np.zeros((2, 4)))
        assert np.array_equal(s, np.zeros((2, 4)))


def test_lif_forced_spike_and_reset():
    p = LIFParams(u_th=0.5, t_steps=1)
    drive = [Tensor([[1.0]])]
    assert _spikes(drive, p)[0][0, 0] == 1.0
    assert _membranes(drive, p)[0][0, 0] == 0.0


def test_lif_hand_simulated_sequence():
    # tau=0.5, u_th=0.5, constant drive 0.3: u runs 0.3, 0.45, then crosses at 0.525
    p = LIFParams(u_th=0.5, tau_m=2.0, t_steps=4)
    drive = [Tensor([[0.3]])]
    us, spikes = _membranes(drive, p), _spikes(drive, p)
    pre = [0.3, 0.45, 0.525]
    assert abs(us[0][0, 0] - pre[0]) < 1e-15
    assert abs(us[1][0, 0] - pre[1]) < 1e-15
    assert spikes[0][0, 0] == 0.0 and spikes[1][0, 0] == 0.0
    assert spikes[2][0, 0] == 1.0
    assert us[2][0, 0] == 0.0  # reset after the spike
    assert spikes[3][0, 0] == 0.0  # 0.3 again after the reset
    assert abs(us[3][0, 0] - pre[0]) < 1e-15


@pytest.mark.parametrize("per_step", [False, True])
def test_lif_scan_matches_plain_simulation(per_step):
    """The recurrence, threshold and hard reset agree bit for bit, signs of
    zero included, with a step-by-step simulation, for a shared drive and for
    per-step currents; a shared drive also at the 300-row evaluation shape."""
    rng = np.random.default_rng(7)
    p = LIFParams(t_steps=5)
    for shape in [(6, 4)] if per_step else [(6, 4), (300, 64)]:
        currents = [Tensor(rng.standard_normal(shape))
                    for _ in range(p.t_steps if per_step else 1)]
        spikes, shifted = lif_scan(_stack(currents).data, p)
        ref_spikes, ref_shifted = _simulated(currents, p)
        assert ref_spikes.any() and not ref_spikes.all()
        for got, want in ((spikes, ref_spikes), (shifted, ref_shifted)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_spike_binarity_and_reset_invariant():
    rng = np.random.default_rng(4)
    p = LIFParams(t_steps=6)
    currents = [Tensor(rng.standard_normal((8, 5))) for _ in range(6)]
    spikes = _spikes(currents, p)
    assert any(s.any() for s in spikes)
    for u, s in zip(_membranes(currents, p), spikes):
        assert set(np.unique(s)).issubset({0.0, 1.0})
        assert np.array_equal(u * s, np.zeros_like(u))


def test_surrogate_derivative_hat():
    """d spike / d current from a zero membrane is the hat at the current."""
    p = LIFParams(u_th=0.5, surrogate_width=1.0, t_steps=1)
    currents = np.array([[0.5, 1.5, -0.5, 0.75]])
    tape = Tape()
    x = tape.leaf(currents, param_id="x")
    grad = R.named_grads(tape, R.sum_all(lif_layer(x, p)))["x"][0]
    assert grad[0] == 1.0
    assert grad[1] == 0.0
    assert grad[2] == 0.0
    assert abs(grad[3] - 0.75) < 1e-15


def test_lif_shape_mismatch():
    """A (B, N) drive or (t_steps, B, N) currents, nothing else."""
    p = LIFParams(t_steps=2)
    assert lif_layer(Tensor(np.zeros((3, 4))), p).shape == (2, 3, 4)
    assert lif_layer(Tensor(np.zeros((2, 3, 4))), p).shape == (2, 3, 4)
    for shape in [(3,), (1, 3, 4), (3, 3, 4), (2, 2, 3, 4)]:
        with pytest.raises(ShapeError, match=r"\(2, B, N\) currents"):
            lif_layer(Tensor(np.zeros(shape)), p)


def test_subthreshold_map_is_linear_and_matches_finite_differences():
    """With every unit below threshold, the unrolled membrane map is linear and
    the op's BPTT gradient is the exact gradient of the summed surrogate
    potential sum_t S(u_pre_t - u_th), S' = hat: here S(v) = v + v^2 / (2 width)."""
    p = LIFParams(u_th=5.0, tau_m=2.0, t_steps=4, surrogate_width=10.0)
    rng = np.random.default_rng(6)
    w0 = 0.05 * rng.standard_normal((3, 3))
    x = 0.1 * rng.standard_normal((4, 3))

    def surrogate_potential(w_val):
        spikes, v = lif_scan(x @ w_val.T, p)
        assert not spikes.any()
        assert np.all((-p.surrogate_width < v) & (v < 0.0))  # inside the hat's rising side
        return float((v + v * v / (2.0 * p.surrogate_width)).sum())

    tape = Tape()
    w = tape.leaf(w0, param_id="w")
    drive = R.matmul(tape.leaf(x), R.transpose(w))
    grads = R.named_grads(tape, R.sum_all(lif_layer(drive, p)))
    h = 1e-5
    for idx in [(0, 0), (1, 2), (2, 1)]:
        wp, wm = w0.copy(), w0.copy()
        wp[idx] += h
        wm[idx] -= h
        fd = (surrogate_potential(wp) - surrogate_potential(wm)) / (2 * h)
        rel = abs(grads["w"][idx] - fd) / max(1e-6, abs(fd))
        assert rel < 1e-6

    # doubling the weights doubles the final membrane sum (no spikes anywhere)
    def final_membrane_sum(w_val):
        return float(_membranes([Tensor(x @ w_val.T)], p)[-1].sum())

    assert abs(final_membrane_sum(2.0 * w0) - 2.0 * final_membrane_sum(w0)) < 1e-12


def _hand_unrolled_bptt(w, b, x, c, p, t_steps):
    """Independent BPTT: surrogate hat at u_pre, reset factor held constant."""
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
    loss = sum((c * s).sum() for s in spikes)

    def hat(u_pre):
        return np.maximum(0.0, 1.0 - np.abs(u_pre - p.u_th) / p.surrogate_width)

    a_u = np.zeros_like(drive)
    d_drive = np.zeros_like(drive)
    for t in reversed(range(t_steps)):
        a_pre = c * hat(pres[t]) + a_u * (1.0 - spikes[t])
        d_drive += a_pre
        a_u = tau * a_pre
    dw = d_drive.T @ x
    db = d_drive.sum(axis=0)
    return loss, dw, db


def test_bptt_matches_hand_unrolled_oracle():
    p = LIFParams(u_th=0.5, tau_m=2.0, t_steps=4, surrogate_width=1.0)
    w0 = np.array([[0.8, 0.3], [-0.2, 0.9]])
    b0 = np.array([0.05, -0.1])
    x = np.array([[0.6, -0.4], [0.2, 0.7], [-0.3, 0.5]])
    c = np.array([1.0, 2.0])

    tape = Tape()
    w = tape.leaf(w0, param_id="w")
    b = tape.leaf(b0, param_id="b")
    spikes = lif_layer(T.linear(tape.leaf(x), w, b), p)
    loss = R.sum_all(R.mul(spikes, Tensor(np.tile(c, (p.t_steps, 3, 1)))))
    grads = R.named_grads(tape, loss)

    ref_loss, ref_dw, ref_db = _hand_unrolled_bptt(w0, b0, x, c, p, p.t_steps)
    assert ref_loss > 0.0  # the oracle only bites if spikes actually fire
    assert abs(loss.item() - ref_loss) < 1e-12
    assert np.max(np.abs(grads["w"] - ref_dw)) < 1e-10
    assert np.max(np.abs(grads["b"] - ref_db)) < 1e-10


def test_bptt_per_step_currents_matches_hand_unrolled_oracle():
    """One input per step: each step's current gets its own adjoint."""
    p = LIFParams(u_th=0.5, tau_m=2.0, t_steps=3, surrogate_width=1.0)
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal((4, 3))
    b0 = 0.1 * rng.standard_normal(4)
    xs = [rng.standard_normal((5, 3)) for _ in range(p.t_steps)]
    c = rng.standard_normal(4)

    tape = Tape()
    w = tape.leaf(w0, param_id="w")
    b = tape.leaf(b0, param_id="b")
    weights = [0.5 * np.ones(4), c, 2 * c]
    currents = T.linear(tape.leaf(np.stack(xs)), w, b)
    spikes = lif_layer(currents, p)
    loss = R.sum_all(R.mul(spikes, Tensor(np.repeat(np.array(weights)[:, None], 5, axis=1))))
    grads = R.named_grads(tape, loss)

    u = np.zeros((5, 4))
    pres, fired = [], []
    for x in xs:
        u_pre = p.tau * u + (x @ w0.T + b0)
        s = (u_pre >= p.u_th).astype(float)
        u = u_pre * (1.0 - s)
        pres.append(u_pre)
        fired.append(s)
    a_u = np.zeros((5, 4))
    ref_dw, ref_db = np.zeros_like(w0), np.zeros_like(b0)
    for t in reversed(range(p.t_steps)):
        hat = np.maximum(0.0, 1.0 - np.abs(pres[t] - p.u_th) / p.surrogate_width)
        a_pre = weights[t] * hat + a_u * (1.0 - fired[t])
        ref_dw += a_pre.T @ xs[t]
        ref_db += a_pre.sum(axis=0)
        a_u = p.tau * a_pre
    assert sum(s.sum() for s in fired) > 0.0 and np.abs(ref_dw).max() > 0.0
    assert np.max(np.abs(grads["w"] - ref_dw)) < 1e-10
    assert np.max(np.abs(grads["b"] - ref_db)) < 1e-10
