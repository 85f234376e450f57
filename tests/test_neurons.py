"""LIF dynamics, the surrogate backward, and the hand-unrolled BPTT oracle."""

import numpy as np
import pytest

import iemf.tensor as T
from iemf.errors import ConfigError, ShapeError
from iemf.neurons import LIFParams, lif_step, relu
from iemf.tensor import Tape, Tensor, backward


def test_relu_values():
    assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.array_equal(relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])


def test_relu_gradient():
    tape = Tape()
    x = tape.leaf(np.array([-1.0, 2.0]), param_id="x")
    grads = backward(tape, T.sum_all(relu(x)))
    assert np.array_equal(grads["x"].data, [0.0, 1.0])


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(20)
    x0[np.abs(x0) < 0.1] += 0.2  # keep clear of the kink
    tape = Tape()
    x = tape.leaf(x0, param_id="x")
    grads = backward(tape, T.sum_all(T.mul(relu(x), relu(x))))
    h = 1e-6
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = ((np.maximum(0, xp) ** 2).sum() - (np.maximum(0, xm) ** 2).sum()) / (2 * h)
        assert abs(grads["x"].data[i] - fd) < 1e-6


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


def test_lif_zero_input_stays_silent():
    p = LIFParams()
    u = Tensor(np.zeros(4))
    for _ in range(p.t_steps):
        u, s = lif_step(u, Tensor(np.zeros(4)), p)
        assert np.array_equal(u.data, np.zeros(4))
        assert np.array_equal(s.data, np.zeros(4))


def test_lif_forced_spike_and_reset():
    p = LIFParams(u_th=0.5)
    u, s = lif_step(Tensor([0.0]), Tensor([1.0]), p)
    assert s.data[0] == 1.0
    assert u.data[0] == 0.0


def run_lif(currents, p):
    """Membranes after reset and spikes of one layer driven from a zero state."""
    u = Tensor(np.zeros_like(currents[0].data))
    us, spikes = [], []
    for cur in currents:
        u, s = lif_step(u, cur, p)
        us.append(u)
        spikes.append(s)
    return us, spikes


def test_lif_hand_simulated_sequence():
    # tau=0.5, u_th=0.5, constant drive 0.3: u runs 0.3, 0.45, then crosses at 0.525
    p = LIFParams(u_th=0.5, tau_m=2.0, t_steps=4)
    us, spikes = run_lif([Tensor([0.3])] * 4, p)
    pre = [0.3, 0.45, 0.525]
    assert abs(us[0].data[0] - pre[0]) < 1e-15
    assert abs(us[1].data[0] - pre[1]) < 1e-15
    assert spikes[0].data[0] == 0.0 and spikes[1].data[0] == 0.0
    assert spikes[2].data[0] == 1.0
    assert us[2].data[0] == 0.0  # reset after the spike


def test_spike_binarity_and_reset_invariant():
    rng = np.random.default_rng(4)
    p = LIFParams()
    currents = [Tensor(rng.standard_normal((8, 5))) for _ in range(6)]
    for u, s in zip(*run_lif(currents, p)):
        assert set(np.unique(s.data)).issubset({0.0, 1.0})
        assert np.array_equal(u.data * s.data, np.zeros_like(u.data))


def test_surrogate_derivative_hat():
    """d spike / d current from a zero membrane is the hat at the current."""
    p = LIFParams(u_th=0.5, surrogate_width=1.0)
    currents = np.array([0.5, 1.5, -0.5, 0.75])
    tape = Tape()
    x = tape.leaf(currents, param_id="x")
    _, spike = lif_step(Tensor(np.zeros(4)), x, p)
    grad = backward(tape, T.sum_all(spike))["x"].data
    assert grad[0] == 1.0
    assert grad[1] == 0.0
    assert grad[2] == 0.0
    assert abs(grad[3] - 0.75) < 1e-15


def test_lif_shape_mismatch():
    with pytest.raises(ShapeError):
        lif_step(Tensor(np.zeros(3)), Tensor(np.zeros(4)), LIFParams())


def test_subthreshold_map_is_linear_and_matches_finite_differences():
    """With every unit outside the surrogate support, the unrolled map is linear."""
    p = LIFParams(u_th=5.0, tau_m=2.0, t_steps=4, surrogate_width=1.0)
    rng = np.random.default_rng(6)
    w0 = 0.05 * rng.standard_normal((3, 3))
    x = 0.1 * rng.standard_normal((4, 3))

    def final_membrane_sum(w_val):
        tape = Tape()
        w = tape.leaf(w_val, param_id="w")
        drive = T.matmul(tape.leaf(x), T.transpose(w))
        u = Tensor(np.zeros((4, 3)))
        for _ in range(p.t_steps):
            u, s = lif_step(u, drive, p)
            assert not s.data.any()
        return tape, T.sum_all(u)

    # linearity: f(a x1 + b x2) == a f(x1) + b f(x2) for the membrane map
    tape, loss = final_membrane_sum(w0)
    grads = backward(tape, loss)
    h = 1e-5
    for idx in [(0, 0), (1, 2), (2, 1)]:
        wp, wm = w0.copy(), w0.copy()
        wp[idx] += h
        wm[idx] -= h
        fd = (final_membrane_sum(wp)[1].item() - final_membrane_sum(wm)[1].item()) / (2 * h)
        rel = abs(grads["w"].data[idx] - fd) / max(1e-6, abs(fd))
        assert rel < 1e-6

    # doubling the weights doubles the final membrane sum (no spikes anywhere)
    _, loss2 = final_membrane_sum(2.0 * w0)
    assert abs(loss2.item() - 2.0 * loss.item()) < 1e-12


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
    drive = T.add_bias(T.matmul(tape.leaf(x), T.transpose(w)), b)
    u = Tensor(np.zeros((3, 2)))
    terms = []
    for _ in range(p.t_steps):
        u, s = lif_step(u, drive, p)
        terms.append(T.sum_all(T.mul(s, Tensor(np.tile(c, (3, 1))))))
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    grads = backward(tape, loss)

    ref_loss, ref_dw, ref_db = _hand_unrolled_bptt(w0, b0, x, c, p, p.t_steps)
    assert ref_loss > 0.0  # the oracle only bites if spikes actually fire
    assert abs(loss.item() - ref_loss) < 1e-12
    assert np.max(np.abs(grads["w"].data - ref_dw)) < 1e-10
    assert np.max(np.abs(grads["b"].data - ref_db)) < 1e-10
