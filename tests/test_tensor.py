"""Tensor engine: kernels, tape recording, and reverse-mode gradients."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iemf.tensor as T
from iemf.errors import ContractError, NumericError, ShapeError
from iemf.neurons import LIFParams, lif_layer, lif_scan, relu
from iemf.tensor import Tape, Tensor, backward, softmax_cross_entropy

import reference_ops as R


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(R.matmul(eye, m).data, m.data)


def test_matmul_zero():
    z = Tensor(np.zeros((2, 3)))
    other = Tensor(np.arange(12, dtype=float).reshape(3, 4))
    assert np.array_equal(R.matmul(z, other).data, np.zeros((2, 4)))


def test_matmul_hand_case():
    c = R.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(c.data, [[17.0], [39.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        R.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def _probs(rows) -> np.ndarray:
    """The probabilities `softmax_cross_entropy` returns for a batch of logit rows."""
    rows = np.asarray(rows, dtype=np.float64)
    return softmax_cross_entropy(Tensor(rows), [0] * rows.shape[0])[1]


def test_softmax_symmetry():
    for c in (-3.0, 0.0, 7.5):
        out = _probs([[c, c, c, c]])
        assert np.allclose(out, 0.25, atol=1e-15)
        assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance():
    v = np.array([0.3, -1.2, 2.0, 0.0])
    a = _probs([v])
    b = _probs([v + 123.456])
    assert np.allclose(a, b, atol=1e-14)


def test_softmax_derived_value():
    out = _probs([[0.0, np.log(2.0)]])
    assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_empty_rejected():
    for shape in ((0, 3), (2, 0)):
        with pytest.raises(ShapeError):
            _probs(np.zeros(shape))


def test_softmax_positive_rows_sum_to_one():
    rng = np.random.default_rng(3)
    p = _probs(rng.standard_normal((40, 7)) * 30.0)
    assert np.all(p > 0.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_cross_entropy_perfect_logits():
    logits = Tensor([[100.0, 0.0], [0.0, 100.0]])
    loss, _ = softmax_cross_entropy(logits, [0, 1])
    assert loss.item() < 1e-12


def test_cross_entropy_uniform():
    loss, _ = softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
    assert abs(loss.item() - np.log(4.0)) < 1e-12


def test_cross_entropy_derived_value():
    loss, probs = softmax_cross_entropy(Tensor([[0.0, np.log(2.0)]]), [1])
    assert abs(loss.item() - (-np.log(2.0 / 3.0))) < 1e-12
    assert np.allclose(probs, [[1.0 / 3.0, 2.0 / 3.0]])


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_backward_sum_gives_ones():
    tape = Tape()
    x = tape.leaf(np.arange(6, dtype=float).reshape(2, 3), param_id="x")
    grads = R.named_grads(tape, R.sum_all(x))
    assert np.array_equal(grads["x"], np.ones((2, 3)))


def test_backward_scalar_scaling():
    tape = Tape()
    x = tape.leaf(np.ones((3, 2)), param_id="x")
    grads = R.named_grads(tape, R.sum_all(T.smul(x, 2.5)))
    assert np.array_equal(grads["x"], np.full((3, 2), 2.5))


def test_backward_requires_scalar_seed():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)), param_id="x")
    y = T.smul(x, 2.0)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_without_parameter_leaves_returns_an_empty_vector():
    tape = Tape()
    grad = backward(tape, R.sum_all(tape.leaf(np.ones(3))))
    assert type(grad) is np.ndarray and grad.dtype == np.float64 and grad.shape == (0,)


def test_a_parameter_leaf_recorded_after_the_seed_gets_zeros():
    tape = Tape()
    x = tape.leaf(np.full(2, 3.0), param_id="x")
    seed = R.sum_all(T.smul(x, 2.0))
    tape.leaf(np.ones((2, 2)), param_id="late")
    grad = backward(tape, seed)
    assert np.array_equal(grad, [2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    assert not np.signbit(grad).any()


def test_backward_skips_non_parameter_leaves():
    tape = Tape()
    x = tape.leaf(np.ones(3), param_id="x")
    c = tape.leaf(np.full(3, 2.0))  # constant leaf
    grads = R.named_grads(tape, R.sum_all(R.mul(x, c)))
    assert set(grads.keys()) == {"x"}


def _finite_difference(loss_of, w, h=1e-5):
    fd = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        fd[idx] = (loss_of(wp) - loss_of(wm)) / (2.0 * h)
    return fd


def _two_layer_loss(w1_val, w2_val, x_val, labels):
    tape = Tape()
    w1 = tape.leaf(w1_val, param_id="w1")
    w2 = tape.leaf(w2_val, param_id="w2")
    x = tape.leaf(x_val)
    h = relu(R.matmul(x, R.transpose(w1)))
    logits = R.matmul(h, R.transpose(w2))
    loss, _ = softmax_cross_entropy(logits, labels)
    return tape, loss


def test_gradients_match_finite_differences_on_random_nets():
    rng = np.random.default_rng(7)
    for trial in range(5):
        w1 = rng.standard_normal((5, 4))
        w2 = rng.standard_normal((3, 5))
        x = rng.standard_normal((6, 4))
        labels = rng.integers(0, 3, size=6)
        tape, loss = _two_layer_loss(w1, w2, x, labels)
        grads = R.named_grads(tape, loss)
        for name, w in (("w1", w1), ("w2", w2)):
            if name == "w1":
                fd = _finite_difference(lambda v: _two_layer_loss(v, w2, x, labels)[1].item(), w1)
            else:
                fd = _finite_difference(lambda v: _two_layer_loss(w1, v, x, labels)[1].item(), w2)
            err = np.abs(grads[name] - fd) / np.maximum(1e-6, np.abs(fd))
            assert np.max(err) < 1e-6, f"trial {trial} {name}: {np.max(err)}"


def test_kernel_gradients_finite_difference_sweep():
    """Every differentiable kernel in one composed graph against central differences.

    `lin` holds three one-row steps on its leading axis, so `concat_cols`,
    `linear` and `step_mean` run on a step axis, and `lif_layer` runs on both
    input forms: per-step currents and a shared (B, N) drive. The LIF layers
    run where every membrane sits outside the surrogate's support, so their
    spikes are locally constant and their surrogate gradient is exactly zero,
    which is what central differences see.
    """
    rng = np.random.default_rng(11)
    vals0 = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4)),
             "bias": rng.standard_normal(4), "w": rng.standard_normal((2, 4)),
             "c": rng.standard_normal(2), "s": -2.0 * rng.standard_normal((3, 1, 2))}
    old = rng.standard_normal((3, 2))
    lif = LIFParams(u_th=3.3, t_steps=3, surrogate_width=1e-3)

    def build(vals):
        tape = Tape()
        a, b, bias, w, c, s = (tape.leaf(vals[k], param_id=k)
                               for k in ("a", "b", "bias", "w", "c", "s"))
        m = R.add_bias(R.mul(T.add(a, b), T.add(a, T.smul(b, -1.0))), bias)
        m = R.add_bias(T.smul(m, 0.7), Tensor(np.full(4, 0.3)))
        cat = T.concat_cols(m, R.transpose(R.transpose(m)))
        sel = T.select_cols(cat, [1, 3, 3, 6])
        kl = T.distill_kl(T.select_cols(cat, [0, 2]), Tensor(old), 2.0)
        loss = T.add(R.sum_all(R.mul(sel, sel)), kl)
        loss = T.add(loss, softmax_cross_entropy(sel, [0, 3, 2])[0])
        lin = T.linear(T.concat_cols(s, T.smul(s, -1.5)), w, c)
        drive = T.linear(m, w, c)
        per_step = lif_layer(lin, lif)
        shared = T.step_mean(lif_layer(drive, lif))
        mean = T.step_mean(lin)
        loss = T.add(loss, R.sum_all(R.mul(mean, T.smul(mean, -0.5))))
        loss = T.add(loss, R.sum_all(R.mul(per_step, lin)))
        loss = T.add(loss, R.sum_all(R.mul(shared, T.smul(drive, 1.5))))
        return tape, loss, (lin, drive)

    tape, loss, currents = build(vals0)
    grads = R.named_grads(tape, loss)
    assert R.replay_forward(tape)
    assert {n.op for n in tape.nodes} >= {"linear", "step_mean", "lif_layer", "concat_cols"}
    for current in currents:
        spikes, shifted = lif_scan(current.data, lif)
        assert 0.0 < spikes.mean() < 1.0
        assert np.abs(shifted).min() > 10 * lif.surrogate_width
    for name, val in vals0.items():
        def loss_of(v, _name=name):
            return build({**vals0, _name: v})[1].item()

        fd = _finite_difference(loss_of, val.copy())
        err = np.abs(grads[name] - fd) / np.maximum(1e-6, np.abs(fd))
        assert np.max(err) < 1e-6, f"{name}: {np.max(err)}"


def test_linear_is_bit_identical_to_the_composed_affine_map():
    rng = np.random.default_rng(12)
    x0, w0, b0 = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)), rng.standard_normal(4)
    weights = Tensor(rng.standard_normal((5, 4)))
    runs = []
    for fused in (True, False):
        tape = Tape()
        x, w, b = (tape.leaf(v, param_id=k) for k, v in (("x", x0), ("w", w0), ("b", b0)))
        out = T.linear(x, w, b) if fused else R.add_bias(R.matmul(x, R.transpose(w)), b)
        grads = R.named_grads(tape, R.sum_all(R.mul(out, weights)))
        runs.append((out.data, grads, len(tape)))
    (fused_out, fused_grads, fused_nodes), (out, grads, nodes) = runs
    assert np.array_equal(fused_out, out)
    for k in grads:
        assert np.array_equal(fused_grads[k], grads[k])
    assert nodes - fused_nodes == 2
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros((5, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros((5, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))


def test_step_mean_blocks_and_gradient():
    tape = Tape()
    x = tape.leaf(np.arange(12, dtype=float).reshape(3, 2, 2), param_id="x")
    mean = T.step_mean(x)
    assert mean.data.tolist() == [[4, 5], [6, 7]]
    grads = R.named_grads(tape, R.sum_all(T.smul(mean, 6.0)))
    assert np.array_equal(grads["x"], np.full((3, 2, 2), 2.0))
    rows = tape.leaf(np.ones((2, 2)))
    nodes = len(tape)
    assert T.step_mean(rows) is rows and len(tape) == nodes  # one step records nothing


def test_step_axis_shape_contracts():
    """The step axis is read from `ndim`: `linear` takes (B,K) or (T,B,K)
    rows, `step_mean` (B,N) or (T,B,N), and `concat_cols` needs every leading
    axis to match (`lif_layer`'s cases are in `test_lif_shape_mismatch`).
    Anything else is a ShapeError, which the CLI ends with exit 2."""
    w, b = Tensor(np.ones((3, 2))), Tensor(np.ones(3))
    assert T.linear(Tensor(np.ones((4, 5, 2))), w, b).shape == (4, 5, 3)
    for shape in [(2,), (1, 4, 5, 2)]:
        with pytest.raises(ShapeError, match="linear needs"):
            T.linear(Tensor(np.ones(shape)), w, b)
    for shape in [(2,), (1, 1, 2, 2)]:
        with pytest.raises(ShapeError, match="step_mean needs"):
            T.step_mean(Tensor(np.ones(shape)))
    assert T.concat_cols(Tensor(np.ones((4, 5, 2))), Tensor(np.ones((4, 5, 1)))).shape == (4, 5, 3)
    for left, right in [((4, 5, 2), (3, 5, 2)), ((4, 5, 2), (4, 6, 2)), ((5, 2), (4, 5, 2)),
                        ((5, 2), (6, 2)), ((2,), (2,))]:
        with pytest.raises(ShapeError, match="matching leading shapes"):
            T.concat_cols(Tensor(np.ones(left)), Tensor(np.ones(right)))


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _stacked_linear_and_mean(x0, w0, b0, weights):
    """`linear` over the (T, B, K) steps and `step_mean` of its output, one
    node each: (out, mean, gx, gw, gb)."""
    tape = Tape()
    x, w, b = (tape.leaf(v, param_id=name) for name, v in (("x", x0), ("w", w0), ("b", b0)))
    out = T.linear(x, w, b)
    mean = T.step_mean(out)
    grads = R.named_grads(tape, R.sum_all(R.mul(mean, Tensor(weights))))
    assert len(tape) == 3 + 1 + 1 + 3  # leaves, linear, step_mean, loss
    assert R.replay_forward(tape)
    return out.data, mean.data, grads["x"], grads["w"], grads["b"]


@settings(max_examples=80, deadline=None)
@given(steps=st.integers(1, 10), rows=st.sampled_from([1, 2, 3, 7, 8, 9, 64, 129, 130]),
       k=st.sampled_from([1, 2, 5, 9]), n=st.sampled_from([1, 2, 3, 8]),
       spikes=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_linear_and_step_mean_equal_the_per_step_composition(
        steps, rows, k, n, spikes, seed):
    """The stacked rules against a tape of single steps, bit for bit with
    signs of zero: up to 10 steps, past numpy's 128-element pairwise block,
    widths of 1 included. The LIF layer's shared-drive gradient, summed from
    the last step down, is checked at the same shapes."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((steps, rows, k))
    if spikes:
        x0 = np.where(x0 >= 0.0, 1.0, 0.0)
    w0, b0 = rng.standard_normal((n, k)), rng.standard_normal(n)
    weights = rng.standard_normal((rows, n))
    stacked = _stacked_linear_and_mean(x0, w0, b0, weights)
    for got, want in zip(stacked, R.per_step_linear_and_mean(x0, w0, b0, weights)):
        _assert_same_bits(got, want)

    lif = LIFParams(t_steps=steps)
    drive0, spike_weights = x0[0], rng.standard_normal((steps, rows, k))
    tape = Tape()
    drive = tape.leaf(drive0, param_id="drive")
    shared = R.named_grads(tape, R.sum_all(R.mul(lif_layer(drive, lif), Tensor(spike_weights))))
    _assert_same_bits(shared["drive"], R.shared_drive_grad(drive0, spike_weights, lif))


def test_step_sums_keep_their_order_where_numpy_sums_pairwise():
    """Eight 1x1 steps, seven 1.0 and one 1e16: added one at a time, in step
    order (`step_mean`) or from the last step down (the weight gradient),
    they give other bits than numpy's pairwise `sum(axis=0)`."""
    x0 = np.array([1e16] + [1.0] * 7).reshape(8, 1, 1)
    w0, b0, weights = np.ones((1, 1)), np.zeros(1), np.ones((1, 1))
    stacked = _stacked_linear_and_mean(x0, w0, b0, weights)
    reference = R.per_step_linear_and_mean(x0, w0, b0, weights)
    for got, want in zip(stacked, reference):
        _assert_same_bits(got, want)
    _, mean, _, gw, _ = reference
    assert not np.array_equal(mean, x0.sum(axis=0) * 0.125)
    assert not np.array_equal(gw, (x0 * 0.125).sum(axis=0))


# The three-softmax code the criteria ran before they kept their softmax:
# log-softmax in the forward, a second softmax for the returned
# probabilities and a third in each backward rule.


def _old_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _old_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _old_check_labels(labels, n_rows, n_classes):
    labels = tuple(int(y) for y in np.asarray(labels).reshape(-1))
    if len(labels) != n_rows:
        raise ShapeError(f"expected {n_rows} labels, got {len(labels)}")
    for y in labels:
        if not 0 <= y < n_classes:
            raise IndexError(f"label {y} out of range for {n_classes} classes")
    return labels


def _old_softmax_xent(logits, labels, g):
    """(loss, probabilities, logits gradient for seed gradient g)."""
    b = logits.shape[0]
    labels = list(_old_check_labels(labels, *logits.shape))
    loss = np.asarray(-_old_log_softmax(logits)[np.arange(b), labels].mean())
    grad = _old_softmax(logits).copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, _old_softmax(logits), grad * (float(g) / b)


def _old_distill_kl(new, old, temperature, g):
    """(value, new-logits gradient for seed gradient g)."""
    ls_new = _old_log_softmax(new / temperature)
    ls_old = _old_log_softmax(old / temperature)
    value = np.asarray((np.exp(ls_old) * (ls_old - ls_new)).sum(axis=1).mean())
    p_new, p_old = _old_softmax(new / temperature), _old_softmax(old / temperature)
    return value, (p_new - p_old) * (float(g) / (new.shape[0] * temperature))


def _row_max_parts(z):
    """The criteria's softmax parts with the maxima taken by numpy along each row."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def _row_max_xent(x, labels):
    """(loss, probabilities) of `softmax_xent` over `_row_max_parts`."""
    shifted, e, s = _row_max_parts(x)
    return np.asarray(-(shifted[np.arange(x.shape[0]), labels] - np.log(s)[:, 0]).mean()), e / s


def _row_max_kl(new, old, temperature):
    """The value of `distill_kl` over `_row_max_parts`."""
    sh_new, _, s_new = _row_max_parts(new / temperature)
    sh_old, _, s_old = _row_max_parts(old / temperature)
    ls_new, ls_old = sh_new - np.log(s_new), sh_old - np.log(s_old)
    return np.asarray((np.exp(ls_old) * (ls_old - ls_new)).sum(axis=1).mean())


def _tied_logits(kind, b, m, rng):
    """(B,M) logits whose even rows are of `kind`, and a label per row: the
    top class of a "gap" row, where every other class sits 850 below so the
    exponent sum is exactly 1."""
    x = rng.standard_normal((b, m)) * 3.0
    labels = rng.integers(0, m, size=b)
    for i in range(0, b, 2):
        if kind == "repeated":  # the row maximum twice (or all of a 1-class row)
            cols = rng.choice(m, size=min(2, m), replace=False)
            x[i, cols] = x[i].max() + 1.0
        elif kind == "signed_zero":  # -0.0 and 0.0 tie at the maximum, either order
            x[i] = -1.0 - rng.random(m)
            x[i, 0], x[i, -1] = (-0.0, 0.0) if i % 4 == 0 else (0.0, -0.0)
        elif kind == "gap":
            x[i] = -850.0
            x[i, labels[i]] = 0.0
    return x, labels


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("b", [1, 2, 32, 1200])
@pytest.mark.parametrize("m", range(1, 13))
def test_softmax_row_maxima_equal_the_row_wise_max(b, m):
    """The criteria's row maxima, however reduced, give the loss, the
    probabilities and the KL value of numpy's row-wise max bit for bit, signs
    of zero included."""
    rng = np.random.default_rng(1000 * m + b)
    for kind in ("gauss", "repeated", "signed_zero", "gap"):
        x, labels = _tied_logits(kind, b, m, rng)
        ref, _ = _tied_logits(kind, b, m, rng)
        loss, probs = softmax_cross_entropy(Tensor(x), labels)
        want_loss, want_probs = _row_max_xent(x, labels)
        assert _same_bits(loss.data, want_loss), kind
        assert _same_bits(probs, want_probs), kind
        for temperature in (0.5, 2.0):
            kl = T.distill_kl(Tensor(x), Tensor(ref), temperature)
            assert _same_bits(kl.data, _row_max_kl(x, ref, temperature)), (kind, temperature)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 6), m=st.integers(2, 6), kind=st.sampled_from(["gauss", "large", "masked"]),
       temperature=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_kept_softmax_criteria_equal_the_three_softmax_code(b, m, kind, temperature, seed):
    """`softmax_xent` and `distill_kl` compute each softmax once and keep it;
    loss, probabilities and gradients equal the old composition bit for bit,
    and the labels are read and rejected as before."""
    rng = np.random.default_rng(seed)
    scale = 1e4 if kind == "large" else 1.0
    x0 = rng.standard_normal((b, m)) * scale
    ref = rng.standard_normal((b, m)) * scale
    if kind == "masked":  # continual learning's additive mask on blocked classes
        blocked = rng.random(m) < 0.5
        blocked[rng.integers(m)] = False
        x0[:, blocked] += -1e30
        ref[:, blocked] += -1e30
    y = rng.integers(0, m, size=b)
    g = 0.7

    tape = Tape()
    x = tape.leaf(x0, param_id="x")
    loss, probs = softmax_cross_entropy(x, y)
    grads = R.named_grads(tape, T.smul(loss, g))
    want_loss, want_probs, want_grad = _old_softmax_xent(x0, y, g)
    assert np.array_equal(loss.data, want_loss)
    assert probs is tape.nodes[loss.node].saved and np.array_equal(probs, want_probs)
    assert np.array_equal(grads["x"], want_grad)
    assert R.replay_forward(tape)
    untraced_loss, untraced_probs = softmax_cross_entropy(Tensor(x0), y)
    assert np.array_equal(untraced_loss.data, want_loss)
    assert np.array_equal(untraced_probs, want_probs)

    tape = Tape()
    x = tape.leaf(x0, param_id="x")
    kl = T.distill_kl(x, Tensor(ref), temperature)
    grads = R.named_grads(tape, T.smul(kl, g))
    want_kl, want_kl_grad = _old_distill_kl(x0, ref, temperature, g)
    assert np.array_equal(kl.data, want_kl)
    assert np.array_equal(grads["x"], want_kl_grad)
    assert R.replay_forward(tape)

    fractions = rng.random(b) * 0.999
    for labels in (list(y), tuple(int(v) for v in y), y.astype(np.int64), y.reshape(b, 1),
                   y + fractions):
        assert np.array_equal(softmax_cross_entropy(Tensor(x0), labels)[0].data, want_loss)
    bad_labels = [list(y) + [0], list(y)[:-1], np.where(np.arange(b) == b - 1, m, y),
                  np.where(np.arange(b) == 0, -1, y), y + m + 0.5, np.where(np.arange(b) == 0, -1.5, y),
                  np.where(np.arange(b) == 0, np.nan, y), np.where(np.arange(b) == 0, -np.inf, y),
                  np.where(np.arange(b) == 0, 1e30, y)]
    for labels in bad_labels:
        got = _raised(softmax_cross_entropy, Tensor(x0), labels)
        want = _raised(_old_check_labels, labels, b, m)
        assert want is not None and got == want


MIXED_LOGITS = np.random.default_rng(3).choice([-1.7e308, -1.0, 0.0, 2.0, 1.7e308], size=(16, 5))


@pytest.mark.parametrize("logits", [
    [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]],
    [[1.7e308, -1.7e308, 0.0], [-1.7e308, 1.7e308, 1.7e308]],
    MIXED_LOGITS,
], ids=["equal", "overflowing_shift", "mixed"])
def test_softmax_probabilities_are_finite_by_construction(logits):
    """The probabilities are e / s with e in [0, 1] and s >= 1, so they stay
    finite (and sum to 1) even where x - max overflows to -inf; they are not
    checked. With each row's label at its maximum the loss is finite too."""
    logits = np.asarray(logits)
    with np.errstate(over="ignore"):
        loss, probs = softmax_cross_entropy(Tensor(logits), logits.argmax(axis=1))
    assert np.isfinite(loss.item())
    assert np.isfinite(probs).all()
    assert (np.abs(probs.sum(axis=1) - 1.0) <= 1e-12).all()


def test_an_overflowing_loss_still_raises():
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="softmax_xent"):
        softmax_cross_entropy(Tensor([[1.7e308, -1.7e308]]), [1])


def test_detach_blocks_gradient():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)), param_id="x")
    grads = R.named_grads(tape, R.sum_all(R.mul(x, T.detach(x))))
    # d/dx sum(x * const) = const = detached value
    assert np.array_equal(grads["x"], np.ones((2, 2)))


def test_detach_returns_an_untraced_constant():
    """`detach` records nothing; the op that reads the constant lifts it as
    one non-parameter leaf, on its own tape or on any other."""
    tape = Tape()
    t = T.smul(tape.leaf(np.arange(6.0).reshape(2, 3), param_id="w"), 2.0)
    before = len(tape)
    c = T.detach(t)
    assert c.tape is None and c.node is None and c.data is t.data
    assert len(tape) == before
    out = T.add(t, c)
    assert len(tape) == before + 2
    lifted = tape.nodes[before]
    assert lifted.op == "leaf" and lifted.param_id is None and lifted.value is t.data
    assert tape.nodes[out.node].inputs == (t.node, before)
    other = Tape()
    T.add(other.leaf(np.ones((2, 3))), c)
    assert [node.op for node in other.nodes] == ["leaf", "leaf", "add"]


def _counting_backward_rules(monkeypatch, ops):
    """Wrap the backward rule of each op kind in `ops` with a call counter."""
    calls = dict.fromkeys(ops, 0)
    for op in ops:
        rule = T._OPS[op]

        def counted(*args, op=op, inner=rule.backward):
            calls[op] += 1
            return inner(*args)

        monkeypatch.setitem(T._OPS, op, dataclasses.replace(rule, backward=counted))
    return calls


def test_backward_never_visits_a_branch_without_parameters(monkeypatch):
    """A branch reached only through `detach` or a constant leaf needs no
    gradient, and no rule behind a detached value runs, though it reads the
    parameter; the parameter's gradient holds."""
    calls = _counting_backward_rules(monkeypatch, ["relu", "smul", "select_cols"])
    tape = Tape()
    x = tape.leaf(np.array([[-1.0, 2.0], [3.0, -4.0]]))
    w = tape.leaf(np.array([[0.5, -1.5], [2.5, 1.0]]), param_id="w")
    h = T.smul(w, 2.0)
    through_constant = relu(x)
    through_detach = relu(T.detach(T.select_cols(h, [1, 0])))
    grads = R.named_grads(tape, R.sum_all(T.add(R.mul(h, through_constant), through_detach)))
    assert calls == {"relu": 0, "smul": 1, "select_cols": 0}
    assert np.array_equal(grads["w"], 2.0 * np.maximum(0.0, x.data))


def test_backward_of_a_seed_without_parameters_calls_no_rule(monkeypatch):
    calls = _counting_backward_rules(monkeypatch, list(T._OPS))
    tape = Tape()
    tape.leaf(np.ones((2, 3)), param_id="w")
    seed = R.sum_all(T.smul(tape.leaf(np.arange(6.0).reshape(2, 3)), 2.0))
    grads = R.named_grads(tape, seed)
    assert not any(calls.values())
    assert np.array_equal(grads["w"], np.zeros((2, 3)))


@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("rows", [1, 3])
def test_linear_rule_skips_only_the_unneeded_input_gradient(steps, rows):
    """(B, K) rows at one step, (T, B, K) at four."""
    rng = np.random.default_rng(steps * 10 + rows)
    lead = (rows,) if steps == 1 else (steps, rows)
    x = rng.standard_normal(lead + (5,))
    w, b = rng.standard_normal((4, 5)), rng.standard_normal(4)
    g = rng.standard_normal(lead + (4,))
    out = T._linear_values([x, w, b], None)
    rule = T._OPS["linear"].backward
    gx, gw, gb = rule(g, out, [x, w, b], None, [True, True, True])
    skipped = rule(g, out, [x, w, b], None, [False, True, True])
    assert gx is not None and skipped[0] is None
    assert np.array_equal(skipped[1], gw) and np.array_equal(skipped[2], gb)


def test_register_op_rejects_a_backward_rule_without_needs():
    def flops(out, ins, aux):
        return 0

    with pytest.raises(ContractError, match="'old_style'"):
        T.register_op("old_style", lambda ins, aux: ins[0], lambda g, out, ins, aux: [g], flops)
    assert "old_style" not in T._OPS
    with pytest.raises(ContractError, match="'old_saving'"):
        T.register_op("old_saving", lambda ins, aux: (ins[0], None),
                      lambda g, out, ins, aux, needs: [g], flops, saves=True)


def test_register_op_rejects_a_flops_rule_of_the_wrong_arity():
    def backward_rule(g, out, ins, aux, needs):
        return [g]

    with pytest.raises(ContractError, match=r"flops rule of 'no_aux' must take \(out_value"):
        T.register_op("no_aux", lambda ins, aux: ins[0], backward_rule, lambda out, ins: 0)
    with pytest.raises(ContractError, match="flops rule of 'with_grad'"):
        T.register_op("with_grad", lambda ins, aux: ins[0], backward_rule,
                      lambda g, out, ins, aux: 0)
    assert "no_aux" not in T._OPS and "with_grad" not in T._OPS


def _one_node_of_each_kind():
    """One recorded node per registered op kind at B=3 rows, C=4 columns, and
    its FLOPs by the documented rule."""
    rng = np.random.default_rng(3)
    tape = Tape()
    x, y = tape.leaf(rng.standard_normal((3, 4))), tape.leaf(rng.standard_normal((3, 4)))
    w, bias = tape.leaf(rng.standard_normal((5, 4))), tape.leaf(rng.standard_normal(5))
    stacked = tape.leaf(rng.standard_normal((2, 3, 4)))
    lif = LIFParams(t_steps=2)
    loss, _ = softmax_cross_entropy(x, [0, 1, 3])
    cases = [
        (T.add(x, y), 12),
        (T.smul(x, 2.0), 12),
        (T.linear(stacked, w, bias), 2 * 6 * 4 * 5 + 6 * 5),
        (T.step_mean(stacked), 24),
        (T.concat_cols(x, y), 0),
        (T.select_cols(x, [0, 2, 2]), 0),
        (loss, 4 * 3 * 4 + 3 * 3),
        (T.distill_kl(x, y, 2.0), 16 * 3 * 4 + 3 * 3),
        (relu(x), 12),
        (lif_layer(x, lif), 5 * 6 * 4),
        (R.matmul(x, R.transpose(w)), 2 * 3 * 4 * 5),
        (R.transpose(x), 0),
        (R.add_bias(x, tape.leaf(np.ones(4))), 12),
        (R.mul(x, y), 12),
        (R.sum_all(x), 12),
    ]
    return tape, cases


def test_every_registered_op_kind_has_its_documented_flops_rule():
    tape, cases = _one_node_of_each_kind()
    kinds = {tape.nodes[t.node].op for t, _ in cases}
    assert kinds == set(T._OPS)
    for t, want in cases:
        node = tape.nodes[t.node]
        ins = [tape.nodes[i].value for i in node.inputs]
        assert T._OPS[node.op].flops(node.value, ins, node.aux) == want, node.op
    assert tape.flops() == sum(want for _, want in cases)


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    w1 = rng.standard_normal((5, 4))
    w2 = rng.standard_normal((3, 5))
    x = rng.standard_normal((6, 4))
    labels = [0, 1, 2, 0, 1, 2]
    t1, l1 = _two_layer_loss(w1, w2, x, labels)
    t2, l2 = _two_layer_loss(w1, w2, x, labels)
    assert l1.item() == l2.item()
    g1, g2 = R.named_grads(t1, l1), R.named_grads(t2, l2)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_replay_after_backward_leaves_values_unchanged():
    rng = np.random.default_rng(9)
    tape, loss = _two_layer_loss(
        rng.standard_normal((4, 3)), rng.standard_normal((2, 4)),
        rng.standard_normal((5, 3)), [0, 1, 0, 1, 0],
    )
    before = [node.value.copy() for node in tape.nodes]
    backward(tape, loss)
    assert R.replay_forward(tape)
    for node, old in zip(tape.nodes, before):
        assert np.array_equal(node.value, old)


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        Tensor([np.inf, 1.0])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        T.smul(Tensor([1e308]), 1e10)


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ContractError):
        T.add(a, b)

