import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosinet.ndgrad as nd
from fdcheck import max_rel_error, numeric_gradient, spaced_values

# (dtype, fd step, max relative error) — float32 needs a coarser step because
# forward rounding would otherwise dominate the difference quotient
DTYPE_GRID = [
    pytest.param(np.float64, 1e-6, 1e-5, id="f64"),
    pytest.param(np.float32, 1e-2, 1e-3, id="f32"),
]

N_SEEDS = 20


def weighted(tape, out, w):
    """Scalar probe sum(out * w) so the full Jacobian is exercised."""
    return nd.sum_all(nd.mul(out, tape.constant(w)))


def loss_value(build, arrays, dtype):
    tape = nd.Tape(dtype=dtype)
    leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
    return float(build(tape, leaves).data[0, 0])


def analytic_grads(build, arrays, dtype):
    tape = nd.Tape(dtype=dtype)
    leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
    tape.backward(build(tape, leaves))
    return [leaf.grad.astype(np.float64) for leaf in leaves]


def check_grads(build, arrays, dtype, eps, tol):
    grads = analytic_grads(build, arrays, dtype)
    for i in range(len(arrays)):
        num = numeric_gradient(lambda arrs: loss_value(build, arrs, dtype),
                               arrays, i, eps)
        err = max_rel_error(grads[i], num)
        assert err <= tol, f"input {i}: rel err {err:.3g} > {tol}"


def case_add(rng):
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, (4, 3))
    return [a, b], lambda t, lv: weighted(t, nd.add(lv[0], lv[1]), w)


def case_add_row(rng):
    a = rng.uniform(-1, 1, (5, 3))
    b = rng.uniform(-1, 1, (1, 3))
    w = rng.uniform(-1, 1, (5, 3))
    return [a, b], lambda t, lv: weighted(t, nd.add(lv[0], lv[1]), w)


def case_sub(rng):
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, (4, 3))
    return [a, b], lambda t, lv: weighted(t, nd.sub(lv[0], lv[1]), w)


def case_sub_row(rng):
    a = rng.uniform(-1, 1, (5, 3))
    b = rng.uniform(-1, 1, (1, 3))
    w = rng.uniform(-1, 1, (5, 3))
    return [a, b], lambda t, lv: weighted(t, nd.sub(lv[0], lv[1]), w)


def case_mul(rng):
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, (4, 3))
    return [a, b], lambda t, lv: weighted(t, nd.mul(lv[0], lv[1]), w)


def case_mul_row(rng):
    a = rng.uniform(-1, 1, (5, 3))
    b = rng.uniform(-1, 1, (1, 3))
    w = rng.uniform(-1, 1, (5, 3))
    return [a, b], lambda t, lv: weighted(t, nd.mul(lv[0], lv[1]), w)


def case_tanh(rng):
    x = rng.uniform(-2, 2, (4, 5))
    w = rng.uniform(-1, 1, (4, 5))
    return [x], lambda t, lv: weighted(t, nd.tanh(lv[0]), w)


def case_matmul(rng):
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (3, 5))
    w = rng.uniform(-1, 1, (4, 5))
    return [a, b], lambda t, lv: weighted(t, nd.matmul(lv[0], lv[1]), w)


def case_transpose(rng):
    x = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, (3, 4))
    return [x], lambda t, lv: weighted(t, nd.transpose(lv[0]), w)


def case_concat_rows(rng):
    parts = [rng.uniform(-1, 1, (n, 3)) for n in (2, 1, 3)]
    w = rng.uniform(-1, 1, (6, 3))
    return parts, lambda t, lv: weighted(t, nd.concat(lv, axis=0), w)


def case_concat_cols(rng):
    parts = [rng.uniform(-1, 1, (3, n)) for n in (2, 4)]
    w = rng.uniform(-1, 1, (3, 6))
    return parts, lambda t, lv: weighted(t, nd.concat(lv, axis=1), w)


def case_sum_all(rng):
    x = rng.uniform(-1, 1, (4, 5))
    return [x], lambda t, lv: nd.sum_all(lv[0])


def random_targets(rng, shape):
    """Rows of probability distributions, each with some exact zeros."""
    t = rng.uniform(0, 1, shape)
    t[t < 0.4] = 0.0
    t[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] = 1.0
    return t / t.sum(axis=1, keepdims=True)


def case_kl_logits(rng):
    x = rng.uniform(-2, 2, (3, 5))
    target = random_targets(rng, (3, 5))
    return [x], lambda t, lv: nd.kl_logits(lv[0], target)


def case_conv1d(rng):
    x = rng.uniform(-1, 1, (8, 3))
    w = rng.uniform(-1, 1, (3, 3, 4))
    b = rng.uniform(-1, 1, (4,))
    probe = rng.uniform(-1, 1, (6, 4))
    return [x, w, b], lambda t, lv: weighted(t, nd.conv1d(lv[0], lv[1], lv[2]), probe)


def case_masked_max_pool(rng):
    # well separated values keep the argmax stable under the fd perturbation
    x = spaced_values(rng, (7, 5))
    mask = np.zeros(7)
    mask[rng.choice(7, size=rng.integers(1, 8), replace=False)] = 1
    w = rng.uniform(-1, 1, (1, 5))
    return [x], lambda t, lv: weighted(t, nd.masked_max_pool(lv[0], mask), w)


def case_rnn_cell(rng):
    x = rng.uniform(-1, 1, (1, 3))
    h = rng.uniform(-1, 1, (1, 4))
    w_ih = rng.uniform(-1, 1, (3, 4))
    w_hh = rng.uniform(-1, 1, (4, 4))
    b = rng.uniform(-1, 1, (1, 4))
    probe = rng.uniform(-1, 1, (1, 4))
    return [x, h, w_ih, w_hh, b], lambda t, lv: weighted(
        t, nd.rnn_cell(lv[0], lv[1], lv[2], lv[3], lv[4]), probe)


def case_lstm_cell(rng):
    x = rng.uniform(-1, 1, (1, 3))
    h = rng.uniform(-1, 1, (1, 4))
    c = rng.uniform(-1, 1, (1, 4))
    w_ih = rng.uniform(-1, 1, (3, 16))
    w_hh = rng.uniform(-1, 1, (4, 16))
    b = rng.uniform(-1, 1, (1, 16))
    wh = rng.uniform(-1, 1, (1, 4))
    wc = rng.uniform(-1, 1, (1, 4))

    def build(t, lv):
        h_out, c_out = nd.lstm_cell(*lv)
        return nd.add(weighted(t, h_out, wh), weighted(t, c_out, wc))

    return [x, h, c, w_ih, w_hh, b], build


def case_bce(rng):
    s = rng.uniform(-3, 3, (1, 6))
    y = rng.integers(0, 2, (1, 6)).astype(np.float64)
    return [s], lambda t, lv: nd.bce_logits_mean(lv[0], y)


ALL_CASES = [
    case_add, case_add_row, case_sub, case_sub_row, case_mul, case_mul_row,
    case_tanh, case_matmul, case_transpose,
    case_concat_rows, case_concat_cols, case_sum_all, case_kl_logits,
    case_conv1d, case_masked_max_pool, case_rnn_cell, case_lstm_cell, case_bce,
]


@pytest.mark.parametrize("dtype,eps,tol", DTYPE_GRID)
@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.__name__[5:])
def test_gradients_match_finite_differences(case, dtype, eps, tol):
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)
        arrays, build = case(rng)
        check_grads(build, arrays, dtype, eps, tol)


class TestBackwardConventions:
    def test_repeated_backward_does_not_accumulate(self):
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[2.0, -3.0]], requires_grad=True)
        loss = nd.sum_all(nd.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, first)
        np.testing.assert_allclose(first, [[4.0, -6.0]])

    def test_unreached_trainable_leaf_gets_zeros(self):
        tape = nd.Tape(dtype=np.float64)
        a = tape.leaf([[1.0, 2.0]], requires_grad=True)
        b = tape.leaf([[5.0, 6.0]], requires_grad=True)
        tape.backward(nd.sum_all(a))
        np.testing.assert_array_equal(b.grad, np.zeros((1, 2)))

    def test_constant_leaf_stays_grad_free(self):
        tape = nd.Tape(dtype=np.float64)
        a = tape.leaf([[1.0, 2.0]], requires_grad=True)
        c = tape.constant([[3.0, 4.0]])
        tape.backward(nd.sum_all(nd.mul(a, c)))
        assert c.grad is None
        np.testing.assert_array_equal(a.grad, [[3.0, 4.0]])

    def test_backward_rejects_non_scalar(self):
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(nd.mul(x, x))

    def test_backward_rejects_foreign_tape(self):
        t1, t2 = nd.Tape(), nd.Tape()
        x = t1.leaf([[1.0]], requires_grad=True)
        loss = nd.sum_all(x)
        with pytest.raises(ValueError, match="tape"):
            t2.backward(loss)

    def test_ops_reject_mixed_tapes(self):
        t1, t2 = nd.Tape(), nd.Tape()
        a = t1.leaf([[1.0]])
        b = t2.leaf([[1.0]])
        with pytest.raises(ValueError, match="tape"):
            nd.add(a, b)

    def test_reused_tensor_accumulates_fanout(self):
        # d/dx of sum(x*x + x) = 2x + 1
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.5, -0.5]], requires_grad=True)
        tape.backward(nd.sum_all(nd.add(nd.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [[4.0, 0.0]])

    def test_fixed_seed_is_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(123)
            arrays, build = case_conv1d(rng)
            return analytic_grads(build, arrays, np.float32)

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)


class TestShapeErrors:
    def test_add_shape_mismatch(self):
        tape = nd.Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="add"):
            nd.add(a, b)

    def test_matmul_inner_mismatch(self):
        tape = nd.Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="matmul"):
            nd.matmul(a, b)

    def test_conv1d_input_shorter_than_kernel(self):
        tape = nd.Tape()
        x = tape.leaf(np.zeros((2, 3)))
        w = tape.leaf(np.zeros((5, 3, 4)))
        b = tape.leaf(np.zeros(4))
        with pytest.raises(ValueError, match="shorter than kernel"):
            nd.conv1d(x, w, b)

    def test_masked_max_pool_empty_mask(self):
        tape = nd.Tape()
        x = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="no valid timestep"):
            nd.masked_max_pool(x, np.zeros(3))


class TestPrimitiveSemantics:
    def test_conv1d_identity_kernel(self):
        # width-1 kernel with identity weights reproduces the input
        tape = nd.Tape(dtype=np.float64)
        rng = np.random.default_rng(0)
        xd = rng.uniform(-1, 1, (6, 3))
        x = tape.leaf(xd)
        w = tape.leaf(np.eye(3)[None, :, :])
        b = tape.leaf(np.zeros(3))
        out = nd.conv1d(x, w, b)
        np.testing.assert_allclose(out.data, xd, atol=1e-12)

    def test_conv1d_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        xd = rng.uniform(-1, 1, (7, 2))
        wd = rng.uniform(-1, 1, (3, 2, 4))
        bd = rng.uniform(-1, 1, 4)
        tape = nd.Tape(dtype=np.float64)
        out = nd.conv1d(tape.leaf(xd), tape.leaf(wd), tape.leaf(bd)).data
        for t in range(5):
            want = bd + sum(xd[t + k] @ wd[k] for k in range(3))
            np.testing.assert_allclose(out[t], want, atol=1e-12)

    def test_masked_values_never_leak(self):
        rng = np.random.default_rng(2)
        xd = rng.uniform(-1, 1, (5, 4))
        mask = np.array([1, 1, 0, 1, 0])
        poisoned = xd.copy()
        poisoned[mask == 0] = 1e9
        tape = nd.Tape(dtype=np.float64)
        a = nd.masked_max_pool(tape.leaf(xd), mask).data
        b = nd.masked_max_pool(tape.leaf(poisoned), mask).data
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[0], xd[mask == 1].max(axis=0))

    def test_max_pool_tie_routes_gradient_to_first(self):
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.0], [3.0], [3.0]], requires_grad=True)
        tape.backward(nd.sum_all(nd.masked_max_pool(x, np.ones(3))))
        np.testing.assert_array_equal(x.grad, [[0.0], [1.0], [0.0]])

    def test_softmax_rows_normalized_and_positive(self):
        # the kl_logits gradient is softmax(s) - g, so adding g back must
        # give strictly positive rows that sum to one
        rng = np.random.default_rng(3)
        target = random_targets(rng, (4, 6))
        tape = nd.Tape(dtype=np.float64)
        s = tape.leaf(rng.uniform(-5, 5, (4, 6)), requires_grad=True)
        loss = nd.kl_logits(s, target)
        tape.backward(loss)
        p = s.grad + target
        assert (p > 0).all()
        np.testing.assert_allclose(p.sum(axis=1), np.ones(4), atol=1e-12)
        assert loss.data[0, 0] > 0

    def test_softmax_handles_large_inputs(self):
        tape = nd.Tape(dtype=np.float32)
        s = tape.leaf([[1000.0, 1000.0, 999.0]], requires_grad=True)
        loss = nd.kl_logits(s, [[0.5, 0.5, 0.0]])
        tape.backward(loss)
        assert np.isfinite(loss.data).all() and np.isfinite(s.grad).all()
        e = np.exp([[0.0, 0.0, -1.0]])
        np.testing.assert_allclose(loss.data[0, 0], np.log(e.sum() / 2), rtol=1e-5)
        np.testing.assert_allclose(s.grad, e / e.sum() - [[0.5, 0.5, 0.0]], atol=1e-6)

    def test_kl_logits_zero_when_distributions_match(self):
        target = np.array([[0.25, 0.75, 0.0]])
        tape = nd.Tape(dtype=np.float64)
        s = tape.leaf(np.log([[1.0, 3.0, 1e-300]]) + 7.0, requires_grad=True)
        loss = nd.kl_logits(s, target)
        tape.backward(loss)
        assert abs(loss.data[0, 0]) < 1e-12
        np.testing.assert_allclose(s.grad, np.zeros((1, 3)), atol=1e-12)

    def test_kl_logits_shape_mismatch(self):
        tape = nd.Tape()
        with pytest.raises(ValueError, match="kl_logits"):
            nd.kl_logits(tape.leaf(np.zeros((1, 3))), np.ones((1, 2)) / 2)

    def test_sigmoid_extremes_stay_in_unit_interval(self):
        # the stable logistic shared by lstm_cell and bce_logits_mean
        out = nd._sigmoid(np.array([[-80.0, -1.0, 0.0, 1.0, 80.0]], dtype=np.float32))
        assert out.dtype == np.float32
        assert np.isfinite(out).all()
        assert (out >= 0).all() and (out <= 1).all()
        np.testing.assert_allclose(out[0, 2], 0.5)
        np.testing.assert_allclose(out[0, 1] + out[0, 3], 1.0, rtol=1e-6)

    def test_bce_matches_naive_formula_for_moderate_scores(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-3, 3, (1, 8))
        y = rng.integers(0, 2, (1, 8)).astype(np.float64)
        tape = nd.Tape(dtype=np.float64)
        got = nd.bce_logits_mean(tape.leaf(s), y).data[0, 0]
        p = 1.0 / (1.0 + np.exp(-s))
        want = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_bce_stable_at_extreme_scores(self):
        tape = nd.Tape(dtype=np.float32)
        out = nd.bce_logits_mean(tape.leaf([[40.0, -40.0]]), [[1.0, 0.0]]).data
        assert np.isfinite(out).all()
        assert out[0, 0] < 1e-8

    def test_lstm_cell_single_output_paths(self):
        # backward must cope with a gradient arriving on only one of the
        # two outputs
        rng = np.random.default_rng(5)
        arrays, _ = case_lstm_cell(rng)
        for pick in (0, 1):
            tape = nd.Tape(dtype=np.float64)
            leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
            outs = nd.lstm_cell(*leaves)
            tape.backward(nd.sum_all(outs[pick]))
            assert all(leaf.grad is not None for leaf in leaves)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(-20, 20))
def test_softmax_shift_invariance(row, shift):
    # kl_logits sees scores only through their softmax
    x = np.asarray([row])
    target = np.zeros_like(x)
    target[0, 0] = 1.0
    results = []
    for scores in (x, x + shift):
        tape = nd.Tape(dtype=np.float64)
        s = tape.leaf(scores, requires_grad=True)
        loss = nd.kl_logits(s, target)
        tape.backward(loss)
        results.append((loss.data[0, 0], s.grad))
    np.testing.assert_allclose(results[0][0], results[1][0], atol=1e-9)
    np.testing.assert_allclose(results[0][1], results[1][1], atol=1e-9)
