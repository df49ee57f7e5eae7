import collections
import gc
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosinet.ndgrad as nd
from cosinet.model import (CONTEXT_KINDS, CosinetConfig, CosinetParams, prepare_pair, score_group,
                           score_pairs)
from cosinet.training import TrainConfig, fit
from fdcheck import max_rel_error, numeric_gradient, probe, spaced_values

# (dtype, fd step, max relative error) — float32 needs a coarser step because
# forward rounding would otherwise dominate the difference quotient
DTYPE_GRID = [
    pytest.param(np.float64, 1e-6, 1e-5, id="f64"),
    pytest.param(np.float32, 1e-2, 1e-3, id="f32"),
]

N_SEEDS = 20


def loss_value(build, arrays, dtype):
    tape = nd.Tape(dtype=dtype)
    leaves = [tape.leaf(a) for a in arrays]
    return float(build(tape, leaves).data[0, 0])


def analytic_grads(build, arrays, dtype):
    tape = nd.Tape(dtype=dtype)
    leaves = [tape.leaf(a) for a in arrays]
    tape.backward(build(tape, leaves))
    return [leaf.grad.astype(np.float64) for leaf in leaves]


def check_grads(build, arrays, dtype, eps, tol):
    grads = analytic_grads(build, arrays, dtype)
    for i in range(len(arrays)):
        num = numeric_gradient(lambda arrs: loss_value(build, arrs, dtype),
                               arrays, i, eps)
        err = max_rel_error(grads[i], num)
        assert err <= tol, f"input {i}: rel err {err:.3g} > {tol}"


def case_pair_combine(rng):
    q = rng.uniform(-1, 1, (4, 3))
    c = rng.uniform(-1, 1, (4, 3))
    w = rng.uniform(-1, 1, (4, 6))
    return [q, c], lambda t, lv: probe(nd.pair_combine(lv[0], lv[1]), w)


def pair_combine_half(half):
    """A case probing one half of pair_combine's output: 0 is q * c, 1 is q - c."""
    def case(rng):
        q = rng.uniform(-1, 1, (4, 3))
        c = rng.uniform(-1, 1, (4, 3))
        w = np.zeros((4, 6))
        w[:, 3 * half:3 * half + 3] = rng.uniform(-1, 1, (4, 3))
        return [q, c], lambda t, lv: probe(nd.pair_combine(lv[0], lv[1]), w)

    case.__name__ = ("case_mul", "case_sub")[half]
    return case


def linear_case(n):
    def case(rng):
        x = rng.uniform(-1, 1, (n, 3))
        w = rng.uniform(-1, 1, (3, 5))
        b = rng.uniform(-1, 1, (1, 5))
        probe_w = rng.uniform(-1, 1, (n, 5))
        return [x, w, b], lambda t, lv: probe(nd.linear(*lv), probe_w)

    case.__name__ = f"case_linear_n{n}"
    return case


def random_target(rng, size):
    """A flat probability distribution over ``size`` entries, with some exact zeros."""
    t = rng.uniform(0, 1, size)
    t[t < 0.4] = 0.0
    t[rng.integers(0, size)] = 1.0
    return t / t.sum()


def case_kl_logits(rng):
    # one distribution over every entry, whatever the scores' shape
    x = rng.uniform(-2, 2, (3, 5))
    target = random_target(rng, x.size)
    return [x], lambda t, lv: nd.kl_logits(lv[0], target)


def random_mask(rng, n, t):
    """(n, t) mask with a random, usually not prefix-shaped, non-empty set per row."""
    mask = np.zeros((n, t), dtype=bool)
    for row in mask:
        row[rng.choice(t, size=rng.integers(1, t + 1), replace=False)] = True
    return mask


def conv_input(rng, n, t, e, u):
    """Plain conv inputs: u distinct rows, (n, t) ids into them with repeats, an r channel."""
    return rng.uniform(-1, 1, (u, e)), rng.integers(0, u, (n, t)), rng.uniform(-1, 1, (n, t))


def direct_conv(rows, ids, r, w, b, n, t):
    """One window of the conv over x[n, t] = [rows[ids[n, t]], r[n, t]], by a direct sum."""
    return b + sum(np.append(rows[ids[n, t + j]], r[n, t + j]) @ w[j] for j in range(len(w)))


def case_conv1d(rng):
    # the inputs are plain arrays: the model's conv input takes no gradient
    rows, ids, r = conv_input(rng, 2, 7, 2, 4)
    mask = random_mask(rng, 2, 5)
    w = rng.uniform(-1, 1, (3, 3, 4))
    b = rng.uniform(-1, 1, (4,))
    probe_w = rng.uniform(-1, 1, (mask.sum(), 4))
    return [w, b], lambda t, lv: probe(nd.conv1d(rows, ids, r, lv[0], lv[1], mask), probe_w)


def case_masked_max_pool(rng):
    # well separated values keep the argmax stable under the fd perturbation
    mask = random_mask(rng, 3, 5)
    x = spaced_values(rng, (mask.sum(), 4))
    w = rng.uniform(-1, 1, (3, 4))
    return [x], lambda t, lv: probe(nd.masked_max_pool(lv[0], mask), w)


def directions_case(name, cell, gates, n_biases, width):
    """A case probing the sum of a two-direction run of ``cell``, with distinct
    weights, and a one-direction run with the first direction's weights."""
    def case(rng):
        shapes = [(3, gates * width), (width, gates * width)] + [(1, gates * width)] * n_biases
        arrays = [rng.uniform(-1, 1, (4, 3))]
        arrays += [rng.uniform(-1, 1, shape) for _ in range(2) for shape in shapes]
        w = rng.uniform(-1, 1, (4, 3 * width))

        def build(t, lv):
            x, fw, bw = lv[0], lv[1:1 + len(shapes)], lv[1 + len(shapes):]
            both = probe(cell(x, fw, bw), w[:, :2 * width])
            return nd.linear(both, t.leaf([[1.0]]), probe(cell(x, fw), w[:, 2 * width:]))  # a sum

        return arrays, build

    case.__name__ = name
    return case


# the rnn cases take b_ih alone, then b_ih and b_hh as the unidirectional rnn
# context passes them; the LSTM runs 2 wide to keep its check fast
case_rnn_cell = directions_case("case_rnn_cell", nd.rnn_cell, 1, 1, 4)
case_rnn_cell_two_biases = directions_case("case_rnn_cell_two_biases", nd.rnn_cell, 1, 2, 4)
case_lstm_cell = directions_case("case_lstm_cell", nd.lstm_cell, 4, 1, 2)


def case_bce(rng):
    s = rng.uniform(-3, 3, (1, 6))
    y = rng.integers(0, 2, (1, 6)).astype(np.float64)
    return [s], lambda t, lv: nd.bce_logits_mean(lv[0], y)


ALL_CASES = [
    case_pair_combine, pair_combine_half(0), pair_combine_half(1), linear_case(1), linear_case(3),
    case_kl_logits, case_conv1d, case_masked_max_pool, case_rnn_cell,
    case_rnn_cell_two_biases, case_lstm_cell, case_bce,
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
        x = tape.leaf([[2.0, -3.0]])
        loss = probe(nd.pair_combine(x, x))  # sum(x * x + x - x)
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, first)
        np.testing.assert_allclose(first, [[4.0, -6.0]])

    def test_leaf_gradient_is_written_into_its_buffer(self):
        # the buffer starts dirty; backward zero-fills it before writing,
        # so a second pass does not add to the first
        tape = nd.Tape(dtype=np.float64)
        buf = np.full((1, 2), 7.0)
        x = tape.leaf([[2.0, -3.0]], grad=buf)
        loss = probe(nd.pair_combine(x, x))
        for _ in range(2):
            tape.backward(loss)
            assert x.grad is buf
            np.testing.assert_array_equal(buf, [[4.0, -6.0]])

    @pytest.mark.parametrize("tape_dtype, buf_dtype", [(np.float32, np.float64),
                                                       (np.float64, np.float32)])
    def test_leaf_rejects_a_mismatched_buffer(self, tape_dtype, buf_dtype):
        tape = nd.Tape(dtype=tape_dtype)
        with pytest.raises(ValueError, match="grad buffer"):
            tape.leaf([[1.0, 2.0]], grad=np.zeros((1, 2), dtype=buf_dtype))
        with pytest.raises(ValueError, match="grad buffer"):
            tape.leaf([[1.0, 2.0]], grad=np.zeros((2, 1), dtype=tape_dtype))

    def test_unreached_trainable_leaf_gets_zeros(self):
        # so do operation outputs the loss does not depend on
        tape = nd.Tape(dtype=np.float64)
        a = tape.leaf([[1.0, 2.0]])
        b = tape.leaf([[5.0, 6.0]])
        unused = nd.pair_combine(b, b)
        tape.backward(probe(a))
        np.testing.assert_array_equal(a.grad, np.ones((1, 2)))
        np.testing.assert_array_equal(b.grad, np.zeros((1, 2)))
        np.testing.assert_array_equal(unused.grad, np.zeros((1, 4)))

    def test_backward_skips_records_whose_output_got_no_gradient(self, monkeypatch):
        # the tape runs an op's backward only once its output has a gradient;
        # a buffered leaf that only such a skipped record takes is still
        # reported, with zeros
        tape = nd.Tape(dtype=np.float64)
        a = tape.leaf([[1.0, 2.0]])
        u = tape.leaf([[5.0, 6.0]], grad=np.full((1, 2), 7.0))
        unused = nd.pair_combine(u, u)
        loss = probe(a)
        written, reported = [], []
        acc = nd._acc
        monkeypatch.setattr(nd, "_acc", lambda t, g: (written.append(t), acc(t, g)))
        tape.backward(loss, on_final=lambda leaf: reported.append(leaf.grad.copy()))
        assert written and not any(t is u or t is unused for t in written)
        assert len(reported) == 1 and (reported[0] == 0).all()
        np.testing.assert_array_equal(u.grad, np.zeros((1, 2)))
        np.testing.assert_array_equal(unused.grad, np.zeros((1, 4)))

    def test_backward_rejects_non_scalar(self):
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.0, 2.0]])
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(nd.pair_combine(x, x))

    def test_backward_rejects_foreign_tape(self):
        t1, t2 = nd.Tape(), nd.Tape()
        loss = probe(t1.leaf([[1.0]]))
        with pytest.raises(ValueError, match="tape"):
            t2.backward(loss)

    def test_ops_reject_mixed_tapes(self):
        t1, t2 = nd.Tape(), nd.Tape()
        a = t1.leaf([[1.0]])
        b = t2.leaf([[1.0]])
        with pytest.raises(ValueError, match="tape"):
            nd.pair_combine(a, b)

    def test_reused_tensor_accumulates_fanout(self):
        # d/dx of sum([x * x, x - x]) - sum(-x) = 2x + 1, with x feeding two
        # records and twice into one
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.5, -0.5]])
        joined = nd.pair_combine(probe(nd.pair_combine(x, x)), probe(x, -1.0))  # [p * q, p - q]
        tape.backward(probe(joined, [[0.0, 1.0]]))
        np.testing.assert_allclose(x.grad, [[4.0, 0.0]])

    def test_on_final_reports_each_buffered_leaf_once_when_its_gradient_is_final(self):
        # a feeds two records; the report comes after the earlier one's
        # backward, when a's gradient is complete, and never sooner; u feeds
        # no record, so it is final at once; c and the ones have no buffer
        # and are not reported
        tape = nd.Tape(dtype=np.float64)
        bufs = {name: np.full((1, 2), 7.0) for name in "abdu"}
        a = tape.leaf([[2.0, -3.0]], grad=bufs["a"])
        b = tape.leaf([[0.5, 4.0]], grad=bufs["b"])
        d = tape.leaf([[1.0, 1.0]], grad=bufs["d"])
        tape.leaf([[9.0, 9.0]], grad=bufs["u"])
        c = tape.leaf([[3.0, 3.0]])
        y = nd.pair_combine(a, b)  # [a * b, a - b]
        with_a = nd.linear(a, tape.leaf(np.ones((2, 1))), probe(y))  # sum(a) + sum(y)
        loss = nd.linear(nd.pair_combine(d, c), tape.leaf(np.ones((4, 1))), with_a)
        names = {id(bufs[name]): name for name in bufs}
        seen = []

        def on_final(leaf):
            # what the gradients hold at the moment of the report
            seen.append((names[id(leaf.grad)], a.grad.copy(), y.grad is None))

        tape.backward(loss, on_final=on_final)
        assert [name for name, *_ in seen] == ["u", "d", "a", "b"]
        _, a_at_u, y_unreached_at_u = seen[0]
        _, a_at_d, _ = seen[1]
        assert y_unreached_at_u and (a_at_u == 0).all()  # before any record ran
        assert (a_at_d == 0).all()  # d is final before either record that takes a
        for _, a_now, _ in seen[2:]:
            np.testing.assert_array_equal(a_now, a.grad)
        np.testing.assert_allclose(a.grad, b.data + 2)
        np.testing.assert_allclose(b.grad, a.data - 1)
        np.testing.assert_allclose(d.grad, c.data + 1)

    @pytest.mark.parametrize("kind", CONTEXT_KINDS)
    def test_on_final_reports_model_leaves_with_complete_gradients(self, toy_groups, toy_table,
                                                                   kind):
        # every op lists the tensors its backward reads, so no model leaf is
        # reported while a remaining record could still add to its gradient
        config = CosinetConfig(embedding_dim=16, conv_hidden=4, kernel_width=2, context=kind)
        params = CosinetParams(config)
        group = toy_groups[0]
        tape = nd.Tape()
        leaves = params.as_leaves(tape, np.zeros_like(params.flat))
        pairs = [prepare_pair(group.question_tokens, c.tokens, toy_table) for c in group.candidates]
        scores = score_pairs(pairs, toy_table, config, leaves)
        reported = []
        tape.backward(probe(scores, np.arange(1.0, len(pairs) + 1)[:, None]),
                      on_final=lambda leaf: reported.append((leaf, leaf.grad.copy())))
        assert sorted(id(leaf) for leaf, _ in reported) == sorted(map(id, leaves.values()))
        for leaf, grad_then in reported:
            np.testing.assert_array_equal(grad_then, leaf.grad)

    def test_dropped_tape_is_freed_without_cycle_collection(self):
        # tensors refer to their tape weakly and no record holds the tape, so
        # reference counting alone frees a tape (and every buffer its records
        # hold) once it is dropped
        gc.disable()
        try:
            for case in ALL_CASES:
                arrays, build = case(np.random.default_rng(6))
                tape = nd.Tape(dtype=np.float64)
                leaves = [tape.leaf(a) for a in arrays]
                loss = build(tape, leaves)
                tape.backward(loss)
                ref = weakref.ref(tape)
                del tape
                assert ref() is None, case.__name__
                assert loss.tape is None and leaves[0].grad is not None
        finally:
            gc.enable()

    def test_ops_reject_tensor_of_freed_tape(self):
        x = nd.Tape().leaf([[1.0]])
        with pytest.raises(ValueError, match="outlived its tape"):
            nd.pair_combine(x, x)

    def test_fixed_seed_is_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(123)
            arrays, build = case_conv1d(rng)
            return analytic_grads(build, arrays, np.float32)

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)


def test_every_public_function_runs_in_the_model(monkeypatch, toy_groups, toy_table):
    # no autodiff that only tests call: training under both losses and every
    # context kind, then inference, reach each public ndgrad function
    public = [name for name, fn in vars(nd).items() if inspect.isfunction(fn)
              and fn.__module__ == nd.__name__ and not name.startswith("_")]
    calls = collections.Counter()
    for name in public:
        def counted(*args, _fn=getattr(nd, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nd, name, counted)
    for loss, kind in [("listwise", kind) for kind in CONTEXT_KINDS] + [("pointwise", "none")]:
        config = CosinetConfig(embedding_dim=16, conv_hidden=4, kernel_width=2, context=kind)
        params = CosinetParams(config)
        fit(toy_groups, toy_table, params, config, TrainConfig(loss=loss, epochs=1))
        score_group(toy_groups[0], toy_table, params, config)
    assert [name for name in public if not calls[name]] == []


class TestShapeErrors:
    @pytest.mark.parametrize("q, c", [((2, 3), (3, 2)), ((2, 3), (1, 3)), ((3,), (3,))],
                             ids=["transposed", "one_row", "flat"])
    def test_pair_combine_shape_mismatch(self, q, c):
        tape = nd.Tape()
        with pytest.raises(ValueError, match="pair_combine"):
            nd.pair_combine(tape.leaf(np.zeros(q)), tape.leaf(np.zeros(c)))

    @pytest.mark.parametrize("w, b", [((4, 2), (1, 2)), ((3, 2), (2,)), ((3, 2), (1, 3)),
                                      ((3, 2), (2, 2))],
                             ids=["inner", "flat_bias", "bias_width", "two_bias_rows"])
    def test_linear_shape_mismatch(self, w, b):
        # the inner dimension, then a bias that is not one (1, Out) row
        tape = nd.Tape()
        x = tape.leaf(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="linear"):
            nd.linear(x, tape.leaf(np.zeros(w)), tape.leaf(np.zeros(b)))

    def test_recurrence_needs_bias_rows_of_the_gate_width(self):
        tape = nd.Tape()
        x, w_ih, w_hh = (tape.leaf(np.zeros(s)) for s in ((2, 3), (3, 4), (4, 4)))
        for biases in ((), ((1, 4), (4,)), ((1, 3),)):
            with pytest.raises(ValueError, match="rnn_cell"):
                nd.rnn_cell(x, [w_ih, w_hh, *(tape.leaf(np.zeros(s)) for s in biases)])
        # and one or two directions
        direction = [w_ih, w_hh, tape.leaf(np.zeros((1, 4)))]
        for directions in ((), (direction,) * 3):
            with pytest.raises(ValueError, match="rnn_cell"):
                nd.rnn_cell(x, *directions)

    def test_bce_needs_one_label_per_score(self):
        tape = nd.Tape()
        s = tape.leaf(np.zeros((3, 1)))
        for labels in (1.0, [[1.0]], [1.0, 0.0]):
            with pytest.raises(ValueError, match="bce_logits_mean"):
                nd.bce_logits_mean(s, labels)

    def test_conv1d_input_shorter_than_kernel(self):
        tape = nd.Tape()
        w = tape.leaf(np.zeros((5, 3, 4)))
        b = tape.leaf(np.zeros(4))
        with pytest.raises(ValueError, match="shorter than kernel"):
            nd.conv1d(np.zeros((1, 2)), np.zeros((2, 2), dtype=int), np.zeros((2, 2)), w, b,
                      np.ones((2, 1), dtype=bool))

    def test_conv1d_mask_must_cover_every_window(self):
        tape = nd.Tape()
        w = tape.leaf(np.zeros((3, 2, 4)))
        b = tape.leaf(np.zeros(4))
        with pytest.raises(ValueError, match="conv1d mask"):
            nd.conv1d(np.zeros((1, 1)), np.zeros((2, 6), dtype=int), np.zeros((2, 6)), w, b,
                      np.ones((2, 6), dtype=bool))

    def test_conv1d_ids_must_index_rows(self):
        tape = nd.Tape()
        w = tape.leaf(np.zeros((2, 3, 4)))
        b = tape.leaf(np.zeros(4))
        for bad in (-1, 3):
            ids = np.zeros((2, 4), dtype=int)
            ids[1, 2] = bad
            with pytest.raises(ValueError, match="ids outside the 3 rows"):
                nd.conv1d(np.zeros((3, 2)), ids, np.zeros((2, 4)), w, b,
                          np.ones((2, 3), dtype=bool))

    def test_masked_max_pool_empty_mask(self):
        # one row of the batch without a valid timestep is enough
        tape = nd.Tape()
        x = tape.leaf(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="no valid timestep"):
            nd.masked_max_pool(x, [[True, False, False], [False, False, False]])

    def test_masked_max_pool_needs_one_row_per_true_entry(self):
        tape = nd.Tape()
        x = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="masked_max_pool"):
            nd.masked_max_pool(x, [[True, False, True], [False, False, True], [True, False, False]])


class TestPrimitiveSemantics:
    def test_conv1d_identity_kernel(self):
        # width-1 kernel with identity weights reproduces the input
        tape = nd.Tape(dtype=np.float64)
        rows, ids, r = conv_input(np.random.default_rng(0), 2, 6, 2, 5)
        w = tape.leaf(np.eye(3)[None, :, :])
        b = tape.leaf(np.zeros(3))
        out = nd.conv1d(rows, ids, r, w, b, np.ones((2, 6), dtype=bool))
        x = np.concatenate([rows[ids], r[:, :, None]], axis=2)
        np.testing.assert_allclose(out.data, x.reshape(12, 3), atol=1e-12)

    def test_conv1d_matches_direct_sum(self):
        # one packed row per true window, in row-major mask order; ids
        # repeat within and across sequences, and two of them point at a
        # zero row, as unknown tokens and padding do in the model
        rng = np.random.default_rng(1)
        rows, _, r = conv_input(rng, 3, 7, 2, 4)
        rows[0] = 0.0
        ids = np.array([[1, 1, 2, 1, 3, 3, 0], [2, 1, 1, 2, 0, 0, 0], [3, 2, 3, 1, 2, 1, 1]])
        wd = rng.uniform(-1, 1, (3, 3, 4))
        bd = rng.uniform(-1, 1, 4)
        mask = np.array([[1, 0, 1, 1, 1], [1, 0, 0, 0, 1], [0, 1, 0, 1, 0]], dtype=bool)
        tape = nd.Tape(dtype=np.float64)
        out = nd.conv1d(rows, ids, r, tape.leaf(wd), tape.leaf(bd), mask).data
        windows = list(zip(*np.nonzero(mask)))
        assert out.shape == (len(windows), 4)
        for row, (n, t) in zip(out, windows):
            np.testing.assert_allclose(row, direct_conv(rows, ids, r, wd, bd, n, t), atol=1e-12)

    def test_conv1d_work_tracks_real_windows(self):
        # one 60-token candidate padded with nine 5-token ones: 56 + 9 rows,
        # not the 10 x 56 windows of the padded batch
        k, dim = 5, 3
        lengths = [60] + [5] * 9
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])  # padding, then the one real token
        ids = np.zeros((10, 60), dtype=int)
        r = np.zeros((10, 60))
        mask = np.zeros((10, 60 - k + 1), dtype=bool)
        for i, n in enumerate(lengths):
            ids[i, :n] = 1
            r[i, :n] = 1.0
            mask[i, :n - k + 1] = True
        tape = nd.Tape(dtype=np.float64)
        w = tape.leaf(np.ones((k, dim, 2)))
        b = tape.leaf(np.zeros(2))
        out = nd.conv1d(rows, ids, r, w, b, mask)
        assert out.data.shape == (mask.sum(), 2) == (65, 2)
        np.testing.assert_array_equal(out.data, np.full((65, 2), k * dim))
        tape.backward(probe(nd.masked_max_pool(out, mask)))
        np.testing.assert_array_equal(b.grad, [10.0, 10.0])

    def test_masked_values_never_leak(self):
        # rows and r values that only masked-out windows use change nothing
        rng = np.random.default_rng(2)
        rows, _, r = conv_input(rng, 2, 6, 3, 5)
        # rows 3 and 4 appear only where no true window reaches
        ids = np.array([[0, 1, 2, 1, 0, 1], [3, 4, 3, 0, 2, 4]])
        wd = rng.uniform(-1, 1, (2, 4, 4))
        bd = rng.uniform(-1, 1, 4)
        mask = np.array([[1, 1, 0, 0, 1], [0, 0, 0, 1, 0]], dtype=bool)
        covered = np.zeros((2, 6), dtype=bool)
        for j in range(2):
            covered[:, j:j + 5] |= mask
        assert not np.isin(ids[covered], [3, 4]).any()
        poisoned_rows = rows.copy()
        poisoned_rows[3:] = 1e9
        poisoned_r = np.where(covered, r, 1e9)
        pooled = []
        for x_rows, x_r in ((rows, r), (poisoned_rows, poisoned_r)):
            tape = nd.Tape(dtype=np.float64)
            out = nd.conv1d(x_rows, ids, x_r, tape.leaf(wd), tape.leaf(bd), mask)
            pooled.append(nd.masked_max_pool(out, mask).data)
        np.testing.assert_array_equal(pooled[0], pooled[1])
        for n in range(2):
            full = np.stack([direct_conv(rows, ids, r, wd, bd, n, t) for t in range(5)])
            np.testing.assert_allclose(pooled[0][n], full[mask[n]].max(axis=0), atol=1e-12)

    def test_pair_combine_and_linear_keep_the_float_order_of_their_formulas(self):
        # bitwise at float32, so trained weights do not depend on how the
        # stages are split into tape records
        rng = np.random.default_rng(9)
        q, c = (rng.uniform(-1, 1, (5, 3)).astype(np.float32) for _ in range(2))
        w, b = rng.uniform(-1, 1, (6, 1)).astype(np.float32), np.float32([[0.3]])
        g = rng.uniform(-1, 1, (5, 1)).astype(np.float32)
        tape = nd.Tape(dtype=np.float32)
        leaves = [tape.leaf(a) for a in (q, c, w, b)]
        pair = nd.pair_combine(leaves[0], leaves[1])
        out = nd.linear(pair, leaves[2], leaves[3])
        tape.backward(probe(out, g))
        x = np.concatenate([q * c, q - c], axis=1)
        np.testing.assert_array_equal(out.data, x @ w + b)
        gx = g @ w.T
        np.testing.assert_array_equal(pair.grad, gx)
        np.testing.assert_array_equal(leaves[0].grad, gx[:, 3:] + gx[:, :3] * c)
        np.testing.assert_array_equal(leaves[1].grad, gx[:, :3] * q - gx[:, 3:])
        np.testing.assert_array_equal(leaves[2].grad, x.T @ g)
        np.testing.assert_array_equal(leaves[3].grad, g.sum(axis=0, keepdims=True))

    def test_second_direction_reads_the_rows_last_to_first(self):
        # its half of the output is a one-direction run over the reversed
        # rows, reversed back; the first half is the one-direction run
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (5, 3))
        for cell, gates in ((nd.rnn_cell, 1), (nd.lstm_cell, 4)):
            fw, bw = ([rng.uniform(-1, 1, s) for s in ((3, 4 * gates), (4, 4 * gates),
                                                        (1, 4 * gates))] for _ in range(2))
            tape = nd.Tape(dtype=np.float64)
            fw, bw = [tape.leaf(a) for a in fw], [tape.leaf(a) for a in bw]
            both = cell(tape.leaf(x), fw, bw).data
            ahead = cell(tape.leaf(x), fw).data
            back = cell(tape.leaf(x[::-1]), bw).data[::-1]
            np.testing.assert_allclose(both, np.hstack([ahead, back]), rtol=1e-12, atol=1e-15)

    def test_max_pool_tie_routes_gradient_to_first(self):
        # packed rows: [1, 3, 3] for the first sequence, [2, 2] for the second
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.0, 0.0], [3.0, 0.0], [3.0, 0.0], [2.0, 7.0], [2.0, 7.0]])
        mask = [[True, True, True], [False, True, True]]
        tape.backward(probe(nd.masked_max_pool(x, mask)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0],
                                               [1.0, 1.0], [0.0, 0.0]])

    def test_nan_window_gives_nan_not_index_error(self):
        # a NaN window pools to NaN and takes the gradient, as np.argmax would
        tape = nd.Tape(dtype=np.float64)
        x = tape.leaf([[1.0, np.nan], [2.0, 0.5], [np.nan, 3.0]])
        mask = [[True, False, True], [False, True, False]]
        out = nd.masked_max_pool(x, mask)
        np.testing.assert_array_equal(out.data, [[2.0, np.nan], [np.nan, 3.0]])
        tape.backward(probe(out))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_softmax_rows_normalized_and_positive(self):
        # the kl_logits gradient is softmax(s) - g, one softmax over every
        # entry, so adding g back must give strictly positive entries that
        # sum to one
        rng = np.random.default_rng(3)
        target = random_target(rng, 24)
        tape = nd.Tape(dtype=np.float64)
        s = tape.leaf(rng.uniform(-5, 5, (4, 6)))
        loss = nd.kl_logits(s, target)
        tape.backward(loss)
        p = s.grad + target.reshape(4, 6)
        assert (p > 0).all()
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
        assert loss.data[0, 0] > 0

    def test_softmax_handles_large_inputs(self):
        tape = nd.Tape(dtype=np.float32)
        s = tape.leaf([[1000.0, 1000.0, 999.0]])
        loss = nd.kl_logits(s, [[0.5, 0.5, 0.0]])
        tape.backward(loss)
        assert np.isfinite(loss.data).all() and np.isfinite(s.grad).all()
        e = np.exp([[0.0, 0.0, -1.0]])
        np.testing.assert_allclose(loss.data[0, 0], np.log(e.sum() / 2), rtol=1e-5)
        np.testing.assert_allclose(s.grad, e / e.sum() - [[0.5, 0.5, 0.0]], atol=1e-6)

    def test_kl_logits_zero_when_distributions_match(self):
        target = np.array([[0.25, 0.75, 0.0]])
        tape = nd.Tape(dtype=np.float64)
        s = tape.leaf(np.log([[1.0, 3.0, 1e-300]]) + 7.0)
        loss = nd.kl_logits(s, target)
        tape.backward(loss)
        assert abs(loss.data[0, 0]) < 1e-12
        np.testing.assert_allclose(s.grad, np.zeros((1, 3)), atol=1e-12)

    def test_kl_logits_column_matches_row(self):
        # the model feeds an (n, 1) column and a flat target; it is the same
        # distribution as a (1, n) row, bit for bit
        rng = np.random.default_rng(5)
        scores = rng.uniform(-3, 3, 7).astype(np.float32)
        target = random_target(rng, 7)
        out = []
        for shape in ((7, 1), (1, 7)):
            tape = nd.Tape(dtype=np.float32)
            s = tape.leaf(scores.reshape(shape))
            loss = nd.kl_logits(s, target)
            tape.backward(loss)
            out.append((loss.data[0, 0], s.grad.ravel()))
        assert out[0][0] == out[1][0]
        np.testing.assert_array_equal(out[0][1], out[1][1])

    def test_kl_logits_is_one_softmax_over_every_entry(self):
        x = np.array([[0.5, -1.0], [2.0, 0.0]])
        target = np.array([0.0, 0.25, 0.75, 0.0])
        tape = nd.Tape(dtype=np.float64)
        loss = nd.kl_logits(tape.leaf(x), target).data[0, 0]
        logp = x.ravel() - np.log(np.exp(x).sum())
        want = sum(g * (np.log(g) - lp) for g, lp in zip(target, logp) if g > 0)
        np.testing.assert_allclose(loss, want, rtol=1e-12)

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
        s = tape.leaf(scores)
        loss = nd.kl_logits(s, target)
        tape.backward(loss)
        results.append((loss.data[0, 0], s.grad))
    np.testing.assert_allclose(results[0][0], results[1][0], atol=1e-9)
    np.testing.assert_allclose(results[0][1], results[1][1], atol=1e-9)
