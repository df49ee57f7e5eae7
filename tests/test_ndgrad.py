import collections
import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosinet.ndgrad as nd
from cosinet.model import (CONTEXT_KINDS, CosinetConfig, CosinetParams, prepare_pair, score_group,
                           score_pairs)
from cosinet.training import TrainConfig, fit
from fdcheck import max_rel_error, numeric_gradient, probe

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


def conv_input(rng, lens, e, u):
    """Plain conv inputs: u distinct rows, packed ids into them with repeats, an r channel."""
    p = int(np.sum(lens))
    return rng.uniform(-1, 1, (u, e)), rng.integers(0, u, p), rng.uniform(-1, 1, p)


def window_inputs(rows, ids, r, lens, k, i):
    """Sequence i's (windows, K, C_in) float64 inputs x[p] = [rows[ids[p]], r[p]]:
    one window per start s < max(1, n - K + 1) of its n entries, reading zeros past its end."""
    lo, n = int(np.sum(lens[:i])), lens[i]
    x = np.column_stack([rows[ids[lo:lo + n]], r[lo:lo + n]]).astype(np.float64)
    x = np.vstack([x, np.zeros((k, x.shape[1]))])
    return np.stack([x[s:s + k] for s in range(max(1, n - k + 1))])


def direct_windows(rows, ids, r, lens, w, b, i):
    """Sequence i's window outputs of the conv, by a direct sum."""
    return np.array([b + sum(x[j] @ w[j] for j in range(len(w)))
                     for x in window_inputs(rows, ids, r, lens, len(w), i)])


def pool_lead(rows, ids, r, lens, w):
    """The least lead of a sequence's maximum window over its runner-up, over all channels."""
    lead = np.inf
    for i in range(len(lens)):
        outs = np.sort(direct_windows(rows, ids, r, lens, w, 0.0, i), axis=0)
        if len(outs) > 1:
            lead = min(lead, (outs[-1] - outs[-2]).min())
    return lead


def case_conv1d(rng):
    # the inputs are plain arrays: the model's conv input takes no gradient;
    # two sequences of 1 to 7 entries under a width-3 kernel, so some are
    # shorter than it; the probe reads the pooled output, and draws repeat
    # until every winning window leads by 0.1, so no fd step (a window moves
    # by at most 1e-2) changes a winner
    while True:
        lens = rng.integers(1, 8, 2)
        rows, ids, r = conv_input(rng, lens, 2, 4)
        w = rng.uniform(-1, 1, (3, 3, 4))
        if pool_lead(rows, ids, r, lens, w) > 0.1:
            break
    b = rng.uniform(-1, 1, (4,))
    probe_w = rng.uniform(-1, 1, (2, 4))
    return [w, b], lambda t, lv: probe(nd.conv1d(rows, ids, r, lens, lv[0], lv[1]), probe_w)


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
    case_kl_logits, case_conv1d, case_rnn_cell, case_rnn_cell_two_biases,
    case_lstm_cell, case_bce,
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

    def test_leaf_gradient_is_the_array_its_op_produced(self, monkeypatch):
        # no gradient is zero-filled and then added to: a leaf's first
        # gradient is the op's own array, and a second pass hands over a new
        # one with the same values
        tape = nd.Tape(dtype=np.float64)
        x, w, b = (tape.leaf(a) for a in ([[2.0, -3.0]], [[1.0], [0.5]], [[0.0]]))
        loss = probe(nd.linear(x, w, b))
        handed, passes = {}, []
        acc = nd._acc
        monkeypatch.setattr(nd, "_acc", lambda t, g: (handed.setdefault(id(t), g), acc(t, g)))
        for _ in range(2):
            handed.clear()
            tape.backward(loss)
            assert all(t.grad is handed[id(t)] for t in (x, w, b))
            passes.append(w.grad)
        assert passes[0] is not passes[1]
        np.testing.assert_array_equal(passes[0], passes[1])
        np.testing.assert_array_equal(w.grad, [[2.0], [-3.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaf_gradient_keeps_dtype_and_shape(self, dtype):
        # a caller reads a leaf's gradient as it is (fit hands it to Adam
        # flat), so every op gives its leaves gradients of their own dtype
        # and shape
        for case in ALL_CASES:
            arrays, build = case(np.random.default_rng(2))
            tape = nd.Tape(dtype=dtype)
            leaves = [tape.leaf(a) for a in arrays]
            tape.backward(build(tape, leaves))
            for leaf in leaves:
                assert (leaf.grad.dtype, leaf.grad.shape) == (leaf.data.dtype, leaf.data.shape), \
                    case.__name__

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
        # a leaf that only such a skipped record takes is still reported,
        # with zeros
        tape = nd.Tape(dtype=np.float64)
        a = tape.leaf([[1.0, 2.0]])
        u = tape.leaf([[5.0, 6.0]])
        unused = nd.pair_combine(u, u)
        loss = probe(a)
        written, reported = [], []
        acc = nd._acc
        monkeypatch.setattr(nd, "_acc", lambda t, g: (written.append(t), acc(t, g)))
        tape.backward(loss, on_final=lambda leaf: reported.append((leaf, leaf.grad.copy())))
        assert written and not any(t is u or t is unused for t in written)
        assert [leaf for leaf, _ in reported] == [a, u]
        np.testing.assert_array_equal(reported[0][1], np.ones((1, 2)))
        np.testing.assert_array_equal(reported[1][1], np.zeros((1, 2)))
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

    def test_on_final_reports_every_leaf_once_when_final(self):
        # a feeds two records; the report comes after the earlier one's
        # backward, when a's gradient is complete, and never sooner; u feeds
        # no record, so it is final at once, with zeros; every leaf is
        # reported once, and no reported gradient changes afterwards
        tape = nd.Tape(dtype=np.float64)
        a = tape.leaf([[2.0, -3.0]])
        b = tape.leaf([[0.5, 4.0]])
        d = tape.leaf([[1.0, 1.0]])
        u = tape.leaf([[9.0, 9.0]])
        c = tape.leaf([[3.0, 3.0]])
        y = nd.pair_combine(a, b)  # [a * b, a - b]
        ones_a = tape.leaf(np.ones((2, 1)))
        with_a = nd.linear(a, ones_a, probe(y))  # sum(a) + sum(y)
        ones_dc = tape.leaf(np.ones((4, 1)))
        loss = nd.linear(nd.pair_combine(d, c), ones_dc, with_a)
        leaves = dict(a=a, b=b, d=d, u=u, c=c, ones_a=ones_a, ones_dc=ones_dc)
        names = {id(t): name for name, t in leaves.items()}
        seen = []

        def on_final(leaf):
            # what the gradients hold at the moment of the report
            seen.append((names[id(leaf)], leaf.grad, leaf.grad.copy(), a.grad is None,
                         y.grad is None))

        tape.backward(loss, on_final=on_final)
        assert [name for name, *_ in seen] == ["u", "ones_dc", "d", "c", "ones_a", "a", "b"]
        assert seen[0][3] and seen[0][4]  # u: before any record ran
        np.testing.assert_array_equal(seen[0][2], np.zeros((1, 2)))
        assert all(a_unreached for _, _, _, a_unreached, _ in seen[:4])  # before either record of a
        for name, grad, grad_then, _, _ in seen:
            assert leaves[name].grad is grad
            np.testing.assert_array_equal(grad, grad_then)
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
        leaves = params.as_leaves(tape)
        pairs = [prepare_pair(group.question_tokens, c.tokens, toy_table) for c in group.candidates]
        scores = score_pairs(pairs, toy_table, config, leaves)
        reported = []
        tape.backward(probe(scores, np.arange(1.0, len(pairs) + 1)[:, None]),
                      on_final=lambda leaf: reported.append((leaf, leaf.grad.copy())))
        assert sorted(id(leaf) for leaf, _ in reported) == sorted(map(id, leaves.values()))
        for leaf, grad_then in reported:
            np.testing.assert_array_equal(grad_then, leaf.grad)
            assert (leaf.grad.dtype, leaf.grad.shape) == (leaf.data.dtype, leaf.data.shape)

    def test_accumulating_never_changes_a_shared_array(self):
        # rnn_cell hands one bias gradient array to both b_ih and b_hh; b_ih
        # also feeds an earlier record, whose backward runs later and adds to
        # b_ih only, so b_hh keeps the gradient it would have without it
        rng = np.random.default_rng(5)
        arrays = [rng.uniform(-1, 1, s) for s in ((4, 3), (3, 2), (2, 2), (1, 2), (1, 2))]

        def run(early_use):
            tape = nd.Tape(dtype=np.float64)
            x, w_ih, w_hh, b_ih, b_hh = leaves = [tape.leaf(a) for a in arrays]
            early = probe(b_ih, 3.0)
            loss = probe(nd.rnn_cell(x, [w_ih, w_hh, b_ih, b_hh]))
            if early_use:
                loss = nd.linear(early, tape.leaf([[1.0]]), loss)  # 3 sum(b_ih) + loss
            reported = []
            tape.backward(loss, on_final=lambda leaf: reported.append((leaf.grad,
                                                                       leaf.grad.copy())))
            for grad, grad_then in reported:
                np.testing.assert_array_equal(grad, grad_then)
            return b_ih.grad, b_hh.grad

        _, alone = run(False)
        b_ih, b_hh = run(True)
        np.testing.assert_array_equal(b_hh, alone)
        np.testing.assert_allclose(b_ih, alone + 3.0)

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

    @pytest.mark.parametrize("cell, gates", [(nd.rnn_cell, 1), (nd.lstm_cell, 4)],
                             ids=["rnn", "lstm"])
    def test_recurrence_directions_need_the_same_shapes(self, cell, gates):
        # the directions step together on one stacked state, so a second
        # direction of another hidden width is an error, though each
        # direction on its own fits x
        tape = nd.Tape()
        x = tape.leaf(np.zeros((2, 3)))
        fw, bw = ([tape.leaf(np.zeros(s)) for s in ((3, gates * h), (h, gates * h),
                                                     (1, gates * h))] for h in (4, 3))
        for direction in (fw, bw):
            cell(x, direction)
        records = len(tape._records)
        for directions in ((fw, bw), (bw, fw)):
            with pytest.raises(ValueError, match=cell.__name__):
                cell(x, *directions)
        assert len(tape._records) == records

    def test_bce_needs_one_label_per_score(self):
        tape = nd.Tape()
        s = tape.leaf(np.zeros((3, 1)))
        for labels in (1.0, [[1.0]], [1.0, 0.0]):
            with pytest.raises(ValueError, match="bce_logits_mean"):
                nd.bce_logits_mean(s, labels)

    @staticmethod
    def conv(ids, r, lens, n_rows=3):
        """conv1d over ``n_rows`` zero rows of width 2 under a width-2 kernel."""
        tape = nd.Tape()
        w, b = tape.leaf(np.zeros((2, 3, 4))), tape.leaf(np.zeros(4))
        return nd.conv1d(np.zeros((n_rows, 2)), ids, r, lens, w, b)

    def test_conv1d_lengths_must_sum_to_the_ids(self):
        ids, r = np.zeros(6, dtype=int), np.zeros(6)
        self.conv(ids, r, [2, 4])
        for lens in ([2, 3], [2, 5], [6, 0, 1], [[2, 4]]):
            with pytest.raises(ValueError, match="conv1d: lengths"):
                self.conv(ids, r, lens)

    def test_conv1d_ids_and_r_must_match(self):
        # packed ids and r of one shape: a padded (N, T) matrix is no input
        for ids, r in ((np.zeros(6, dtype=int), np.zeros(5)),
                       (np.zeros((2, 3), dtype=int), np.zeros((2, 3)))):
            with pytest.raises(ValueError, match="conv1d ids"):
                self.conv(ids, r, [3, 3])

    def test_conv1d_ids_must_index_rows(self):
        for bad in (-1, 3):
            ids = np.zeros(6, dtype=int)
            ids[4] = bad
            with pytest.raises(ValueError, match="ids outside the 3 rows"):
                self.conv(ids, np.zeros(6), [2, 4])

    def test_masked_max_pool_empty_mask(self):
        # one sequence of the batch without a window is enough, in the pool
        # itself, and one without an entry (or no sequence at all) in the
        # conv that calls it
        with pytest.raises(ValueError, match="masked_max_pool"):
            nd.masked_max_pool(np.zeros((1, 2)), [1, 0])
        for ids, lens in ((np.zeros(4, dtype=int), [4, 0]), (np.zeros(0, dtype=int), [])):
            with pytest.raises(ValueError, match="conv1d: lengths"):
                self.conv(ids, np.zeros(ids.shape), lens)

    def test_masked_max_pool_needs_one_row_per_true_entry(self):
        # one row per counted window, with counts one per sequence
        for counts in ([1, 1], [2, 2], [[1, 2]]):
            with pytest.raises(ValueError, match="masked_max_pool"):
                nd.masked_max_pool(np.zeros((3, 2)), counts)


def conv_backward(rows, ids, r, lens, wd, bd, dtype):
    """(w grad, b grad) of the pooled conv under a probe, and the probe's weights."""
    tape = nd.Tape(dtype=dtype)
    w, b = tape.leaf(wd), tape.leaf(bd)
    out = nd.conv1d(rows, ids, r, lens, w, b)
    g = np.random.default_rng(5).uniform(0.5, 1.5, out.data.shape)
    tape.backward(probe(out, g))
    return w.grad, b.grad, g


def dense_conv_grads(rows, ids, r, lens, wd, bd, g):
    """The float64 w and b gradients by the dense im2col formula over every
    sequence's windows (zeros past its end), and the dense (W, H) window
    gradient: each sequence's pooled gradient on its first maximum window,
    per channel."""
    per_seq = [window_inputs(rows, ids, r, lens, len(wd), i) for i in range(len(lens))]
    windows = np.concatenate(per_seq)
    seq = np.repeat(np.arange(len(lens)), [len(x) for x in per_seq])
    out = np.einsum("wkc,kch->wh", windows, wd) + bd
    dense = np.zeros_like(out)
    for i in range(len(lens)):
        rows_i = np.flatnonzero(seq == i)
        np.put_along_axis(dense, rows_i[out[rows_i].argmax(axis=0)][None], g[i][None], axis=0)
    return np.einsum("wkc,wh->kch", windows, dense), dense.sum(axis=0), dense


def conv_case(shape):
    """(rows, ids, r, lens) of a conv batch under a width-3 kernel whose
    distinct rows U are fewer or more than its windows W, or that has one
    window per sequence."""
    rng = np.random.default_rng(11)
    if shape == "U>W":
        # short sequences of distinct tokens, one or two windows each
        rows = rng.uniform(-1, 1, (40, 6))
        lens = np.array([4, 3] * 5)
        ids = rng.permutation(40)[:lens.sum()]
    else:
        # one question, or its first 8 tokens, repeated over a group of 12
        # candidates; or 12 sequences of 1 to 3 tokens, one window each
        rows, q_ids, _ = conv_input(rng, [9], 6, 7)
        lens = np.array([9, 8] * 6) if shape == "U<W" else rng.integers(1, 4, 12)
        ids = np.concatenate([q_ids[:n] for n in lens])
    return rows, ids, rng.uniform(-1, 1, ids.shape), lens


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["f64", "f32"])
@pytest.mark.parametrize("shape", ["U<W", "U>W", "one window"],
                         ids=["fewer-rows-than-windows", "more-rows-than-windows",
                              "dense-gradient"])
def test_conv1d_weight_gradient_matches_dense_reference(shape, dtype, tol):
    # the winners-only token-space weight gradient against the dense im2col
    # sum over every window; with one window per sequence every window
    # wins, so the window gradient is dense: it has no zero
    rows, ids, r, lens = conv_case(shape)
    rng = np.random.default_rng(3)
    wd, bd = rng.uniform(-1, 1, (3, 7, 5)), rng.uniform(-1, 1, 5)
    gw, gb, g = conv_backward(rows, ids, r, lens, wd, bd, dtype)
    want_w, want_b, dense = dense_conv_grads(rows, ids, r, lens, wd, bd, g)
    assert (len(rows) < len(dense)) == (shape != "U>W")
    assert (dense != 0).all() == (shape == "one window")
    assert max_rel_error(gw, want_w) <= tol
    assert max_rel_error(gb, want_b) <= tol


def test_conv1d_backward_builds_no_im2col_matrix():
    # the weight gradient of a pooled conv allocates less than one
    # (W, K * E) gather of the window inputs would take
    n, t, k, e, h = 64, 60, 5, 256, 8
    rng = np.random.default_rng(6)
    lens = [t] * n
    rows, ids, r = conv_input(rng, lens, e, 500)
    tape = nd.Tape(dtype=np.float64)
    w, b = tape.leaf(rng.uniform(-1, 1, (k, e + 1, h))), tape.leaf(np.zeros(h))
    loss = probe(nd.conv1d(rows, ids, r, lens, w, b))
    tracemalloc.start()
    try:
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (t - k + 1) * k * e * 8


def test_conv1d_backward_builds_no_window_gradient():
    # the backward of a pooled conv reads the N * C_out winners only, and
    # allocates less than one (W, C_out) array over the windows would take
    # (a sequence's argmax copies its own windows only)
    n, t, k, e, h = 40, 200, 2, 2, 64
    rng = np.random.default_rng(7)
    lens = [t] * n
    rows, ids, r = conv_input(rng, lens, e, 3000)
    tape = nd.Tape(dtype=np.float64)
    w, b = tape.leaf(rng.uniform(-1, 1, (k, e + 1, h))), tape.leaf(np.zeros(h))
    loss = probe(nd.conv1d(rows, ids, r, lens, w, b))
    tracemalloc.start()
    try:
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (t - k + 1) * h * 8


def identity_pool(tape, x, lens):
    """(pooled output, w, b) of a width-1 identity-kernel conv over the
    packed (P, 2) inputs ``x``: the output is the per-sequence max of ``x``."""
    w, b = tape.leaf(np.eye(2)[None]), tape.leaf(np.zeros(2))
    out = nd.conv1d(x[:, :1], np.arange(len(x)), x[:, 1], lens, w, b)
    return out, w, b


class TestPrimitiveSemantics:
    def test_masked_max_pool_is_a_plain_array_step(self):
        # the pool takes and returns plain arrays and records nothing: a
        # pooled conv is one tape record
        x = np.array([[1.0, 4.0], [3.0, 2.0], [5.0, 0.0]])
        pooled, segments = nd.masked_max_pool(x, [2, 1])
        np.testing.assert_array_equal(pooled, [[3.0, 4.0], [5.0, 0.0]])
        assert segments == [slice(0, 2), slice(2, 3)]
        tape = nd.Tape(dtype=np.float64)
        w, b = tape.leaf(np.ones((2, 3, 4))), tape.leaf(np.zeros(4))
        out = nd.conv1d(np.ones((1, 2)), np.zeros(10, dtype=int), np.ones(10), [5, 5], w, b)
        assert [rec[1] for rec in tape._records] == [out]

    def test_conv1d_identity_kernel(self):
        # width-1 kernel with identity weights pools the input itself
        tape = nd.Tape(dtype=np.float64)
        rows, ids, r = conv_input(np.random.default_rng(0), [6, 4], 2, 5)
        w = tape.leaf(np.eye(3)[None, :, :])
        b = tape.leaf(np.zeros(3))
        out = nd.conv1d(rows, ids, r, [6, 4], w, b)
        x = np.column_stack([rows[ids], r])
        np.testing.assert_allclose(out.data, [x[:6].max(axis=0), x[6:].max(axis=0)], atol=1e-12)

    def test_conv1d_matches_direct_sum(self):
        # each sequence's max over its windows; ids repeat within and across
        # sequences, some point at a zero row, as unknown tokens do in the
        # model, and two sequences are shorter than the kernel
        rng = np.random.default_rng(1)
        lens = [7, 4, 2, 1, 5]
        rows, _, r = conv_input(rng, lens, 2, 4)
        rows[0] = 0.0
        ids = np.array([1, 1, 2, 1, 3, 3, 0, 2, 1, 0, 0, 3, 2, 1, 3, 2, 1, 1, 0])
        wd = rng.uniform(-1, 1, (3, 3, 4))
        bd = rng.uniform(-1, 1, 4)
        tape = nd.Tape(dtype=np.float64)
        out = nd.conv1d(rows, ids, r, lens, tape.leaf(wd), tape.leaf(bd)).data
        assert out.shape == (5, 4)
        for i, row in enumerate(out):
            windows = direct_windows(rows, ids, r, lens, wd, bd, i)
            np.testing.assert_allclose(row, windows.max(axis=0), atol=1e-12)

    def test_conv1d_work_tracks_real_windows(self, monkeypatch):
        # one 60-token candidate with nine 5-token ones: the pool gets 56 + 9
        # window rows, not the 10 x 56 windows a batch padded to the longest
        # would take
        pooled = []
        pool = nd.masked_max_pool

        def spy(x, counts):
            pooled.append((x.copy(), list(counts)))
            return pool(x, counts)

        monkeypatch.setattr(nd, "masked_max_pool", spy)
        k, dim = 5, 3
        lengths = [60] + [5] * 9
        rows = np.array([[1.0, 1.0]])  # the one token
        ids = np.zeros(sum(lengths), dtype=int)
        r = np.ones(sum(lengths))
        tape = nd.Tape(dtype=np.float64)
        w = tape.leaf(np.ones((k, dim, 2)))
        b = tape.leaf(np.zeros(2))
        out = nd.conv1d(rows, ids, r, lengths, w, b)
        [(windows, counts)] = pooled
        assert counts == [56] + [1] * 9
        assert windows.shape == (65, 2)
        np.testing.assert_array_equal(windows, np.full((65, 2), k * dim))
        np.testing.assert_array_equal(out.data, np.full((10, 2), k * dim))
        tape.backward(probe(out))
        np.testing.assert_array_equal(b.grad, [10.0, 10.0])

    def test_neighbour_values_never_leak(self):
        # a sequence shorter than the kernel, followed by a sequence of 1e9
        # rows and r values: its one window reads its own taps, then zeros
        rng = np.random.default_rng(2)
        for k in (2, 5, 9):
            for n in range(1, k):
                rows = np.vstack([rng.uniform(-1, 1, (n, 3)), np.full((1, 3), 1e9)])
                ids = np.r_[np.arange(n), np.full(k, n)]
                r = np.r_[rng.uniform(-1, 1, n), np.full(k, 1e9)]
                wd = rng.uniform(-1, 1, (k, 4, 4))
                bd = rng.uniform(-1, 1, 4)
                tape = nd.Tape(dtype=np.float64)
                out = nd.conv1d(rows, ids, r, [n, k], tape.leaf(wd), tape.leaf(bd)).data
                own = bd + sum(np.append(rows[j], r[j]) @ wd[j] for j in range(n))
                np.testing.assert_allclose(out[0], own, rtol=0, atol=1e-12)

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
        # the directions only share a loop: the op is a one-direction run
        # next to a run over the reversed rows, reversed back, in its output
        # and in every gradient
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 7):
            for cell, gates in ((nd.rnn_cell, 1), (nd.lstm_cell, 4)):
                x, w = rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 8))
                fw, bw = ([rng.uniform(-1, 1, s) for s in ((3, 4 * gates), (4, 4 * gates),
                                                            (1, 4 * gates))] for _ in range(2))
                tape = nd.Tape(dtype=np.float64)
                leaves = [tape.leaf(a) for a in (x, *fw, *bw)]
                both = cell(leaves[0], leaves[1:4], leaves[4:])
                tape.backward(probe(both, w))
                runs = []
                for rows, weights, probe_w in ((x, fw, w[:, :4]), (x[::-1], bw, w[::-1, 4:])):
                    tape = nd.Tape(dtype=np.float64)
                    alone = [tape.leaf(a) for a in (rows, *weights)]
                    out = cell(alone[0], alone[1:])
                    tape.backward(probe(out, probe_w))
                    runs.append((out.data, [leaf.grad for leaf in alone]))
                (ahead, g_ahead), (back, g_back) = runs
                np.testing.assert_allclose(both.data, np.hstack([ahead, back[::-1]]),
                                           rtol=1e-12, atol=1e-15)
                want = [g_ahead[0] + g_back[0][::-1], *g_ahead[1:], *g_back[1:]]
                for leaf, g in zip(leaves, want, strict=True):
                    np.testing.assert_allclose(leaf.grad, g, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("reach", [80.0, 1e4])
    @pytest.mark.parametrize("cell, gates", [(nd.rnn_cell, 1), (nd.lstm_cell, 4)],
                             ids=["rnn", "lstm"])
    def test_saturated_recurrences_stay_finite(self, cell, gates, reach):
        # float32 pre-activations reach +-reach and beyond: the outputs stay
        # in [-1, 1] and every gradient stays finite, with one and two directions
        rng = np.random.default_rng(5)
        x = np.float32(reach) * np.float32([[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]])
        for d in (1, 2):
            tape = nd.Tape(dtype=np.float32)
            leaf_x = tape.leaf(x)
            directions = [[tape.leaf(rng.choice([-1.0, 1.0], (2, 3 * gates))),
                           tape.leaf(rng.uniform(-1, 1, (3, 3 * gates))),
                           tape.leaf(rng.uniform(-1, 1, (1, 3 * gates)))] for _ in range(d)]
            pre = x @ directions[0][0].data
            assert pre.max() >= reach and pre.min() <= -reach
            out = cell(leaf_x, *directions)
            tape.backward(probe(out, rng.uniform(-1, 1, out.data.shape)))
            assert np.isfinite(out.data).all() and np.abs(out.data).max() <= 1.0
            for t in [leaf_x, *(t for direction in directions for t in direction)]:
                assert np.isfinite(t.grad).all()

    def test_max_pool_tie_routes_gradient_to_first(self):
        # a width-1 identity kernel pools the input rows x itself, so
        # w.grad[0][:, c] sums the x row of each sequence's winner in channel
        # c; channel 0 ties in both sequences, and the first of a tie wins
        x = np.array([[1.0, 0.0], [3.0, 5.0], [3.0, 6.0],
                      [2.0, 7.0], [2.0, 4.0]])
        tape = nd.Tape(dtype=np.float64)
        out, w, b = identity_pool(tape, x, [3, 2])
        np.testing.assert_array_equal(out.data, [[3.0, 6.0], [2.0, 7.0]])
        tape.backward(probe(out))
        # channel 0 takes x[1] + x[3], channel 1 x[2] + x[3]
        np.testing.assert_array_equal(w.grad[0], [[5.0, 5.0], [12.0, 13.0]])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_nan_window_gives_nan_not_index_error(self):
        # a NaN window pools to NaN and takes the gradient, as np.argmax
        # would: had the finite window x[1] won, w.grad would be finite
        x = np.array([[np.nan, np.nan], [2.0, 0.5],
                      [4.0, 4.0]])
        tape = nd.Tape(dtype=np.float64)
        out, w, b = identity_pool(tape, x, [2, 1])
        np.testing.assert_array_equal(out.data, [[np.nan, np.nan], [4.0, 4.0]])
        tape.backward(probe(out))
        assert np.isnan(w.grad).all()
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

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
        # the stable logistic of bce_logits_mean: at one score with label 0,
        # its gradient is sigmoid(score)
        grads = []
        for v in (-80.0, -1.0, 0.0, 1.0, 80.0):
            tape = nd.Tape(dtype=np.float32)
            s = tape.leaf([[v]])
            tape.backward(nd.bce_logits_mean(s, [[0.0]]))
            grads.append(s.grad)
        out = np.concatenate(grads, axis=1)
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
