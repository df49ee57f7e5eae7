import copy
import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

import cosinet.ndgrad as nd
from cosinet import training
from cosinet.model import CosinetConfig, CosinetParams, score_group
from cosinet.ndgrad import Tape
from cosinet.training import (
    BLOCK,
    Adam,
    TrainConfig,
    fit,
    listwise_loss,
    pointwise_loss,
    stlr,
)
from conftest import make_group, make_table, table_digest


def small_config(context="none", seed=0):
    return CosinetConfig(embedding_dim=16, conv_hidden=8, kernel_width=3,
                         context=context, seed=seed)


# ---------------------------------------------------------------------------
# listwise objective


class TestListwiseLoss:
    @staticmethod
    def loss_value(scores, labels):
        tape = Tape(dtype=np.float64)
        return float(listwise_loss(tape.leaf([scores]), labels).data[0, 0])

    def test_uniform_scores_one_positive(self):
        np.testing.assert_allclose(self.loss_value([0.0, 0.0], [1, 0]),
                                   math.log(2.0), rtol=1e-12)

    def test_matching_distributions_give_zero(self):
        # two positives, equal scores: p = g = [0.5, 0.5]
        assert abs(self.loss_value([3.7, 3.7], [1, 1])) < 1e-12
        # one-hot limit: a dominant positive score drives the loss to zero
        assert self.loss_value([30.0, 0.0], [1, 0]) < 1e-9

    def test_nonnegative_and_zero_only_at_match(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            scores = rng.uniform(-2, 2, n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            val = self.loss_value(scores, labels)
            assert val >= 0.0
            p = np.exp(scores) / np.exp(scores).sum()
            g = labels / labels.sum()
            if np.abs(p - g).max() > 1e-6:
                assert val > 0.0

    def test_matches_direct_kl_formula(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            scores = rng.uniform(-3, 3, n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[-1] = 1
            p = np.exp(scores - scores.max())
            p /= p.sum()
            g = labels / labels.sum()
            want = sum(gi * (np.log(gi) - np.log(pi))
                       for gi, pi in zip(g, p) if gi > 0)
            np.testing.assert_allclose(self.loss_value(scores, labels), want,
                                       rtol=1e-10, atol=1e-12)

    def test_gradient_equals_softmax_minus_gold(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            scores = rng.uniform(-3, 3, (1, n))
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            tape = Tape(dtype=np.float64)
            s = tape.leaf(scores)
            tape.backward(listwise_loss(s, labels))
            p = np.exp(scores - scores.max())
            p /= p.sum()
            g = (labels / labels.sum()).reshape(1, -1)
            np.testing.assert_allclose(s.grad, p - g, atol=1e-6)

    @pytest.mark.parametrize("scores,labels,want", [
        pytest.param([200.0, 0.0, 0.0], [1, 0, 0], 0.0, id="right-by-200"),
        pytest.param([0.0, 200.0, 0.0], [1, 0, 0], 200.0, id="wrong-by-200"),
        pytest.param([-200.0, 0.0, 0.0], [1, 0, 0], 200.0 + math.log(2.0), id="low-by-200"),
        pytest.param([200.0, 200.0, 0.0], [1, 1, 0], 0.0, id="two-right-by-200"),
    ])
    def test_finite_at_large_score_gaps(self, scores, labels, want):
        # float32 exp underflows at a gap of 200; the loss and its gradient
        # must still come out finite and exact
        tape = Tape(dtype=np.float32)
        s = tape.leaf([scores])
        loss = listwise_loss(s, labels)
        tape.backward(loss)
        assert np.isfinite(loss.data).all() and np.isfinite(s.grad).all()
        np.testing.assert_allclose(loss.data[0, 0], want, atol=1e-4)
        x = np.asarray([scores], dtype=np.float64)
        p = np.exp(x - x.max())
        p /= p.sum()
        g = np.asarray([labels], dtype=np.float64) / sum(labels)
        np.testing.assert_allclose(s.grad, p - g, atol=1e-6)

    def test_accepts_score_column(self):
        # score_pairs returns an (n, 1) column; loss and gradient are those
        # of the same scores as a (1, n) row
        scores = np.array([0.3, -1.2, 2.0, 0.1])
        labels = [0, 1, 1, 0]
        out = []
        for shape in ((4, 1), (1, 4)):
            tape = Tape(dtype=np.float64)
            s = tape.leaf(scores.reshape(shape))
            loss = listwise_loss(s, labels)
            tape.backward(loss)
            out.append((loss.data[0, 0], s.grad.ravel()))
        assert out[0][0] == out[1][0]
        np.testing.assert_array_equal(out[0][1], out[1][1])

    def test_rejects_all_negative_labels(self):
        tape = Tape(dtype=np.float64)
        with pytest.raises(ValueError, match="no positive"):
            listwise_loss(tape.leaf([[0.0, 0.0]]), [0, 0])

    def test_rejects_shape_mismatch(self):
        tape = Tape(dtype=np.float64)
        with pytest.raises(ValueError, match="does not match"):
            listwise_loss(tape.leaf([[0.0, 0.0]]), [1, 0, 0])


class TestPointwiseLoss:
    @staticmethod
    def loss_value(scores, labels):
        tape = Tape(dtype=np.float64)
        return float(pointwise_loss(tape.leaf([scores]), [labels]).data[0, 0])

    def test_zero_score_positive_label(self):
        np.testing.assert_allclose(self.loss_value([0.0], [1.0]),
                                   math.log(2.0), rtol=1e-12)

    def test_confident_correct_vanishes(self):
        assert self.loss_value([20.0], [1.0]) <= 1e-8
        assert self.loss_value([-20.0], [0.0]) <= 1e-8

    def test_sign_symmetry(self):
        for s in (-5.0, -0.3, 0.7, 4.2):
            np.testing.assert_allclose(self.loss_value([s], [1.0]),
                                       self.loss_value([-s], [0.0]), rtol=1e-12)

    def test_mean_over_batch(self):
        one = self.loss_value([1.3], [1.0])
        other = self.loss_value([-0.4], [0.0])
        both = self.loss_value([1.3, -0.4], [1.0, 0.0])
        np.testing.assert_allclose(both, (one + other) / 2.0, rtol=1e-12)

    def test_accepts_score_column(self):
        # an (n, 1) score column against a flat label list
        tape = Tape(dtype=np.float64)
        col = tape.leaf([[1.3], [-0.4]])
        loss = pointwise_loss(col, [1.0, 0.0])
        tape.backward(loss)
        np.testing.assert_allclose(loss.data[0, 0], self.loss_value([1.3, -0.4], [1.0, 0.0]),
                                   rtol=1e-12)
        p = 1.0 / (1.0 + np.exp(-np.array([[1.3], [-0.4]])))
        np.testing.assert_allclose(col.grad, (p - [[1.0], [0.0]]) / 2, atol=1e-12)

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(-3, 3, (1, 5))
        y = rng.integers(0, 2, (1, 5)).astype(float)
        tape = Tape(dtype=np.float64)
        leaf = tape.leaf(s)
        tape.backward(pointwise_loss(leaf, y))
        p = 1.0 / (1.0 + np.exp(-s))
        np.testing.assert_allclose(leaf.grad, (p - y) / s.size, atol=1e-12)


# ---------------------------------------------------------------------------
# schedule and optimizer


class TestStlr:
    def test_start_is_floor(self):
        assert stlr(0, 100, 2e-4) == pytest.approx(2e-4 / 32.0)

    def test_peak_at_cut(self):
        assert stlr(10, 100, 2e-4) == pytest.approx(2e-4)

    def test_midpoint_of_decay(self):
        # cut = 10, t = 55: p = 1 - 45/90 = 0.5 -> lr = max_lr * 16.5/32
        assert stlr(55, 100, 1.0) == pytest.approx(16.5 / 32.0)

    def test_monotone_up_then_down(self):
        lrs = [stlr(t, 200, 1.0) for t in range(200)]
        cut = 20
        assert all(a < b for a, b in zip(lrs[:cut], lrs[1:cut + 1]))
        assert all(a >= b for a, b in zip(lrs[cut:], lrs[cut + 1:]))

    def test_bounded(self):
        for total in (1, 2, 5, 6, 37, 100):
            for t in range(total):
                lr = stlr(t, total, 1.0)
                assert 0.0 < lr <= 1.0 + 1e-12

    def test_tiny_runs_stay_defined(self):
        # warm-up clamps to one step even when floor(T * cut_frac) = 0
        assert stlr(0, 2, 1.0) == pytest.approx(1.0 / 32.0)
        assert stlr(1, 2, 1.0) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="total"):
            stlr(0, 0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            stlr(7, 7, 1.0)
        with pytest.raises(ValueError, match="outside"):
            stlr(-1, 7, 1.0)


def worker_fails(update):
    """An ``Adam._update`` that raises on the worker thread; the calling thread
    waits until the worker has taken a block, so the worker's error is the one
    that surfaces."""
    started = threading.Event()

    def failing(self, w, lo, g, coef, thread):
        if thread == 1:
            started.set()
            raise RuntimeError("worker failed")
        assert started.wait(timeout=30)
        update(self, w, lo, g, coef, thread)

    return failing


def whole(g):
    """A backward that hands over all of ``g`` as the gradient from offset 0."""
    return lambda final: final(0, g)


def reference_step(w, m, v, g, lr, t):
    """One step of the documented expression, op for op, in place: the textbook
    moments, then w -= a_t (m / (sqrt(v) + e_t)) with Python-float a_t and e_t."""
    m += (1.0 - 0.9) * (g - m)
    v += (1.0 - 0.999) * (g * g - v)
    root = math.sqrt(1.0 - 0.999 ** t)
    w -= (lr * root / (1.0 - 0.9 ** t)) * (m / (np.sqrt(v) + 1e-8 * root))


def textbook_step(w, m, v, g, lr, t):
    """Kingma & Ba's update with bias-corrected moments, in place."""
    m += (1.0 - 0.9) * (g - m)
    v += (1.0 - 0.999) * (g * g - v)
    w -= lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        x = np.array([5.0])
        adam = Adam(x)
        adam.step(x, 0.01, whole(np.array([0.37])))
        np.testing.assert_allclose(x, [5.0 - 0.01], atol=1e-6)

    def test_minimizes_quadratic(self):
        x = np.array([8.0])
        adam = Adam(x)
        for _ in range(400):
            adam.step(x, 0.05, whole(2.0 * (x - 3.0)))
        np.testing.assert_allclose(x, [3.0], atol=1e-2)

    def test_state_is_per_parameter(self):
        # one slot per element: a zero gradient leaves its weights alone
        x = np.concatenate([np.zeros(4), np.ones(3)])
        adam = Adam(x)
        adam.step(x, 0.1, whole(np.concatenate([np.ones(4), np.zeros(3)])))
        assert (x[:4] != 0).all()
        np.testing.assert_array_equal(x[4:], np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_matches_reference_expression_bitwise(self, dtype):
        # 2.5 blocks: two full blocks and a half block share the scratch buffer
        rng = np.random.default_rng(9)
        n = BLOCK * 5 // 2
        w = rng.standard_normal(n).astype(dtype)
        ref, ref_m, ref_v = w.copy(), np.zeros_like(w), np.zeros_like(w)
        adam = Adam(w)
        for t in range(1, 6):
            g = rng.standard_normal(n).astype(dtype)
            lr = 1e-3 * t
            adam.step(w, lr, whole(g))
            reference_step(ref, ref_m, ref_v, g, lr, t)
            assert w.dtype == dtype
            np.testing.assert_array_equal(w, ref)
            np.testing.assert_array_equal(adam.m, ref_m)
            np.testing.assert_array_equal(adam.v, ref_v)

    def test_float64_steps_track_the_textbook_update(self):
        # folding the bias corrections into the step size and epsilon is the
        # same update: over 120 float64 steps, with gradients from 1e-9 to 1e3
        # (so that epsilon matters for some), m and v stay the textbook bits
        # and w stays within rtol 1e-12 of the textbook weights (|w| > 0.8)
        rng = np.random.default_rng(12)
        n = BLOCK + 1000
        w = rng.uniform(1, 2, n) * rng.choice([-1.0, 1.0], n)
        ref, ref_m, ref_v = w.copy(), np.zeros_like(w), np.zeros_like(w)
        scale = rng.choice([1e-9, 1e-6, 1.0, 1e3], n)
        with Adam(w) as adam:
            for t in range(1, 121):
                g = rng.standard_normal(n) * scale
                adam.step(w, 1e-3, whole(g))
                textbook_step(ref, ref_m, ref_v, g, 1e-3, t)
        np.testing.assert_array_equal(adam.m, ref_m)
        np.testing.assert_array_equal(adam.v, ref_v)
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0)

    def test_float32_extreme_gradients_stay_finite_near_textbook(self):
        # every sequence of three gradients from 0, +-1e-20 and +-1e15, so
        # some elements see an extreme value after a zero history (1e15
        # squares to 1e30, near float32's limit; 1e-20 squares to a
        # subnormal); every weight stays finite, within 1e-6 (about 16
        # float32 ulps at |w| = 1, where one step moves at most about 3e-3)
        # of the float64 textbook update, and an element whose gradients are
        # all 0 keeps its weight exactly
        values = [0.0, 1e-20, -1e-20, 1e15, -1e15]
        grads = np.array(list(itertools.product(values, repeat=3)), dtype=np.float32).T
        w = np.ones(grads.shape[1], dtype=np.float32)
        ref, ref_m, ref_v = (np.asarray(a, dtype=np.float64) for a in (w, 0 * w, 0 * w))
        with Adam(w) as adam:
            for t, g in enumerate(grads, start=1):
                adam.step(w, 1e-3, whole(g))
                textbook_step(ref, ref_m, ref_v, g.astype(np.float64), 1e-3, t)
                assert np.isfinite(w).all() and np.isfinite(adam.m).all()
                assert np.isfinite(adam.v).all()
                np.testing.assert_allclose(w, ref, rtol=0, atol=1e-6)
        assert w[0] == 1.0 and (grads[:, 0] == 0).all()
        assert (w != 1.0).sum() > grads.shape[1] // 2  # the extreme gradients moved weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_threaded_step_over_shuffled_final_ranges_matches_reference_bitwise(self, dtype):
        # backward hands over the gradients of 2.5 blocks' ranges in a
        # shuffled order, writing each range's gradient just before; the
        # worker and the calling thread then update disjoint blocks, and the
        # result is still bit for bit the whole-vector expression
        rng = np.random.default_rng(4)
        n = BLOCK * 5 // 2
        cuts = [0, 1, 1000, BLOCK + 5, 2 * BLOCK + 17, n]  # one range spans more than a block
        ranges = list(zip(cuts[:-1], cuts[1:]))
        w = rng.standard_normal(n).astype(dtype)
        g = np.empty_like(w)
        ref, ref_m, ref_v = w.copy(), np.zeros_like(w), np.zeros_like(w)
        with Adam(w) as adam:
            for t in range(1, 6):
                grad = rng.standard_normal(n).astype(dtype)
                g.fill(np.nan)  # a block read before its range is final goes NaN
                order = rng.permutation(len(ranges))

                def backward(final):
                    for i in order:
                        lo, hi = ranges[i]
                        g[lo:hi] = grad[lo:hi]
                        final(lo, g[lo:hi])

                lr = 1e-3 * t
                adam.step(w, lr, backward)
                reference_step(ref, ref_m, ref_v, grad, lr, t)
                np.testing.assert_array_equal(w, ref)
                np.testing.assert_array_equal(adam.m, ref_m)
                np.testing.assert_array_equal(adam.v, ref_v)

    def test_concurrent_threaded_steps_stay_bitwise_under_a_short_switch_interval(self):
        # three callers, each with its own Adam and worker (six threads on any
        # core count), hand over many small ranges while the interpreter
        # switches threads as often as it can; a block run twice, skipped or
        # read before its range is final changes the bits
        def run(seed, out):
            rng = np.random.default_rng(seed)
            n = BLOCK * 5 // 2
            cuts = np.unique(np.concatenate([[0, n], rng.integers(1, n, 60)]))
            ranges = list(zip(cuts[:-1], cuts[1:]))
            w = rng.standard_normal(n).astype(np.float32)
            g = np.empty_like(w)
            ref, ref_m, ref_v = w.copy(), np.zeros_like(w), np.zeros_like(w)
            with Adam(w) as adam:
                for t in range(1, 4):
                    grad = rng.standard_normal(n).astype(np.float32)
                    g.fill(np.nan)

                    def backward(final):
                        for i in rng.permutation(len(ranges)):
                            lo, hi = ranges[i]
                            g[lo:hi] = grad[lo:hi]
                            final(lo, g[lo:hi])

                    adam.step(w, 1e-3, backward)
                    reference_step(ref, ref_m, ref_v, grad, 1e-3, t)
            out[seed] = bool((w == ref).all() and (adam.m == ref_m).all() and (adam.v == ref_v).all())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = {}
            callers = [threading.Thread(target=run, args=(seed, out)) for seed in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert out == {0: True, 1: True, 2: True}

    def test_worker_error_surfaces_from_step(self, monkeypatch):
        monkeypatch.setattr(Adam, "_update", worker_fails(Adam._update))
        w = np.zeros(BLOCK * 3)
        with Adam(w) as adam:
            with pytest.raises(RuntimeError, match="worker failed"):
                adam.step(w, 0.1, whole(np.ones_like(w)))
        assert (w != 0).any()  # the calling thread wrote the blocks it took

    def test_backward_error_leaves_a_partial_step_and_a_free_worker(self, monkeypatch):
        # backward hands over one block, which the worker takes and holds
        # until the calling thread has emptied the queue, hands over another
        # and raises: the second block never starts on either thread, the
        # step stays partial, the worker is free again and the next step
        # updates everything
        w = np.zeros(BLOCK * 3)
        g = np.ones_like(w)
        taken, drained = threading.Event(), threading.Event()
        update, queued = Adam._update, training._queued

        def held(self, w, lo, g, coef, thread):
            if thread == 1:
                taken.set()
                assert drained.wait(timeout=30)
            update(self, w, lo, g, coef, thread)

        def draining(blocks):
            yield from queued(blocks)
            drained.set()

        monkeypatch.setattr(Adam, "_update", held)
        monkeypatch.setattr(training, "_queued", draining)
        with Adam(w) as adam:
            def backward(final):
                final(0, g[:BLOCK])
                assert taken.wait(timeout=30)
                final(BLOCK, g[BLOCK:2 * BLOCK])
                raise RuntimeError("backward failed")

            with pytest.raises(RuntimeError, match="backward failed"):
                adam.step(w, 0.1, backward)
            assert (w[:BLOCK] != 0).all() and (w[BLOCK:] == 0).all()
            adam.step(w, 0.1, whole(g))
        assert adam.t == 2 and (w[BLOCK:] != 0).all()

    def test_worker_error_keeps_the_backward_error_as_its_context(self, monkeypatch):
        started = threading.Event()

        def failing(self, w, lo, g, coef, thread):
            started.set()
            raise RuntimeError("worker failed")

        def backward(final):
            final(0, np.ones(BLOCK))
            assert started.wait(timeout=30)
            raise KeyError("backward failed")

        monkeypatch.setattr(Adam, "_update", failing)
        w = np.zeros(BLOCK)
        with Adam(w) as adam:
            with pytest.raises(RuntimeError, match="worker failed") as info:
                adam.step(w, 0.1, backward)
        assert isinstance(info.value.__context__, KeyError)

    def test_worker_blocks_run_under_the_callers_error_state(self):
        # numpy's error state is per thread; a 1e30 gradient squares past
        # float32 in the worker's block, which must stay silent under the
        # caller's errstate, as it does on the calling thread (warnings are
        # errors in this suite, so a warning would surface from step)
        w = np.zeros(BLOCK * 2, dtype=np.float32)
        g = np.full_like(w, 1e30)
        with Adam(w) as adam:
            def backward(final):
                final(0, g[:BLOCK])
                deadline = time.monotonic() + 30
                while adam.m[0] == 0 and time.monotonic() < deadline:  # the worker took it
                    time.sleep(1e-3)
                assert adam.m[0] != 0
                final(BLOCK, g[BLOCK:])

            with np.errstate(all="ignore"):
                adam.step(w, 0.1, backward)
        assert np.isinf(adam.v).all() and np.isfinite(w).all()


class TestTrainConfig:
    def test_defaults(self):
        tc = TrainConfig()
        assert tc.loss == "listwise"
        assert tc.epochs == 3
        assert tc.batch_size == 64
        assert tc.resolved_max_lr == 2e-4
        assert TrainConfig(loss="pointwise").resolved_max_lr == 2e-3

    def test_explicit_max_lr_wins(self):
        assert TrainConfig(max_lr=0.5).resolved_max_lr == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="max_lr"):
            TrainConfig(max_lr=-1.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        for max_lr in (float("nan"), float("inf")):  # nan <= 0 is False
            with pytest.raises(ValueError, match=f"max_lr must be finite and > 0, got {max_lr}"):
                TrainConfig(max_lr=max_lr)


# ---------------------------------------------------------------------------
# the fit loop


class TestFit:
    def test_listwise_step_accounting(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        two = toy_groups[:2]
        report = fit(two, toy_table, params, config, TrainConfig(epochs=3))
        assert report.steps == 6
        assert len(report.loss_curve) == 6
        assert len(report.epoch_mean_loss) == 3
        assert report.epochs == 3
        assert report.parameter_count == params.count()
        assert report.wall_seconds >= 0.0

    def test_table_of_another_width_rejected_up_front(self, toy_groups, monkeypatch):
        config = CosinetConfig(embedding_dim=16, conv_hidden=4, kernel_width=2)
        words = {t for g in toy_groups for c in g.candidates for t in c.tokens}
        narrow = make_table(words, dim=8)
        monkeypatch.setattr(training, "prepare_pair", None)  # rejected before any pair is read
        with pytest.raises(ValueError, match="fit: embedding table is 8 wide, "
                                             "config embedding_dim is 16"):
            fit(toy_groups, narrow, CosinetParams(config), config, TrainConfig(epochs=1))

    def test_pointwise_step_accounting(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        n_pairs = sum(len(g.candidates) for g in toy_groups)  # 9
        tc = TrainConfig(loss="pointwise", epochs=2, batch_size=4)
        report = fit(toy_groups, toy_table, params, config, tc)
        assert report.steps == 2 * math.ceil(n_pairs / 4)

    @pytest.mark.parametrize("loss", ["listwise", "pointwise"])
    def test_each_pair_is_prepared_once_per_call(self, toy_groups, toy_table, monkeypatch, loss):
        # a call prepares every (group, candidate) once and reuses it in all
        # of its epochs; the next call prepares them again
        calls = []
        prepare = training.prepare_pair

        def counted(q_tokens, c_tokens, table):
            calls.append((tuple(q_tokens), tuple(c_tokens)))
            return prepare(q_tokens, c_tokens, table)

        monkeypatch.setattr(training, "prepare_pair", counted)
        config = small_config()
        params = CosinetParams(config)
        want = [(g.question_tokens, c.tokens) for g in toy_groups for c in g.candidates]
        for _ in range(2):
            calls.clear()
            fit(toy_groups, toy_table, params, config,
                TrainConfig(loss=loss, epochs=3, batch_size=4))
            assert calls == want

    def test_losses_are_finite_and_logged(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        report = fit(toy_groups, toy_table, params, config, TrainConfig(epochs=2))
        assert np.isfinite(report.loss_curve).all()
        np.testing.assert_allclose(
            report.epoch_mean_loss,
            [np.mean(report.loss_curve[:3]), np.mean(report.loss_curve[3:])])

    def test_single_group_learnability(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        report = fit(toy_groups[:1], toy_table, params, config,
                     TrainConfig(epochs=50, max_lr=5e-3))
        assert report.steps == 50
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_embeddings_untouched(self, toy_groups, toy_table):
        before = table_digest(toy_table)
        config = small_config("birnn")
        params = CosinetParams(config)
        fit(toy_groups, toy_table, params, config, TrainConfig(epochs=2))
        assert table_digest(toy_table) == before

    def test_fixed_seed_bit_reproducible(self, toy_groups, toy_table):
        def run():
            config = small_config("birnn", seed=5)
            params = CosinetParams(config)
            report = fit(toy_groups, toy_table, params, config,
                         TrainConfig(epochs=3, seed=11))
            return report.loss_curve, params

        curve1, params1 = run()
        curve2, params2 = run()
        assert curve1 == curve2
        for name in params1.arrays:
            np.testing.assert_array_equal(params1.arrays[name],
                                          params2.arrays[name])

    def test_fit_on_a_deep_copy_moves_the_copy_only(self, toy_groups, toy_table):
        config = small_config("birnn")
        params = CosinetParams(config)
        before = params.flat.copy()
        clone = copy.deepcopy(params)
        for arr in clone.arrays.values():
            assert np.shares_memory(arr, clone.flat)
            assert not np.shares_memory(arr, params.flat)
        fit(toy_groups, toy_table, clone, config, TrainConfig(epochs=1))
        np.testing.assert_array_equal(params.flat, before)
        assert (clone.flat != before).any()
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in clone.arrays.values()]), clone.flat)

    def test_non_finite_loss_stops_before_its_update(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        params.flat[:] = np.nan
        with pytest.raises(ValueError, match=r"non-finite loss nan at step 0 \(batch of question q"):
            fit(toy_groups, toy_table, params, config, TrainConfig(epochs=1))
        assert np.isnan(params.flat).all()

    def test_non_finite_loss_at_a_later_step_leaves_the_weights_it_saw(self, toy_groups, toy_table,
                                                                        monkeypatch):
        # the forward of step 2 reads the weights after step 1's update; the
        # guard stops step 2 before its backward, so they stay as they were
        config = small_config("birnn")
        params = CosinetParams(config)
        seen = []

        def poisoned(scores, labels):
            loss = listwise_loss(scores, labels)
            seen.append(params.flat.copy())
            if len(seen) == 3:
                loss.data[...] = np.inf
            return loss

        monkeypatch.setattr(training, "listwise_loss", poisoned)
        with pytest.raises(ValueError, match="non-finite loss inf at step 2"):
            fit(toy_groups, toy_table, params, config, TrainConfig(epochs=1))
        np.testing.assert_array_equal(params.flat, seen[2])
        assert (seen[2] != seen[1]).any()

    def test_update_in_backward_matches_update_after_it_bitwise(self, toy_groups, toy_table,
                                                               monkeypatch):
        # the gradients fit hands over in backward tile params.flat exactly,
        # and updating each as soon as it is final gives the bits of updating
        # them all once backward has ended
        config = small_config("bilstm")
        early = CosinetParams(config)
        late = copy.deepcopy(early)
        early_report = fit(toy_groups, toy_table, early, config, TrainConfig(epochs=2))
        step = Adam.step

        def after_backward(self, w, lr, backward):
            handed = []
            backward(lambda lo, g: handed.append((lo, g)))
            handed.sort(key=lambda h: h[0])
            ends = [lo + g.size for lo, g in handed]
            assert [lo for lo, _ in handed] == [0] + ends[:-1] and ends[-1] == w.size
            assert all(g.ndim == 1 and g.dtype == w.dtype for _, g in handed)
            step(self, w, lr, lambda final: [final(lo, g) for lo, g in handed])

        monkeypatch.setattr(Adam, "step", after_backward)
        late_report = fit(toy_groups, toy_table, late, config, TrainConfig(epochs=2))
        np.testing.assert_array_equal(early.flat, late.flat)
        assert early_report.loss_curve == late_report.loss_curve

    @pytest.mark.parametrize("outcome", ["returns", "raises"])
    def test_fit_joins_its_worker_thread(self, toy_groups, toy_table, monkeypatch, outcome):
        calls = []

        def listwise(scores, labels):
            loss = listwise_loss(scores, labels)
            calls.append(1)
            if outcome == "raises" and len(calls) == 3:  # after two steps used the worker
                loss.data[...] = np.nan
            return loss

        monkeypatch.setattr(training, "listwise_loss", listwise)
        config = small_config("bilstm")
        before = threading.active_count()
        if outcome == "raises":
            with pytest.raises(ValueError, match="non-finite"):
                fit(toy_groups, toy_table, CosinetParams(config), config, TrainConfig(epochs=1))
        else:
            fit(toy_groups, toy_table, CosinetParams(config), config, TrainConfig(epochs=1))
        assert threading.active_count() == before

    def test_worker_error_surfaces_from_fit(self, toy_groups, toy_table, monkeypatch):
        monkeypatch.setattr(Adam, "_update", worker_fails(Adam._update))
        config = small_config()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            fit(toy_groups, toy_table, CosinetParams(config), config, TrainConfig(epochs=1))
        assert threading.active_count() == before

    def test_shuffle_seed_changes_visit_order(self, toy_groups, toy_table):
        def curve(seed):
            config = small_config(seed=0)
            params = CosinetParams(config)
            return fit(toy_groups, toy_table, params, config,
                       TrainConfig(epochs=2, seed=seed)).loss_curve

        assert curve(1) != curve(2)

    def test_params_actually_move(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        before = {n: a.copy() for n, a in params.arrays.items()}
        fit(toy_groups, toy_table, params, config, TrainConfig(epochs=1))
        moved = any((params.arrays[n] != before[n]).any() for n in params.arrays)
        assert moved

    def test_scores_change_after_training(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        g = toy_groups[0]
        before = score_group(g, toy_table, params, config)
        fit(toy_groups, toy_table, params, config, TrainConfig(epochs=2))
        after = score_group(g, toy_table, params, config)
        assert np.abs(after - before).max() > 0.0

    def test_dev_map_per_epoch(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        report = fit(toy_groups[:2], toy_table, params, config,
                     TrainConfig(epochs=3), dev_groups=toy_groups[2:])
        assert len(report.dev_map) == 3
        assert all(0.0 <= m <= 100.0 for m in report.dev_map)
        d = report.to_dict()
        assert "dev_map" in d and len(d["dev_map"]) == 3

    def test_contextualized_listwise_trains(self, toy_groups, toy_table):
        for kind in ("rnn", "lstm", "bilstm"):
            config = small_config(kind)
            params = CosinetParams(config)
            report = fit(toy_groups, toy_table, params, config,
                         TrainConfig(epochs=1))
            assert report.steps == len(toy_groups)
            assert np.isfinite(report.loss_curve).all()

    def test_pointwise_rejects_contextualizer(self, toy_groups, toy_table):
        config = small_config("birnn")
        params = CosinetParams(config)
        with pytest.raises(ValueError, match="context"):
            fit(toy_groups, toy_table, params, config,
                TrainConfig(loss="pointwise"))

    def test_empty_dataset_rejected(self, toy_table):
        config = small_config()
        params = CosinetParams(config)
        with pytest.raises(ValueError, match="empty"):
            fit([], toy_table, params, config, TrainConfig())

    def test_unanswered_group_rejected(self, toy_table):
        bad = make_group("qx", "why ?", [("because .", 0)])
        config = small_config()
        params = CosinetParams(config)
        with pytest.raises(ValueError, match="no positive"):
            fit([bad], toy_table, params, config, TrainConfig())

    def test_report_to_dict_shape(self, toy_groups, toy_table):
        config = small_config()
        params = CosinetParams(config)
        report = fit(toy_groups, toy_table, params, config, TrainConfig(epochs=1))
        d = report.to_dict()
        assert set(d) == {"wall_seconds", "steps", "epochs", "parameter_count",
                          "epoch_mean_loss"}
        assert d["parameter_count"] == params.count()
