"""Optimization: listwise KL / pointwise BCE objectives, Adam, STLR schedule.

Listwise training takes one optimizer step per question group (softmax over
the group's scores against the normalized gold labels); pointwise training
shuffles individual question/candidate pairs into fixed-size batches under
mean binary cross-entropy. Both score every batch through ``score_pairs``;
either way the embedding table stays untouched.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import metrics, ndgrad
from .model import (CosinetConfig, CosinetParams, check_setting_types, check_table_width,
                    make_scorer, prepare_pair, score_pairs)
from .ndgrad import Tape

LOSS_KINDS = ("pointwise", "listwise")
DEFAULT_MAX_LR = {"pointwise": 2e-3, "listwise": 2e-4}
CUT_FRAC, RATIO = 0.1, 32.0  # STLR of ULMFiT (Howard & Ruder 2018): warm-up share, max/min lr
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's published defaults


@dataclass
class TrainConfig:
    loss: str = "listwise"
    epochs: int = 3
    max_lr: float | None = None  # None: DEFAULT_MAX_LR of the loss
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_setting_types(self)
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSS_KINDS}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_lr is not None and not 0 < self.max_lr < math.inf:
            raise ValueError(f"max_lr must be finite and > 0, got {self.max_lr}")

    @property
    def resolved_max_lr(self) -> float:
        return self.max_lr if self.max_lr is not None else DEFAULT_MAX_LR[self.loss]


def stlr(step: int, total: int, max_lr: float) -> float:
    """Slanted triangular learning rate at 0 <= step < total.

    Linear warm-up to max_lr over the first CUT_FRAC of the run, then a
    long linear decay down to max_lr/RATIO. The warm-up length is clamped
    to one step so very short runs stay well-defined.
    """
    if total < 1:
        raise ValueError(f"stlr: total steps must be >= 1, got {total}")
    if not 0 <= step < total:
        raise ValueError(f"stlr: step {step} outside [0, {total})")
    cut = max(1, math.floor(total * CUT_FRAC))
    if step < cut:
        p = step / cut
    else:
        p = 1.0 - (step - cut) / (cut * (1.0 / CUT_FRAC - 1.0))
        p = min(1.0, max(0.0, p))
    return max_lr * (1.0 + p * (RATIO - 1.0)) / RATIO


def listwise_loss(scores: ndgrad.Tensor, labels) -> ndgrad.Tensor:
    """KL divergence from normalized gold labels to softmax(scores).

    ``scores`` holds one score per label (``score_pairs`` gives an (n, 1)
    column), ``labels`` binary with at least one positive. Loss =
    sum_i g_i (ln g_i - ln p_i) with 0 ln 0 = 0; always >= 0 and 0 exactly
    when the distributions match.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.sum() < 1:
        raise ValueError("listwise_loss: group has no positive label")
    if scores.data.size != y.size:
        raise ValueError(f"listwise_loss: scores shape {scores.data.shape} "
                         f"does not match {y.size} labels")
    return ndgrad.kl_logits(scores, y / y.sum())


def pointwise_loss(scores: ndgrad.Tensor, labels) -> ndgrad.Tensor:
    """Mean binary cross-entropy of sigmoid(scores) against binary labels."""
    return ndgrad.bce_logits_mean(scores, labels)


BLOCK = 1 << 16  # elements per Adam block: its six operand blocks stay in cache


class Adam:
    """Adam with bias correction over one flat weight vector ``w``, on two threads.

    ``step`` updates ``w`` and the flat moments ``m``/``v`` in place, one
    ``BLOCK`` at a time, in the elementwise operation order of
    m += (1-BETA1)(g-m), v += (1-BETA2)(g*g-v), w -= lr (m/c1) / (sqrt(v/c2) + EPS),
    so it is bit for bit that expression whichever thread runs a block, and
    under the caller's ``np.errstate`` either way. The calling thread and
    one worker thread each have their own pair of block-sized scratch
    buffers. Use it in a ``with`` block, whose exit joins the worker.
    """

    def __init__(self, w: np.ndarray):
        self.t = 0
        self.m, self.v = np.zeros_like(w), np.zeros_like(w)
        self._scratch = np.empty((2, 2, min(BLOCK, w.size)), dtype=w.dtype)  # caller, worker
        self._worker = ThreadPoolExecutor(1)  # its thread starts at the first step

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._worker.shutdown()

    def step(self, w: np.ndarray, g: np.ndarray, lr: float, backward) -> None:
        """One update of all of ``w``; returns once every block is written.

        ``backward(final)`` fills ``g`` and calls ``final(lo, hi)`` as soon
        as ``g[lo:hi]`` is final and nothing reads ``w[lo:hi]`` any more;
        those blocks join the worker's queue while backward goes on, and this
        thread then takes every block whose future it can still cancel. If
        ``backward`` raises, no further block starts, but the blocks
        already written stay written and ``t`` stays advanced: the step is
        left partial. A worker error is raised from ``step``, with any error
        this thread raised first as its context.
        """
        self.t += 1
        coef = (lr, 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t)
        blocks = []  # (lo, hi, the worker's future) of each block, in hand-over order
        err = np.geterr()  # numpy's error state is per thread: the worker takes the caller's

        def on_worker(*args):
            with np.errstate(**err):
                self._update(*args)

        def final(lo, hi):
            for a in range(lo, hi, BLOCK):
                b = min(a + BLOCK, hi)
                blocks.append((a, b, self._worker.submit(on_worker, w, g, a, b, coef, 1)))

        try:
            backward(final)
            for lo, hi, job in blocks:
                if job.cancel():  # the worker has not started it
                    self._update(w, g, lo, hi, coef, 0)
        except BaseException:
            for *_, job in blocks:  # start no further block
                job.cancel()
            raise
        finally:
            started = [job for *_, job in blocks if not job.cancelled()]
            wait(started)  # every block the worker started is written
            for job in started:
                job.result()  # raises the worker's error, if any

    def _update(self, w, g, lo, hi, coef, thread) -> None:
        lr, b1c, b2c = coef
        wb, gb, m, v = (a[lo:hi] for a in (w, g, self.m, self.v))
        s, u = self._scratch[thread, :, :hi - lo]
        np.subtract(gb, m, out=s)
        s *= 1.0 - BETA1
        m += s
        np.multiply(gb, gb, out=s)
        s -= v
        s *= 1.0 - BETA2
        v += s
        np.divide(v, b2c, out=s)
        np.sqrt(s, out=s)
        s += EPS
        np.divide(m, b1c, out=u)
        u *= lr
        u /= s
        wb -= u


@dataclass
class TrainingReport:
    wall_seconds: float
    steps: int
    epochs: int
    parameter_count: int
    loss_curve: list = field(default_factory=list)        # one value per optimizer step
    epoch_mean_loss: list = field(default_factory=list)
    dev_map: list = field(default_factory=list)           # per epoch, when dev data given

    def to_dict(self) -> dict:
        d = {
            "wall_seconds": round(self.wall_seconds, 4),
            "steps": self.steps,
            "epochs": self.epochs,
            "parameter_count": self.parameter_count,
            "epoch_mean_loss": [round(x, 6) for x in self.epoch_mean_loss],
        }
        if self.dev_map:
            d["dev_map"] = [round(x, 2) for x in self.dev_map]
        return d


def _check_groups(groups):
    groups = list(groups)
    if not groups:
        raise ValueError("fit: empty dataset")
    for g in groups:
        if sum(g.labels) < 1:
            raise ValueError(f"fit: group {g.question_id} has no positive label "
                             "(filter unanswered questions at ingestion)")
    return groups


def fit(groups, table, params: CosinetParams, config: CosinetConfig,
        train_config: TrainConfig, dev_groups=None) -> TrainingReport:
    """Train ``params`` in place; returns the report with timing and losses.

    Wall-clock covers the optimization loop only (per-epoch dev evaluation,
    when requested, is timed separately and excluded).
    """
    groups = _check_groups(groups)
    check_table_width(table, config, "fit")
    if train_config.loss == "pointwise" and config.context != "none":
        raise ValueError("pointwise training scores pairs independently; "
                         "it cannot drive a rank contextualizer (use context=none)")
    rng = np.random.default_rng(train_config.seed)
    grad = np.empty_like(params.flat)  # backward writes each leaf's gradient into its view

    def span(leaf):
        """The range of ``params.flat`` whose gradient is ``leaf.grad``, a view of ``grad``."""
        lo = (leaf.grad.ctypes.data - grad.ctypes.data) // grad.itemsize
        return lo, lo + leaf.grad.size

    max_lr = train_config.resolved_max_lr
    listwise = train_config.loss == "listwise"
    objective = listwise_loss if listwise else pointwise_loss
    size = train_config.batch_size
    pairs = [(gi, ci) for gi, g in enumerate(groups) for ci in range(len(g.candidates))]
    total_steps = train_config.epochs * (len(groups) if listwise else math.ceil(len(pairs) / size))

    def epoch_batches():
        """Lists of (group, candidate) indices: whole groups, or shuffled pair batches."""
        if listwise:
            return [[(gi, ci) for ci in range(len(groups[gi].candidates))]
                    for gi in rng.permutation(len(groups))]
        order = rng.permutation(len(pairs))
        return [[pairs[i] for i in order[lo:lo + size]] for lo in range(0, len(order), size)]

    report = TrainingReport(wall_seconds=0.0, steps=0, epochs=train_config.epochs,
                            parameter_count=params.count())
    dev_seconds = 0.0
    step = 0
    t0 = time.perf_counter()
    # every pair once per call, reused by all of its epochs
    inputs = [[prepare_pair(g.question_tokens, c.tokens, table) for c in g.candidates]
              for g in groups]
    with Adam(params.flat) as adam:
        for _ in range(train_config.epochs):
            epoch_losses = []
            for batch in epoch_batches():
                tape = Tape(dtype=params.dtype)
                leaves = params.as_leaves(tape, grad)
                scores = score_pairs([inputs[gi][ci] for gi, ci in batch], table, config, leaves)
                loss = objective(scores, [groups[gi].candidates[ci].label for gi, ci in batch])
                value = float(loss.data[0, 0])
                if not math.isfinite(value):
                    raise ValueError(f"fit: non-finite loss {value} at step {step} "
                                     f"(batch of question {groups[batch[0][0]].question_id})")

                def backward(final):
                    # each leaf's update starts on the worker once its gradient is final
                    tape.backward(loss, lambda leaf: final(*span(leaf)))

                adam.step(params.flat, grad, stlr(step, total_steps, max_lr), backward)
                step += 1
                epoch_losses.append(value)
            report.loss_curve.extend(epoch_losses)
            report.epoch_mean_loss.append(float(np.mean(epoch_losses)))
            if dev_groups:
                d0 = time.perf_counter()
                dev = metrics.evaluate(make_scorer(params, config, table), dev_groups)
                report.dev_map.append(dev.map)
                dev_seconds += time.perf_counter() - d0
    report.wall_seconds = time.perf_counter() - t0 - dev_seconds
    report.steps = step
    return report
