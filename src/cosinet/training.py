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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue

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


BLOCK = 1 << 16  # elements per Adam block: its five operand blocks stay in cache


class Adam:
    """Adam (Kingma & Ba, ICLR 2015) over one flat weight vector ``w``, on two threads.

    ``step`` updates ``w`` and the flat moments ``m``/``v`` in place, one ``BLOCK`` at a
    time, in the elementwise operation order of m += (1-BETA1)(g-m), v += (1-BETA2)(g*g-v),
    w -= a_t (m / (sqrt(v) + e_t)). With a_t = lr sqrt(1-BETA2^t) / (1-BETA1^t) and e_t =
    EPS sqrt(1-BETA2^t) that is the bias-corrected update, in the paper's cheaper order (end
    of its section 2): 12 passes over a block. A block gets those bits whichever thread runs
    it, under the caller's ``np.errstate`` either way. The calling thread and one worker
    each have a block-sized scratch buffer. Use it in a ``with`` block, whose exit joins it.
    """

    def __init__(self, w: np.ndarray):
        self.t = 0
        self.m, self.v = np.zeros_like(w), np.zeros_like(w)
        self._scratch = np.empty((2, min(BLOCK, w.size)), dtype=w.dtype)  # caller, worker
        self._worker = ThreadPoolExecutor(1)  # its thread starts at the first step

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._worker.shutdown()

    def step(self, w: np.ndarray, lr: float, backward) -> None:
        """One update of all of ``w``; returns once every block is written.

        ``backward(final)`` calls ``final(lo, g)`` once the 1-d array ``g`` is the final
        gradient of ``w[lo:lo + g.size]`` and nothing reads that range of ``w`` any more.
        Its blocks go on one queue that the worker reads while backward goes on; this thread
        then takes every block still queued. ``g`` is only read. If ``backward`` raises, no
        further block starts, but the blocks already written stay written and ``t`` stays
        advanced: the step is left partial. A worker error is raised from ``step``, with any
        error this thread raised first as its context.
        """
        self.t += 1
        root = math.sqrt(1.0 - BETA2 ** self.t)
        coef = float(lr) * root / (1.0 - BETA1 ** self.t), EPS * root  # Python floats: see _update
        blocks = SimpleQueue()  # (lo, gradient) of each block not yet started; None ends
        worker = self._worker.submit(self._work, blocks, w, coef, np.geterr())

        def final(lo, g):
            for a in range(0, g.size, BLOCK):
                blocks.put((lo + a, g[a:a + BLOCK]))

        try:
            backward(final)
            for lo, g in _queued(blocks):
                self._update(w, lo, g, coef, 0)
        except BaseException:
            for _ in _queued(blocks):  # start no further block
                pass
            raise
        finally:
            blocks.put(None)
            worker.result()  # returns after the worker's last block; raises its error, if any

    def _work(self, blocks, w, coef, err) -> None:
        """The worker's part of a step, under the caller's numpy error state: blocks until None."""
        with np.errstate(**err):
            for lo, g in iter(blocks.get, None):
                self._update(w, lo, g, coef, 1)

    def _update(self, w, lo, g, coef, thread) -> None:
        step_size, eps = coef  # Python floats, which numpy applies to float32 blocks in float32
        wb, m, v = (a[lo:lo + g.size] for a in (w, self.m, self.v))
        s = self._scratch[thread, :g.size]
        np.subtract(g, m, out=s)
        s *= 1.0 - BETA1
        m += s
        np.multiply(g, g, out=s)
        s -= v
        s *= 1.0 - BETA2
        v += s
        np.sqrt(v, out=s)
        s += eps
        np.divide(m, s, out=s)
        s *= step_size
        wb -= s


def _queued(blocks: SimpleQueue):
    """Take each item still in ``blocks`` without waiting."""
    while True:
        try:
            yield blocks.get_nowait()
        except Empty:
            return


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
    when requested, is timed separately and excluded). In each step's
    backward, a parameter's gradient goes to ``Adam.step`` as soon as it is
    final, with its offset in ``params.flat``, from ``params.offsets``.
    """
    groups = _check_groups(groups)
    check_table_width(table, config, "fit")
    if train_config.loss == "pointwise" and config.context != "none":
        raise ValueError("pointwise training scores pairs independently; "
                         "it cannot drive a rank contextualizer (use context=none)")
    rng = np.random.default_rng(train_config.seed)
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
                leaves = params.as_leaves(tape)
                at = {id(leaves[name]): lo for name, lo in params.offsets.items()}
                scores = score_pairs([inputs[gi][ci] for gi, ci in batch], table, config, leaves)
                loss = objective(scores, [groups[gi].candidates[ci].label for gi, ci in batch])
                value = float(loss.data[0, 0])
                if not math.isfinite(value):
                    raise ValueError(f"fit: non-finite loss {value} at step {step} "
                                     f"(batch of question {groups[batch[0][0]].question_id})")

                def backward(final):
                    tape.backward(loss, lambda leaf: final(at[id(leaf)], leaf.grad.reshape(-1)))

                adam.step(params.flat, stlr(step, total_steps, max_lr), backward)
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
