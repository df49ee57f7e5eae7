"""Dense-tensor engine with tape-based reverse-mode automatic differentiation.

Provides exactly the stages the ranking model runs, one tape record per
stage, backed by numpy.
float32 is the training precision; build a ``Tape(dtype=np.float64)`` for
finite-difference gradient checking, which is unreliable at 32-bit.

Conventions:
  - every operation writes a fresh output tensor (single assignment on the
    tape), so the record list is already in topological order;
  - every operation makes one record through ``_op``: its output and every
    tensor its backward reads or writes; ``Tape.backward`` runs that backward
    only if the output got a gradient;
  - ``Tape.backward`` resets all gradients first, then fills them, so
    repeated calls never silently accumulate;
  - a tensor's first gradient is the array its op produced; a later one is
    added out of place, never into an array another tensor may hold;
  - every tensor on a tape takes a gradient: leaves are trainable
    parameters, and frozen inputs are passed as plain arrays instead;
  - a tensor refers to its tape weakly, so the tape (leaves, records and
    their buffers) is freed as soon as the caller drops it.
"""

from __future__ import annotations

import weakref

import numpy as np


class Tensor:
    """A dense n-d array recorded on a tape.

    ``data`` is a numpy array in the tape's dtype. ``grad`` is filled by
    ``Tape.backward`` (same shape as ``data``) and is ``None`` before the
    first backward pass.
    """

    __slots__ = ("data", "grad", "_tape")

    def __init__(self, data: np.ndarray, tape: "Tape"):
        self.data = data
        self.grad = None
        self._tape = weakref.ref(tape)

    @property
    def tape(self) -> "Tape | None":
        """The tape this tensor was recorded on, or None once it is freed."""
        return self._tape()


class Tape:
    """Ordered record of primitive applications for one forward pass.

    A tape and its tensors belong to the thread that records them, with one
    exception: once ``backward`` has passed a leaf to ``on_final``, another
    thread may update that leaf's data and read its gradient (``training.fit``'s
    Adam worker does). Independent tapes may run in parallel.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._records = []      # (backward closure, output, input tensors), in forward order
        self._leaves = []       # the tensors made by ``leaf``; the rest are the records' outputs

    def leaf(self, data) -> Tensor:
        """A trainable input, in the tape's dtype."""
        t = Tensor(np.ascontiguousarray(data, dtype=self.dtype), self)
        self._leaves.append(t)
        return t

    def backward(self, loss: Tensor, on_final=lambda leaf: None) -> None:
        """Fill ``grad`` on every tensor of the tape with d(loss)/d(tensor).

        Resets all gradients on the tape first, then walks the records once
        in reverse; a tensor the loss does not depend on gets zeros.
        ``loss`` must be a single-element tensor.

        ``on_final(leaf)``, a no-op by default, is called once for every
        leaf, as soon as its gradient is final: right after the backward of
        the earliest record that takes it, or at once, with zeros, if no
        record does. From then on no remaining closure reads the leaf's data
        or changes its gradient, so the caller may update the one and read
        the other while backward goes on.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss tensor belongs to a different tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        tensors = self._leaves + [out for _, out, _ in self._records]
        for t in tensors:
            t.grad = None
        loss.grad = np.ones_like(loss.data)
        due = [[] for _ in self._records]  # due[i]: leaves final once record i has run
        first = {}
        for i, (_, _, inputs) in enumerate(self._records):
            for t in inputs:
                first.setdefault(id(t), i)
        for t in self._leaves:
            if id(t) in first:
                due[first[id(t)]].append(t)
            else:
                t.grad = np.zeros_like(t.data)
                on_final(t)
        for (fn, out, _), final in zip(reversed(self._records), reversed(due)):
            if out.grad is not None:
                fn(out.grad)
            for t in final:
                if t.grad is None:  # only records whose output got no gradient take it
                    t.grad = np.zeros_like(t.data)
                on_final(t)
        for t in tensors:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _acc(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g  # not in place: another tensor may hold t.grad


def _op(name: str, data: np.ndarray, backward, *inputs: Tensor) -> Tensor:
    """Record one op on the common tape of ``inputs`` and return its output.

    ``data`` becomes the output; ``backward(g)`` runs only if the output got
    a gradient ``g``, and reads or accumulates into ``inputs`` only.
    """
    tape = inputs[0].tape
    if tape is None:
        raise ValueError(f"{name}: input tensor outlived its tape")
    for t in inputs[1:]:
        if t.tape is not tape:
            raise ValueError(f"{name}: inputs recorded on different tapes")
    out = Tensor(data, tape)
    tape._records.append((backward, out, inputs))
    return out


def _shape_error(name: str, *shapes) -> ValueError:
    return ValueError(f"{name}: incompatible shapes " + " vs ".join(str(tuple(s)) for s in shapes))


# ---------------------------------------------------------------------------
# pair features, head and joins


def pair_combine(q: Tensor, c: Tensor) -> Tensor:
    """The (N, 2H) pair features [q * c; q - c] of two (N, H) sentence vectors."""
    if q.data.ndim != 2 or q.data.shape != c.data.shape:
        raise _shape_error("pair_combine", q.data.shape, c.data.shape)
    h = q.data.shape[1]

    def backward(g):
        _acc(q, g[:, h:] + g[:, :h] * c.data)
        _acc(c, g[:, :h] * q.data - g[:, h:])

    return _op("pair_combine", np.concatenate([q.data * c.data, q.data - c.data], axis=1),
               backward, q, c)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for an (N, In) ``x``, an (In, Out) ``w`` and a (1, Out) bias row ``b``."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != (1, w.data.shape[1])):
        raise _shape_error("linear", x.data.shape, w.data.shape, b.data.shape)

    def backward(g):
        _acc(x, g @ w.data.T)
        _acc(w, x.data.T @ g)
        _acc(b, g.sum(axis=0, keepdims=True))

    return _op("linear", x.data @ w.data + b.data, backward, x, w, b)


def kl_logits(scores: Tensor, target) -> Tensor:
    """KL(target || softmax(scores)) over all entries of ``scores``, as a (1, 1) tensor.

    ``target`` is a plain array with one probability per score (it is
    reshaped to the scores' shape); 0 ln 0 counts as 0. The loss comes from
    the max-shifted log-softmax, so it stays finite at any score gap, and
    the gradient is the closed form softmax(scores) - target (ListNet top-1).
    """
    s = scores.data
    p = np.asarray(target, dtype=s.dtype)
    if p.size != s.size:
        raise _shape_error("kl_logits", s.shape, p.shape)
    p = p.reshape(s.shape)
    shifted = s - s.max()
    e = np.exp(shifted)
    z = e.sum()
    pos = p > 0
    kl = (p[pos] * (np.log(p[pos]) - (shifted - np.log(z))[pos])).sum()

    def backward(g):
        _acc(scores, g[0, 0] * (e / z - p))

    return _op("kl_logits", np.asarray(kl, dtype=s.dtype).reshape(1, 1), backward, scores)


# ---------------------------------------------------------------------------
# sequence primitives


def conv1d(rows, ids, r, lens, w: Tensor, b: Tensor) -> Tensor:
    """Valid 1-d convolution over time of packed sequences, max-pooled per sequence.

    The input is x[p] = [rows[ids[p]], r[p]], as plain arrays (the input
    takes no gradient): ``rows`` is (U, C_in - 1), one row per distinct
    token, and the (P,) row indices ``ids`` and last channel ``r`` hold N
    sequences back to back, ``lens[i]`` entries for sequence i. ``w`` is
    (K, C_in, C_out), ``b`` is (C_out,). Sequence i pools its max(1, lens[i]
    - K + 1) windows that start at one of its entries, and a tap past its
    end reads a zero input. Output is the (N, C_out) maximum of each
    sequence's windows (``masked_max_pool``): one tape record for a whole
    tower.

    By linearity each distinct row is projected once per kernel offset,
    proj[k] = rows @ w[k, :-1], and a window sums K gathered projection rows
    plus its ``r`` channel's share. Only the winning window of each sequence
    and channel takes the gradient: the first maximum, or a NaN, as in
    ``np.argmax``. The backward finds those N * C_out winners and works in
    token space: for each offset k, ``np.bincount`` sums the gradient onto
    all U + 1 rows (the zero tap row included; a row no winner reads at k
    gets zeros), and gw[k, :-1] = rows.T @ those sums. It builds no
    (W, C_out) gradient and no (W, K * (C_in - 1)) im2col matrix.
    """
    rows = np.asarray(rows, dtype=w.data.dtype)
    ids = np.asarray(ids)
    r = np.asarray(r, dtype=w.data.dtype)
    lens = np.asarray(lens)
    if rows.ndim != 2 or w.data.ndim != 3 or rows.shape[1] + 1 != w.data.shape[1]:
        raise _shape_error("conv1d", rows.shape, w.data.shape)
    if ids.ndim != 1 or r.shape != ids.shape:
        raise _shape_error("conv1d ids", ids.shape, r.shape)
    k, c_in, c_out = w.data.shape
    e = c_in - 1
    if b.data.shape != (c_out,):
        raise _shape_error("conv1d bias", b.data.shape, (c_out,))
    if lens.ndim != 1 or not lens.size or lens.min() < 1 or lens.sum() != ids.size:
        raise ValueError(f"conv1d: lengths {lens} are not N >= 1 positive counts of the "
                         f"{ids.size} ids")
    if ids.min() < 0 or ids.max() >= rows.shape[0]:
        raise ValueError(f"conv1d: ids outside the {rows.shape[0]} rows")

    # the (W, K) entries each window reads: window s of sequence i starts at
    # its entry s; a tap past the sequence's end reads entry P, a zero row
    # appended to ``rows`` with r = 0
    counts = np.maximum(1, lens - k + 1)
    ends, win_ends = np.cumsum(lens), np.cumsum(counts)
    first = np.arange(win_ends[-1]) + np.repeat(ends - lens - (win_ends - counts), counts)
    window = first[:, None] + np.arange(k)
    window[window >= np.repeat(ends, counts)[:, None]] = ids.size
    rows = np.vstack([rows, np.zeros((1, e), dtype=rows.dtype)])
    win_ids = np.append(ids, len(rows) - 1).take(window)
    win_r = np.append(r, r.dtype.type(0)).take(window)
    proj = np.matmul(rows, w.data[:, :e])  # (K, U + 1, C_out), no copy of w
    acc = win_r @ w.data[:, e] + b.data
    for j in range(k):
        acc += proj[j].take(win_ids[:, j], axis=0)

    pooled, segments = masked_max_pool(acc, counts)

    def backward(g):
        win = np.stack([acc[s].argmax(axis=0) + s.start for s in segments])  # (N, C_out)
        col = np.arange(c_out)
        gw = np.empty_like(w.data)
        for j in range(k):
            block = np.bincount((win_ids[win, j] * c_out + col).ravel(), weights=g.ravel(),
                                minlength=len(rows) * c_out)
            gw[j, :e] = rows.T @ block.reshape(-1, c_out).astype(gw.dtype, copy=False)
            gw[j, e] = (win_r[win, j] * g).sum(axis=0)
        _acc(w, gw)
        _acc(b, g.sum(axis=0))

    return _op("conv1d", pooled, backward, w, b)


def masked_max_pool(x: np.ndarray, counts) -> tuple[np.ndarray, list[slice]]:
    """Per-sequence max over the packed rows of ``x``; no tape op.

    ``x`` is a (W, C) array holding N sequences' rows back to back,
    ``counts[i]`` of them (at least one) for sequence i, as ``conv1d`` packs
    its windows. Returns the (N, C) maxima, where a NaN wins, and each
    sequence's slice of the rows of ``x``.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or x.ndim != 2 or x.shape[0] != counts.sum() or not counts.all():
        raise ValueError(f"masked_max_pool: {x.shape} rows do not split into counts {counts}")
    # one slice per sequence: on these shapes a loop of per-segment maxima
    # runs about 3x faster than np.maximum.reduceat along axis 0
    ends = np.cumsum(counts)
    segments = [slice(lo, hi) for lo, hi in zip((ends - counts).tolist(), ends.tolist())]
    return np.stack([x[s].max(axis=0) for s in segments]), segments


def _recurrence(name, x: Tensor, directions, gates: int, cell, cell_back) -> Tensor:
    """Run a recurrence over the rows of ``x`` from a zero state, every direction at once.

    Each of the one or two ``directions`` is a ``[w_ih, w_hh, *biases]`` list, of the same
    shapes in each; the second reads the rows last to first. ``x @ w_ih + b`` (``b`` sums
    the biases in the order given) is one matmul per direction. Per step, ``cell(z, a,
    c_prev, c) -> h`` maps the (D, gates, H) pre-activation ``z`` of the D stacked states to
    the hidden states, writing tanh values into ``a`` and cell states into ``c``. Given all
    steps' ``a`` and ``cs`` (cs[t]: before step t), ``cell_back(a, cs)`` returns ``step(t,
    dh, dc, dz) -> dc_prev``, which writes step t's gradient into ``dz``. One tape op;
    output row t joins, column-wise, each direction's hidden state after row t.
    """
    if x.data.ndim != 2 or len(directions) not in (1, 2):
        raise ValueError(f"{name}: needs an (N, In) input and one or two directions, "
                         f"got {x.data.shape} and {len(directions)}")
    hdim = directions[0][1].data.shape[0] if directions[0][1].data.ndim == 2 else -1
    for w_ih, w_hh, *biases in directions:
        if (w_ih.data.shape != (x.data.shape[1], gates * hdim)
                or w_hh.data.shape != (hdim, gates * hdim) or not biases
                or any(b.data.shape != (1, gates * hdim) for b in biases)):
            raise _shape_error(name, x.data.shape, w_ih.data.shape, w_hh.data.shape,
                               *(b.data.shape for b in biases))
    (n, _), d, dtype = x.data.shape, len(directions), x.data.dtype
    orders = [slice(None, None, -1 if k else None) for k in range(d)]
    pre = np.hstack([x.data[o] @ w.data + sum((b.data for b in bs[1:]), bs[0].data)
                     for o, (w, _, *bs) in zip(orders, directions)]).reshape(n, d, gates, -1)
    w_hh = np.concatenate([w.data for _, w, *_ in directions]).reshape(d, hdim, -1)
    a, z = np.empty_like(pre), np.empty_like(pre[0])
    hs, cs = np.zeros((2, n + 1, d, hdim), dtype=dtype)  # hs[t], cs[t]: states before step t
    for t in range(n):
        np.matmul(hs[t, :, None], w_hh, out=z.reshape(d, 1, -1))
        z += pre[t]
        hs[t + 1] = cell(z, a[t], cs[t], cs[t + 1])

    def backward(g):
        step = cell_back(a, cs)
        gs = np.stack([g[order, k * hdim:(k + 1) * hdim] for k, order in enumerate(orders)], axis=1)
        dz = np.empty_like(a)
        dh, dc = np.zeros((2, d, hdim), dtype=dtype)
        for t in reversed(range(n)):
            dc = step(t, gs[t] + dh, dc, dz[t])
            np.matmul(w_hh, dz[t].reshape(d, -1, 1), out=dh[:, :, None])
        for k, (w_ih, w, *biases) in enumerate(directions):
            dzk = dz[:, k].reshape(n, -1)
            _acc(x, (w_ih.data @ dzk.T).T[orders[k]])  # faster than dzk @ w_ih.T
            _acc(w_ih, x.data[orders[k]].T @ dzk)
            _acc(w, hs[:-1, k].T @ dzk)
            db = dzk.sum(axis=0, keepdims=True)
            for b in biases:
                _acc(b, db)

    out = np.concatenate([hs[1:, k][order] for k, order in enumerate(orders)], axis=1)
    return _op(name, out, backward, x, *(t for d in directions for t in d))


def rnn_cell(x: Tensor, *directions) -> Tensor:
    """Simple recurrence h_t = tanh(x_t @ w_ih + h_{t-1} @ w_hh + b) over all rows.

    ``x`` is (N, In); each of the one or two ``directions`` is a list of
    ``w_ih`` (In, H), ``w_hh`` (H, H) and one or more (1, H) biases (such as
    b_ih, b_hh) summed into ``b``. The output is the (N, H) hidden states per
    direction, side by side; the second direction reads the rows last to first.
    """
    def cell(z, a, c_prev, c):
        return np.tanh(z, out=a)[:, 0]

    def cell_back(a, cs):
        da = 1.0 - a * a

        def step(t, dh, dc, dz):
            np.multiply(dh, da[t, :, 0], out=dz[:, 0])
            return dc
        return step

    return _recurrence("rnn_cell", x, directions, 1, cell, cell_back)


def lstm_cell(x: Tensor, *directions) -> Tensor:
    """Standard 4-gate LSTM over all rows; returns the (N, H) hidden states per direction.

    Gate layout along the last axis of ``w_ih``/``w_hh``/biases is
    [input, forget, cell-candidate, output], each of width H. ``x`` is
    (N, In); each of the one or two ``directions`` is a list of ``w_ih``
    (In, 4H), ``w_hh`` (H, 4H) and one or more (1, 4H) biases, summed. The
    directions' states sit side by side; the second reads the rows last to
    first. One tanh serves all four gates, as sigmoid(v) = (1 + tanh(v / 2)) / 2.
    """
    scale = np.array([[0.5], [0.5], [1.0], [0.5]], dtype=x.data.dtype)

    def cell(z, a, c_prev, c):
        np.tanh(np.multiply(z, scale, out=z), out=a)
        sig = a * 0.5 + 0.5  # the i, f and o gates; a[:, 2] is the candidate itself
        np.add(sig[:, 1] * c_prev, sig[:, 0] * a[:, 2], out=c)
        return sig[:, 3] * np.tanh(c)

    def cell_back(a, cs):
        sig, tc = a * 0.5 + 0.5, np.tanh(cs[1:])
        # dz = scale² (1 - a²) * [dc * g, dc * c_prev, dc * i, dh * tanh(c)], gate by gate
        k = (1.0 - a * a) * (scale * scale) * np.stack([a[:, :, 2], cs[:-1], sig[:, :, 0], tc], 2)
        dc_dh = sig[:, :, 3] * (1.0 - tc * tc)

        def step(t, dh, dc, dz):
            dc = dc + dh * dc_dh[t]
            np.multiply(dc[:, None], k[t, :, :3], out=dz[:, :3])
            np.multiply(dh, k[t, :, 3], out=dz[:, 3])
            return dc * sig[t, :, 1]
        return step

    return _recurrence("lstm_cell", x, directions, 4, cell, cell_back)


def bce_logits_mean(scores: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy between sigmoid(scores) and binary labels.

    Numerically stabilized form max(s,0) - s*y + log1p(exp(-|s|)); ``labels``
    is a plain array with one label per score (it is reshaped to the scores'
    shape). Output is (1, 1).
    """
    s = scores.data
    y = np.asarray(labels, dtype=s.dtype)
    if y.size != s.size:
        raise _shape_error("bce_logits_mean", s.shape, y.shape)
    y = y.reshape(s.shape)
    e = np.exp(-np.abs(s))
    per = np.maximum(s, 0.0) - s * y + np.log1p(e)
    n = s.size

    def backward(g):  # sigmoid(s) from the same e, without overflow
        sig = np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(s.dtype)
        _acc(scores, g[0, 0] * (sig - y) / n)

    return _op("bce_logits_mean", np.asarray(per.mean(), dtype=s.dtype).reshape(1, 1),
               backward, scores)
