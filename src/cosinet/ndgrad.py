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
    repeated calls never silently accumulate (a leaf's gradient buffer too);
  - every tensor on a tape takes a gradient: leaves are trainable
    parameters, and frozen inputs are passed as plain arrays instead;
  - a tensor refers to its tape weakly, so the tape (records, tensors and
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
    thread may update that leaf's data and gradient buffer (``training.fit``'s
    Adam worker does). Independent tapes may run in parallel.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._records = []      # (backward closure, output, input tensors), in forward order
        self._tensors = []      # every tensor created on this tape
        self._buffers = []      # (leaf, gradient buffer) pairs

    def leaf(self, data, grad: np.ndarray | None = None) -> Tensor:
        """A trainable input; ``backward`` writes its gradient into ``grad`` if given."""
        t = self._output(np.ascontiguousarray(data, dtype=self.dtype))
        if grad is not None:
            if grad.dtype != self.dtype or grad.shape != t.data.shape:
                raise ValueError(f"leaf: grad buffer {grad.dtype}{grad.shape} does not match "
                                 f"{self.dtype}{t.data.shape}")
            self._buffers.append((t, grad))
        return t

    def _output(self, data: np.ndarray) -> Tensor:
        t = Tensor(data, self)
        self._tensors.append(t)
        return t

    def backward(self, loss: Tensor, on_final=None) -> None:
        """Fill ``grad`` on every tensor of the tape with d(loss)/d(tensor).

        Resets all gradients on the tape first, then walks the records once
        in reverse; a tensor the loss does not depend on gets zeros.
        ``loss`` must be a single-element tensor.

        ``on_final(leaf)`` is called once for each leaf with a gradient
        buffer, as soon as its gradient is final: right after the backward
        of the earliest record that takes it, or at once if no record does.
        From then on no remaining closure reads the leaf's data or writes
        its gradient, so the caller may update both while backward goes on.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss tensor belongs to a different tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        for t in self._tensors:
            t.grad = None
        for t, buf in self._buffers:
            buf.fill(0)
            t.grad = buf
        loss.grad = np.ones_like(loss.data)
        due = [[] for _ in self._records]  # due[i]: leaves final once record i has run
        if on_final is not None:
            first = {}
            for i, (_, _, inputs) in enumerate(self._records):
                for t in inputs:
                    first.setdefault(id(t), i)
            for t, _ in self._buffers:
                if id(t) in first:
                    due[first[id(t)]].append(t)
                else:
                    on_final(t)
        for (fn, out, _), final in zip(reversed(self._records), reversed(due)):
            if out.grad is not None:
                fn(out.grad)
            for t in final:
                on_final(t)
        for t in self._tensors:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _acc(t: Tensor, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
    out = tape._output(data)
    tape._records.append((backward, out, inputs))
    return out


def _shape_error(name: str, *shapes) -> ValueError:
    return ValueError(f"{name}: incompatible shapes " + " vs ".join(str(tuple(s)) for s in shapes))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function without overflow in exp, in the dtype of ``v``."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(v.dtype)


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


def conv1d(rows, ids, r, w: Tensor, b: Tensor, mask) -> Tensor:
    """Valid 1-d convolution over time, at the unmasked windows of a batch only.

    The input is x[n, t] = [rows[ids[n, t]], r[n, t]], as plain arrays (the
    input takes no gradient): ``rows`` is (U, C_in - 1), one row per distinct
    token, ``ids`` an (N, T) integer array of row indices and ``r`` the
    (N, T) last input channel. ``w`` is (K, C_in, C_out), ``b`` is (C_out,)
    and ``mask`` an (N, T - K + 1) boolean array marking the windows to
    compute; requires T >= K (pad the input first). Output is the packed
    (W, C_out) rows of the W = mask.sum() true windows, in row-major mask
    order.

    By linearity each distinct row is projected once per kernel offset,
    proj[k] = rows @ w[k, :-1], and a window sums K gathered projection rows
    plus its ``r`` channel's share; the weight gradient is the im2col matmul
    over the true windows.
    """
    rows = np.asarray(rows, dtype=w.data.dtype)
    ids = np.asarray(ids)
    r = np.asarray(r, dtype=w.data.dtype)
    mask = np.asarray(mask, dtype=bool)
    if rows.ndim != 2 or w.data.ndim != 3 or rows.shape[1] + 1 != w.data.shape[1]:
        raise _shape_error("conv1d", rows.shape, w.data.shape)
    if ids.ndim != 2 or r.shape != ids.shape:
        raise _shape_error("conv1d ids", ids.shape, r.shape)
    k, c_in, c_out = w.data.shape
    e = c_in - 1
    n, t_len = ids.shape
    if t_len < k:
        raise ValueError(f"conv1d: input length {t_len} shorter than kernel width {k}")
    if b.data.shape != (c_out,):
        raise _shape_error("conv1d bias", b.data.shape, (c_out,))
    if mask.shape != (n, t_len - k + 1):
        raise _shape_error("conv1d mask", mask.shape, (n, t_len - k + 1))
    if ids.size and (ids.min() < 0 or ids.max() >= rows.shape[0]):
        raise ValueError(f"conv1d: ids outside the {rows.shape[0]} rows")

    # the (W, K) row ids and r values of the true windows: the flat mask
    # index of window (i, s) is i * (T - K + 1) + s, its first input's flat
    # index i * T + s
    first = np.flatnonzero(mask)
    first += first // mask.shape[1] * (k - 1)
    window = first[:, None] + np.arange(k)
    win_ids = ids.take(window)
    win_r = r.take(window)
    proj = np.matmul(rows, w.data[:, :e])  # (K, U, C_out), no copy of w
    acc = win_r @ w.data[:, e] + b.data
    for j in range(k):
        acc += proj[j].take(win_ids[:, j], axis=0)

    def backward(g):
        gw = np.empty_like(w.data)
        gw[:, :e] = (rows[win_ids].reshape(-1, k * e).T @ g).reshape(k, e, c_out)
        gw[:, e] = win_r.T @ g
        _acc(w, gw)
        _acc(b, g.sum(axis=0))

    return _op("conv1d", acc, backward, w, b)


def masked_max_pool(rows: Tensor, mask) -> Tensor:
    """Per-sequence max over the packed rows of the true entries of ``mask``.

    ``mask`` is an (N, T) boolean array (plain array, not a tensor) with at
    least one true entry per row; ``rows`` is (W, C) with W = mask.sum(),
    one row per true entry in row-major order (as ``conv1d`` returns them).
    Output is (N, C). Among equal maxima the first row takes the gradient;
    a NaN counts as the maximum, as in ``np.argmax``.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or rows.data.ndim != 2 or rows.data.shape[0] != mask.sum():
        raise _shape_error("masked_max_pool", rows.data.shape, mask.shape)
    counts = mask.sum(axis=1)
    if not counts.all():
        raise ValueError("masked_max_pool: mask has no valid timestep")
    # one slice per sequence: on these shapes a loop of per-segment maxima
    # runs about 3x faster than np.maximum.reduceat along axis 0
    ends = np.cumsum(counts)
    segments = [slice(lo, hi) for lo, hi in zip((ends - counts).tolist(), ends.tolist())]
    x = rows.data

    def backward(g):
        first = np.stack([x[s].argmax(axis=0) + s.start for s in segments])
        dx = np.zeros_like(x)
        np.put_along_axis(dx, first, g, axis=0)
        _acc(rows, dx)

    return _op("masked_max_pool", np.stack([x[s].max(axis=0) for s in segments]), backward, rows)


def _recurrence(name, x: Tensor, directions, gates: int, cell, cell_back) -> Tensor:
    """Run a recurrence over the rows of ``x`` from a zero state, per direction, as one tape op.

    Each of the one or two ``directions`` is a ``[w_ih, w_hh, *biases]`` list;
    the second reads the rows last to first. A direction's input projection
    ``x @ w_ih + b`` is one matmul for all steps, where ``b`` sums its
    (1, gates * H) biases in the order given. Per step, ``cell(pre, c) -> (h,
    c, saved)`` maps the pre-activation and the carried cell state to the new
    hidden and cell state, and ``cell_back(dh, dc, saved) -> (dpre, dc_prev)``
    is its derivative. Output row t joins, column-wise, each direction's hidden
    state after row t, whichever way it reads the rows.
    """
    if x.data.ndim != 2 or len(directions) not in (1, 2):
        raise ValueError(f"{name}: needs an (N, In) input and one or two directions, "
                         f"got {x.data.shape} and {len(directions)}")
    runs = []  # per direction: row order, weights, inputs, pre-activations, states, saved
    for reverse, (w_ih, w_hh, *biases) in enumerate(directions):
        hdim = w_hh.data.shape[0] if w_hh.data.ndim == 2 else -1
        if (w_ih.data.shape != (x.data.shape[1], gates * hdim)
                or w_hh.data.shape != (hdim, gates * hdim) or not biases
                or any(b.data.shape != (1, gates * hdim) for b in biases)):
            raise _shape_error(name, x.data.shape, w_ih.data.shape, w_hh.data.shape,
                               *(b.data.shape for b in biases))
        order = slice(None, None, -1 if reverse else None)
        xs = x.data[order]
        pre_x = xs @ w_ih.data + sum((b.data for b in biases[1:]), biases[0].data)
        hs = np.zeros((xs.shape[0] + 1, hdim), dtype=pre_x.dtype)  # hs[t]: state before step t
        c = np.zeros(hdim, dtype=pre_x.dtype)
        saved = []
        for t in range(xs.shape[0]):
            hs[t + 1], c, s = cell(pre_x[t] + hs[t] @ w_hh.data, c)
            saved.append(s)
        runs.append((order, w_ih, w_hh, biases, xs, pre_x, hs, saved))

    def backward(g):
        lo = 0  # each direction's columns of g
        for order, w_ih, w_hh, biases, xs, pre_x, hs, saved in runs:
            hdim = hs.shape[1]
            g_dir, lo = g[order, lo:lo + hdim], lo + hdim
            dpre = np.empty_like(pre_x)
            dh = np.zeros(hdim, dtype=pre_x.dtype)
            dc = np.zeros(hdim, dtype=pre_x.dtype)
            for t in reversed(range(xs.shape[0])):
                dpre[t], dc = cell_back(g_dir[t] + dh, dc, saved[t])
                dh = dpre[t] @ w_hh.data.T
            _acc(x, (dpre @ w_ih.data.T)[order])
            _acc(w_ih, xs.T @ dpre)
            _acc(w_hh, hs[:-1].T @ dpre)
            db = dpre.sum(axis=0, keepdims=True)
            for b in biases:
                _acc(b, db)

    out = np.concatenate([hs[1:][order] for order, *_, hs, _ in runs], axis=1)
    return _op(name, out, backward, x, *(t for d in directions for t in d))


def rnn_cell(x: Tensor, *directions) -> Tensor:
    """Simple recurrence h_t = tanh(x_t @ w_ih + h_{t-1} @ w_hh + b) over all rows.

    ``x`` is (N, In); each of the one or two ``directions`` is a list of
    ``w_ih`` (In, H), ``w_hh`` (H, H) and one or more (1, H) biases (such as
    b_ih, b_hh) summed into ``b``. The output is the (N, H) hidden states per
    direction, side by side; the second direction reads the rows last to first.
    """
    def cell(pre, c):
        h = np.tanh(pre)
        return h, c, h

    def cell_back(dh, dc, h):
        return dh * (1.0 - h * h), dc

    return _recurrence("rnn_cell", x, directions, 1, cell, cell_back)


def lstm_cell(x: Tensor, *directions) -> Tensor:
    """Standard 4-gate LSTM over all rows; returns the (N, H) hidden states per direction.

    Gate layout along the last axis of ``w_ih``/``w_hh``/biases is
    [input, forget, cell-candidate, output], each of width H. ``x`` is
    (N, In); each of the one or two ``directions`` is a list of ``w_ih``
    (In, 4H), ``w_hh`` (H, 4H) and one or more (1, 4H) biases, summed. The
    directions' states sit side by side; the second reads the rows last to
    first.
    """
    def cell(pre, c):
        i, f, g, o = np.split(pre, 4)
        i, f, g, o = _sigmoid(i), _sigmoid(f), np.tanh(g), _sigmoid(o)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        return o * tc, c_new, (i, f, g, o, c, tc)

    def cell_back(dh, dc, saved):
        i, f, g, o, c, tc = saved
        dc = dc + dh * o * (1.0 - tc * tc)
        dpre = np.concatenate([dc * g * i * (1.0 - i), dc * c * f * (1.0 - f),
                               dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)])
        return dpre, dc * f

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
    per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    n = s.size

    def backward(g):
        _acc(scores, g[0, 0] * (_sigmoid(s) - y) / n)

    return _op("bce_logits_mean", np.asarray(per.mean(), dtype=s.dtype).reshape(1, 1),
               backward, scores)
