"""Dense-tensor engine with tape-based reverse-mode automatic differentiation.

Provides exactly the primitives the ranking model needs, backed by numpy.
float32 is the training precision; build a ``Tape(dtype=np.float64)`` for
finite-difference gradient checking, which is unreliable at 32-bit.

Conventions:
  - every operation writes a fresh output tensor (single assignment on the
    tape), so the record list is already in topological order;
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

    @property
    def shape(self):
        return self.data.shape


class Tape:
    """Ordered record of primitive applications for one forward pass.

    A tape and its tensors are confined to a single worker; independent
    tapes may run in parallel.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._records = []      # backward closures, appended in forward order
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

    def _record(self, fn) -> None:
        self._records.append(fn)

    def backward(self, loss: Tensor) -> None:
        """Fill ``grad`` on every tensor of the tape with d(loss)/d(tensor).

        Resets all gradients on the tape first, then walks the records once
        in reverse; a tensor the loss does not depend on gets zeros.
        ``loss`` must be a single-element tensor.
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
        for fn in reversed(self._records):
            fn()
        for t in self._tensors:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _acc(t: Tensor, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _tape_of(name: str, *tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    if tape is None:
        raise ValueError(f"{name}: input tensor outlived its tape")
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError(f"{name}: inputs recorded on different tapes")
    return tape


def _shape_error(name: str, *shapes) -> ValueError:
    return ValueError(f"{name}: incompatible shapes " + " vs ".join(str(tuple(s)) for s in shapes))


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(name, a: Tensor, b: Tensor, fwd, bwd_a, bwd_b) -> Tensor:
    """Elementwise binary op on equal shapes, or a (1, C) row broadcast over (T, C)."""
    tape = _tape_of(name, a, b)
    broadcast_b = False
    if a.data.shape != b.data.shape:
        if (a.data.ndim == 2 and b.data.ndim == 2 and b.data.shape == (1, a.data.shape[1])):
            broadcast_b = True
        else:
            raise _shape_error(name, a.data.shape, b.data.shape)
    out = tape._output(fwd(a.data, b.data))

    def backward():
        if out.grad is None:
            return
        g = out.grad
        _acc(a, bwd_a(g, a.data, b.data))
        gb = bwd_b(g, a.data, b.data)
        _acc(b, gb.sum(axis=0, keepdims=True) if broadcast_b else gb)

    tape._record(backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function without overflow in exp, in the dtype of ``v``."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(v.dtype)


# ---------------------------------------------------------------------------
# linear algebra and shape plumbing


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_error("matmul", a.data.shape, b.data.shape)
    tape = _tape_of("matmul", a, b)
    out = tape._output(a.data @ b.data)

    def backward():
        if out.grad is None:
            return
        _acc(a, out.grad @ b.data.T)
        _acc(b, a.data.T @ out.grad)

    tape._record(backward)
    return out


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: needs at least one input")
    tape = _tape_of("concat", *tensors)
    out = tape._output(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward():
        if out.grad is None:
            return
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(lo, hi)
            _acc(t, out.grad[tuple(idx)])

    tape._record(backward)
    return out


def kl_logits(scores: Tensor, target) -> Tensor:
    """KL(target || softmax(scores)) over all entries of ``scores``, as a (1, 1) tensor.

    ``target`` is a plain array with one probability per score (it is
    reshaped to the scores' shape); 0 ln 0 counts as 0. The loss comes from
    the max-shifted log-softmax, so it stays finite at any score gap, and
    the gradient is the closed form softmax(scores) - target (ListNet top-1).
    """
    s = scores.data
    g = np.asarray(target, dtype=s.dtype)
    if g.size != s.size:
        raise _shape_error("kl_logits", s.shape, g.shape)
    g = g.reshape(s.shape)
    tape = _tape_of("kl_logits", scores)
    shifted = s - s.max()
    e = np.exp(shifted)
    z = e.sum()
    pos = g > 0
    kl = (g[pos] * (np.log(g[pos]) - (shifted - np.log(z))[pos])).sum()
    out = tape._output(np.asarray(kl, dtype=s.dtype).reshape(1, 1))

    def backward():
        if out.grad is not None:
            _acc(scores, out.grad[0, 0] * (e / z - g))

    tape._record(backward)
    return out


# ---------------------------------------------------------------------------
# sequence primitives


def conv1d(x, w: Tensor, b: Tensor, mask) -> Tensor:
    """Valid 1-d convolution over time, at the unmasked windows of a batch only.

    ``x`` is a plain (N, T, C_in) array (the input takes no gradient),
    ``w`` is (K, C_in, C_out), ``b`` is (C_out,) and ``mask`` an
    (N, T - K + 1) boolean array marking the windows to compute; requires
    T >= K (pad the input first). Output is the packed (W, C_out) rows of
    the W = mask.sum() true windows, in row-major mask order.
    """
    x = np.asarray(x, dtype=w.data.dtype)
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 3 or w.data.ndim != 3 or x.shape[2] != w.data.shape[1]:
        raise _shape_error("conv1d", x.shape, w.data.shape)
    k, c_in, c_out = w.data.shape
    n, t_len = x.shape[:2]
    if t_len < k:
        raise ValueError(f"conv1d: input length {t_len} shorter than kernel width {k}")
    if b.data.shape != (c_out,):
        raise _shape_error("conv1d bias", b.data.shape, (c_out,))
    if mask.shape != (n, t_len - k + 1):
        raise _shape_error("conv1d mask", mask.shape, (n, t_len - k + 1))
    tape = _tape_of("conv1d", w, b)

    # im2col over the true windows only: (W, K*C_in) rows of flattened
    # windows, matching w.reshape(K*C_in, C_out)
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)  # (N, t_out, C_in, K)
    win2d = win.transpose(0, 1, 3, 2)[mask].reshape(-1, k * c_in)
    out = tape._output(win2d @ w.data.reshape(k * c_in, c_out) + b.data)

    def backward():
        if out.grad is None:
            return
        _acc(w, (win2d.T @ out.grad).reshape(k, c_in, c_out))
        _acc(b, out.grad.sum(axis=0))

    tape._record(backward)
    return out


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
    tape = _tape_of("masked_max_pool", rows)
    # one slice per sequence: on these shapes a loop of per-segment maxima
    # runs about 3x faster than np.maximum.reduceat along axis 0
    ends = np.cumsum(counts)
    segments = [slice(lo, hi) for lo, hi in zip((ends - counts).tolist(), ends.tolist())]
    x = rows.data
    out = tape._output(np.stack([x[s].max(axis=0) for s in segments]))

    def backward():
        if out.grad is None:
            return
        first = np.stack([x[s].argmax(axis=0) + s.start for s in segments])
        dx = np.zeros_like(x)
        np.put_along_axis(dx, first, out.grad, axis=0)
        _acc(rows, dx)

    tape._record(backward)
    return out


def _recurrence(name, x: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor, gates: int,
                reverse: bool, cell, cell_back) -> Tensor:
    """Run a recurrence over the rows of ``x`` from a zero state as one tape op.

    The input projection ``x @ w_ih + b`` is one matmul for all steps. Per
    step, ``cell(pre, c) -> (h, c, saved)`` maps the pre-activation and the
    carried cell state to the new hidden and cell state, and
    ``cell_back(dh, dc, saved) -> (dpre, dc_prev)`` is its derivative. Output
    row t is the hidden state after row t, whichever way the rows are read.
    """
    hdim = w_hh.data.shape[0] if w_hh.data.ndim == 2 else -1
    if (x.data.ndim != 2 or w_ih.data.shape != (x.data.shape[1], gates * hdim)
            or w_hh.data.shape != (hdim, gates * hdim) or b.data.shape != (1, gates * hdim)):
        raise _shape_error(name, x.data.shape, w_ih.data.shape, w_hh.data.shape, b.data.shape)
    tape = _tape_of(name, x, w_ih, w_hh, b)
    order = slice(None, None, -1) if reverse else slice(None)
    xs = x.data[order]
    pre_x = xs @ w_ih.data + b.data
    hs = np.zeros((xs.shape[0] + 1, hdim), dtype=pre_x.dtype)  # hs[t]: state before step t
    c = np.zeros(hdim, dtype=pre_x.dtype)
    saved = []
    for t in range(xs.shape[0]):
        hs[t + 1], c, s = cell(pre_x[t] + hs[t] @ w_hh.data, c)
        saved.append(s)
    out = tape._output(np.ascontiguousarray(hs[1:][order]))

    def backward():
        if out.grad is None:
            return
        g = out.grad[order]
        dpre = np.empty_like(pre_x)
        dh = np.zeros(hdim, dtype=pre_x.dtype)
        dc = np.zeros(hdim, dtype=pre_x.dtype)
        for t in reversed(range(xs.shape[0])):
            dpre[t], dc = cell_back(g[t] + dh, dc, saved[t])
            dh = dpre[t] @ w_hh.data.T
        _acc(x, (dpre @ w_ih.data.T)[order])
        _acc(w_ih, xs.T @ dpre)
        _acc(w_hh, hs[:-1].T @ dpre)
        _acc(b, dpre.sum(axis=0, keepdims=True))

    tape._record(backward)
    return out


def rnn_cell(x: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """Simple recurrence h_t = tanh(x_t @ w_ih + h_{t-1} @ w_hh + b) over all rows.

    ``x`` is (N, In), ``w_ih`` (In, H), ``w_hh`` (H, H), ``b`` (1, H); the
    output is the (N, H) hidden states. ``reverse`` reads the rows last to
    first.
    """
    def cell(pre, c):
        h = np.tanh(pre)
        return h, c, h

    def cell_back(dh, dc, h):
        return dh * (1.0 - h * h), dc

    return _recurrence("rnn_cell", x, w_ih, w_hh, b, 1, reverse, cell, cell_back)


def lstm_cell(x: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """Standard 4-gate LSTM over all rows; returns the (N, H) hidden states.

    Gate layout along the last axis of ``w_ih``/``w_hh``/``b`` is
    [input, forget, cell-candidate, output], each of width H.
    ``x`` is (N, In), ``w_ih`` (In, 4H), ``w_hh`` (H, 4H), ``b`` (1, 4H).
    ``reverse`` reads the rows last to first.
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

    return _recurrence("lstm_cell", x, w_ih, w_hh, b, 4, reverse, cell, cell_back)


def bce_logits_mean(scores: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy between sigmoid(scores) and binary labels.

    Numerically stabilized form max(s,0) - s*y + log1p(exp(-|s|)); ``labels``
    is a plain array broadcastable to ``scores``. Output is (1, 1).
    """
    tape = _tape_of("bce_logits_mean", scores)
    y = np.asarray(labels, dtype=scores.data.dtype).reshape(scores.data.shape)
    s = scores.data
    per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    n = s.size
    out = tape._output(np.asarray(per.mean(), dtype=s.dtype).reshape(1, 1))

    def backward():
        if out.grad is not None:
            _acc(scores, out.grad[0, 0] * (_sigmoid(s) - y) / n)

    tape._record(backward)
    return out
