"""Dense-tensor engine with tape-based reverse-mode automatic differentiation.

Provides exactly the primitives the ranking model needs, backed by numpy.
float32 is the training precision; build a ``Tape(dtype=np.float64)`` for
finite-difference gradient checking, which is unreliable at 32-bit.

Conventions:
  - every operation writes a fresh output tensor (single assignment on the
    tape), so the record list is already in topological order;
  - ``Tape.backward`` resets all gradients first, then fills them, so
    repeated calls never silently accumulate;
  - gradients are only propagated into tensors that require them or that
    were produced by an operation (frozen leaves stay grad-free).
"""

from __future__ import annotations

import itertools

import numpy as np

_tape_ids = itertools.count()


class Tensor:
    """A dense n-d array recorded on a tape.

    ``data`` is a numpy array in the tape's dtype. ``grad`` is filled by
    ``Tape.backward`` (same shape as ``data``) and is ``None`` before the
    first backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape", "op_output")

    def __init__(self, data: np.ndarray, tape: "Tape", requires_grad: bool = False,
                 op_output: bool = False):
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.tape = tape
        self.op_output = op_output

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tape={self.tape.id}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass.

    A tape and its tensors are confined to a single worker; independent
    tapes may run in parallel.
    """

    def __init__(self, dtype=np.float32):
        self.id = next(_tape_ids)
        self.dtype = np.dtype(dtype)
        self._records = []      # backward closures, appended in forward order
        self._tensors = []      # every tensor created on this tape

    def leaf(self, data, requires_grad: bool = False) -> Tensor:
        arr = np.ascontiguousarray(data, dtype=self.dtype)
        t = Tensor(arr, self, requires_grad=requires_grad)
        self._tensors.append(t)
        return t

    def constant(self, data) -> Tensor:
        return self.leaf(data, requires_grad=False)

    def _output(self, data: np.ndarray) -> Tensor:
        t = Tensor(data, self, requires_grad=False, op_output=True)
        self._tensors.append(t)
        return t

    def _record(self, fn) -> None:
        self._records.append(fn)

    def backward(self, loss: Tensor) -> None:
        """Fill ``grad`` on every reachable tensor with d(loss)/d(tensor).

        Resets all gradients on the tape first, then walks the records once
        in reverse. ``loss`` must be a single-element tensor.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss tensor belongs to a different tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        for t in self._tensors:
            t.grad = None
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self._records):
            fn()
        for t in self._tensors:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t.op_output


def _acc(t: Tensor, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _tape_of(name: str, *tensors: Tensor) -> Tape:
    tape = tensors[0].tape
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
        if _wants_grad(a):
            _acc(a, bwd_a(g, a.data, b.data))
        if _wants_grad(b):
            gb = bwd_b(g, a.data, b.data)
            if broadcast_b:
                gb = gb.sum(axis=0, keepdims=True)
            _acc(b, gb)

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


def _unary(name, x: Tensor, fwd, bwd) -> Tensor:
    tape = x.tape
    out_data = fwd(x.data)
    out = tape._output(out_data)

    def backward():
        if out.grad is None or not _wants_grad(x):
            return
        _acc(x, bwd(out.grad, x.data, out_data))

    tape._record(backward)
    return out


def tanh(x: Tensor) -> Tensor:
    return _unary("tanh", x, np.tanh, lambda g, xd, od: g * (1.0 - od * od))


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
        g = out.grad
        if _wants_grad(a):
            _acc(a, g @ b.data.T)
        if _wants_grad(b):
            _acc(b, a.data.T @ g)

    tape._record(backward)
    return out


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise _shape_error("transpose", x.data.shape)
    return _unary("transpose", x, lambda xd: np.ascontiguousarray(xd.T),
                  lambda g, xd, od: g.T)


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
            if _wants_grad(t):
                idx = [slice(None)] * out.grad.ndim
                idx[axis] = slice(lo, hi)
                _acc(t, out.grad[tuple(idx)])

    tape._record(backward)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Reduce every element to a (1, 1) scalar tensor."""
    tape = x.tape
    out = tape._output(x.data.sum(dtype=x.data.dtype).reshape(1, 1))

    def backward():
        if out.grad is None or not _wants_grad(x):
            return
        _acc(x, np.full_like(x.data, out.grad[0, 0]))

    tape._record(backward)
    return out


def kl_logits(scores: Tensor, target) -> Tensor:
    """KL(target || softmax(scores)) summed over rows, as a (1, 1) tensor.

    ``target`` is a plain array of the scores' shape whose rows are
    probability distributions; 0 ln 0 counts as 0. The loss comes from the
    max-shifted log-softmax, so it stays finite at any score gap, and the
    gradient is the closed form softmax(scores) - target (ListNet top-1).
    """
    s = scores.data
    g = np.asarray(target, dtype=s.dtype)
    if s.ndim != 2 or g.shape != s.shape:
        raise _shape_error("kl_logits", s.shape, g.shape)
    tape = scores.tape
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    pos = g > 0
    kl = (g[pos] * (np.log(g[pos]) - (shifted - np.log(z))[pos])).sum()
    out = tape._output(np.asarray(kl, dtype=s.dtype).reshape(1, 1))

    def backward():
        if out.grad is None or not _wants_grad(scores):
            return
        _acc(scores, out.grad[0, 0] * (e / z - g))

    tape._record(backward)
    return out


# ---------------------------------------------------------------------------
# sequence primitives


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid 1-d convolution over time.

    ``x`` is (T, C_in), ``w`` is (K, C_in, C_out), ``b`` is (C_out,).
    Output is (T - K + 1, C_out); requires T >= K (pad the input first).
    """
    if x.data.ndim != 2 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise _shape_error("conv1d", x.data.shape, w.data.shape)
    k, c_in, c_out = w.data.shape
    t_len = x.data.shape[0]
    if t_len < k:
        raise ValueError(f"conv1d: input length {t_len} shorter than kernel width {k}")
    if b.data.shape != (c_out,):
        raise _shape_error("conv1d bias", b.data.shape, (c_out,))
    tape = _tape_of("conv1d", x, w, b)

    t_out = t_len - k + 1
    # im2col: (t_out, K*C_in) rows of flattened windows, matching w.reshape(K*C_in, C_out)
    win = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=0)  # (t_out, C_in, K)
    win2d = np.ascontiguousarray(win.transpose(0, 2, 1)).reshape(t_out, k * c_in)
    w_flat = w.data.reshape(k * c_in, c_out)
    out = tape._output(win2d @ w_flat + b.data)

    def backward():
        if out.grad is None:
            return
        g = out.grad
        if _wants_grad(w):
            _acc(w, (win2d.T @ g).reshape(k, c_in, c_out))
        if _wants_grad(b):
            _acc(b, g.sum(axis=0))
        if _wants_grad(x):
            dwin = (g @ w_flat.T).reshape(t_out, k, c_in)
            dx = np.zeros_like(x.data)
            for j in range(k):
                dx[j:j + t_out] += dwin[:, j, :]
            _acc(x, dx)

    tape._record(backward)
    return out


def masked_max_pool(x: Tensor, mask) -> Tensor:
    """Global max over time restricted to positions where ``mask`` is nonzero.

    ``x`` is (T, C), ``mask`` a length-T binary vector (plain array, not a
    tensor). Output is (1, C). Values at masked positions never influence
    the output or the gradient.
    """
    mask = np.asarray(mask)
    if x.data.ndim != 2 or mask.shape != (x.data.shape[0],):
        raise _shape_error("masked_max_pool", x.data.shape, mask.shape)
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ValueError("masked_max_pool: mask has no valid timestep")
    tape = x.tape
    cols = np.arange(x.data.shape[1])
    rows = valid[np.argmax(x.data[valid], axis=0)]  # first max among valid rows
    out = tape._output(x.data[rows, cols][None, :].copy())

    def backward():
        if out.grad is None or not _wants_grad(x):
            return
        dx = np.zeros_like(x.data)
        np.add.at(dx, (rows, cols), out.grad[0])
        _acc(x, dx)

    tape._record(backward)
    return out


def rnn_cell(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor) -> Tensor:
    """One step of a simple recurrence: tanh(x @ w_ih + h @ w_hh + b).

    ``x`` is (1, In), ``h`` is (1, H), ``w_ih`` (In, H), ``w_hh`` (H, H),
    ``b`` (1, H).
    """
    if (x.data.ndim != 2 or h.data.ndim != 2
            or x.data.shape[1] != w_ih.data.shape[0]
            or h.data.shape[1] != w_hh.data.shape[0]
            or w_ih.data.shape[1] != w_hh.data.shape[1]
            or b.data.shape != (1, w_hh.data.shape[1])):
        raise _shape_error("rnn_cell", x.data.shape, h.data.shape,
                           w_ih.data.shape, w_hh.data.shape, b.data.shape)
    tape = _tape_of("rnn_cell", x, h, w_ih, w_hh, b)
    out_data = np.tanh(x.data @ w_ih.data + h.data @ w_hh.data + b.data)
    out = tape._output(out_data)

    def backward():
        if out.grad is None:
            return
        dpre = out.grad * (1.0 - out_data * out_data)
        if _wants_grad(x):
            _acc(x, dpre @ w_ih.data.T)
        if _wants_grad(h):
            _acc(h, dpre @ w_hh.data.T)
        if _wants_grad(w_ih):
            _acc(w_ih, x.data.T @ dpre)
        if _wants_grad(w_hh):
            _acc(w_hh, h.data.T @ dpre)
        if _wants_grad(b):
            _acc(b, dpre)

    tape._record(backward)
    return out


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor,
              b: Tensor):
    """One step of a standard 4-gate LSTM; returns (h_new, c_new).

    Gate layout along the last axis of ``w_ih``/``w_hh``/``b`` is
    [input, forget, cell-candidate, output], each of width H.
    ``x`` is (1, In), ``h`` and ``c`` are (1, H), ``w_ih`` (In, 4H),
    ``w_hh`` (H, 4H), ``b`` (1, 4H).
    """
    hdim = h.data.shape[1] if h.data.ndim == 2 else -1
    if (x.data.ndim != 2 or h.data.ndim != 2 or c.data.shape != h.data.shape
            or w_ih.data.shape != (x.data.shape[1], 4 * hdim)
            or w_hh.data.shape != (hdim, 4 * hdim)
            or b.data.shape != (1, 4 * hdim)):
        raise _shape_error("lstm_cell", x.data.shape, h.data.shape, c.data.shape,
                           w_ih.data.shape, w_hh.data.shape, b.data.shape)
    tape = _tape_of("lstm_cell", x, h, c, w_ih, w_hh, b)

    pre = x.data @ w_ih.data + h.data @ w_hh.data + b.data
    i = _sigmoid(pre[:, :hdim])
    f = _sigmoid(pre[:, hdim:2 * hdim])
    g = np.tanh(pre[:, 2 * hdim:3 * hdim])
    o = _sigmoid(pre[:, 3 * hdim:])
    c_new = f * c.data + i * g
    tc = np.tanh(c_new)
    h_out = tape._output(o * tc)
    c_out = tape._output(c_new.copy())

    def backward():
        dh = h_out.grad
        dc_in = c_out.grad
        if dh is None and dc_in is None:
            return
        dtype = pre.dtype
        dh = dh if dh is not None else np.zeros((1, hdim), dtype=dtype)
        dc = dc_in if dc_in is not None else np.zeros((1, hdim), dtype=dtype)
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c.data
        dg = dc * i
        dpre = np.concatenate([di * i * (1.0 - i),
                               df * f * (1.0 - f),
                               dg * (1.0 - g * g),
                               do * o * (1.0 - o)], axis=1)
        if _wants_grad(x):
            _acc(x, dpre @ w_ih.data.T)
        if _wants_grad(h):
            _acc(h, dpre @ w_hh.data.T)
        if _wants_grad(c):
            _acc(c, dc * f)
        if _wants_grad(w_ih):
            _acc(w_ih, x.data.T @ dpre)
        if _wants_grad(w_hh):
            _acc(w_hh, h.data.T @ dpre)
        if _wants_grad(b):
            _acc(b, dpre)

    tape._record(backward)
    return h_out, c_out


def bce_logits_mean(scores: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy between sigmoid(scores) and binary labels.

    Numerically stabilized form max(s,0) - s*y + log1p(exp(-|s|)); ``labels``
    is a plain array broadcastable to ``scores``. Output is (1, 1).
    """
    tape = scores.tape
    y = np.asarray(labels, dtype=scores.data.dtype).reshape(scores.data.shape)
    s = scores.data
    per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    n = s.size
    out = tape._output(np.asarray(per.mean(), dtype=s.dtype).reshape(1, 1))

    def backward():
        if out.grad is None or not _wants_grad(scores):
            return
        _acc(scores, out.grad[0, 0] * (_sigmoid(s) - y) / n)

    tape._record(backward)
    return out
