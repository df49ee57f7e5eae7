"""The Cosinet ranking model.

Per question/candidate pair: each word gets a relatedness feature (its best
cosine match against the other text), the augmented embeddings go through a
per-side CNN with masked global max pooling, and the two sentence vectors
combine into a pair embedding [q * c; q - c]. Candidate pair embeddings can
then be contextualized along the original rank by a recurrent layer before
a single linear head produces one score per candidate.

Relatedness features are computed outside the tape: embeddings are frozen,
so nothing back-propagates through them.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import ndgrad
from .embeddings import EmbeddingTable, embed_sequence
from .ndgrad import Tape

CONTEXT_KINDS = ("none", "rnn", "birnn", "lstm", "bilstm")


@dataclass
class CosinetConfig:
    embedding_dim: int = 300
    conv_hidden: int = 300
    kernel_width: int = 5
    context: str = "none"
    context_hidden: int | None = None  # per direction if bidirectional
    seed: int = 0

    def __post_init__(self):
        if self.kernel_width < 1:
            raise ValueError(f"kernel_width must be >= 1, got {self.kernel_width}")
        if self.conv_hidden < 1:
            raise ValueError(f"conv_hidden must be >= 1, got {self.conv_hidden}")
        if self.context not in CONTEXT_KINDS:
            raise ValueError(f"unknown context kind {self.context!r}, expected one of {CONTEXT_KINDS}")
        if self.context_hidden is None:
            if self.bidirectional:
                if self.conv_hidden % 2:
                    raise ValueError("bidirectional context needs an even conv_hidden")
                self.context_hidden = self.conv_hidden // 2
            elif self.context != "none":
                self.context_hidden = self.conv_hidden
        elif self.bidirectional and self.context_hidden != self.conv_hidden // 2:
            raise ValueError("bidirectional context_hidden per direction must be conv_hidden/2")

    @property
    def bidirectional(self) -> bool:
        return self.context in ("birnn", "bilstm")

    @property
    def pair_dim(self) -> int:
        return 2 * self.conv_hidden

    @property
    def head_input_dim(self) -> int:
        if self.context == "none":
            return self.pair_dim
        if self.bidirectional:
            return 2 * self.context_hidden
        return self.context_hidden


def expected_parameter_count(config: CosinetConfig) -> int:
    """Closed-form trainable parameter count (excludes the frozen table).

    Two unshared conv towers, the contextualizer cell, and the linear head.
    The unidirectional simple recurrence keeps separate input and hidden
    biases; the LSTM and both bidirectional variants use one fused bias.
    """
    k, e, h = config.kernel_width, config.embedding_dim, config.conv_hidden
    towers = 2 * ((e + 1) * k * h + h)
    ctx = 0
    d_in = 2 * h
    ch = config.context_hidden or 0
    if config.context == "rnn":
        ctx = d_in * ch + ch * ch + 2 * ch
    elif config.context == "birnn":
        ctx = 2 * (d_in * ch + ch * ch + ch)
    elif config.context == "lstm":
        ctx = d_in * 4 * ch + ch * 4 * ch + 4 * ch
    elif config.context == "bilstm":
        ctx = 2 * (d_in * 4 * ch + ch * 4 * ch + 4 * ch)
    head = config.head_input_dim + 1
    return towers + ctx + head


class CosinetParams:
    """All trainable weights as an ordered name -> array mapping.

    Declaration order is the serialization order. Weights are initialized
    uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero, all draws from
    one seeded generator so construction is reproducible.
    """

    def __init__(self, config: CosinetConfig, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(config.seed)
        k, e1, h = config.kernel_width, config.embedding_dim + 1, config.conv_hidden
        self.arrays: dict[str, np.ndarray] = {}

        def glorot(name, shape, fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.arrays[name] = rng.uniform(-limit, limit, size=shape).astype(self.dtype)

        def zeros(name, shape):
            self.arrays[name] = np.zeros(shape, dtype=self.dtype)

        glorot("q_conv_w", (k, e1, h), k * e1, h)
        zeros("q_conv_b", (h,))
        glorot("c_conv_w", (k, e1, h), k * e1, h)
        zeros("c_conv_b", (h,))

        d_in = config.pair_dim
        ch = config.context_hidden
        if config.context == "rnn":
            glorot("ctx_w_ih", (d_in, ch), d_in, ch)
            glorot("ctx_w_hh", (ch, ch), ch, ch)
            zeros("ctx_b_ih", (1, ch))
            zeros("ctx_b_hh", (1, ch))
        elif config.context == "birnn":
            for d in ("fw", "bw"):
                glorot(f"ctx_{d}_w_ih", (d_in, ch), d_in, ch)
                glorot(f"ctx_{d}_w_hh", (ch, ch), ch, ch)
                zeros(f"ctx_{d}_b", (1, ch))
        elif config.context == "lstm":
            glorot("ctx_w_ih", (d_in, 4 * ch), d_in, 4 * ch)
            glorot("ctx_w_hh", (ch, 4 * ch), ch, 4 * ch)
            zeros("ctx_b", (1, 4 * ch))
        elif config.context == "bilstm":
            for d in ("fw", "bw"):
                glorot(f"ctx_{d}_w_ih", (d_in, 4 * ch), d_in, 4 * ch)
                glorot(f"ctx_{d}_w_hh", (ch, 4 * ch), ch, 4 * ch)
                zeros(f"ctx_{d}_b", (1, 4 * ch))

        glorot("head_w", (config.head_input_dim, 1), config.head_input_dim, 1)
        zeros("head_b", (1, 1))

        actual = self.count()
        expected = expected_parameter_count(config)
        assert actual == expected, f"parameter count {actual} != expected {expected}"

    def count(self) -> int:
        return sum(a.size for a in self.arrays.values())

    def names(self) -> list[str]:
        return list(self.arrays)

    def as_leaves(self, tape: Tape) -> dict[str, ndgrad.Tensor]:
        return {name: tape.leaf(arr, requires_grad=True) for name, arr in self.arrays.items()}


# ---------------------------------------------------------------------------
# forward pieces


def relatedness(q_emb: np.ndarray, c_emb: np.ndarray, q_mask=None, c_mask=None):
    """Per-word best cosine match against the other text's real tokens.

    Returns (r_q, r_c): r_q[i] = max over real j of cos(q_i, c_j), and
    symmetrically for r_c. Cosine with a zero-norm vector (OOV or padding)
    is defined as 0. Masks mark real tokens; None means all rows are real.
    """
    q_emb = np.asarray(q_emb)
    c_emb = np.asarray(c_emb)
    if q_emb.ndim != 2 or c_emb.ndim != 2 or q_emb.shape[1] != c_emb.shape[1]:
        raise ValueError(f"relatedness: bad shapes {q_emb.shape} vs {c_emb.shape}")
    if q_emb.shape[0] == 0 or c_emb.shape[0] == 0:
        raise ValueError("relatedness: empty side")
    q_real = np.arange(q_emb.shape[0]) if q_mask is None else np.flatnonzero(np.asarray(q_mask))
    c_real = np.arange(c_emb.shape[0]) if c_mask is None else np.flatnonzero(np.asarray(c_mask))
    if q_real.size == 0 or c_real.size == 0:
        raise ValueError("relatedness: side consists only of padding")

    def normalize(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return np.divide(m, norms, out=np.zeros_like(m, dtype=np.result_type(m, np.float32)),
                         where=norms > 0)

    r = normalize(q_emb) @ normalize(c_emb).T
    r_q = np.zeros(q_emb.shape[0], dtype=r.dtype)
    r_c = np.zeros(c_emb.shape[0], dtype=r.dtype)
    r_q[q_real] = r[np.ix_(q_real, c_real)].max(axis=1)
    r_c[c_real] = r[np.ix_(q_real, c_real)].max(axis=0)
    return r_q, r_c


@dataclass
class PairInput:
    """Constant (frozen) inputs of one pair: augmented matrices + pool masks."""
    q_x: np.ndarray       # (Tq, dim+1) embeddings with relatedness column, zero-padded
    c_x: np.ndarray       # (Tc, dim+1)
    q_win_valid: np.ndarray  # conv-output window validity (windows over the real tokens)
    c_win_valid: np.ndarray


def _augment_and_pad(emb: np.ndarray, rel: np.ndarray, kernel_width: int, extra_pad: int):
    n = emb.shape[0]
    aug = np.concatenate([emb, rel[:, None]], axis=1)
    target = max(n + extra_pad, kernel_width)
    if target > n:
        aug = np.vstack([aug, np.zeros((target - n, aug.shape[1]), dtype=aug.dtype)])
    # valid windows are those of a valid convolution over the real tokens
    # (padded up to the kernel width when shorter); trailing padding only
    # ever adds invalid windows, so pooled outputs are padding-invariant
    win_valid = np.zeros(target - kernel_width + 1, dtype=bool)
    win_valid[:max(1, n - kernel_width + 1)] = True
    return aug, win_valid


def prepare_pair_matrices(q_emb, c_emb, kernel_width: int, pad_q: int = 0, pad_c: int = 0) -> PairInput:
    """Relatedness-augment both sides and zero-pad to at least the kernel width.

    ``pad_q``/``pad_c`` append extra padding rows (output must be invariant
    to them thanks to the window-validity pooling masks).
    """
    q_emb = np.asarray(q_emb, dtype=np.float32)
    c_emb = np.asarray(c_emb, dtype=np.float32)
    r_q, r_c = relatedness(q_emb, c_emb)
    q_x, q_valid = _augment_and_pad(q_emb, r_q, kernel_width, pad_q)
    c_x, c_valid = _augment_and_pad(c_emb, r_c, kernel_width, pad_c)
    return PairInput(q_x, c_x, q_valid, c_valid)


def prepare_pair(q_tokens, c_tokens, table: EmbeddingTable, kernel_width: int,
                 pad_q: int = 0, pad_c: int = 0) -> PairInput:
    q_emb, _ = embed_sequence(q_tokens, table)
    c_emb, _ = embed_sequence(c_tokens, table)
    return prepare_pair_matrices(q_emb, c_emb, kernel_width, pad_q, pad_c)


def encode_pair(pair: PairInput, leaves: dict, tape: Tape) -> ndgrad.Tensor:
    """CNN + masked max pool per side, combined as [q * c; q - c] (1, 2H)."""
    qx = tape.constant(pair.q_x)
    cx = tape.constant(pair.c_x)
    q_conv = ndgrad.conv1d(qx, leaves["q_conv_w"], leaves["q_conv_b"])
    c_conv = ndgrad.conv1d(cx, leaves["c_conv_w"], leaves["c_conv_b"])
    q_e = ndgrad.masked_max_pool(q_conv, pair.q_win_valid)
    c_e = ndgrad.masked_max_pool(c_conv, pair.c_win_valid)
    return ndgrad.concat([ndgrad.mul(q_e, c_e), ndgrad.sub(q_e, c_e)], axis=1)


def contextualize(pair_vecs, config: CosinetConfig, leaves: dict, tape: Tape):
    """Run the configured recurrence over the rank-ordered pair embeddings.

    Returns one context vector per candidate: the inputs unchanged for
    ``none``, per-step hidden states for rnn/lstm, and the forward/backward
    concatenation for the bidirectional variants. Initial states are zero.
    """
    kind = config.context
    if kind == "none":
        return list(pair_vecs)
    ch = config.context_hidden

    def run_rnn(vecs, w_ih, w_hh, b):
        h = tape.constant(np.zeros((1, ch)))
        out = []
        for x in vecs:
            h = ndgrad.rnn_cell(x, h, w_ih, w_hh, b)
            out.append(h)
        return out

    def run_lstm(vecs, w_ih, w_hh, b):
        h = tape.constant(np.zeros((1, ch)))
        c = tape.constant(np.zeros((1, ch)))
        out = []
        for x in vecs:
            h, c = ndgrad.lstm_cell(x, h, c, w_ih, w_hh, b)
            out.append(h)
        return out

    if kind == "rnn":
        b = ndgrad.add(leaves["ctx_b_ih"], leaves["ctx_b_hh"])
        return run_rnn(pair_vecs, leaves["ctx_w_ih"], leaves["ctx_w_hh"], b)
    if kind == "lstm":
        return run_lstm(pair_vecs, leaves["ctx_w_ih"], leaves["ctx_w_hh"], leaves["ctx_b"])
    if kind == "birnn":
        fw = run_rnn(pair_vecs, leaves["ctx_fw_w_ih"], leaves["ctx_fw_w_hh"], leaves["ctx_fw_b"])
        bw = run_rnn(list(reversed(pair_vecs)), leaves["ctx_bw_w_ih"],
                     leaves["ctx_bw_w_hh"], leaves["ctx_bw_b"])[::-1]
    else:  # bilstm
        fw = run_lstm(pair_vecs, leaves["ctx_fw_w_ih"], leaves["ctx_fw_w_hh"], leaves["ctx_fw_b"])
        bw = run_lstm(list(reversed(pair_vecs)), leaves["ctx_bw_w_ih"],
                      leaves["ctx_bw_w_hh"], leaves["ctx_bw_b"])[::-1]
    return [ndgrad.concat([f, b], axis=1) for f, b in zip(fw, bw)]


def score_pairs(pairs, config: CosinetConfig, leaves: dict, tape: Tape) -> ndgrad.Tensor:
    """Forward a rank-ordered list of PairInput to a (1, n) score row."""
    vecs = [encode_pair(p, leaves, tape) for p in pairs]
    ctx = contextualize(vecs, config, leaves, tape)
    stacked = ctx[0] if len(ctx) == 1 else ndgrad.concat(ctx, axis=0)
    col = ndgrad.add(ndgrad.matmul(stacked, leaves["head_w"]), leaves["head_b"])
    return ndgrad.transpose(col)


def prepare_group(group, table: EmbeddingTable, config: CosinetConfig) -> list[PairInput]:
    return [prepare_pair(group.question_tokens, c.tokens, table, config.kernel_width)
            for c in group.candidates]


def score_group(group, table: EmbeddingTable, params: CosinetParams,
                config: CosinetConfig) -> np.ndarray:
    """Inference-only scores for one group, in candidate order."""
    tape = Tape(dtype=params.dtype)
    leaves = params.as_leaves(tape)
    row = score_pairs(prepare_group(group, table, config), config, leaves, tape)
    return row.data[0].copy()


def make_scorer(params: CosinetParams, config: CosinetConfig, table: EmbeddingTable):
    """A ``metrics.evaluate``-compatible scorer closed over frozen state."""
    def scorer(group):
        return score_group(group, table, params, config)
    return scorer


# ---------------------------------------------------------------------------
# serialization

MAGIC = b"COSINET\x00"
FORMAT_VERSION = 1


def save_model(path, config: CosinetConfig, params: CosinetParams, table: EmbeddingTable) -> None:
    """Write the versioned model container (layout documented in README).

    Payload tensors are 32-bit little-endian floats: the frozen embedding
    matrix first, then every trainable array in declaration order. A
    SHA-256 over the payload closes the file.
    """
    vocab = table.tokens_in_order()
    manifest = [["embedding_matrix", list(table.matrix.shape)]]
    manifest += [[name, list(params.arrays[name].shape)] for name in params.names()]
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "embedding_dim": table.dimension,
        "vocab": vocab,
        "tensors": manifest,
    }, ensure_ascii=False).encode("utf-8")

    payload = bytearray()
    payload += np.ascontiguousarray(table.matrix, dtype="<f4").tobytes()
    for name in params.names():
        payload += np.ascontiguousarray(params.arrays[name], dtype="<f4").tobytes()

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest())


def load_model(path):
    """Read a model container back; returns (config, params, table) or raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 + 32 or blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a model file (too short or bad magic)")
    version, header_len = struct.unpack_from("<IQ", blob, 8)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    header_end = 20 + header_len
    if header_end > len(blob) - 32:
        raise ValueError(f"{path}: header length {header_len} runs past the end of the file")
    payload = blob[header_end:-32]
    if hashlib.sha256(payload).digest() != blob[-32:]:
        raise ValueError(f"{path}: payload checksum mismatch (corrupt file)")

    try:
        header = json.loads(blob[20:header_end].decode("utf-8"))
        config = CosinetConfig(**header["config"])
        offset, arrays = 0, {}
        for name, shape in header["tensors"]:
            size = int(np.prod(shape)) * 4
            arrays[name] = np.frombuffer(payload[offset:offset + size], "<f4").reshape(shape).copy()
            offset += size
        if offset != len(payload):
            raise ValueError(f"{path}: payload length mismatch")
        vocab = {tok: i for i, tok in enumerate(header["vocab"])}
        table = EmbeddingTable(vocab, arrays.pop("embedding_matrix"), header["embedding_dim"])
        params = CosinetParams(config, dtype=np.float32)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header ({exc})") from exc
    for name in params.names():
        if name not in arrays:
            raise ValueError(f"{path}: missing tensor {name}")
        if tuple(arrays[name].shape) != params.arrays[name].shape:
            raise ValueError(f"{path}: tensor {name} has shape {arrays[name].shape}, "
                             f"expected {params.arrays[name].shape}")
        params.arrays[name] = arrays[name]
    return config, params, table
