"""The Cosinet ranking model.

Each word gets a relatedness feature (its best cosine match against the
other text of its pair). The layers then work on a whole batch of pairs at
once: ``encode_pair`` zero-pads every side to the batch's longest (and to at
least the kernel width), one CNN per side, run at the windows that start at
a real token only, with global max pooling over those windows turns the
batch into sentence vectors, and each pair combines into [q * c; q - c].
The (n, 2H) pair embeddings can then be contextualized along the original
rank by a recurrent layer, one tape op per direction, before a single
linear head produces an (n, 1) column of scores, one per candidate.

Relatedness features are computed outside the tape: embeddings are frozen,
so they enter as plain arrays and nothing back-propagates through them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import ndgrad
from .corpus import atomic_open
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
        return {name: tape.leaf(arr) for name, arr in self.arrays.items()}


# ---------------------------------------------------------------------------
# forward pieces


def relatedness(q_emb: np.ndarray, c_emb: np.ndarray):
    """Per-word best cosine match against every word of the other text.

    Returns (r_q, r_c): r_q[i] = max over j of cos(q_i, c_j), and
    symmetrically for r_c. Cosine with a zero-norm (OOV) vector is defined
    as 0.
    """
    q_emb = np.asarray(q_emb)
    c_emb = np.asarray(c_emb)
    if q_emb.ndim != 2 or c_emb.ndim != 2 or q_emb.shape[1] != c_emb.shape[1]:
        raise ValueError(f"relatedness: bad shapes {q_emb.shape} vs {c_emb.shape}")
    if q_emb.shape[0] == 0 or c_emb.shape[0] == 0:
        raise ValueError("relatedness: empty side")

    def normalize(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return np.divide(m, norms, out=np.zeros_like(m, dtype=np.result_type(m, np.float32)),
                         where=norms > 0)

    r = normalize(q_emb) @ normalize(c_emb).T
    return r.max(axis=1), r.max(axis=0)


@dataclass
class PairInput:
    """Frozen inputs of one pair: each side's embeddings plus a relatedness column."""
    q_x: np.ndarray       # (Tq, dim+1)
    c_x: np.ndarray       # (Tc, dim+1)


def prepare_pair_matrices(q_emb, c_emb) -> PairInput:
    """Append each word's relatedness to its embedding, on both sides."""
    q_emb = np.asarray(q_emb, dtype=np.float32)
    c_emb = np.asarray(c_emb, dtype=np.float32)
    r_q, r_c = relatedness(q_emb, c_emb)
    return PairInput(np.column_stack([q_emb, r_q]), np.column_stack([c_emb, r_c]))


def prepare_pair(q_tokens, c_tokens, table: EmbeddingTable) -> PairInput:
    return prepare_pair_matrices(embed_sequence(q_tokens, table), embed_sequence(c_tokens, table))


def encode_pair(pairs, leaves: dict, tape: Tape) -> ndgrad.Tensor:
    """CNN + masked max pool per side over a list of PairInput, as [q * c; q - c] (n, 2H)."""
    def tower(side, xs):
        # zero-pad every side to the batch's longest, and to at least the
        # kernel width K; an n-token side pools its max(1, n - K + 1) windows
        # that start at a real token, so padding never changes a score
        w = leaves[f"{side}_conv_w"]
        k = w.data.shape[0]
        t_max = max(k, max(len(xi) for xi in xs))
        x = np.zeros((len(xs), t_max, xs[0].shape[1]), dtype=tape.dtype)
        mask = np.zeros((len(xs), t_max - k + 1), dtype=bool)
        for i, xi in enumerate(xs):
            x[i, :len(xi)] = xi
            mask[i, :max(1, len(xi) - k + 1)] = True
        rows = ndgrad.conv1d(x, w, leaves[f"{side}_conv_b"], mask)
        return ndgrad.masked_max_pool(rows, mask)

    q_e = tower("q", [p.q_x for p in pairs])
    c_e = tower("c", [p.c_x for p in pairs])
    return ndgrad.concat([ndgrad.mul(q_e, c_e), ndgrad.sub(q_e, c_e)], axis=1)


def contextualize(pair_vecs: ndgrad.Tensor, config: CosinetConfig, leaves: dict) -> ndgrad.Tensor:
    """Run the configured recurrence down the rank-ordered (n, 2H) pair embeddings.

    Returns one context row per candidate: the input unchanged for ``none``,
    the hidden states for rnn/lstm, and the forward/backward concatenation
    for the bidirectional variants. Initial states are zero.
    """
    kind = config.context
    if kind == "none":
        return pair_vecs
    cell = ndgrad.lstm_cell if kind.endswith("lstm") else ndgrad.rnn_cell
    if kind == "rnn":
        b = ndgrad.add(leaves["ctx_b_ih"], leaves["ctx_b_hh"])
        return cell(pair_vecs, leaves["ctx_w_ih"], leaves["ctx_w_hh"], b)
    if kind == "lstm":
        return cell(pair_vecs, leaves["ctx_w_ih"], leaves["ctx_w_hh"], leaves["ctx_b"])
    return ndgrad.concat([cell(pair_vecs, leaves[f"ctx_{d}_w_ih"], leaves[f"ctx_{d}_w_hh"],
                               leaves[f"ctx_{d}_b"], reverse=d == "bw")
                          for d in ("fw", "bw")], axis=1)


def score_pairs(pairs, config: CosinetConfig, leaves: dict, tape: Tape) -> ndgrad.Tensor:
    """Forward a rank-ordered list of PairInput to an (n, 1) score column."""
    ctx = contextualize(encode_pair(pairs, leaves, tape), config, leaves)
    return ndgrad.add(ndgrad.matmul(ctx, leaves["head_w"]), leaves["head_b"])


def prepare_group(group, table: EmbeddingTable) -> list[PairInput]:
    return [prepare_pair(group.question_tokens, c.tokens, table) for c in group.candidates]


def score_group(group, table: EmbeddingTable, params: CosinetParams,
                config: CosinetConfig) -> np.ndarray:
    """Inference-only scores for one group, in candidate order."""
    tape = Tape(dtype=params.dtype)
    leaves = params.as_leaves(tape)
    return score_pairs(prepare_group(group, table), config, leaves, tape).data[:, 0]


def make_scorer(params: CosinetParams, config: CosinetConfig, table: EmbeddingTable):
    """A ``metrics.evaluate``-compatible scorer closed over frozen state."""
    def scorer(group):
        return score_group(group, table, params, config)
    return scorer


# ---------------------------------------------------------------------------
# serialization

MAGIC = b"COSINET\x00"
FORMAT_VERSION = 2  # version 1 files (digest over the payload only) still load


def save_model(path, config: CosinetConfig, params: CosinetParams, table: EmbeddingTable) -> None:
    """Write the versioned model container (layout documented in README).

    Payload tensors are 32-bit little-endian floats: the frozen embedding
    matrix first, then every trainable array in declaration order. A
    SHA-256 over every byte before it (preamble, header and payload) closes
    the file. The file appears at ``path`` only once it is complete.
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

    arrays = [table.matrix] + [params.arrays[name] for name in params.names()]
    parts = itertools.chain([MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)), header],
                            (np.ascontiguousarray(a, dtype="<f4") for a in arrays))
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def load_model(path):
    """Read a model container back; returns (config, params, table) or raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 + 32 or blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a model file (too short or bad magic)")
    version, header_len = struct.unpack_from("<IQ", blob, 8)
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported format version {version}")
    header_end = 20 + header_len
    if header_end > len(blob) - 32:
        raise ValueError(f"{path}: header length {header_len} runs past the end of the file")
    body = memoryview(blob)[:-32]
    payload = body[header_end:]
    if hashlib.sha256(payload if version == 1 else body).digest() != blob[-32:]:
        raise ValueError(f"{path}: checksum mismatch (corrupt file)")

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
