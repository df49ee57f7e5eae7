"""The Cosinet ranking model.

Each word gets a relatedness feature (its best cosine match against the
other text of its pair). The layers then work on a whole batch of pairs at
once: ``encode_pair`` zero-pads every side to the batch's longest (and to at
least the kernel width), one CNN per side, which projects each distinct
token of the batch once and runs at the windows that start at a real token
only, with global max pooling over those windows turns the batch into
sentence vectors, and each pair combines into [q * c; q - c].
The (n, 2H) pair embeddings can then be contextualized along the original
rank by a recurrent layer, one tape op per direction, before a single
linear head produces an (n, 1) column of scores, one per candidate.

Relatedness features are computed outside the tape: embeddings are frozen,
so they enter as plain arrays and nothing back-propagates through them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import struct
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import ndgrad
from .corpus import atomic_open
from .embeddings import UNKNOWN, EmbeddingTable, embed_sequence
from .ndgrad import Tape

CONTEXT_KINDS = ("none", "rnn", "birnn", "lstm", "bilstm")


@dataclass
class CosinetConfig:
    embedding_dim: int = 300
    conv_hidden: int = 300
    kernel_width: int = 5
    context: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.kernel_width < 1:
            raise ValueError(f"kernel_width must be >= 1, got {self.kernel_width}")
        if self.conv_hidden < 1:
            raise ValueError(f"conv_hidden must be >= 1, got {self.conv_hidden}")
        if self.context not in CONTEXT_KINDS:
            raise ValueError(f"unknown context kind {self.context!r}, expected one of {CONTEXT_KINDS}")
        if self.bidirectional and self.conv_hidden % 2:
            raise ValueError("bidirectional context needs an even conv_hidden")

    @property
    def bidirectional(self) -> bool:
        return self.context in ("birnn", "bilstm")

    @property
    def context_hidden(self) -> int | None:
        """Recurrence width per direction; the directions together are conv_hidden wide."""
        dirs = context_rule(self)[0]
        return self.conv_hidden // len(dirs) if dirs else None

    @property
    def pair_dim(self) -> int:
        return 2 * self.conv_hidden

    @property
    def head_input_dim(self) -> int:
        return self.pair_dim if self.context == "none" else self.conv_hidden


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


def context_rule(config: CosinetConfig):
    """(direction prefixes, gate count, bias names) of the context recurrence's parameters."""
    if config.context == "none":
        return (), 0, ()
    dirs = ("fw_", "bw_") if config.bidirectional else ("",)
    gates = 4 if config.context.endswith("lstm") else 1
    return dirs, gates, ("b_ih", "b_hh") if config.context == "rnn" else ("b",)


class CosinetParams:
    """All trainable weights in one contiguous ``flat`` vector.

    ``arrays`` is a read-only name -> view mapping into ``flat`` in declaration
    (and serialization) order, derived on every access so a deep copy's views
    stay tied to its own buffer. Weights are initialized uniform in
    +-sqrt(6 / (fan_in + fan_out)), biases zero, all from one seeded generator.
    """

    def __init__(self, config: CosinetConfig, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(config.seed)
        k, e1, h = config.kernel_width, config.embedding_dim + 1, config.conv_hidden
        arrays = {}

        def glorot(name, shape, fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            arrays[name] = rng.uniform(-limit, limit, size=shape).astype(self.dtype)

        def zeros(name, shape):
            arrays[name] = np.zeros(shape, dtype=self.dtype)

        glorot("q_conv_w", (k, e1, h), k * e1, h)
        zeros("q_conv_b", (h,))
        glorot("c_conv_w", (k, e1, h), k * e1, h)
        zeros("c_conv_b", (h,))

        d_in, ch = config.pair_dim, config.context_hidden
        dirs, gates, biases = context_rule(config)
        for d in dirs:
            glorot(f"ctx_{d}w_ih", (d_in, gates * ch), d_in, gates * ch)
            glorot(f"ctx_{d}w_hh", (ch, gates * ch), ch, gates * ch)
            for b in biases:
                zeros(f"ctx_{d}{b}", (1, gates * ch))

        glorot("head_w", (config.head_input_dim, 1), config.head_input_dim, 1)
        zeros("head_b", (1, 1))

        self.flat = np.concatenate([a.ravel() for a in arrays.values()])
        ends = itertools.accumulate(a.size for a in arrays.values())
        self._slots = {name: (slice(end - a.size, end), a.shape)
                       for (name, a), end in zip(arrays.items(), ends)}
        expected = expected_parameter_count(config)
        assert self.count() == expected, f"parameter count {self.count()} != expected {expected}"

    def _views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        return {name: buf[s].reshape(shape) for name, (s, shape) in self._slots.items()}

    @property
    def arrays(self) -> MappingProxyType:
        return MappingProxyType(self._views(self.flat))

    def count(self) -> int:
        return self.flat.size

    def as_leaves(self, tape: Tape, grad: np.ndarray | None = None) -> dict[str, ndgrad.Tensor]:
        grads = self._views(grad) if grad is not None else dict.fromkeys(self._slots)
        return {name: tape.leaf(arr, grads[name]) for name, arr in self.arrays.items()}


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
    """Frozen inputs of one pair: each side's token ids and relatedness column."""
    q_ids: np.ndarray     # (Tq,) rows of the table, UNKNOWN where a token has no vector
    q_r: np.ndarray       # (Tq,)
    c_ids: np.ndarray     # (Tc,)
    c_r: np.ndarray       # (Tc,)


def prepare_pair(q_tokens, c_tokens, table: EmbeddingTable) -> PairInput:
    """Each side's token ids plus each word's relatedness to the other side."""
    q_ids, q_emb = embed_sequence(q_tokens, table)
    c_ids, c_emb = embed_sequence(c_tokens, table)
    r_q, r_c = relatedness(q_emb, c_emb)
    return PairInput(q_ids, r_q, c_ids, r_c)


def encode_pair(pairs, table: EmbeddingTable, leaves: dict) -> ndgrad.Tensor:
    """CNN + masked max pool per side over a list of PairInput, as [q * c; q - c] (n, 2H)."""
    def tower(side, sides):
        # pad every side to the batch's longest, and to at least the kernel
        # width K, with UNKNOWN ids (zero rows) and zero relatedness; an
        # n-token side pools its max(1, n - K + 1) windows that start at a
        # real token, so padding never changes a score
        w = leaves[f"{side}_conv_w"]
        k = w.data.shape[0]
        t_max = max(k, max(len(ids) for ids, _ in sides))
        ids = np.full((len(sides), t_max), UNKNOWN)
        r = np.zeros((len(sides), t_max), dtype=w.data.dtype)
        mask = np.zeros((len(sides), t_max - k + 1), dtype=bool)
        for i, (side_ids, side_r) in enumerate(sides):
            ids[i, :len(side_ids)] = side_ids
            r[i, :len(side_ids)] = side_r
            mask[i, :max(1, len(side_ids) - k + 1)] = True
        # the conv projects each distinct token of the batch once
        distinct, inverse = np.unique(ids, return_inverse=True)
        rows = ndgrad.conv1d(table.rows(distinct), inverse.reshape(ids.shape), r,
                             w, leaves[f"{side}_conv_b"], mask)
        return ndgrad.masked_max_pool(rows, mask)

    q_e = tower("q", [(p.q_ids, p.q_r) for p in pairs])
    c_e = tower("c", [(p.c_ids, p.c_r) for p in pairs])
    return ndgrad.concat([ndgrad.mul(q_e, c_e), ndgrad.sub(q_e, c_e)], axis=1)


def contextualize(pair_vecs: ndgrad.Tensor, config: CosinetConfig, leaves: dict) -> ndgrad.Tensor:
    """Run the configured recurrence down the rank-ordered (n, 2H) pair embeddings.

    Returns one context row per candidate: the input unchanged for ``none``,
    the hidden states for rnn/lstm, and the forward/backward concatenation
    for the bidirectional variants. Initial states are zero.
    """
    dirs, gates, biases = context_rule(config)
    if not dirs:
        return pair_vecs
    cell = ndgrad.lstm_cell if gates == 4 else ndgrad.rnn_cell
    outs = [cell(pair_vecs, leaves[f"ctx_{d}w_ih"], leaves[f"ctx_{d}w_hh"],
                 functools.reduce(ndgrad.add, (leaves[f"ctx_{d}{b}"] for b in biases)),
                 reverse=d == "bw_")
            for d in dirs]
    return ndgrad.concat(outs, axis=1) if len(outs) > 1 else outs[0]


def score_pairs(pairs, table: EmbeddingTable, config: CosinetConfig, leaves: dict) -> ndgrad.Tensor:
    """Forward a rank-ordered list of PairInput (ids into ``table``) to an (n, 1) score column."""
    ctx = contextualize(encode_pair(pairs, table, leaves), config, leaves)
    return ndgrad.add(ndgrad.matmul(ctx, leaves["head_w"]), leaves["head_b"])


def prepare_group(group, table: EmbeddingTable) -> list[PairInput]:
    return [prepare_pair(group.question_tokens, c.tokens, table) for c in group.candidates]


def score_group(group, table: EmbeddingTable, params: CosinetParams,
                config: CosinetConfig) -> np.ndarray:
    """Inference-only scores for one group, in candidate order."""
    tape = Tape(dtype=params.dtype)  # the leaves hold it weakly
    leaves = params.as_leaves(tape)
    return score_pairs(prepare_group(group, table), table, config, leaves).data[:, 0]


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
    matrix first, then every trainable array in declaration order, which is
    ``params.flat`` as it stands. A SHA-256 over every byte before it
    (preamble, header and payload) closes the file. The file appears at
    ``path`` only once it is complete.
    """
    if table.dimension != config.embedding_dim:
        raise ValueError(f"save_model: embedding table is {table.dimension} wide, "
                         f"config embedding_dim is {config.embedding_dim}")
    vocab = table.tokens_in_order()
    manifest = [["embedding_matrix", list(table.matrix.shape)]]
    manifest += [[name, list(arr.shape)] for name, arr in params.arrays.items()]
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "embedding_dim": table.dimension,
        "vocab": vocab,
        "tensors": manifest,
    }, ensure_ascii=False).encode("utf-8")

    parts = [MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)), header,
             np.ascontiguousarray(table.matrix, dtype="<f4"),
             np.ascontiguousarray(params.flat, dtype="<f4")]
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
        settings = {**header["config"]}
        written = settings.pop("context_hidden", None)  # in files from before it was derived
        config = CosinetConfig(**settings)
        if "context_hidden" in header["config"] and written != config.context_hidden:
            raise ValueError(f"{path}: config context_hidden {written} is not the "
                             f"width {config.context_hidden} that {config.context!r} derives")
        offset, arrays = 0, {}
        for name, shape in header["tensors"]:
            if name in arrays:
                raise ValueError(f"{path}: tensor {name} listed twice")
            size = int(np.prod(shape)) * 4
            arrays[name] = np.frombuffer(payload[offset:offset + size], "<f4").reshape(shape)
            offset += size
        if offset != len(payload):
            raise ValueError(f"{path}: payload length mismatch")
        vocab = {tok: i for i, tok in enumerate(header["vocab"])}
        matrix = arrays.pop("embedding_matrix").copy()  # its own rows, not views of the file
        table = EmbeddingTable(vocab, matrix)
        if not header["embedding_dim"] == table.dimension == config.embedding_dim:
            raise ValueError(f"{path}: embedding matrix is {table.dimension} wide, header "
                             f"embedding_dim is {header['embedding_dim']}, config "
                             f"embedding_dim is {config.embedding_dim}")
        params = CosinetParams(config, dtype=np.float32)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header ({exc})") from exc
    unknown = sorted(set(arrays) - set(params.arrays))
    if unknown:
        raise ValueError(f"{path}: unknown tensor {unknown[0]}")
    for name, view in params.arrays.items():
        if name not in arrays:
            raise ValueError(f"{path}: missing tensor {name}")
        if tuple(arrays[name].shape) != view.shape:
            raise ValueError(f"{path}: tensor {name} has shape {arrays[name].shape}, "
                             f"expected {view.shape}")
        view[...] = arrays[name]
    return config, params, table
