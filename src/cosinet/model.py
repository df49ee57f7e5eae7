"""The Cosinet ranking model.

Each word gets a relatedness feature (its best cosine match against the
other text of its pair). ``prepare_group`` embeds a group's question once,
all of its candidates' tokens in one lookup, and takes every candidate's
relatedness from one cosine matmul; ``prepare_pair`` is its one-candidate
case. The layers then work on a whole batch of pairs at once:
``encode_pair`` zero-pads every side to the batch's longest (and to at
least the kernel width), one CNN per side, which projects each distinct
token of the batch once and runs at the windows that start at a real token
only, with global max pooling over those windows turns the batch into
sentence vectors, and each pair combines into [q * c; q - c].
The (n, 2H) pair embeddings can then be contextualized along the original
rank by a recurrent layer, one tape op for both directions, before a single
linear head produces an (n, 1) column of scores, one per candidate.

Relatedness features are computed outside the tape: embeddings are frozen,
so they enter as plain arrays and nothing back-propagates through them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
import typing
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import ndgrad
from .corpus import atomic_open
from .embeddings import NO_TOKENS, UNKNOWN, EmbeddingTable, embed_sequence
from .ndgrad import Tape

CONTEXT_KINDS = ("none", "rnn", "birnn", "lstm", "bilstm")


def check_setting_types(settings) -> None:
    """Reject a dataclass field not of its declared type: a bool is no int, an int is a float."""
    for name, want in typing.get_type_hints(type(settings)).items():
        value = getattr(settings, name)
        allowed = typing.get_args(want) or (want,)
        allowed += (int,) if float in allowed else ()
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"setting {name!r} must be {getattr(want, '__name__', want)}, "
                             f"got {value!r}")


@dataclass
class CosinetConfig:
    embedding_dim: int = 300
    conv_hidden: int = 300
    kernel_width: int = 5
    context: str = "none"
    seed: int = 0

    def __post_init__(self):
        check_setting_types(self)
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.kernel_width < 1:
            raise ValueError(f"kernel_width must be >= 1, got {self.kernel_width}")
        if self.conv_hidden < 1:
            raise ValueError(f"conv_hidden must be >= 1, got {self.conv_hidden}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def param_layout(config: CosinetConfig) -> dict[str, tuple[tuple[int, ...], bool]]:
    """name -> (shape, drawn) of every trainable array, in declaration (and file) order.

    A drawn weight starts uniform in +-sqrt(6 / (fan_in + fan_out)), with its
    last axis as fan-out and the others as fan-in; a bias starts at zero.
    """
    k, e1, h = config.kernel_width, config.embedding_dim + 1, config.conv_hidden
    layout = {"q_conv_w": ((k, e1, h), True), "q_conv_b": ((h,), False),
              "c_conv_w": ((k, e1, h), True), "c_conv_b": ((h,), False)}
    d_in, ch = config.pair_dim, config.context_hidden
    dirs, gates, biases = context_rule(config)
    for d in dirs:
        layout[f"ctx_{d}w_ih"] = (d_in, gates * ch), True
        layout[f"ctx_{d}w_hh"] = (ch, gates * ch), True
        layout.update({f"ctx_{d}{b}": ((1, gates * ch), False) for b in biases})
    return layout | {"head_w": ((config.head_input_dim, 1), True), "head_b": ((1, 1), False)}


class CosinetParams:
    """All trainable weights in one contiguous ``flat`` vector, laid out by ``param_layout``.

    ``arrays`` is a read-only name -> view mapping into ``flat`` in declaration
    (and serialization) order, derived on every access so a deep copy's views
    stay tied to its own buffer. The drawn weights come from one seeded generator.
    """

    def __init__(self, config: CosinetConfig, dtype=np.float32, *, draw: bool = True):
        """The layout of ``config``'s weights, initialized as ``param_layout`` says.

        With ``draw`` False every weight is left zero and no random number is
        drawn, for a caller that fills in all of ``flat`` (``load_model``).
        """
        self.dtype = np.dtype(dtype)
        layout = param_layout(config)
        sizes = [math.prod(shape) for shape, _ in layout.values()]
        self._slots = {name: (slice(end - size, end), shape)
                       for (name, (shape, _)), size, end
                       in zip(layout.items(), sizes, itertools.accumulate(sizes))}
        self.flat = np.zeros(sum(sizes), dtype=self.dtype)
        expected = expected_parameter_count(config)
        assert self.count() == expected, f"parameter count {self.count()} != expected {expected}"
        if draw:
            rng = np.random.default_rng(config.seed)
            views = self._views(self.flat)
            for name, (shape, drawn) in layout.items():  # in order: a seed fixes every weight
                if drawn:
                    limit = np.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
                    views[name][...] = rng.uniform(-limit, limit, size=shape)

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


def relatedness(q_emb: np.ndarray, c_emb: np.ndarray, c_lengths):
    """Per-word best cosine match against every word of the other text.

    ``c_emb`` holds the rows of one or more candidates back to back,
    ``c_lengths[i]`` of them for candidate i. Returns (r_q, r_c): r_q is
    (n, Tq), with r_q[i, t] the max over candidate i's words j of
    cos(q_t, c_j); r_c[j] is the max over t of cos(q_t, c_j), one per row of
    ``c_emb``. Cosine with a zero-norm (OOV) vector is defined as 0. Each
    side is normalized once and all cosines come from one
    (Tq, E) @ (E, sum Tc) matmul.
    """
    q_emb = np.asarray(q_emb)
    c_emb = np.asarray(c_emb)
    if q_emb.ndim != 2 or c_emb.ndim != 2 or q_emb.shape[1] != c_emb.shape[1]:
        raise ValueError(f"relatedness: bad shapes {q_emb.shape} vs {c_emb.shape}")
    lengths = np.array(c_lengths, dtype=np.intp)
    # np.maximum.reduceat gives an empty segment its start's value, so a
    # candidate without rows would take another candidate's relatedness
    if q_emb.shape[0] == 0 or not lengths.size or lengths.min() < 1:
        raise ValueError("relatedness: empty side")
    if lengths.sum() != c_emb.shape[0]:
        raise ValueError(f"relatedness: candidate lengths sum to {lengths.sum()}, "
                         f"not the {c_emb.shape[0]} candidate rows")

    def normalize(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = np.inf  # a zero row stays zero: cosine 0 with every word
        return m / norms

    r = normalize(q_emb) @ normalize(c_emb).T
    starts = np.cumsum(lengths) - lengths
    return np.maximum.reduceat(r, starts, axis=1).T, r.max(axis=0)


@dataclass
class PairInput:
    """Frozen inputs of one pair: each side's token ids and relatedness column."""
    q_ids: np.ndarray     # (Tq,) rows of the table, UNKNOWN where a token has no vector
    q_r: np.ndarray       # (Tq,)
    c_ids: np.ndarray     # (Tc,)
    c_r: np.ndarray       # (Tc,)


def prepare_pair(q_tokens, c_tokens, table: EmbeddingTable) -> PairInput:
    """Each side's token ids plus each word's relatedness to the other side."""
    return _prepare(q_tokens, [c_tokens], table)[0]


def prepare_group(group, table: EmbeddingTable) -> list[PairInput]:
    """One PairInput per candidate of ``group``, in candidate order."""
    return _prepare(group.question_tokens, [c.tokens for c in group.candidates], table)


def _prepare(q_tokens, candidates, table: EmbeddingTable) -> list[PairInput]:
    """The PairInputs of one question against each token list of ``candidates``.

    The question is embedded once, every candidate token in one lookup, and
    ``relatedness`` takes one cosine matmul for the lot.
    """
    q_ids, q_emb = embed_sequence(q_tokens, table)
    lengths = [len(tokens) for tokens in candidates]
    if not all(lengths):
        raise ValueError(NO_TOKENS)
    c_ids, c_emb = embed_sequence([t for tokens in candidates for t in tokens], table)
    r_q, r_c = relatedness(q_emb, c_emb, lengths)
    ends = list(itertools.accumulate(lengths))
    return [PairInput(q_ids, q_r, c_ids[lo:hi], r_c[lo:hi])
            for q_r, lo, hi in zip(r_q, [0] + ends, ends)]


def encode_pair(pairs, table: EmbeddingTable, leaves: dict) -> ndgrad.Tensor:
    """CNN + masked max pool per side over a list of PairInput, as [q * c; q - c] (n, 2H)."""
    def tower(side, sides):
        # pad every side to the batch's longest, and to at least the kernel
        # width K, with UNKNOWN ids (zero rows) and zero relatedness; an
        # n-token side pools its max(1, n - K + 1) windows that start at a
        # real token, so padding never changes a score
        w = leaves[f"{side}_conv_w"]
        k = w.data.shape[0]
        lens = np.array([len(ids) for ids, _ in sides])
        t_max = max(k, lens.max())
        real = np.arange(t_max) < lens[:, None]  # fills row by row, in side order
        ids = np.full(real.shape, UNKNOWN)
        ids[real] = np.concatenate([side_ids for side_ids, _ in sides])
        r = np.zeros(real.shape, dtype=w.data.dtype)
        r[real] = np.concatenate([side_r for _, side_r in sides])
        mask = np.arange(t_max - k + 1) < np.maximum(1, lens - k + 1)[:, None]
        # the conv projects each distinct token of the batch once
        distinct, inverse = np.unique(ids, return_inverse=True)
        rows = ndgrad.conv1d(table.rows(distinct), inverse.reshape(ids.shape), r,
                             w, leaves[f"{side}_conv_b"], mask)
        return ndgrad.masked_max_pool(rows, mask)

    q_e = tower("q", [(p.q_ids, p.q_r) for p in pairs])
    c_e = tower("c", [(p.c_ids, p.c_r) for p in pairs])
    return ndgrad.pair_combine(q_e, c_e)


def contextualize(pair_vecs: ndgrad.Tensor, config: CosinetConfig, leaves: dict) -> ndgrad.Tensor:
    """Run the configured recurrence down the rank-ordered (n, 2H) pair embeddings.

    Returns one context row per candidate: the input unchanged for ``none``,
    the hidden states for rnn/lstm, and both directions' states side by side
    for the bidirectional variants. Initial states are zero.
    """
    dirs, gates, biases = context_rule(config)
    if not dirs:
        return pair_vecs
    cell = ndgrad.lstm_cell if gates == 4 else ndgrad.rnn_cell
    return cell(pair_vecs, *([leaves[f"ctx_{d}{p}"] for p in ("w_ih", "w_hh", *biases)]
                             for d in dirs))


def score_pairs(pairs, table: EmbeddingTable, config: CosinetConfig, leaves: dict) -> ndgrad.Tensor:
    """Forward a rank-ordered list of PairInput (ids into ``table``) to an (n, 1) score column."""
    ctx = contextualize(encode_pair(pairs, table, leaves), config, leaves)
    return ndgrad.linear(ctx, leaves["head_w"], leaves["head_b"])


def check_table_width(table: EmbeddingTable, config: CosinetConfig, caller: str) -> None:
    """Reject a table whose width is not the config's ``embedding_dim``, naming both."""
    if table.dimension != config.embedding_dim:
        raise ValueError(f"{caller}: embedding table is {table.dimension} wide, "
                         f"config embedding_dim is {config.embedding_dim}")


def score_group(group, table: EmbeddingTable, params: CosinetParams,
                config: CosinetConfig) -> np.ndarray:
    """Inference-only scores for one group, in candidate order."""
    check_table_width(table, config, "score_group")
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
FORMAT_VERSION = 2


def save_model(path, config: CosinetConfig, params: CosinetParams, table: EmbeddingTable) -> None:
    """Write the versioned model container (layout documented in README).

    Payload tensors are 32-bit little-endian floats: the frozen embedding
    matrix first, then every trainable array in declaration order, which is
    ``params.flat`` as it stands. A SHA-256 over every byte before it
    (preamble, header and payload) closes the file. The file appears at
    ``path`` only once it is complete.
    """
    check_table_width(table, config, "save_model")
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
    """Read a model container back; returns (config, params, table) or raises ValueError.

    Every error starts with ``path``. Nothing is allocated before the manifest
    is the layout the header's config derives and the payload is its size.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if len(blob) < 20 + 32 or blob[:8] != MAGIC:
            raise ValueError("not a model file (too short or bad magic)")
        version, header_len = struct.unpack_from("<IQ", blob, 8)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        header_end = 20 + header_len
        if header_end > len(blob) - 32:
            raise ValueError(f"header length {header_len} runs past the end of the file")
        body = memoryview(blob)[:-32]
        if hashlib.sha256(body).digest() != blob[-32:]:
            raise ValueError("checksum mismatch (corrupt file)")
        header = json.loads(blob[20:header_end].decode("utf-8"))
        config = CosinetConfig(**header["config"])
        vocab, width = header["vocab"], config.embedding_dim
        rows = {tok: i for i, tok in enumerate(vocab) if isinstance(tok, str)}
        if not isinstance(vocab, list) or len(rows) != len(vocab):
            raise ValueError("vocab is not a list of distinct strings")
        # header values compare as JSON text, so 4.0 is no 4 and true no 1
        if json.dumps(header["embedding_dim"]) != str(width):
            raise ValueError(f"header embedding_dim {header['embedding_dim']!r} is not "
                             f"the config's embedding_dim {width}")
        layout = [["embedding_matrix", [len(vocab), width]]]
        layout += [[name, list(shape)] for name, (shape, _) in param_layout(config).items()]
        manifest = list(header["tensors"])
        texts = [[json.dumps(entry) for entry in entries] for entries in (manifest, layout)]
        if texts[0] != texts[1]:  # name the first entry where the two differ
            i = next(i for i, (a, b) in enumerate(itertools.zip_longest(*texts)) if a != b)
            got, want = (e[i] if i < len(e) else "nothing" for e in (manifest, layout))
            raise ValueError(f"manifest entry {i} is {got}, the layout its config derives "
                             f"has {want}")
        n_matrix = len(vocab) * width
        payload, size = body[header_end:], 4 * (n_matrix + expected_parameter_count(config))
        if len(payload) != size:
            raise ValueError(f"payload is {len(payload)} bytes, its layout takes {size}")
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed header ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

    floats = np.frombuffer(payload, "<f4")
    matrix = floats[:n_matrix].reshape(len(vocab), width).copy()  # its own rows, not the file's
    table = EmbeddingTable(rows, matrix)
    params = CosinetParams(config, draw=False)
    params.flat[...] = floats[n_matrix:]
    return config, params, table
