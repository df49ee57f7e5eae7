"""The Cosinet ranking model.

Each word gets a relatedness feature (its best cosine match against the
other text of its pair). ``prepare_group`` embeds a group's question once,
all of its candidates' tokens in one lookup, and takes every candidate's
relatedness from one cosine matmul; ``prepare_pair`` is its one-candidate
case. Both return ``Pairs``: each side's token ids and relatedness packed
back to back, with one length per pair. The layers then work on a whole
batch of pairs at once: ``encode_pair`` joins a list of ``Pairs`` and runs
one CNN per side, which projects each distinct token of the batch once and
max-pools each sentence over the windows that start at one of its tokens
(``ndgrad.conv1d`` owns that rule), turning the batch into sentence
vectors; each pair combines into [q * c; q - c].
The (n, 2H) pair embeddings can then be contextualized along the original
rank by a recurrent layer, one tape op for both directions, before a single
linear head produces an (n, 1) column of scores, one per candidate.

Relatedness features are computed outside the tape: embeddings are frozen,
so they enter as plain arrays and nothing back-propagates through them.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import struct
import sys
import typing
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import ndgrad
from .corpus import atomic_open
from .embeddings import NO_TOKENS, EmbeddingTable, embed_sequence
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
        if len(context_rule(self)[0]) == 2 and self.conv_hidden % 2:
            raise ValueError("bidirectional context needs an even conv_hidden")


def context_rule(config: CosinetConfig):
    """(direction prefixes, gate count, bias names) of the context recurrence's parameters."""
    if config.context == "none":
        return (), 0, ()
    dirs = ("fw_", "bw_") if config.context.startswith("bi") else ("",)
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
    dirs, gates, biases = context_rule(config)
    for d in dirs:  # the directions' states together are h wide and read the (n, 2h) pairs
        ch = h // len(dirs)
        layout[f"ctx_{d}w_ih"] = (2 * h, gates * ch), True
        layout[f"ctx_{d}w_hh"] = (ch, gates * ch), True
        layout.update({f"ctx_{d}{b}": ((1, gates * ch), False) for b in biases})
    head_in = h if dirs else 2 * h  # the context rows, or the pairs themselves
    return layout | {"head_w": ((head_in, 1), True), "head_b": ((1, 1), False)}


def file_manifest(config: CosinetConfig, n_words: int) -> list[list]:
    """[name, shape] of every payload tensor in file order: the table, then ``param_layout``."""
    return [["embedding_matrix", [n_words, config.embedding_dim]],
            *([name, list(shape)] for name, (shape, _) in param_layout(config).items())]


class CosinetParams:
    """All trainable weights in one contiguous ``flat`` vector, laid out by ``param_layout``.

    ``arrays`` is a read-only name -> view mapping into ``flat`` in declaration (and
    serialization) order, derived on every access so a deep copy's views stay tied to its own
    buffer; ``offsets`` holds each view's start. The drawn weights come from one seeded generator.
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
        self.offsets = {name: s.start for name, (s, _) in self._slots.items()}
        self.flat = np.zeros(sum(sizes), dtype=self.dtype)
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

    def as_leaves(self, tape: Tape) -> dict[str, ndgrad.Tensor]:
        return {name: tape.leaf(arr) for name, arr in self.arrays.items()}


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


class Pairs(typing.NamedTuple):
    """Frozen inputs of n pairs, packed: each side's tokens back to back, one length per pair."""
    q_ids: np.ndarray     # (sum Tq,) rows of the table, UNKNOWN where a token has no vector
    q_r: np.ndarray       # (sum Tq,) each token's relatedness to its pair's other side
    q_lens: np.ndarray    # (n,)
    c_ids: np.ndarray     # (sum Tc,)
    c_r: np.ndarray       # (sum Tc,)
    c_lens: np.ndarray    # (n,)


def prepare_pair(q_tokens, c_tokens, table: EmbeddingTable) -> Pairs:
    """Each side's token ids plus each word's relatedness to the other side."""
    return _prepare(q_tokens, [c_tokens], table)


def prepare_group(group, table: EmbeddingTable) -> Pairs:
    """The pairs of ``group``'s question with each of its candidates, in candidate order."""
    return _prepare(group.question_tokens, [c.tokens for c in group.candidates], table)


def _prepare(q_tokens, candidates, table: EmbeddingTable) -> Pairs:
    """The pairs of one question with each token list of ``candidates``.

    The question is embedded once, every candidate token in one lookup, and
    ``relatedness`` takes one cosine matmul for the lot.
    """
    q_ids, q_emb = embed_sequence(q_tokens, table)
    lengths = [len(tokens) for tokens in candidates]
    if not all(lengths):
        raise ValueError(NO_TOKENS)
    c_ids, c_emb = embed_sequence([t for tokens in candidates for t in tokens], table)
    r_q, r_c = relatedness(q_emb, c_emb, lengths)
    n = len(lengths)
    return Pairs(np.tile(q_ids, n), r_q.ravel(), np.full(n, len(q_ids)),
                 c_ids, r_c, np.array(lengths))


def encode_pair(batch, table: EmbeddingTable, leaves: dict) -> ndgrad.Tensor:
    """CNN + max pool per side over a list of ``Pairs`` joined in order, as [q * c; q - c] (n, 2H).

    Each side's conv projects each distinct token of the batch once.
    """
    pairs = Pairs(*map(np.concatenate, zip(*batch)))

    def tower(side, ids, r, lens):
        distinct, inverse = np.unique(ids, return_inverse=True)
        return ndgrad.conv1d(table.rows(distinct), inverse, r, lens,
                             leaves[f"{side}_conv_w"], leaves[f"{side}_conv_b"])

    return ndgrad.pair_combine(tower("q", *pairs[:3]), tower("c", *pairs[3:]))


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


def score_pairs(batch, table: EmbeddingTable, config: CosinetConfig, leaves: dict) -> ndgrad.Tensor:
    """Forward a list of ``Pairs`` (ids into ``table``), joined in rank order, to (n, 1) scores."""
    ctx = contextualize(encode_pair(batch, table, leaves), config, leaves)
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
    return score_pairs([prepare_group(group, table)], table, config, leaves).data[:, 0]


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
    """``write_model`` to a file that appears at ``path`` only once it is complete."""
    with atomic_open(path, "wb") as fh:
        write_model(fh, config, params, table)


def write_model(fh, config: CosinetConfig, params: CosinetParams, table: EmbeddingTable) -> None:
    """Write the versioned model container (layout documented in README) to binary file ``fh``.

    Payload tensors are 32-bit little-endian floats: the frozen embedding
    matrix first, then every trainable array in declaration order, which is
    ``params.flat`` as it stands. A SHA-256 over every byte before it
    (preamble, header and payload) closes the file. ``params`` not of
    ``config``'s layout size is a ValueError before anything is written.
    """
    check_table_width(table, config, "save_model")
    vocab = table.tokens_in_order()
    manifest = file_manifest(config, len(vocab))
    size = sum(math.prod(shape) for _, shape in manifest[1:])
    if params.flat.size != size:
        raise ValueError(f"save_model: params hold {params.flat.size} values, "
                         f"the config's layout takes {size}")
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
    for part in parts:
        digest.update(part)
        fh.write(part)
    fh.write(digest.digest())


def load_model(path):
    """Read a model container back; returns (config, params, table) or raises ValueError.

    Every error starts with ``path``. The preamble and the header are read
    first; nothing else is allocated before the manifest is the layout the
    header's config derives and the file's size leaves exactly that layout's
    payload before the digest. The payload is then read straight into the
    table's matrix and ``params.flat`` under a running SHA-256, and nothing is
    returned unless the digest matches.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its size is known only once it is read
            fh = io.BytesIO(fh.read())
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        try:
            preamble = fh.read(20)
            if size < 20 + 32 or preamble[:8] != MAGIC:
                raise ValueError("not a model file (too short or bad magic)")
            version, header_len = struct.unpack_from("<IQ", preamble, 8)
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported format version {version}")
            if 20 + header_len > size - 32:
                raise ValueError(f"header length {header_len} runs past the end of the file")
            raw = fh.read(header_len)
            header = json.loads(raw.decode("utf-8"))
            config = CosinetConfig(**header["config"])
            vocab, width = header["vocab"], config.embedding_dim
            rows = {tok: i for i, tok in enumerate(vocab) if isinstance(tok, str)}
            if not isinstance(vocab, list) or len(rows) != len(vocab):
                raise ValueError("vocab is not a list of distinct strings")
            # header values compare as JSON text, so 4.0 is no 4 and true no 1
            if json.dumps(header["embedding_dim"]) != str(width):
                raise ValueError(f"header embedding_dim {header['embedding_dim']!r} is not "
                                 f"the config's embedding_dim {width}")
            layout = file_manifest(config, len(vocab))
            manifest = list(header["tensors"])
            texts = [[json.dumps(entry) for entry in entries] for entries in (manifest, layout)]
            if texts[0] != texts[1]:  # name the first entry where the two differ
                i = next(i for i, (a, b) in enumerate(itertools.zip_longest(*texts)) if a != b)
                got, want = (e[i] if i < len(e) else "nothing" for e in (manifest, layout))
                raise ValueError(f"manifest entry {i} is {got}, the layout its config derives "
                                 f"has {want}")
            payload = size - 20 - header_len - 32
            want = 4 * sum(math.prod(shape) for _, shape in layout)
            if payload != want:
                raise ValueError(f"payload is {payload} bytes, its layout takes {want}")
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed header ({exc})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

        digest = hashlib.sha256(preamble)
        digest.update(raw)
        matrix = np.empty((len(vocab), width), dtype=np.float32)
        params = CosinetParams(config, draw=False)
        for floats in (matrix, params.flat):
            fh.readinto(floats)
            digest.update(floats)
            if sys.byteorder == "big":  # the file's floats are little-endian
                floats.byteswap(inplace=True)
        if fh.read(32) != digest.digest():
            raise ValueError(f"{path}: checksum mismatch (corrupt file)")
    return config, params, EmbeddingTable(rows, matrix)
