"""Frozen pretrained word embeddings loaded from whitespace-separated text.

The table is immutable after load and stays fixed during training.
``embed_sequence`` is total: unknown tokens get the id ``UNKNOWN`` and the
all-zero vector.
"""

from __future__ import annotations

import itertools

import numpy as np

from .corpus import read_lines

CONCEPT_PREFIX = "/c/en/"
UNKNOWN = -1  # the id of a token without a vector
NO_TOKENS = "embed_sequence: empty token list: a question or candidate has no tokens"


class EmbeddingTable:
    """One-to-one token -> row map onto a frozen |V| x dim float32 matrix; dim is its width."""

    def __init__(self, vocabulary: dict[str, int], matrix: np.ndarray):
        if matrix.ndim != 2:
            raise ValueError(f"embedding matrix must be |V| x dim, got shape {matrix.shape}")
        if len(vocabulary) != matrix.shape[0]:
            raise ValueError("vocabulary size does not match matrix rows")
        if set(vocabulary.values()) != set(range(len(vocabulary))):
            raise ValueError("vocabulary does not map its tokens one-to-one onto rows 0 ... V-1")
        self.dimension = matrix.shape[1]
        self.vocabulary = dict(vocabulary)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self.matrix.setflags(write=False)

    def rows(self, ids) -> np.ndarray:
        """The vectors of ``ids`` as a fresh (len(ids), dim) array, zero where an id is UNKNOWN."""
        ids = np.asarray(ids)
        if not len(self.matrix):
            return np.zeros((ids.size, self.dimension), dtype=np.float32)
        out = self.matrix[ids]  # an UNKNOWN id gathers the last row until zeroed here
        out[ids == UNKNOWN] = 0.0
        return out

    def tokens_in_order(self) -> list[str]:
        """Vocabulary tokens ordered by row index (for serialization)."""
        return sorted(self.vocabulary, key=self.vocabulary.get)


def load_embeddings(path, vocab_filter=None, *, dimension: int) -> EmbeddingTable:
    """Parse a text embedding file: one line per token, then `dimension` reals.

    An optional first line "count dim" header is tolerated. Tokens carrying
    the "/c/en/" concept prefix are stored with the prefix stripped.
    Duplicate tokens keep the first occurrence. When ``vocab_filter`` is
    given, only those tokens are kept (checked after prefix stripping).
    Any other line with the wrong number of fields, or a kept line whose
    values or float32 squared norm are not finite, is rejected by line number.

    The kept lines' values go into one ``np.loadtxt`` call as they are read,
    so no line's text is held once its row is parsed. Where that call raises
    or returns another shape, or a dropped line has the wrong field count,
    the file is read again from its start by the per-line parser, which
    decides: the accepted values and the first error reported are the same
    either way. A file that cannot seek, such as a pipe, is read once: its
    kept lines' text is held, as the per-line parser may need it.
    """
    vocab: dict[str, int] = {}
    linenos: list[int] = []  # source line of each kept line, for error messages
    with open(path, "r", encoding="utf-8") as fh:
        values = _kept_lines(path, fh, vocab_filter, dimension, vocab, linenos)
        if not fh.seekable():  # read once, so the kept lines' text is held for both parsers
            values = _held(path, values, linenos, dimension)
        # np.loadtxt accepts a subset of what the per-line parser does (no "1_0",
        # no non-ASCII digits), splits on the same whitespace and reads the same
        # float32 bits; comments=None keeps a "#" from cutting a line short, and
        # a file that keeps no line is left out, as np.loadtxt warns on no lines
        try:
            rest = iter(values)
            first = next(rest, None)
            matrix = (np.zeros((0, dimension), dtype=np.float32) if first is None else
                      np.loadtxt(itertools.chain([first], rest), dtype=np.float32,
                                 ndmin=2, comments=None))
        except ValueError:
            matrix = None
        if matrix is None or matrix.shape != (len(linenos), dimension):
            if fh.seekable():
                fh.seek(0)
                vocab, linenos = {}, []
                values = _held(path, _kept_lines(path, fh, vocab_filter, dimension, vocab,
                                                 linenos), linenos, dimension)
            matrix = _parse_rows(path, values, linenos, dimension)
    with np.errstate(over="ignore"):  # NaN, inf and a norm past float32 all square to non-finite
        bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", matrix, matrix)))
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-finite value or squared norm")
    return EmbeddingTable(vocab, matrix)


class _DroppedLineError(ValueError):
    """A dropped line with the wrong field count."""


def _kept_lines(path, fh, vocab_filter, dimension: int, vocab: dict, linenos: list):
    """Yield the value text of each line of ``fh`` that ``load_embeddings`` keeps.

    Before a line is yielded its token takes the next row of ``vocab`` and its
    line number is appended to ``linenos``. A dropped line with the wrong
    field count raises ``_DroppedLineError``.
    """
    for lineno, line in enumerate(read_lines(path, fh), start=1):
        head = line.split(None, 1)
        if not head:
            continue
        if lineno == 1 and len(parts := line.split()) == 2:
            try:
                int(parts[0]), int(parts[1])
                continue  # header line
            except ValueError:
                pass
        token = head[0]
        if token.startswith(CONCEPT_PREFIX):
            token = token[len(CONCEPT_PREFIX):]
        if (vocab_filter is not None and token not in vocab_filter) or token in vocab:
            n_fields = len(line.split())
            if n_fields != dimension + 1:
                raise _DroppedLineError(_field_count_error(path, lineno, dimension, n_fields))
            continue
        vocab[token] = len(linenos)
        linenos.append(lineno)
        yield head[1] if len(head) > 1 else ""


def _held(path, values, linenos: list[int], dimension: int) -> list[str]:
    """Every value text of the ``_kept_lines`` generator ``values``, in a list.

    Every kept line's text is read before any is parsed, so an undecodable
    byte anywhere in the file comes before a kept line's error; a dropped
    line's wrong field count comes after the kept lines before it.
    """
    held = []
    try:
        for text in values:
            held.append(text)
    except _DroppedLineError as exc:
        _parse_rows(path, held, linenos, dimension)  # an earlier kept line's error comes first
        raise ValueError(*exc.args) from None
    return held


def _field_count_error(path, lineno: int, dimension: int, n_fields: int) -> str:
    return f"{path}:{lineno}: expected token + {dimension} values, got {n_fields} fields"


def _parse_rows(path, values: list[str], linenos: list[int], dimension: int) -> np.ndarray:
    """The per-line parser: one float32 row per value text, or the first bad line's error.

    A value past the float32 range reads as infinite without a warning, as
    in ``np.loadtxt``.
    """
    rows = []
    with np.errstate(over="ignore"):
        for text, lineno in zip(values, linenos):
            fields = text.split()
            if len(fields) != dimension:
                raise ValueError(_field_count_error(path, lineno, dimension, len(fields) + 1))
            try:
                rows.append(np.array(fields, dtype=np.float32))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    return np.vstack(rows) if rows else np.zeros((0, dimension), dtype=np.float32)


def embed_sequence(tokens, table: EmbeddingTable):
    """Map a non-empty token list to (ids, rows).

    ``ids[i]`` is token i's row in the table, or UNKNOWN; ``rows`` is the
    (len, dim) matrix of their vectors, zeros where the token is unknown.
    """
    if not tokens:
        raise ValueError(NO_TOKENS)
    get = table.vocabulary.get
    ids = np.array([get(tok, UNKNOWN) for tok in tokens], dtype=np.intp)
    return ids, table.rows(ids)
