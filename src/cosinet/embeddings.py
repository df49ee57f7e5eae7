"""Frozen pretrained word embeddings loaded from whitespace-separated text.

The table is immutable after load and stays fixed during training.
``embed_sequence`` is total: unknown tokens get the id ``UNKNOWN`` and the
all-zero vector.
"""

from __future__ import annotations

import numpy as np

from .corpus import read_lines

CONCEPT_PREFIX = "/c/en/"
UNKNOWN = -1  # the id of a token without a vector
NO_TOKENS = "embed_sequence: empty token list: a question or candidate has no tokens"
# kept lines per parse: their value text is all the loader holds beside the matrix,
# and each parse is one np.loadtxt call, so a smaller chunk holds less but calls more
CHUNK = 64


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

    The file is read once, a pipe as a file is. The kept lines' values are
    parsed ``CHUNK`` lines at a time as they are read (see ``_parse_rows``),
    so the first fault in read order is reported: an undecodable byte, a kept
    line's bad value or field count, or a dropped line's field count. The
    non-finite check then runs over the whole matrix.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    vocab: dict[str, int] = {}
    linenos: list[int] = []  # source line of each kept line, for error messages
    with open(path, "r", encoding="utf-8") as fh:
        rows = _kept_rows(path, fh, vocab_filter, dimension, vocab, linenos)
        matrix = np.fromiter(rows, dtype=np.dtype((np.float32, dimension)))
    with np.errstate(over="ignore"):  # NaN, inf and a norm past float32 all square to non-finite
        bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", matrix, matrix)))
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-finite value or squared norm")
    return EmbeddingTable(vocab, matrix)


def _kept_rows(path, fh, vocab_filter, dimension: int, vocab: dict, linenos: list):
    """Yield the float32 row of each line of ``fh`` that ``load_embeddings`` keeps.

    A kept line's token takes the next row of ``vocab`` and its line number is
    appended to ``linenos``; its value text waits for the chunk's parse. A
    dropped line with the wrong field count raises once the kept lines before
    it are parsed, so that an earlier kept line's error comes first.
    """
    texts: list[str] = []
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
                _parse_rows(path, texts, linenos, dimension)
                raise ValueError(_field_count_error(path, lineno, dimension, n_fields))
            continue
        vocab[token] = len(linenos)
        linenos.append(lineno)
        texts.append(head[1] if len(head) > 1 else "")
        if len(texts) == CHUNK:
            yield from _parse_rows(path, texts, linenos, dimension)
            texts = []
    yield from _parse_rows(path, texts, linenos, dimension)


def _field_count_error(path, lineno: int, dimension: int, n_fields: int) -> str:
    return f"{path}:{lineno}: expected token + {dimension} values, got {n_fields} fields"


def _parse_rows(path, texts: list[str], linenos: list[int], dimension: int):
    """The float32 rows of value ``texts``, or the first bad one's error.

    ``linenos`` ends with the texts' line numbers. One ``np.loadtxt`` call
    parses them. It accepts a subset of what the per-line loop below does (no
    "1_0", no non-ASCII digits), splits on the same whitespace and reads the
    same float32 bits; comments=None keeps a "#" from cutting a line short.
    Where it raises or returns another shape, or a text is empty (it skips an
    empty line, and warns on no lines), the per-line loop decides. A value
    past the float32 range reads as infinite without a warning either way.
    """
    if texts and all(texts):
        try:
            matrix = np.loadtxt(texts, dtype=np.float32, ndmin=2, comments=None)
            if matrix.shape == (len(texts), dimension):
                return matrix
        except ValueError:
            pass
    rows = []
    with np.errstate(over="ignore"):
        for text, lineno in zip(texts, linenos[len(linenos) - len(texts):]):
            fields = text.split()
            if len(fields) != dimension:
                raise ValueError(_field_count_error(path, lineno, dimension, len(fields) + 1))
            try:
                rows.append(np.array(fields, dtype=np.float32))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    return rows


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
