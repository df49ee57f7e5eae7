"""Frozen pretrained word embeddings loaded from whitespace-separated text.

The table is immutable after load and stays fixed during training.
``embed_sequence`` is total: unknown tokens get the id ``UNKNOWN`` and the
all-zero vector.
"""

from __future__ import annotations

import numpy as np

CONCEPT_PREFIX = "/c/en/"
UNKNOWN = -1  # the id of a token without a vector (and of padding)


class EmbeddingTable:
    """token -> row-index map over a frozen |V| x dim float32 matrix; dim is its width."""

    def __init__(self, vocabulary: dict[str, int], matrix: np.ndarray):
        if matrix.ndim != 2:
            raise ValueError(f"embedding matrix must be |V| x dim, got shape {matrix.shape}")
        if len(vocabulary) != matrix.shape[0]:
            raise ValueError("vocabulary size does not match matrix rows")
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
    Any other line with the wrong number of fields, or with a value that is
    not a finite number, is rejected by line number.
    """
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    linenos: list[int] = []  # source line of each row, for error messages
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read embedding file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            if len(parts) != dimension + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected token + {dimension} values, got {len(parts)} fields")
            token = parts[0]
            if token.startswith(CONCEPT_PREFIX):
                token = token[len(CONCEPT_PREFIX):]
            if vocab_filter is not None and token not in vocab_filter:
                continue
            if token in vocab:
                continue
            try:
                vec = np.array(parts[1:], dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
            vocab[token] = len(rows)
            rows.append(vec)
            linenos.append(lineno)
    matrix = np.vstack(rows) if rows else np.zeros((0, dimension), dtype=np.float32)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-finite value")
    return EmbeddingTable(vocab, matrix)


def embed_sequence(tokens, table: EmbeddingTable):
    """Map a non-empty token list to (ids, rows).

    ``ids[i]`` is token i's row in the table, or UNKNOWN; ``rows`` is the
    (len, dim) matrix of their vectors, zeros where the token is unknown.
    """
    if not tokens:
        raise ValueError("embed_sequence: empty token list (pad before calling)")
    get = table.vocabulary.get
    ids = np.array([get(tok, UNKNOWN) for tok in tokens], dtype=np.intp)
    return ids, table.rows(ids)
