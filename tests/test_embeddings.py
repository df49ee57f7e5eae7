import numpy as np
import pytest

from cosinet.embeddings import (
    CONCEPT_PREFIX,
    UNKNOWN,
    EmbeddingTable,
    embed_sequence,
    load_embeddings,
)
from conftest import table_digest


def write_lines(tmp_path, lines, name="vecs.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def row(table, token):
    return table.matrix[table.vocabulary[token]]


def parse_reference(lines, dimension):
    """Independent parse: dict of token -> float32 vector, first wins."""
    out = {}
    for i, line in enumerate(lines):
        parts = line.split()
        if i == 0 and len(parts) == 2:
            continue
        token = parts[0]
        if token.startswith(CONCEPT_PREFIX):
            token = token[len(CONCEPT_PREFIX):]
        if token not in out:
            out[token] = np.array(parts[1:], dtype=np.float32)
    return out


class TestLoad:
    def test_plain_file(self, tmp_path):
        lines = ["cat 1.0 2.0 3.0", "dog -1.5 0.25 4.0"]
        table = load_embeddings(write_lines(tmp_path, lines), dimension=3)
        assert len(table.vocabulary) == 2
        np.testing.assert_array_equal(row(table, "cat"), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(row(table, "dog"), [-1.5, 0.25, 4.0])

    def test_count_dim_header_is_skipped(self, tmp_path):
        lines = ["2 3", "cat 1 2 3", "dog 4 5 6"]
        table = load_embeddings(write_lines(tmp_path, lines), dimension=3)
        assert table.tokens_in_order() == ["cat", "dog"]

    def test_concept_prefix_is_stripped(self, tmp_path):
        lines = [f"{CONCEPT_PREFIX}cat 1 2 3", "dog 4 5 6"]
        table = load_embeddings(write_lines(tmp_path, lines), dimension=3)
        assert table.tokens_in_order() == ["cat", "dog"]

    def test_duplicates_keep_first(self, tmp_path):
        lines = ["cat 1 1 1", "cat 9 9 9", f"{CONCEPT_PREFIX}cat 5 5 5"]
        table = load_embeddings(write_lines(tmp_path, lines), dimension=3)
        assert table.tokens_in_order() == ["cat"]
        np.testing.assert_array_equal(row(table, "cat"), [1, 1, 1])

    def test_vocab_filter_applied_after_prefix_strip(self, tmp_path):
        lines = [f"{CONCEPT_PREFIX}cat 1 2 3", "dog 4 5 6", "eel 7 8 9"]
        table = load_embeddings(write_lines(tmp_path, lines),
                                vocab_filter={"cat", "eel"}, dimension=3)
        assert sorted(table.tokens_in_order()) == ["cat", "eel"]

    def test_wrong_field_count_names_line(self, tmp_path):
        lines = ["cat 1 2 3", "dog 4 5"]
        with pytest.raises(ValueError, match=":2:"):
            load_embeddings(write_lines(tmp_path, lines), dimension=3)

    def test_non_numeric_value_names_line(self, tmp_path):
        lines = ["cat 1 2 3", "dog 4 x 6"]
        with pytest.raises(ValueError, match=":2:"):
            load_embeddings(write_lines(tmp_path, lines), dimension=3)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        lines = ["cat 1 2 3", f"dog 4 {bad} 6"]
        with pytest.raises(ValueError, match=r"vecs\.txt:2: non-finite"):
            load_embeddings(write_lines(tmp_path, lines), dimension=3)

    def test_missing_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_embeddings(tmp_path / "nope.txt", dimension=3)

    def test_matches_reference_parser(self, tmp_path):
        rng = np.random.default_rng(11)
        lines = ["6 4"]
        words = ["alpha", f"{CONCEPT_PREFIX}beta", "gamma", "alpha",
                 f"{CONCEPT_PREFIX}gamma", "delta"]
        for w in words:
            vals = " ".join(f"{v:.6f}" for v in rng.uniform(-1, 1, 4))
            lines.append(f"{w} {vals}")
        table = load_embeddings(write_lines(tmp_path, lines), dimension=4)
        want = parse_reference(lines, 4)
        assert set(table.tokens_in_order()) == set(want)
        for tok, vec in want.items():
            np.testing.assert_array_equal(row(table, tok), vec)


class TestTable:
    def test_lookup_is_total(self, tmp_path):
        table = load_embeddings(write_lines(tmp_path, ["cat 1 2 3"]), dimension=3)
        ids, rows = embed_sequence(["unseen"], table)
        np.testing.assert_array_equal(ids, [UNKNOWN])
        np.testing.assert_array_equal(rows, np.zeros((1, 3)))

    def test_matrix_is_frozen(self, tmp_path):
        table = load_embeddings(write_lines(tmp_path, ["cat 1 2 3"]), dimension=3)
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 99.0

    def test_width_is_the_matrix_width(self):
        assert EmbeddingTable({"a": 0}, np.zeros((1, 4), dtype=np.float32)).dimension == 4
        with pytest.raises(ValueError, match="matrix"):
            EmbeddingTable({"a": 0}, np.zeros(4, dtype=np.float32))

    def test_vocab_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            EmbeddingTable({"a": 0, "b": 1}, np.zeros((1, 3), dtype=np.float32))

    def test_tokens_in_order_matches_rows(self, tmp_path):
        lines = ["cat 1 1 1", "dog 2 2 2", "eel 3 3 3"]
        table = load_embeddings(write_lines(tmp_path, lines), dimension=3)
        toks = table.tokens_in_order()
        assert toks == ["cat", "dog", "eel"]
        for i, tok in enumerate(toks):
            assert table.vocabulary[tok] == i

    def test_checksum_tracks_content(self, tmp_path):
        t1 = load_embeddings(write_lines(tmp_path, ["cat 1 2 3"], "a.txt"), dimension=3)
        t2 = load_embeddings(write_lines(tmp_path, ["cat 1 2 3"], "b.txt"), dimension=3)
        t3 = load_embeddings(write_lines(tmp_path, ["cat 1 2 4"], "c.txt"), dimension=3)
        assert table_digest(t1) == table_digest(t2)
        assert table_digest(t1) != table_digest(t3)


class TestEmbedSequence:
    def test_rows_and_oov_mask(self, tmp_path):
        # an unknown token is a zero row
        table = load_embeddings(
            write_lines(tmp_path, ["cat 1 2 3", "dog 4 5 6"]), dimension=3)
        ids, mat = embed_sequence(["dog", "mouse", "cat"], table)
        np.testing.assert_array_equal(ids, [1, UNKNOWN, 0])
        assert mat.shape == (3, 3) and mat.dtype == np.float32
        np.testing.assert_array_equal(mat[0], [4, 5, 6])
        np.testing.assert_array_equal(mat[1], [0, 0, 0])
        np.testing.assert_array_equal(mat[2], [1, 2, 3])

    def test_concat_property(self, tmp_path):
        # embedding a concatenated sequence == stacking the parts
        table = load_embeddings(
            write_lines(tmp_path, ["a 1 0 0", "b 0 1 0", "c 0 0 1"]), dimension=3)
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "c", "zzz"]
        for _ in range(25):
            left = [vocab[i] for i in rng.integers(0, 4, rng.integers(1, 6))]
            right = [vocab[i] for i in rng.integers(0, 4, rng.integers(1, 6))]
            ids, whole = embed_sequence(left + right, table)
            (left_ids, left_rows), (right_ids, right_rows) = (
                embed_sequence(side, table) for side in (left, right))
            np.testing.assert_array_equal(ids, np.concatenate([left_ids, right_ids]))
            np.testing.assert_array_equal(whole, np.vstack([left_rows, right_rows]))
            oov = np.array([t == "zzz" for t in left + right])
            np.testing.assert_array_equal(whole[oov], np.zeros((oov.sum(), 3)))
            np.testing.assert_array_equal(whole, table.rows(ids))

    def test_empty_sequence_rejected(self, tmp_path):
        table = load_embeddings(write_lines(tmp_path, ["a 1 0 0"]), dimension=3)
        with pytest.raises(ValueError, match="empty"):
            embed_sequence([], table)

    def test_empty_table_gives_unknown_ids_and_zero_rows(self):
        table = EmbeddingTable({}, np.zeros((0, 3), dtype=np.float32))
        ids, rows = embed_sequence(["a", "b"], table)
        np.testing.assert_array_equal(ids, [UNKNOWN, UNKNOWN])
        np.testing.assert_array_equal(rows, np.zeros((2, 3)))

    def test_lookup_identity_repeated_calls(self, tmp_path):
        table = load_embeddings(write_lines(tmp_path, ["a 1 2 3"]), dimension=3)
        _, m1 = embed_sequence(["a", "a"], table)
        _, m2 = embed_sequence(["a", "a"], table)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(m1[0], m1[1])
