import contextlib
import os
import re
import threading

import numpy as np
import pytest

from cosinet.embeddings import (
    CONCEPT_PREFIX,
    UNKNOWN,
    EmbeddingTable,
    embed_sequence,
    load_embeddings,
)
from conftest import table_digest, traced_peak


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "1e39",
                                     "3e38"])  # a finite float32 whose square is not
    def test_non_finite_value_names_line(self, tmp_path, bad):
        lines = ["cat 1 2 3", f"dog 4 {bad} 6"]
        with pytest.raises(ValueError, match=r"vecs\.txt:2: non-finite"):
            load_embeddings(write_lines(tmp_path, lines), dimension=3)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            load_embeddings(tmp_path / "nope.txt", dimension=3)
        assert info.value.filename == str(tmp_path / "nope.txt")

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


class TestBulkParity:
    """The bulk parse and its per-line fallback accept and reject what the per-line parser does."""

    @staticmethod
    def assert_loads_as_reference(path, lines, dimension, vocab_filter=None):
        table = load_embeddings(path, vocab_filter, dimension=dimension)
        want = {tok: vec for tok, vec in parse_reference(lines, dimension).items()
                if vocab_filter is None or tok in vocab_filter}
        assert table.tokens_in_order() == list(want)
        np.testing.assert_array_equal(
            table.matrix, np.array(list(want.values())).reshape(-1, dimension))

    @staticmethod
    def message(path, lineno, rest):
        """The pattern of an error message that starts with ``path:lineno: rest``."""
        return "^" + re.escape(f"{path}:{lineno}: {rest}")

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "+1_000.5"])
    def test_values_only_the_per_line_parser_reads_still_load(self, tmp_path, value):
        # np.loadtxt rejects these; the fallback parses them, it does not only locate an error
        lines = ["cat 1 2 3", f"dog 4 {value} 6", "eel 7 8 9"]
        self.assert_loads_as_reference(write_lines(tmp_path, lines), lines, 3)

    @pytest.mark.parametrize("value", ["1.0#", "#", "#1"])
    def test_hash_is_not_a_comment(self, tmp_path, value):
        path = write_lines(tmp_path, ["cat 1 2 3", f"dog 4 {value} 6"])
        with pytest.raises(ValueError, match=self.message(path, 2, "non-numeric value")):
            load_embeddings(path, dimension=3)

    def test_trailing_hash_field_is_counted(self, tmp_path):
        path = write_lines(tmp_path, ["cat 1 2 3 #", "dog 4 5 6"])
        with pytest.raises(ValueError, match=self.message(
                path, 1, "expected token + 3 values, got 5 fields")):
            load_embeddings(path, dimension=3)

    def test_tab_separated_fields(self, tmp_path):
        lines = ["2 3", "cat\t1\t2\t3", "dog \t-4.5\t 5e-3  6\t"]
        self.assert_loads_as_reference(write_lines(tmp_path, lines), lines, 3)

    def test_crlf_line_endings(self, tmp_path):
        lines = ["2 3", "cat 1 2 3", "/c/en/dog 4 5 6"]
        path = tmp_path / "vecs.txt"
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        self.assert_loads_as_reference(path, lines, 3)

    @pytest.mark.parametrize("last,rest", [
        ("dog 4 5", "expected token + 3 values, got 3 fields"),
        ("dog", "expected token + 3 values, got 1 fields"),
        ("dog 4 5 6e", "non-numeric value"),
    ])
    def test_truncated_last_line(self, tmp_path, last, rest):
        path = tmp_path / "vecs.txt"
        path.write_text(f"cat 1 2 3\n{last}", encoding="utf-8")  # no final newline
        with pytest.raises(ValueError, match=self.message(path, 2, rest)):
            load_embeddings(path, dimension=3)

    def test_complete_last_line_without_newline_loads(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1 2 3\ndog 4 5 6", encoding="utf-8")
        self.assert_loads_as_reference(path, ["cat 1 2 3", "dog 4 5 6"], 3)

    def test_dropped_line_with_wrong_field_count_is_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["cat 1 2 3", "cat 1 2", "dog 4 5 6"])
        with pytest.raises(ValueError, match=self.message(
                path, 2, "expected token + 3 values, got 3 fields")):
            load_embeddings(path, dimension=3)  # a duplicate is dropped
        path = write_lines(tmp_path, ["cat 1 2 3", "dog 4 5", "eel 7 8 9"])
        with pytest.raises(ValueError, match=self.message(
                path, 2, "expected token + 3 values, got 3 fields")):
            load_embeddings(path, {"cat", "eel"}, dimension=3)

    def test_first_bad_line_is_reported(self, tmp_path):
        # a kept line's bad value comes before a later dropped line's field count,
        # and both before an earlier non-finite value
        path = write_lines(tmp_path, ["cat nan 2 3", "eel 1 x 3", "dog 4 5"])
        with pytest.raises(ValueError, match=self.message(path, 2, "non-numeric value")):
            load_embeddings(path, {"cat", "eel"}, dimension=3)
        path = write_lines(tmp_path, ["cat nan 2 3", "eel 1 1_0 3", "dog 4 5"])
        with pytest.raises(ValueError, match=self.message(
                path, 3, "expected token + 3 values, got 3 fields")):
            load_embeddings(path, {"cat", "eel"}, dimension=3)
        path = write_lines(tmp_path, ["cat 1 2 3", "eel 1 1_0 3", "dog 4 1e39 6"])
        with pytest.raises(ValueError, match=self.message(path, 3, "non-finite value")):
            load_embeddings(path, dimension=3)

    @pytest.mark.parametrize("lines,vocab_filter", [
        (["3 2"], None),
        (["3 2", "cat 1 2", "dog 3 4"], {"eel"}),
        ([], None),
    ])
    def test_nothing_kept_loads_empty_without_a_warning(self, tmp_path, lines, vocab_filter):
        path = tmp_path / "vecs.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        table = load_embeddings(path, vocab_filter, dimension=2)
        assert table.matrix.shape == (0, 2) and table.vocabulary == {}

    @pytest.mark.parametrize("lines,vocab_filter", [
        (["cat 1 2 3", "dog 4 5 6"], None),
        (["2 3", "cat 1 2 3", "dog 4 1_0 6"], None),  # only the per-line parser reads these
        (["cat 1 2 3", "dog 4 \u0661\u0662 6"], None),
        ([f"w{i} 1 2 3" for i in range(20000)] + ["dog 4 1_0 6"], None),  # past a pipe's buffer
        (["cat 1 2 3", "dog 4 x 6", "eel 7 8 9"], None),
        (["cat 1 2 3", "dog 4 5", "eel 7 8 9"], {"cat", "eel"}),
        (["cat nan 2 3", "eel 1 1_0 3", "dog 4 5"], {"cat", "eel"}),
        (["cat 1 2 3", "eel 1 1_0 3", "dog 4 1e39 6"], None),
    ])
    def test_a_pipe_loads_as_a_file_does(self, tmp_path, lines, vocab_filter):
        # a pipe is read once, so the per-line parser cannot read it again
        data = ("\n".join(lines) + "\n").encode("utf-8")
        path = tmp_path / "vecs.txt"
        path.write_bytes(data)
        want = load_outcome(path, lambda: load_embeddings(path, vocab_filter, dimension=3))
        fifo = tmp_path / "vecs.fifo"
        got = load_outcome(fifo, lambda: load_from_a_fifo(fifo, data, vocab_filter, 3))
        assert got == want


def load_outcome(path, load):
    """(tokens, matrix bytes) of the table ``load`` returns, or its error with ``path`` cut out."""
    try:
        table = load()
    except ValueError as exc:
        return str(exc).replace(str(path), "<path>")
    return table.tokens_in_order(), table.matrix.tobytes()


def load_from_a_fifo(path, data, vocab_filter, dimension):
    """``load_embeddings`` on a new FIFO at ``path`` that a thread writes ``data`` into."""
    os.mkfifo(path)
    done = threading.Event()

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)  # a reader that stops at an error leaves a broken pipe
        if not done.wait(10):
            with open(path, "wb"):  # end a second open of the path, which waits for a writer
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load_embeddings(path, vocab_filter, dimension=dimension)
    finally:
        done.set()
        writer.join(timeout=20)


def test_load_holds_little_beside_the_matrix(tmp_path):
    # the kept lines' text is parsed as it is read, not held next to the rows
    rng = np.random.default_rng(5)
    path = write_lines(tmp_path, [f"w{i} " + " ".join(f"{v:.6f}" for v in rng.uniform(-1, 1, 300))
                                  for i in range(1000)])
    table, peak = traced_peak(load_embeddings, path, dimension=300)
    assert table.matrix.shape == (1000, 300)
    assert peak < 2 * table.matrix.nbytes


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

    @pytest.mark.parametrize("vocabulary, n_rows", [({"a": 0, "b": 0}, 2), ({"a": 5}, 1),
                                                    ({"a": -1}, 1), ({"a": 1, "b": 2}, 2)])
    def test_vocab_not_one_to_one_onto_rows_rejected(self, vocabulary, n_rows):
        # two tokens on one row would read different rows after a save/load
        # round trip, and a value past the rows would fail only at lookup
        with pytest.raises(ValueError, match="one-to-one"):
            EmbeddingTable(vocabulary, np.zeros((n_rows, 3), dtype=np.float32))

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
