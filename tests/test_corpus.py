import dataclasses
import json
import os
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cosinet.corpus import (
    export_jsonl,
    ingest_jsonl,
    ingest_wikiqa,
    tokenize,
)
from conftest import MINI_WIKIQA_HEADER


class TestTokenize:
    @pytest.mark.parametrize("text,want", [
        ("How long was I Love Lucy on the air ?",
         ["how", "long", "was", "i", "love", "lucy", "on", "the", "air", "?"]),
        ("CBS).", ["cbs", ")", "."]),
        ("plug-in", ["plug", "-", "in"]),
        ("U.S.", ["u", ".", "s", "."]),
        ("1,234", ["1", ",", "234"]),
        ("", []),
        ("   \t \n ", []),
        ("hello", ["hello"]),
        ("Hello World", ["hello", "world"]),
        ("a--b", ["a", "-", "-", "b"]),
    ])
    def test_examples(self, text, want):
        assert tokenize(text) == want

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_token_structure(self, text):
        toks = tokenize(text)
        for tok in toks:
            # each token is either one alnum run or a single other character
            assert tok == tok.lower()
            if len(tok) > 1:
                assert all(ch.isalnum() for ch in tok)
            else:
                assert len(tok) == 1 and not tok.isspace()
        # rejoining drops exactly the whitespace
        assert "".join(toks) == "".join(text.lower().split())

    def test_idempotent_on_own_output(self):
        toks = tokenize("The U.S. Senate (1789-present).")
        assert tokenize(" ".join(toks)) == toks

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60) | st.text(st.sampled_from("aZ9_-. \t\u00e9\u0130\u00b2\u2003"),
                                          max_size=30))
    def test_matches_character_loop(self, text):
        assert tokenize(text) == loop_tokenize(text)


def loop_tokenize(text):
    """Reference tokenizer: whitespace split, then alnum runs and single others."""
    tokens = []
    for chunk in text.lower().split():
        run = []
        for ch in chunk:
            if ch.isalnum():
                run.append(ch)
            else:
                if run:
                    tokens.append("".join(run))
                    run = []
                tokens.append(ch)
        if run:
            tokens.append("".join(run))
    return tokens


class TestWikiqaIngest:
    def test_mini_file(self, mini_wikiqa_tsv):
        groups, report = ingest_wikiqa(mini_wikiqa_tsv)
        # Q2 has no positive label and is dropped
        assert [g.question_id for g in groups] == ["Q1", "Q3"]
        assert report.total_questions == 3
        assert report.total_candidates == 6
        assert report.kept_groups == 2
        assert report.dropped_unanswered == 1
        assert report.dropped_empty_candidates == 0
        assert report.dropped_empty_questions == 0

    def test_group_contents(self, mini_wikiqa_tsv):
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        g = groups[0]
        assert g.question == "how are glacier caves formed?"
        assert g.question_tokens[-1] == "?"
        assert g.labels == [1, 0]
        assert [c.original_rank for c in g.candidates] == [1, 2]
        assert g.candidates[0].tokens[0] == "a"

    def test_ranks_are_one_based_and_contiguous(self, mini_wikiqa_tsv):
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        for g in groups:
            assert [c.original_rank for c in g.candidates] == list(
                range(1, len(g.candidates) + 1))

    def test_empty_candidate_recompacts_ranks(self, tmp_path):
        body = (
            "Q1\tq one?\tD1\tT\tD1-0\tfirst sentence.\t0\n"
            "Q1\tq one?\tD1\tT\tD1-1\t...\t0\n"      # tokenizes to . . . (kept)
            "Q1\tq one?\tD1\tT\tD1-2\t\t0\n"          # empty -> dropped
            "Q1\tq one?\tD1\tT\tD1-3\tthe answer.\t1\n"
        )
        path = tmp_path / "t.tsv"
        path.write_text(MINI_WIKIQA_HEADER + body, encoding="utf-8")
        groups, report = ingest_wikiqa(path)
        assert report.dropped_empty_candidates == 1
        g = groups[0]
        assert len(g.candidates) == 3
        assert [c.original_rank for c in g.candidates] == [1, 2, 3]
        assert g.candidates[2].label == 1

    def test_bad_label_names_row(self, tmp_path):
        body = "Q1\tq?\tD1\tT\tD1-0\ts.\t2\n"
        path = tmp_path / "t.tsv"
        path.write_text(MINI_WIKIQA_HEADER + body, encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            ingest_wikiqa(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("QuestionID\tQuestion\tLabel\nQ1\tq?\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing column"):
            ingest_wikiqa(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(MINI_WIKIQA_HEADER + "Q1\tq?\tD1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            ingest_wikiqa(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            ingest_wikiqa(path)

    def test_quotes_are_plain_characters(self, tmp_path):
        body = 'Q1\the said "yes" loudly\tD1\tT\tD1-0\t"quoted" answer\t1\n'
        path = tmp_path / "t.tsv"
        path.write_text(MINI_WIKIQA_HEADER + body, encoding="utf-8")
        groups, _ = ingest_wikiqa(path)
        assert groups[0].candidates[0].tokens[0] == '"'


class TestJsonl:
    def test_round_trip_preserves_groups(self, mini_wikiqa_tsv, tmp_path):
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        out = tmp_path / "out.jsonl"
        export_jsonl(groups, out)
        back, report = ingest_jsonl(out)
        assert back == groups
        assert report.kept_groups == len(groups)
        assert report.dropped_unanswered == 0

    def test_export_is_deterministic(self, mini_wikiqa_tsv, tmp_path):
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(groups, p1)
        export_jsonl(groups, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_export_leaves_no_partial_file(self, mini_wikiqa_tsv, tmp_path, existing):
        # the last group fails to serialize after the others were written;
        # an older file at the path stays as it was
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        out_dir = tmp_path / "export"
        out_dir.mkdir()
        out = out_dir / "out.jsonl"
        if existing:
            out.write_text("old\n")
        bad = dataclasses.replace(groups[-1], question_id=object())
        with pytest.raises(TypeError):
            export_jsonl(groups[:-1] + [bad], out)
        assert [p.name for p in out_dir.iterdir()] == (["out.jsonl"] if existing else [])
        if existing:
            assert out.read_text() == "old\n"

    def test_export_syncs_file_then_renames_then_syncs_directory(
            self, mini_wikiqa_tsv, tmp_path, monkeypatch):
        # the complete temporary file reaches the disk before it replaces the
        # target, and a directory fsync makes the rename itself durable
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        out = tmp_path / "out.jsonl"
        events = []
        fsync, replace = os.fsync, os.replace

        def recorded_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync dir", st.st_ino) if stat.S_ISDIR(st.st_mode)
                          else ("fsync file", st.st_size))
            fsync(fd)

        def recorded_replace(src, dst):
            events.append(("replace", os.path.dirname(src), dst))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        export_jsonl(groups, out)
        assert events == [("fsync file", out.stat().st_size),
                          ("replace", str(tmp_path), str(out)),
                          ("fsync dir", tmp_path.stat().st_ino)]

    def test_export_one_object_per_line(self, mini_wikiqa_tsv, tmp_path):
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        out = tmp_path / "out.jsonl"
        export_jsonl(groups, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(groups)
        rec = json.loads(lines[0])
        assert set(rec) == {"question_id", "question", "candidates"}
        assert set(rec["candidates"][0]) == {"text", "label"}

    def test_ingest_applies_same_filters(self, tmp_path):
        recs = [
            {"question_id": "a", "question": "ok?",
             "candidates": [{"text": "yes.", "label": 1}]},
            {"question_id": "b", "question": "none positive?",
             "candidates": [{"text": "no.", "label": 0}]},
            {"question_id": "c", "question": "",
             "candidates": [{"text": "yes.", "label": 1}]},
        ]
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        groups, report = ingest_jsonl(path)
        assert [g.question_id for g in groups] == ["a"]
        assert report.dropped_unanswered == 1
        assert report.dropped_empty_questions == 1

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"question_id": "a", "question": "q?", "candidates": []}\n'
                        "{oops\n")
        with pytest.raises(ValueError, match=":2:"):
            ingest_jsonl(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"question": "q?", "candidates": []}\n')
        with pytest.raises(ValueError, match=":1:"):
            ingest_jsonl(path)

    def test_bad_candidate_label(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps({
            "question_id": "a", "question": "q?",
            "candidates": [{"text": "t.", "label": 0.5}]}) + "\n")
        with pytest.raises(ValueError, match="label"):
            ingest_jsonl(path)

    @pytest.mark.parametrize("question,text", [
        (5, "t."), (None, "t."), (["q?"], "t."), ("q?", 5), ("q?", {"t": 1}),
    ])
    def test_non_string_text_names_line(self, tmp_path, question, text):
        path = tmp_path / "in.jsonl"
        ok = {"question_id": "a", "question": "q?",
              "candidates": [{"text": "t.", "label": 1}]}
        bad = {"question_id": "b", "question": question,
               "candidates": [{"text": "t.", "label": 1}, {"text": text, "label": 0}]}
        path.write_text(json.dumps(ok) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"in\.jsonl:2: .*string"):
            ingest_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('\n{"question_id": "a", "question": "q?", '
                        '"candidates": [{"text": "t.", "label": 1}]}\n\n')
        groups, _ = ingest_jsonl(path)
        assert len(groups) == 1

    def test_double_round_trip_is_byte_identical(self, mini_wikiqa_tsv, tmp_path):
        groups, _ = ingest_wikiqa(mini_wikiqa_tsv)
        p1 = tmp_path / "one.jsonl"
        export_jsonl(groups, p1)
        again, _ = ingest_jsonl(p1)
        p2 = tmp_path / "two.jsonl"
        export_jsonl(again, p2)
        assert p1.read_bytes() == p2.read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(question=JSON_VALUES, text=JSON_VALUES)
def test_type_confused_record_is_a_value_error(tmp_path, question, text):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({"question_id": "a", "question": question,
                                "candidates": [{"text": text, "label": 1}]}) + "\n")
    if isinstance(question, str) and isinstance(text, str):
        ingest_jsonl(path)
    else:
        with pytest.raises(ValueError, match=":1:"):
            ingest_jsonl(path)
