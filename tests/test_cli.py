import json
import os
import re
import shlex
import stat
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cosinet import cli, model, training
from cosinet.baselines import SCORERS
from cosinet.corpus import export_jsonl, ingest_jsonl
from cosinet.metrics import evaluate
from cosinet.training import TrainConfig
from conftest import MINI_WIKIQA_HEADER, make_group
from modelfile import model_file, saved_model_bytes, split_model_file


def run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 0, f"stderr: {err}"
    return json.loads(out)


def write_embeddings(path, words, dim, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for w in sorted(words):
            vec = " ".join(f"{v:.6f}" for v in rng.uniform(-0.5, 0.5, dim))
            fh.write(f"{w} {vec}\n")
    return str(path)


@pytest.fixture
def toy_vocab(toy_groups):
    words = set()
    for g in toy_groups:
        words.update(g.question_tokens)
        for c in g.candidates:
            words.update(c.tokens)
    return words


@pytest.fixture
def toy_jsonl(toy_groups, tmp_path):
    path = tmp_path / "toy.jsonl"
    export_jsonl(toy_groups, path)
    return str(path)


@pytest.fixture
def small_settings(tmp_path):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({
        "embedding_dim": 16, "conv_hidden": 8, "kernel_width": 3, "epochs": 1,
    }))
    return str(path)


class TestIngest:
    def test_wikiqa_report(self, mini_wikiqa_tsv, tmp_path, capsys):
        out_path = tmp_path / "out.jsonl"
        rep = run_json(["ingest", "--input", str(mini_wikiqa_tsv),
                        "--output", str(out_path)], capsys)
        assert rep["total_questions"] == 3
        assert rep["kept_groups"] == 2
        assert rep["dropped_groups"] == 1
        assert rep["output"] == str(out_path)
        groups, _ = ingest_jsonl(out_path)
        assert len(groups) == 2

    def test_idempotent_output(self, mini_wikiqa_tsv, tmp_path, capsys):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            run_json(["ingest", "--input", str(mini_wikiqa_tsv), "--output", str(p)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_round_trip_same_counts(self, toy_jsonl, tmp_path, capsys):
        out_path = tmp_path / "again.jsonl"
        rep = run_json(["ingest", "--input", toy_jsonl, "--output", str(out_path)], capsys)
        before, _ = ingest_jsonl(toy_jsonl)
        after, _ = ingest_jsonl(out_path)
        assert rep["kept_groups"] == len(before) == len(after)

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc, out, err = run(["ingest", "--input", str(tmp_path / "nope.tsv"),
                            "--output", str(tmp_path / "o.jsonl")], capsys)
        assert rc == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestBaseline:
    def test_rr_matches_module(self, toy_jsonl, toy_groups, capsys):
        got = run_json(["baseline", "--method", "rr", "--data", toy_jsonl], capsys)
        want = evaluate(SCORERS["rr"], toy_groups).to_dict()
        for key in ("map", "mrr", "p_at_1", "n_questions"):
            assert got[key] == want[key]

    def test_wo_ranks_exact_match_first(self, tmp_path, capsys):
        g = make_group("q", "the exact question words ?", [
            ("something unrelated entirely .", 0),
            ("the exact question words ?", 1),
        ])
        path = tmp_path / "t.jsonl"
        export_jsonl([g], path)
        got = run_json(["baseline", "--method", "wo", "--data", str(path)], capsys)
        assert got["map"] == 100.0
        assert got["p_at_1"] == 100.0

    def test_wo_rr_matches_module_on_random_toys(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        words = ["red", "blue", "green", "dog", "cat", "ran", "."]
        groups = []
        for qi in range(6):
            def sent():
                picks = rng.integers(0, len(words), rng.integers(2, 6))
                return " ".join(words[i] for i in picks)
            rows = [(sent(), int(rng.integers(0, 2))) for _ in range(4)]
            rows[int(rng.integers(0, 4))] = (sent(), 1)
            groups.append(make_group(f"q{qi}", sent() + " ?", rows))
        path = tmp_path / "rand.jsonl"
        export_jsonl(groups, path)
        got = run_json(["baseline", "--method", "wo_rr", "--data", str(path)], capsys)
        want = evaluate(SCORERS["wo_rr"], groups).to_dict()
        for key in ("map", "mrr", "p_at_1", "n_questions"):
            assert got[key] == want[key]

    @pytest.mark.parametrize("question,text", [(5, "t."), ("q?", 5)])
    def test_non_string_text_fails_cleanly(self, tmp_path, capsys, question, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"question_id": "a", "question": question,
                                    "candidates": [{"text": text, "label": 1}]}) + "\n")
        rc, out, err = run(["baseline", "--method", "rr", "--data", str(path)], capsys)
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "bad.jsonl:1:" in err
        assert len(err.strip().splitlines()) == 1

    def test_accepts_raw_tsv(self, mini_wikiqa_tsv, capsys):
        got = run_json(["baseline", "--method", "rr",
                        "--data", str(mini_wikiqa_tsv)], capsys)
        assert got["n_questions"] == 2


class TestTrain:
    def test_small_train_writes_model_and_report(self, toy_jsonl, toy_vocab,
                                                 small_settings, tmp_path, capsys):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        out = tmp_path / "m.bin"
        rep = run_json(["train", "--train", toy_jsonl, "--embeddings", emb,
                        "--config", small_settings, "--out", str(out)], capsys)
        assert out.is_file()
        assert rep["steps"] == 3  # 3 groups x 1 epoch, listwise
        assert rep["loss"] == "listwise"
        assert rep["context"] == "none"
        assert rep["model"] == str(out)
        assert rep["wall_seconds"] >= 0.0
        cfg, params, table = model.load_model(out)
        assert rep["parameter_count"] == params.count()
        assert cfg.embedding_dim == 16

    def test_flags_override_config_file(self, toy_jsonl, toy_vocab,
                                        small_settings, tmp_path, capsys):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        out = tmp_path / "m.bin"
        rep = run_json(["train", "--train", toy_jsonl, "--embeddings", emb,
                        "--config", small_settings, "--context", "birnn",
                        "--epochs", "2", "--out", str(out)], capsys)
        assert rep["context"] == "birnn"
        assert rep["epochs"] == 2
        cfg, _, _ = model.load_model(out)
        assert cfg.context == "birnn"

    def test_default_width_parameter_count(self, toy_jsonl, toy_vocab,
                                           tmp_path, capsys):
        # full-width defaults: 300-dim vectors, width-5 conv, 300 filters
        emb = write_embeddings(tmp_path / "vec300.txt", toy_vocab, 300)
        out = tmp_path / "m.bin"
        rep = run_json(["train", "--train", toy_jsonl, "--embeddings", emb,
                        "--epochs", "1", "--out", str(out)], capsys)
        assert rep["parameter_count"] == 904_201

    def test_dev_reporting(self, toy_groups, toy_vocab, tmp_path,
                           small_settings, capsys):
        train_path = tmp_path / "train.jsonl"
        dev_path = tmp_path / "dev.jsonl"
        export_jsonl(toy_groups[:2], train_path)
        export_jsonl(toy_groups[2:], dev_path)
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        rep = run_json(["train", "--train", str(train_path), "--dev", str(dev_path),
                        "--embeddings", emb, "--config", small_settings,
                        "--out", str(tmp_path / "m.bin")], capsys)
        assert len(rep["dev_map"]) == 1

    def test_same_seed_same_model_file(self, toy_jsonl, toy_vocab,
                                       small_settings, tmp_path, capsys):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        blobs = []
        for name in ("a.bin", "b.bin"):
            out = tmp_path / name
            run_json(["train", "--train", toy_jsonl, "--embeddings", emb,
                      "--config", small_settings, "--seed", "7",
                      "--out", str(out)], capsys)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_config_key_rejected(self, toy_jsonl, toy_vocab,
                                         tmp_path, capsys):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"embedding_dim": 16, "dropout": 0.5}))
        rc, _, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                          "--config", str(bad), "--out", str(tmp_path / "m.bin")],
                         capsys)
        assert rc == 1
        assert "dropout" in err

    @pytest.mark.parametrize("settings,key", [
        ({"epochs": "3"}, "epochs"),
        ({"max_lr": "1e-3"}, "max_lr"),
        ({"conv_hidden": 2.5}, "conv_hidden"),
        ({"batch_size": True}, "batch_size"),
    ])
    def test_wrongly_typed_config_value_rejected(self, toy_jsonl, toy_vocab, tmp_path,
                                                  capsys, settings, key):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"embedding_dim": 16, **settings}))
        out = tmp_path / "m.bin"
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", str(bad), "--out", str(out)], capsys)
        assert rc == 1 and stdout == "" and not out.exists()
        assert err.startswith("error:") and repr(key) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", ["3", "null", "[]"])
    def test_non_object_config_rejected(self, toy_jsonl, toy_vocab, tmp_path, capsys, text):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc, _, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                          "--config", str(bad), "--out", str(tmp_path / "m.bin")], capsys)
        assert rc == 1 and err.startswith("error:") and "JSON object" in err

    def test_null_and_integral_config_values_accepted(self, toy_jsonl, toy_vocab,
                                                      tmp_path, capsys):
        # max_lr is the one float setting, and the one that may be null
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        cfg = tmp_path / "cfg.json"
        for max_lr in (None, 1):
            cfg.write_text(json.dumps({"embedding_dim": 16, "conv_hidden": 8, "kernel_width": 3,
                                       "epochs": 1, "max_lr": max_lr}))
            rep = run_json(["train", "--train", toy_jsonl, "--embeddings", emb,
                            "--config", str(cfg), "--out", str(tmp_path / "m.bin")], capsys)
            assert rep["steps"] == 3

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_max_lr_rejected(self, toy_jsonl, toy_vocab, tmp_path, capsys, value):
        # Python's json reads NaN and Infinity; training on them wrote all-NaN weights
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        bad = tmp_path / "bad.json"
        bad.write_text('{"embedding_dim": 16, "conv_hidden": 8, "kernel_width": 3, '
                       f'"epochs": 1, "max_lr": {value}}}')
        out = tmp_path / "m.bin"
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", str(bad), "--out", str(out)], capsys)
        assert rc == 1 and stdout == "" and not out.exists()
        assert err.startswith(f"error: {bad}: max_lr must be finite and > 0")
        assert len(err.strip().splitlines()) == 1

    def test_nine_train_settings(self):
        assert sorted(cli.TRAIN_DEFAULTS) == ["batch_size", "context", "conv_hidden",
                                              "embedding_dim", "epochs", "kernel_width",
                                              "loss", "max_lr", "seed"]

    @pytest.mark.parametrize("key", ["context_hidden", "cut_frac", "ratio",
                                     "beta1", "beta2", "eps"])
    def test_fixed_or_derived_setting_rejected(self, toy_jsonl, toy_vocab, tmp_path, capsys,
                                               key):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"embedding_dim": 16, key: 0.5}))
        out = tmp_path / "m.bin"
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", str(bad), "--out", str(out)], capsys)
        assert rc == 1 and stdout == "" and not out.exists()
        assert err.startswith("error:") and repr(key) in err
        assert len(err.strip().splitlines()) == 1

    def test_pointwise_with_context_rejected(self, toy_jsonl, toy_vocab,
                                             small_settings, tmp_path, capsys):
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        rc, _, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                          "--config", small_settings, "--loss", "pointwise",
                          "--context", "rnn", "--out", str(tmp_path / "m.bin")],
                         capsys)
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("unseen,values,rest", [
        (False, "1.0# " + "0 " * 15, "non-numeric value"),
        (False, "0 " * 15, "expected token + 16 values, got 16 fields"),
        (True, "0 " * 15, "expected token + 16 values, got 16 fields"),
        (False, "1e39 " * 16, "non-finite value"),
    ])
    def test_malformed_vector_file_is_one_error_line(self, toy_jsonl, toy_vocab, small_settings,
                                                     tmp_path, capsys, unseen, values, rest):
        # the bad line comes first: a vocabulary word's own line is then a dropped duplicate
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        token = "zzzunseen" if unseen else min(toy_vocab)
        path = tmp_path / "vec.txt"
        path.write_text(f"{token} {values}\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "m.bin"
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", small_settings, "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {emb}:1: {rest}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["3e38", "1e18"])
    def test_large_vector_values_are_at_most_one_error_line(self, tmp_path, capsys, value):
        # 3e38 is a finite float32 whose square is not; 1e18 squares to a finite 1e36
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"question_id": "q", "question": "a b", "candidates": [
            {"text": "a", "label": 1}, {"text": "b", "label": 0}]}) + "\n")
        settings_file = tmp_path / "s.json"
        settings_file.write_text(json.dumps({"embedding_dim": 2, "conv_hidden": 4,
                                             "kernel_width": 1, "epochs": 1}))
        emb = tmp_path / "vec.txt"
        emb.write_text(f"a {value} {value}\nb 0.3 0.4\n")
        out = tmp_path / "m.bin"
        rc, stdout, err = run(["train", "--train", str(data), "--embeddings", str(emb),
                               "--config", str(settings_file), "--out", str(out)], capsys)
        if value == "3e38":
            assert (rc, stdout) == (1, "") and not out.exists()
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {emb}:1: non-finite")
        else:
            assert rc == 0 or len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("case", ["no directory", "directory"])
    def test_unwritable_out_fails_before_training(self, toy_jsonl, toy_vocab, small_settings,
                                                  tmp_path, capsys, monkeypatch, case):
        def fit(*args, **kwargs):
            raise AssertionError("fit ran before the output was opened")

        monkeypatch.setattr(training, "fit", fit)
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        out = {"no directory": tmp_path / "nope" / "m.bin", "directory": tmp_path}[case]
        before = sorted(tmp_path.rglob("*"))
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", small_settings, "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "") and sorted(tmp_path.rglob("*")) == before
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {out}: ")

    def test_model_too_large_for_memory_is_one_error_line(self, toy_jsonl, toy_vocab, tmp_path,
                                                          capsys):
        # the weights of a 10**13-wide kernel take more than 2**48 bytes, past
        # any 64-bit address space, so allocating them fails at once
        settings_file = tmp_path / "huge.json"
        settings_file.write_text(json.dumps({"embedding_dim": 4, "conv_hidden": 4,
                                             "kernel_width": 10**13}))
        cfg = model.CosinetConfig(embedding_dim=4, conv_hidden=4, kernel_width=10**13)
        assert sum(np.prod(shape) for shape, _ in model.param_layout(cfg).values()) * 4 > 2**48
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 4)
        out = tmp_path / "m.bin"
        before = sorted(tmp_path.rglob("*"))
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", str(settings_file), "--out", str(out)], capsys)
        assert (rc, stdout) == (1, "") and sorted(tmp_path.rglob("*")) == before
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_training_leaves_no_file(self, toy_jsonl, toy_vocab, small_settings,
                                            tmp_path, capsys, monkeypatch, existing):
        # the output is open while fit runs; an error in fit removes it, and
        # an older file at the path stays as it was
        def fit(*args, **kwargs):
            raise ValueError("fit: non-finite loss")

        monkeypatch.setattr(training, "fit", fit)
        emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "m.bin"
        if existing:
            out.write_bytes(b"older")
        rc, stdout, err = run(["train", "--train", toy_jsonl, "--embeddings", emb,
                               "--config", small_settings, "--out", str(out)], capsys)
        assert (rc, stdout, err) == (1, "", "error: fit: non-finite loss\n")
        assert list(out_dir.iterdir()) == ([out] if existing else [])
        assert not existing or out.read_bytes() == b"older"


@pytest.fixture
def trained_model(toy_jsonl, toy_vocab, small_settings, tmp_path, capsys):
    emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
    out = tmp_path / "m.bin"
    run_json(["train", "--train", toy_jsonl, "--embeddings", emb,
              "--config", small_settings, "--out", str(out)], capsys)
    return str(out)


class TestEvalPredict:
    def test_eval_emits_metrics(self, trained_model, toy_jsonl, toy_groups, capsys):
        got = run_json(["eval", "--model", trained_model, "--data", toy_jsonl],
                       capsys)
        assert set(got) == {"map", "mrr", "p_at_1", "n_questions", "wall_seconds"}
        assert got["n_questions"] == len(toy_groups)
        assert 0.0 <= got["map"] <= 100.0

    def test_eval_matches_module_scoring(self, trained_model, toy_jsonl,
                                         toy_groups, capsys):
        got = run_json(["eval", "--model", trained_model, "--data", toy_jsonl],
                       capsys)
        cfg, params, table = model.load_model(trained_model)
        want = evaluate(model.make_scorer(params, cfg, table), toy_groups).to_dict()
        for key in ("map", "mrr", "p_at_1", "n_questions"):
            assert got[key] == want[key]

    def test_predict_order_aligned(self, trained_model, toy_jsonl, toy_groups,
                                   tmp_path, capsys):
        scores_path = tmp_path / "scores.txt"
        rep = run_json(["predict", "--model", trained_model, "--data", toy_jsonl,
                        "--scores-out", str(scores_path)], capsys)
        n_candidates = sum(len(g.candidates) for g in toy_groups)
        assert rep["n_scores"] == n_candidates
        assert rep["n_questions"] == len(toy_groups)
        written = [float(x) for x in scores_path.read_text().split()]
        assert len(written) == n_candidates
        cfg, params, table = model.load_model(trained_model)
        want = np.concatenate([model.score_group(g, table, params, cfg)
                               for g in toy_groups])
        np.testing.assert_array_equal(np.float32(written), want)

    def test_predict_is_deterministic(self, trained_model, toy_jsonl,
                                      tmp_path, capsys):
        p1, p2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for p in (p1, p2):
            run_json(["predict", "--model", trained_model, "--data", toy_jsonl,
                      "--scores-out", str(p)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predict_separates_adjacent_float32_scores(self, trained_model, toy_jsonl,
                                                       toy_groups, tmp_path, monkeypatch,
                                                       capsys):
        # consecutive float32 values above 10, where 8 digits print
        # 10.0000095 and 10.0000105 alike
        n = sum(len(g.candidates) for g in toy_groups)
        scores = np.float32(10.0) + np.float32(2 ** -20) * np.arange(10, 10 + n, dtype=np.float32)
        chunks = iter(np.split(scores, np.cumsum([len(g.candidates) for g in toy_groups])))
        monkeypatch.setattr(model, "score_group", lambda *args: next(chunks))
        path = tmp_path / "scores.txt"
        run_json(["predict", "--model", trained_model, "--data", toy_jsonl,
                  "--scores-out", str(path)], capsys)
        written = np.float32([float(x) for x in path.read_text().split()])
        np.testing.assert_array_equal(written, scores)

    def test_predict_writes_into_a_fifo(self, trained_model, toy_jsonl, toy_groups,
                                        tmp_path, capsys):
        # a special file is written in place, never replaced by a regular file
        fifo = tmp_path / "scores.fifo"
        os.mkfifo(fifo)
        # a descriptor open at both ends lets the reader open without waiting
        # for a writer; the read ends once it and the writer are closed
        hold = os.open(fifo, os.O_RDWR)
        with open(fifo, "rb") as src:
            chunks = []
            reader = threading.Thread(target=lambda: chunks.append(src.read()))
            reader.start()
            try:
                rep = run_json(["predict", "--model", trained_model, "--data", toy_jsonl,
                                "--scores-out", str(fifo)], capsys)
            finally:
                os.close(hold)
                reader.join(timeout=60)
            assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.glob("scores.fifo*")) == [fifo]
        n_candidates = sum(len(g.candidates) for g in toy_groups)
        assert rep["n_scores"] == n_candidates
        assert len(chunks[0].split()) == n_candidates

    def test_failed_predict_leaves_no_partial_file(self, trained_model, toy_jsonl,
                                                   tmp_path, capsys, monkeypatch):
        # scoring fails on the second group, after the first group's scores
        # were written
        out_dir = tmp_path / "scores"
        out_dir.mkdir()
        calls = []

        def failing(group, *args):
            calls.append(group)
            if len(calls) == 2:
                raise ValueError("scorer failed")
            return score_group(group, *args)

        score_group = model.score_group
        monkeypatch.setattr(model, "score_group", failing)
        rc, out, err = run(["predict", "--model", trained_model, "--data", toy_jsonl,
                            "--scores-out", str(out_dir / "s.txt")], capsys)
        assert rc == 1 and out == "" and err.startswith("error:")
        assert len(calls) == 2
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_predict_rejects_non_finite_scores(self, trained_model, toy_jsonl, toy_groups,
                                               tmp_path, capsys, existing):
        # as eval does: an error naming the question, and no scores file written
        cfg, params, table = model.load_model(trained_model)
        params.arrays["head_b"][...] = np.nan
        nan_model = tmp_path / "nan.bin"
        model.save_model(nan_model, cfg, params, table)
        out_dir = tmp_path / "scores"
        out_dir.mkdir()
        path = out_dir / "s.txt"
        if existing:
            path.write_text("0.5\n")
        rc, out, err = run(["predict", "--model", str(nan_model), "--data", toy_jsonl,
                            "--scores-out", str(path)], capsys)
        assert (rc, out) == (1, "")
        assert err == ("error: predict: non-finite score for question "
                       f"{toy_groups[0].question_id}\n")
        if existing:
            assert list(out_dir.iterdir()) == [path] and path.read_text() == "0.5\n"
        else:
            assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("keep", [15, 60, -1])
    def test_eval_truncated_model_fails_cleanly(self, trained_model, toy_jsonl,
                                                tmp_path, capsys, keep):
        path = tmp_path / "cut.bin"
        with open(trained_model, "rb") as fh:
            path.write_bytes(fh.read()[:keep])
        rc, out, err = run(["eval", "--model", str(path), "--data", toy_jsonl], capsys)
        assert rc == 1 and out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_eval_missing_model_fails(self, toy_jsonl, tmp_path, capsys):
        rc, _, err = run(["eval", "--model", str(tmp_path / "nope.bin"),
                          "--data", toy_jsonl], capsys)
        assert rc == 1
        assert err.startswith("error:")


# One change to a saved model, as (what, which, value); model_file recomputes
# the digest, so each reaches the loader's checks past the checksum.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(),
                    st.text(max_size=4))
MODEL_CHANGES = st.one_of(
    st.tuples(st.just("config"), st.sampled_from(sorted(cli.TRAIN_DEFAULTS)) | st.text(),
              SCALARS),
    st.tuples(st.just("tensor"), st.integers(0, 12),
              st.lists(st.integers(-10**30, 10**30), max_size=3)),
    st.tuples(st.just("vocab"), st.integers(0, 3),
              st.sampled_from(["alpha", "beta", "gamma", "?"]) | SCALARS),
    st.tuples(st.just("header"), st.sampled_from(["config", "embedding_dim", "vocab", "tensors"]),
              SCALARS),
    st.tuples(st.just("payload"), st.none(), st.integers(-4096, 64).filter(bool)),
    st.tuples(st.just("version"), st.none(), st.integers(0, 2**32 - 1)))


def changed_model(what, which, value):
    """saved_model_bytes() with one change, or None where the change leaves a valid model."""
    header, payload = split_model_file(saved_model_bytes())
    if what == "payload":
        return model_file(header, payload[:value] if value < 0 else payload + bytes(value))
    if what == "version":
        return None if value == model.FORMAT_VERSION else model_file(header, payload, version=value)
    if what == "tensor":
        target, which = header["tensors"][which], 1  # the shape of tensor ``which``
    else:
        target = header if what == "header" else header[what]
    # KeyError stands for an absent config key: no JSON value has its type
    old = target.get(which, KeyError) if what == "config" else target[which]
    target[which] = value
    if what == "config":  # any seed >= 0 is valid, and no other value of another type
        valid = type(value) is type(old) and (value >= 0 if which == "seed" else value == old)
    elif what == "vocab":  # another word for a word is valid
        valid = isinstance(value, str) and header["vocab"].count(value) == 1
    else:  # equal as JSON: 4.0 is no 4 and true no 1
        valid = json.dumps(value) == json.dumps(old)
    return None if valid else model_file(header, payload)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(change=MODEL_CHANGES)
@example(change=("config", "kernel_width", 10**12))  # a layout of 218 TiB
@example(change=("config", "conv_hidden", 10**12))
@example(change=("tensor", 0, [-2, -4]))
@example(change=("tensor", 1, [10**30]))
@example(change=("vocab", 1, "alpha"))
@example(change=("header", "vocab", [0, 1, 2, 3]))
@example(change=("config", "seed", "x"))
@example(change=("config", "seed", -1))
@example(change=("header", "embedding_dim", 4.0))
@example(change=("tensor", 12, [True, True]))  # head_b's shape is [1, 1]
@example(change=("config", "embedding_dim", True))
@example(change=("config", "context_hidden", 3))  # the legacy config key
@example(change=("version", None, 1))  # the legacy format
@example(change=("payload", None, -4))
def test_changed_model_file_is_one_error_line(tmp_path, capsys, toy_jsonl, change):
    blob = changed_model(*change)
    assume(blob is not None)
    path = tmp_path / "m.bin"
    path.write_bytes(blob)
    rc, out, err = run(["eval", "--model", str(path), "--data", toy_jsonl], capsys)
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")


def exit_status(path, argv, out_dir, capsys) -> int:
    """The exit status of ``argv`` through ``cli.main``, after checking that it is 0, or 1
    with one stderr line that starts ``error: <path>`` and no file in ``out_dir`` new or
    changed."""
    before = {p: p.read_bytes() for p in out_dir.iterdir()}
    rc, out, err = run([str(a) for a in argv], capsys)
    if rc:
        assert (rc, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}"), err
        assert {p: p.read_bytes() for p in out_dir.iterdir()} == before
    return rc


def changed_bytes(blob, change):
    """``blob`` with one change (position, bytes cut, bytes put in); the position
    counts modulo the length plus one, so every change lands in the file."""
    pos, cut, put = change
    pos %= len(blob) + 1
    return blob[:pos] + put + blob[pos + cut:]


PIECES = [b"\xff", b"\x00", b"\t", b"\n", b"\r", b" ", b'"', b"\\", b"[", b"{", b"}",
          b",", b":", b"-", b"0", b"1", b"e", b"nan", b"/c/en/"]
BYTE_CHANGES = st.tuples(
    st.integers(0, 10**6), st.integers(0, 16),
    st.lists(st.sampled_from(PIECES) | st.binary(max_size=2), max_size=4).map(b"".join))
INPUT_FUZZ = settings(max_examples=100, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])
NOT_UTF8 = (0, 0, b"\xff")


@pytest.fixture
def out_dir(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    return path


@INPUT_FUZZ
@given(change=BYTE_CHANGES)
@example(change=(0, 0, b"[" * 100_000))  # json.loads raised RecursionError
@example(change=(20, 0, b"1" * 5_000))  # past Python's 4,300-digit int limit
@example(change=NOT_UTF8)
def test_changed_jsonl_file_is_one_error_line(tmp_path, capsys, toy_jsonl, out_dir, change):
    path = tmp_path / "data.jsonl"
    with open(toy_jsonl, "rb") as fh:
        path.write_bytes(changed_bytes(fh.read(), change))
    exit_status(path, ["ingest", "--input", path,
                       "--output", out_dir / "o.jsonl"], out_dir, capsys)


# a field longer than csv.field_size_limit(), 131,072 characters: csv.Error, no ValueError
LONG_FIELD = (len(MINI_WIKIQA_HEADER + "Q1\t"), 0, b"a" * 131_073)


@INPUT_FUZZ
@given(change=BYTE_CHANGES)
@example(change=LONG_FIELD)
@example(change=NOT_UTF8)
def test_changed_wikiqa_file_is_one_error_line(tmp_path, capsys, mini_wikiqa_tsv, out_dir,
                                               change):
    path = tmp_path / "data.tsv"
    path.write_bytes(changed_bytes(mini_wikiqa_tsv.read_bytes(), change))
    exit_status(path, ["ingest", "--input", path,
                       "--output", out_dir / "o.jsonl"], out_dir, capsys)


@pytest.mark.parametrize("command", ["ingest", "baseline", "train", "eval", "predict"])
def test_wikiqa_field_past_the_csv_limit_is_one_error_line(tmp_path, capsys, mini_wikiqa_tsv,
                                                           toy_vocab, small_settings,
                                                           trained_model, out_dir, command):
    tsv = tmp_path / "long.tsv"
    tsv.write_bytes(changed_bytes(mini_wikiqa_tsv.read_bytes(), LONG_FIELD))
    emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
    argv = {"ingest": ["--input", tsv, "--output", out_dir / "o.jsonl"],
            "baseline": ["--method", "rr", "--data", tsv],
            "train": ["--train", tsv, "--embeddings", emb, "--config", small_settings,
                      "--out", out_dir / "m.bin"],
            "eval": ["--model", trained_model, "--data", tsv],
            "predict": ["--model", trained_model, "--data", tsv,
                        "--scores-out", out_dir / "s.txt"]}[command]
    rc, out, err = run([command, *map(str, argv)], capsys)
    assert (rc, out) == (1, "") and list(out_dir.iterdir()) == []
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {tsv}:2: field larger")


# Every command's file flags; an input can be missing or a directory, an output's directory
# can be missing.
FILE_FLAGS = [("ingest", "--input"), ("ingest", "--output"), ("baseline", "--data"),
              ("train", "--train"), ("train", "--dev"), ("train", "--embeddings"),
              ("train", "--config"), ("train", "--out"), ("eval", "--model"), ("eval", "--data"),
              ("predict", "--model"), ("predict", "--data"), ("predict", "--scores-out")]
OUTPUT_FLAGS = {"--output", "--out", "--scores-out"}


@pytest.mark.parametrize("command,flag,case", [
    (command, flag, case) for command, flag in FILE_FLAGS
    for case in (["no directory"] if flag in OUTPUT_FLAGS else ["missing", "directory"])])
def test_file_that_cannot_be_opened_is_one_error_line(tmp_path, capsys, toy_jsonl, toy_vocab,
                                                      small_settings, trained_model, out_dir,
                                                      command, flag, case):
    emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
    argv = {"ingest": {"--input": toy_jsonl, "--output": out_dir / "o.jsonl"},
            "baseline": {"--method": "rr", "--data": toy_jsonl},
            "train": {"--train": toy_jsonl, "--dev": toy_jsonl, "--embeddings": emb,
                      "--config": small_settings, "--out": out_dir / "m.bin"},
            "eval": {"--model": trained_model, "--data": toy_jsonl},
            "predict": {"--model": trained_model, "--data": toy_jsonl,
                        "--scores-out": out_dir / "s.txt"}}[command]
    path = {"missing": tmp_path / "nope", "directory": out_dir,
            "no directory": tmp_path / "nope" / "out"}[case]
    argv[flag] = path
    before = sorted(tmp_path.rglob("*"))
    rc, out, err = run([command, *(str(a) for item in argv.items() for a in item)], capsys)
    assert (rc, out) == (1, "") and sorted(tmp_path.rglob("*")) == before
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: "), err


@INPUT_FUZZ
@given(change=BYTE_CHANGES)
@example(change=NOT_UTF8)
def test_changed_vector_file_is_one_error_line(tmp_path, capsys, toy_jsonl, toy_vocab,
                                               small_settings, out_dir, change):
    path = tmp_path / "vec.txt"
    write_embeddings(path, toy_vocab, 16)
    path.write_bytes(changed_bytes(path.read_bytes(), change))
    exit_status(path, ["train", "--train", toy_jsonl, "--embeddings", path,
                       "--config", small_settings, "--out", out_dir / "m.bin"], out_dir, capsys)


def valid_settings(text: bytes) -> bool:
    """Whether ``text`` is a settings file that ``train`` accepts on its own."""
    try:
        values = json.loads(text)
        if not isinstance(values, dict) or set(values) - set(cli.TRAIN_DEFAULTS):
            return False
        values = cli.TRAIN_DEFAULTS | values
        for cls in (model.CosinetConfig, TrainConfig):
            cls(**{f.name: values[f.name] for f in fields(cls)})
    except (ValueError, RecursionError):
        return False
    return True


@INPUT_FUZZ
@given(change=st.tuples(st.just("bytes"), BYTE_CHANGES)
       | st.tuples(st.sampled_from(sorted(cli.TRAIN_DEFAULTS)) | st.text(max_size=4), SCALARS))
@example(change=("bytes", (0, 0, b"[" * 100_000)))  # json.load raised RecursionError
@example(change=("bytes", NOT_UTF8))
@example(change=("bytes", (0, 1, b"")))  # no opening brace: not JSON
@example(change=("epochs", "3"))
@example(change=("max_lr", float("nan")))
@example(change=("context_hidden", 3))
def test_changed_settings_file_is_one_error_line(tmp_path, capsys, toy_jsonl, toy_vocab,
                                                 small_settings, out_dir, change):
    # a settings file that train accepts trains at whatever sizes it names, so only
    # rejected ones run; each error names the file
    what, value = change
    with open(small_settings, "rb") as fh:
        text = fh.read()
    if what == "bytes":
        text = changed_bytes(text, value)
    else:
        text = json.dumps(json.loads(text) | {what: value}).encode()
    assume(not valid_settings(text))
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
    argv = ["train", "--train", toy_jsonl, "--embeddings", emb, "--config", path,
            "--out", out_dir / "m.bin"]
    assert exit_status(f"{path}: ", argv, out_dir, capsys) == 1


def test_error_of_the_flags_alone_does_not_name_the_settings_file(toy_jsonl, toy_vocab,
                                                                  small_settings, tmp_path,
                                                                  out_dir, capsys):
    emb = write_embeddings(tmp_path / "vec.txt", toy_vocab, 16)
    rc, out, err = run(["train", "--train", toy_jsonl, "--embeddings", emb, "--config",
                        small_settings, "--epochs", "0", "--out", str(out_dir / "m.bin")],
                       capsys)
    assert (rc, out, err) == (1, "", "error: epochs must be >= 1, got 0\n")
    assert list(out_dir.iterdir()) == []


class TestHelp:
    FLAGS = {
        "ingest": ["--input", "--output"],
        "baseline": ["--method", "--data"],
        "train": ["--train", "--dev", "--embeddings", "--loss", "--context",
                  "--epochs", "--seed", "--config", "--out"],
        "eval": ["--model", "--data"],
        "predict": ["--model", "--data", "--scores-out"],
    }

    def test_every_flag_documented_with_default(self, capsys):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, __import__("argparse")._SubParsersAction))
        for command, flags in self.FLAGS.items():
            text = sub.choices[command].format_help()
            for flag in flags:
                assert flag in text, f"{command} help is missing {flag}"
            assert "default:" in text

    def test_readme_command_lines_parse(self, capsys):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line, comments=True) for line in lines if line.startswith("cosinet ")]
        assert {argv[1] for argv in argvs} == set(self.FLAGS)
        for argv in argvs:
            try:
                cli.build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README: {shlex.join(argv)}: {capsys.readouterr().err}")

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
