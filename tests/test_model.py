import collections
import contextlib
import copy
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cosinet.ndgrad as nd
from cosinet import model
from cosinet.model import (
    CONTEXT_KINDS,
    CosinetConfig,
    CosinetParams,
    encode_pair,
    expected_parameter_count,
    load_model,
    make_scorer,
    prepare_group,
    prepare_pair,
    relatedness,
    save_model,
    score_group,
    score_pairs,
)
from cosinet.corpus import Candidate, QuestionGroup
from cosinet.embeddings import UNKNOWN, embed_sequence
from cosinet.metrics import evaluate
from cosinet.ndgrad import Tape
from cosinet.training import listwise_loss, pointwise_loss
from conftest import make_group, make_table
from fdcheck import max_rel_error, numeric_gradient, probe
from modelfile import model_file, saved_model_bytes, small_model, split_model_file


def tiny_config(context="none", seed=0, kernel_width=2):
    return CosinetConfig(embedding_dim=4, conv_hidden=6,
                         kernel_width=kernel_width, context=context, seed=seed)


# ---------------------------------------------------------------------------
# relatedness feature


def cos_or_zero(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def brute_relatedness(q, c):
    r_q = np.array([max(cos_or_zero(qi, cj) for cj in c) for qi in q])
    r_c = np.array([max(cos_or_zero(qi, cj) for qi in q) for cj in c])
    return r_q, r_c


class TestRelatedness:
    def test_identical_vectors_score_one(self):
        v = np.array([[1.0, 2.0, 3.0]])
        r_q, r_c = relatedness(v, 2.5 * v, [1])  # cosine ignores magnitude
        np.testing.assert_allclose(r_q, [[1.0]], atol=1e-7)
        np.testing.assert_allclose(r_c, [1.0], atol=1e-7)

    def test_orthogonal_vectors_score_zero(self):
        q = np.array([[1.0, 0.0]])
        c = np.array([[0.0, 1.0]])
        r_q, r_c = relatedness(q, c, [len(c)])
        np.testing.assert_allclose(r_q, [[0.0]], atol=1e-7)

    def test_best_match_is_taken(self):
        q = np.array([[1.0, 0.0]])
        c = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
        r_q, r_c = relatedness(q, c, [len(c)])
        np.testing.assert_allclose(r_q, [[np.sqrt(0.5)]], atol=1e-7)
        np.testing.assert_allclose(r_c, [0.0, np.sqrt(0.5), -1.0], atol=1e-7)

    def test_matches_double_loop(self):
        # one candidate, and the same rows split into several candidates:
        # each question row's match is then taken within one candidate
        for seed in range(30):
            rng = np.random.default_rng(seed)
            nq, nc = rng.integers(1, 7, 2)
            q = rng.standard_normal((nq, 5))
            c = rng.standard_normal((nc, 5))
            if nq > 1:
                q[rng.integers(0, nq)] = 0.0  # an oov row
            r_q, r_c = relatedness(q, c, [len(c)])
            want_q, want_c = brute_relatedness(q, c)
            np.testing.assert_allclose(r_q, [want_q], atol=1e-6)
            np.testing.assert_allclose(r_c, want_c, atol=1e-6)
            cuts = np.sort(rng.choice(np.arange(1, nc), rng.integers(0, nc), replace=False))
            lengths = np.diff(np.concatenate([[0], cuts, [nc]]))
            r_q, r_c = relatedness(q, c, lengths)
            want_q = [brute_relatedness(q, part)[0] for part in np.split(c, cuts)]
            np.testing.assert_allclose(r_q, want_q, atol=1e-6)
            np.testing.assert_allclose(r_c, want_c, atol=1e-6)

    def test_all_oov_side_scores_zero(self):
        # zero rows (unknown words) have cosine 0 with everything
        rng = np.random.default_rng(5)
        q = rng.standard_normal((3, 4))
        r_q, r_c = relatedness(q, np.zeros((2, 4)), [2])
        np.testing.assert_array_equal(r_q, np.zeros((1, 3)))
        np.testing.assert_array_equal(r_c, np.zeros(2))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 6))
        c = rng.standard_normal((5, 6))
        r_q, r_c = relatedness(q, c, [len(c)])
        s_c, s_q = relatedness(c, q, [len(q)])
        np.testing.assert_allclose(r_q[0], s_q, atol=1e-12)
        np.testing.assert_allclose(r_c, s_c[0], atol=1e-12)

    def test_errors(self):
        good = np.ones((2, 3))
        with pytest.raises(ValueError, match="empty side"):
            relatedness(np.zeros((0, 3)), good, [len(good)])
        with pytest.raises(ValueError, match="shapes"):
            relatedness(np.ones((2, 3)), np.ones((2, 4)), [2])
        # an empty candidate would otherwise read its neighbour's maximum
        for lengths in ([2, 0], [0, 2], []):
            with pytest.raises(ValueError, match="empty side"):
                relatedness(good, good, lengths)
        with pytest.raises(ValueError, match="lengths sum to 3"):
            relatedness(good, good, [1, 2])


# ---------------------------------------------------------------------------
# pair preparation


def words_table(config, n_words=10, seed=0):
    """A small random table over w0 .. w{n-1}; any other token is unknown."""
    return make_table([f"w{i}" for i in range(n_words)], dim=config.embedding_dim, seed=seed)


def random_tokens(rng, length, n_words=10, n_unknown=2):
    """Tokens drawn with repeats from w0 .. w{n-1} and a few words outside the table."""
    return [f"w{i}" if i < n_words else f"oov{i}"
            for i in rng.integers(0, n_words + n_unknown, length)]


def side_x(tokens, r, table):
    """A side's conv input built from its tokens: [vector or zeros, relatedness], in 64-bit."""
    vec = [table.matrix[table.vocabulary[t]] if t in table.vocabulary
           else np.zeros(table.dimension) for t in tokens]
    return np.column_stack([np.array(vec, dtype=np.float64), np.asarray(r, dtype=np.float64)])


def pair_x(q_tokens, c_tokens, pair, table):
    return side_x(q_tokens, pair.q_r, table), side_x(c_tokens, pair.c_r, table)


class TestPreparePair:
    def test_augmented_width_and_relatedness_column(self):
        # one id per token, UNKNOWN where the table has no vector, and each
        # word's best cosine match against the other side
        config = tiny_config()
        table = words_table(config)
        rng = np.random.default_rng(0)
        q, c = random_tokens(rng, 4), random_tokens(rng, 6) + ["oov99"]
        pair = prepare_pair(q, c, table)
        for tokens, ids in ((q, pair.q_ids), (c, pair.c_ids)):
            np.testing.assert_array_equal(
                ids, [table.vocabulary.get(t, UNKNOWN) for t in tokens])
        q_x, c_x = pair_x(q, c, pair, table)
        r_q, r_c = brute_relatedness(q_x[:, :-1], c_x[:, :-1])
        assert pair.q_r.shape == (4,) and pair.c_r.shape == (7,)
        np.testing.assert_allclose(pair.q_r, r_q, atol=1e-5)
        np.testing.assert_allclose(pair.c_r, r_c, atol=1e-5)
        assert pair.c_r[-1] == 0.0

    def test_short_input_padded_to_kernel_width(self):
        # the pair keeps its 2-token question unpadded; encode_pair pads it
        # with zeros to one window of the width-5 kernel
        config = tiny_config("none", kernel_width=5)
        params = CosinetParams(config)
        table = words_table(config)
        rng = np.random.default_rng(1)
        q, c = random_tokens(rng, 2), random_tokens(rng, 7)
        pair = prepare_pair(q, c, table)
        assert pair.q_ids.shape == (2,) and pair.c_ids.shape == (7,)
        tape = Tape(dtype=np.float64)
        vec = encode_pair([pair], table, params.as_leaves(tape)).data[0]
        a = {name: arr.astype(np.float64) for name, arr in params.arrays.items()}
        q_x, c_x = pair_x(q, c, pair, table)
        q = a["q_conv_b"] + sum(q_x[j] @ a["q_conv_w"][j] for j in range(2))
        c = np.max([a["c_conv_b"] + sum(c_x[t + j] @ a["c_conv_w"][j] for j in range(5))
                    for t in range(3)], axis=0)
        np.testing.assert_allclose(vec, np.concatenate([q * c, q - c]), atol=1e-12)

    def test_window_validity_covers_real_tokens_only(self, monkeypatch):
        # encode_pair pads every side to max(longest, K) and pools an n-token
        # side over its first max(1, n - K + 1) windows, the ones that start
        # at a real token
        masks = []
        conv1d = nd.conv1d

        def spy(rows, ids, r, w, b, mask):
            masks.append(mask.copy())
            return conv1d(rows, ids, r, w, b, mask)

        monkeypatch.setattr(nd, "conv1d", spy)
        rng = np.random.default_rng(2)
        lengths = [3, 7, 2, 5, 1]
        for k in (2, 3, 5, 9):
            config = tiny_config("none", kernel_width=k)
            params = CosinetParams(config)
            table = words_table(config)
            pairs = [prepare_pair(random_tokens(rng, n), random_tokens(rng, 1), table)
                     for n in lengths]
            masks.clear()
            tape = Tape()
            encode_pair(pairs, table, params.as_leaves(tape))
            want = np.zeros((len(lengths), max(7, k) - k + 1), dtype=bool)
            for i, n in enumerate(lengths):
                want[i, :max(1, n - k + 1)] = True
            np.testing.assert_array_equal(masks[0], want)
            np.testing.assert_array_equal(masks[1], np.ones((len(lengths), 1), dtype=bool))

    def test_prepare_pair_uses_table_lookup(self, toy_table):
        pair = prepare_pair(["plants", "unknowntoken"], ["plants", "."], toy_table)
        np.testing.assert_array_equal(pair.q_ids, [toy_table.vocabulary["plants"], UNKNOWN])
        # identical token on both sides: best cosine match is 1
        np.testing.assert_allclose(pair.q_r[0], 1.0, atol=1e-6)
        assert pair.q_r[1] == 0.0


def token_group(q_tokens, candidates):
    """A QuestionGroup built straight from token lists, bypassing ingestion's filters."""
    return QuestionGroup("q", " ".join(q_tokens), tuple(q_tokens),
                         tuple(Candidate(" ".join(c), tuple(c), 0) for c in candidates))


def one_pair_relatedness(q_emb, c_emb):
    """The one-pair formula written out: a masked divide, one matmul, a max per axis."""
    def normalize(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)

    r = normalize(q_emb) @ normalize(c_emb).T
    return r.max(axis=1), r.max(axis=0)


class TestPrepareGroup:
    """``prepare_group`` shares one question embedding and one cosine matmul per group."""

    CONFIG = tiny_config(kernel_width=3)

    def groups(self):
        # 1 and 30 candidates; sides shorter than the kernel, an all-OOV
        # candidate, a repeated token, and a question with no known word
        rng = np.random.default_rng(21)
        q = random_tokens(rng, 4)
        many = [random_tokens(rng, int(n)) for n in rng.integers(1, 10, 27)]
        many += [["oov1", "oov2"], ["w1"] * 5, ["w2", "w3", "w2"]]
        return [token_group(q, [random_tokens(rng, 6)]), token_group(q, many),
                token_group(["oov1", "oov3"], many[:6])]

    def test_group_matches_its_pairs(self):
        table = words_table(self.CONFIG)
        for group in self.groups():
            got = prepare_group(group, table)
            want = [prepare_pair(group.question_tokens, c.tokens, table) for c in group.candidates]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.q_ids, w.q_ids)
                np.testing.assert_array_equal(g.c_ids, w.c_ids)
                # the wider matmul may round the last bits differently
                np.testing.assert_allclose(g.q_r, w.q_r, rtol=0, atol=1e-6)
                np.testing.assert_allclose(g.c_r, w.c_r, rtol=0, atol=1e-6)
                if (g.q_ids == UNKNOWN).all() or (g.c_ids == UNKNOWN).all():
                    assert not g.q_r.any() and not g.c_r.any()  # zero-norm rows score 0

    def test_prepare_pair_keeps_the_one_pair_formula_bitwise(self):
        table = words_table(self.CONFIG)
        for group in self.groups():
            q_emb = embed_sequence(group.question_tokens, table)[1]
            for c in group.candidates:
                pair = prepare_pair(group.question_tokens, c.tokens, table)
                r_q, r_c = one_pair_relatedness(q_emb, embed_sequence(c.tokens, table)[1])
                assert pair.q_r.tobytes() == r_q.tobytes()
                assert pair.c_r.tobytes() == r_c.tobytes()

    def test_score_group_matches_per_pair_inputs(self):
        table = words_table(self.CONFIG)
        for kind in CONTEXT_KINDS:
            config = tiny_config(kind, kernel_width=3)
            params = CosinetParams(config)
            for group in self.groups():
                pairs = [prepare_pair(group.question_tokens, c.tokens, table)
                         for c in group.candidates]
                tape = Tape(dtype=np.float32)
                want = score_pairs(pairs, table, config, params.as_leaves(tape)).data[:, 0]
                got = score_group(group, table, params, config)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6, err_msg=kind)

    @pytest.mark.parametrize("q, candidates", [
        ([], [["w1"], ["w2"]]), (["w1"], [[], ["w2"]]), (["w1"], [["w2"], [], ["w3"]]),
        (["w1"], [["w2"], []])])
    def test_empty_question_or_candidate_is_rejected(self, q, candidates):
        # a zero-token candidate has no relatedness of its own to read
        config = self.CONFIG
        table = words_table(config)
        group = token_group(q, candidates)
        error = "embed_sequence: empty token list: a question or candidate has no tokens"
        with pytest.raises(ValueError, match=error):
            prepare_group(group, table)
        with pytest.raises(ValueError, match=error):
            score_group(group, table, CosinetParams(config), config)


# ---------------------------------------------------------------------------
# forward oracle: plain per-pair convolution + pool + combine, per-step
# recurrences along the rank, then the head


def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def np_rnn(xs, w_ih, w_hh, b):
    h, out = np.zeros(w_hh.shape[0]), []
    for x in xs:
        h = np.tanh(x @ w_ih + h @ w_hh + b[0])
        out.append(h)
    return np.array(out)


def np_lstm(xs, w_ih, w_hh, b):
    hd = w_hh.shape[0]
    h, c, out = np.zeros(hd), np.zeros(hd), []
    for x in xs:
        pre = x @ w_ih + h @ w_hh + b[0]
        i, f, o = np_sigmoid(pre[:hd]), np_sigmoid(pre[hd:2 * hd]), np_sigmoid(pre[3 * hd:])
        c = f * c + i * np.tanh(pre[2 * hd:3 * hd])
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out)


def np_encode(xs, params):
    """[q * c; q - c] per (q_x, c_x) pair of conv inputs, by direct sums, in 64-bit."""
    def conv(x, w, b):
        # a side shorter than the kernel is zero-padded to one window
        k = w.shape[0]
        x = np.vstack([x, np.zeros((max(0, k - x.shape[0]), x.shape[1]))])
        t_out = x.shape[0] - k + 1
        out = np.zeros((t_out, w.shape[2]))
        for t in range(t_out):
            acc = b.copy()
            for j in range(k):
                acc += x[t + j] @ w[j]
            out[t] = acc
        return out

    a = {name: arr.astype(np.float64) for name, arr in params.arrays.items()}
    feats = []
    for q_x, c_x in xs:
        qv = conv(q_x, a["q_conv_w"], a["q_conv_b"]).max(axis=0)
        cv = conv(c_x, a["c_conv_w"], a["c_conv_b"]).max(axis=0)
        feats.append(np.concatenate([qv * cv, qv - cv]))
    return np.stack(feats)


def np_forward_scores(xs, params, config):
    feats = np_encode(xs, params)
    a = {name: arr.astype(np.float64) for name, arr in params.arrays.items()}
    kind = config.context
    run = np_lstm if kind.endswith("lstm") else np_rnn
    if kind == "rnn":
        feats = run(feats, a["ctx_w_ih"], a["ctx_w_hh"], a["ctx_b_ih"] + a["ctx_b_hh"])
    elif kind == "lstm":
        feats = run(feats, a["ctx_w_ih"], a["ctx_w_hh"], a["ctx_b"])
    elif kind != "none":
        fw = run(feats, a["ctx_fw_w_ih"], a["ctx_fw_w_hh"], a["ctx_fw_b"])
        bw = run(feats[::-1], a["ctx_bw_w_ih"], a["ctx_bw_w_hh"], a["ctx_bw_b"])[::-1]
        feats = np.concatenate([fw, bw], axis=1)
    return feats @ a["head_w"][:, 0] + a["head_b"][0, 0]


class Batch:
    """Pairs of random tokens sharing one question, over a small random table."""

    def __init__(self, rng, config, n_pairs, max_len=6, q_len=None):
        self.table = words_table(config, seed=int(rng.integers(1 << 16)))
        q = random_tokens(rng, int(rng.integers(1, max_len)) if q_len is None else q_len)
        self.tokens = [(q, random_tokens(rng, int(rng.integers(1, max_len))))
                       for _ in range(n_pairs)]
        self.pairs = [prepare_pair(q, c, self.table) for q, c in self.tokens]

    def xs(self):
        """Each pair's (q_x, c_x) conv inputs, built from the tokens."""
        return [pair_x(q, c, p, self.table) for (q, c), p in zip(self.tokens, self.pairs)]

    def scores(self, params, config, order=None, dtype=np.float32):
        pairs = self.pairs if order is None else [self.pairs[i] for i in order]
        tape = Tape(dtype=dtype)
        return score_pairs(pairs, self.table, config, params.as_leaves(tape)).data[:, 0]


class TestForward:
    def test_encode_matches_loop_oracle(self):
        # every context kind, candidates of mixed lengths in one call; odd
        # seeds use a 1-token question and a width-3 kernel, so a side
        # shorter than the kernel always occurs
        for seed in range(10):
            for kind in CONTEXT_KINDS:
                config = tiny_config(kind, seed=seed, kernel_width=3 if seed % 2 else 2)
                rng = np.random.default_rng(seed)
                params = CosinetParams(config)
                batch = Batch(rng, config, n_pairs=4, max_len=8, q_len=1 if seed % 2 else None)
                got = batch.scores(params, config)
                want = np_forward_scores(batch.xs(), params, config)
                np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5, err_msg=kind)

    def test_encode_matches_direct_sum_with_repeats_unknowns_and_padding(self):
        # tokens repeat within and across sides, some have no vector, and
        # sides shorter than the kernel pad: each distinct row is projected
        # once, yet every window equals its direct sum
        config = tiny_config("none", kernel_width=3)
        table = words_table(config, n_words=4)
        tokens = [(["w1", "w1", "oov"], ["w2", "w1", "w2", "w2", "x", "w1"]),
                  (["w1", "w1", "oov"], ["w3"]),
                  (["w1", "w1", "oov"], ["y", "y", "w0", "w3", "w3"])]
        pairs = [prepare_pair(q, c, table) for q, c in tokens]
        for seed in range(3):
            params = CosinetParams(tiny_config("none", kernel_width=3, seed=seed))
            tape = Tape(dtype=np.float64)
            got = encode_pair(pairs, table, params.as_leaves(tape)).data
            want = np_encode([pair_x(q, c, p, table) for (q, c), p in zip(tokens, pairs)],
                             params)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_identical_candidates_project_each_distinct_token_once(self, monkeypatch):
        # n copies of one pair: the conv sees each distinct id once, however
        # many windows use it, and every copy gets the lone pair's rows
        seen = []
        conv1d = nd.conv1d

        def spy(rows, ids, r, w, b, mask):
            seen.append(rows.shape[0])
            return conv1d(rows, ids, r, w, b, mask)

        monkeypatch.setattr(nd, "conv1d", spy)
        config = tiny_config("none", kernel_width=3)
        params = CosinetParams(config)
        table = words_table(config)
        q, c = ["w3", "w1", "w3"], ["w2", "w5", "w2", "oov", "w5", "w2", "w7"]
        pair = prepare_pair(q, c, table)

        def encode(pairs):
            seen.clear()
            tape = Tape(dtype=np.float32)
            return encode_pair(pairs, table, params.as_leaves(tape)).data

        alone = encode([pair])
        batch = encode([pair] * 6)
        assert seen == [len(set(q)), len(set(c))]  # no side is shorter than K: no padding
        np.testing.assert_allclose(batch, np.repeat(alone, 6, axis=0), rtol=1e-6, atol=1e-6)

    def test_pair_embedding_width(self):
        config = tiny_config("none")
        params = CosinetParams(config)
        batch = Batch(np.random.default_rng(0), config, 3)
        tape = Tape(dtype=np.float32)
        vec = encode_pair(batch.pairs, batch.table, params.as_leaves(tape))
        assert vec.data.shape == (3, 2 * config.conv_hidden)

    def test_padding_invariance(self):
        # a pair scores the same alone as in a batch padded to longer pairs;
        # not bitwise, since BLAS may sum a row differently in a larger matmul
        config = tiny_config("none", kernel_width=3)
        params = CosinetParams(config)
        table = words_table(config, n_words=40)
        rng = np.random.default_rng(5)

        def pair(q_len, c_len):
            return prepare_pair(random_tokens(rng, q_len, n_words=40),
                                random_tokens(rng, c_len, n_words=40), table)

        def run(pairs):
            tape = Tape(dtype=np.float32)
            return score_pairs(pairs, table, config, params.as_leaves(tape)).data[:, 0]

        for q_len, c_len in [(4, 5), (2, 1), (1, 3)]:
            alone = pair(q_len, c_len)
            base = run([alone])
            for longer in [(q_len + 1, c_len), (q_len, c_len + 1), (q_len + 3, c_len + 2),
                           (q_len + 7, c_len + 7)]:
                scores = run([pair(*longer), alone, pair(q_len + 2, 1)])
                np.testing.assert_allclose(scores[1], base[0], rtol=1e-6, atol=1e-6)

    def test_one_tape_op_per_layer_per_batch(self, monkeypatch):
        # conv and pool once per tower, the recurrence once for both
        # directions, and a tape whose length does not grow with the
        # candidate count
        calls = collections.Counter()
        for name in ("conv1d", "masked_max_pool", "rnn_cell", "lstm_cell"):
            def counted(*args, _fn=getattr(nd, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(nd, name, counted)
        rng = np.random.default_rng(12)
        for kind in CONTEXT_KINDS:
            config = tiny_config(kind)
            params = CosinetParams(config)
            cell = "lstm_cell" if kind.endswith("lstm") else "rnn_cell"
            want = {"conv1d": 2, "masked_max_pool": 2}
            if kind != "none":
                want[cell] = 1
            records = set()
            for n in (1, 2, 7):
                calls.clear()
                batch = Batch(rng, config, n)
                tape = Tape(dtype=np.float32)
                score_pairs(batch.pairs, batch.table, config, params.as_leaves(tape))
                assert dict(calls) == want, (kind, n)
                records.add(len(tape._records))
            assert len(records) == 1, (kind, records)

    @pytest.mark.parametrize("loss, kind, want", [
        (listwise_loss, "none", 7), (pointwise_loss, "none", 7), (listwise_loss, "rnn", 8),
        (listwise_loss, "lstm", 8), (listwise_loss, "birnn", 8), (listwise_loss, "bilstm", 8)])
    def test_one_tape_record_per_model_stage(self, loss, kind, want):
        # conv and pool per tower, the pair combine, one recurrence for all
        # directions (with their biases), the head and the loss
        config = tiny_config(kind)
        batch = Batch(np.random.default_rng(13), config, 4)
        tape = Tape(dtype=np.float32)
        scores = score_pairs(batch.pairs, batch.table, config,
                             CosinetParams(config).as_leaves(tape))
        loss(scores, [1, 0, 0, 1])
        assert len(tape._records) == want

    def test_identical_sides_with_shared_towers_have_zero_difference(self):
        # with the candidate tower forced equal to the question tower, the
        # two paths compute the same function, so the q - c half vanishes
        config = tiny_config("none")
        params = CosinetParams(config)
        params.arrays["c_conv_w"][...] = params.arrays["q_conv_w"]
        params.arrays["c_conv_b"][...] = params.arrays["q_conv_b"]
        table = words_table(config)
        x = random_tokens(np.random.default_rng(11), 4)
        pair = prepare_pair(x, x, table)
        tape = Tape(dtype=np.float32)
        vec = encode_pair([pair], table, params.as_leaves(tape)).data[0]
        h = config.conv_hidden
        np.testing.assert_array_equal(vec[h:], np.zeros(h))
        np.testing.assert_array_equal(vec[:h], vec[:h])

    def test_scores_permutation_equivariant_without_context(self):
        config = tiny_config("none")
        params = CosinetParams(config)
        rng = np.random.default_rng(6)
        batch = Batch(rng, config, n_pairs=5)
        base = batch.scores(params, config)
        perm = rng.permutation(5)
        np.testing.assert_allclose(batch.scores(params, config, perm), base[perm], atol=1e-6)

    def test_rank_context_breaks_permutation_equivariance(self):
        config = tiny_config("birnn")
        params = CosinetParams(config)
        batch = Batch(np.random.default_rng(7), config, n_pairs=5)
        base = batch.scores(params, config)
        perm = np.array([4, 2, 0, 3, 1])
        assert np.abs(batch.scores(params, config, perm) - base[perm]).max() > 1e-6

    def test_context_output_shapes(self):
        for kind in CONTEXT_KINDS:
            config = tiny_config(kind)
            params = CosinetParams(config)
            batch = Batch(np.random.default_rng(8), config, n_pairs=4)
            tape = Tape(dtype=np.float32)
            col = score_pairs(batch.pairs, batch.table, config, params.as_leaves(tape))
            assert col.data.shape == (4, 1)

    def test_score_group_is_deterministic(self, toy_groups, toy_table):
        config = CosinetConfig(embedding_dim=16, conv_hidden=4, kernel_width=2)
        params = CosinetParams(config)
        a = score_group(toy_groups[0], toy_table, params, config)
        b = score_group(toy_groups[0], toy_table, params, config)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (len(toy_groups[0].candidates),)

    def test_score_group_rejects_a_table_of_another_width(self, toy_groups):
        config = CosinetConfig(embedding_dim=16, conv_hidden=4, kernel_width=2)
        words = {t for g in toy_groups for c in g.candidates for t in c.tokens}
        narrow = make_table(words, dim=8)
        with pytest.raises(ValueError, match="score_group: embedding table is 8 wide, "
                                             "config embedding_dim is 16"):
            score_group(toy_groups[0], narrow, CosinetParams(config), config)

    def test_make_scorer_feeds_evaluate(self, toy_groups, toy_table):
        config = CosinetConfig(embedding_dim=16, conv_hidden=4, kernel_width=2)
        params = CosinetParams(config)
        m = evaluate(make_scorer(params, config, toy_table), toy_groups)
        assert 0.0 <= m.map <= 100.0
        assert m.n_questions == len(toy_groups)


# ---------------------------------------------------------------------------
# parameter budget


class TestParameterCount:
    # published sizes for the 300-dim, width-5, 300-filter setting
    PUBLISHED = {
        "none": 904_201,
        "rnn": 1_174_501,
        "birnn": 1_129_201,
        "lstm": 1_985_101,
        "bilstm": 1_805_101,
    }

    @pytest.mark.parametrize("kind", CONTEXT_KINDS)
    def test_default_config_matches_published(self, kind):
        config = CosinetConfig(context=kind)
        assert expected_parameter_count(config) == self.PUBLISHED[kind]
        assert CosinetParams(config).count() == self.PUBLISHED[kind]

    def test_closed_form_matches_actual_on_small_configs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            for kind in CONTEXT_KINDS:
                config = CosinetConfig(
                    embedding_dim=int(rng.integers(2, 9)),
                    conv_hidden=2 * int(rng.integers(1, 6)),
                    kernel_width=int(rng.integers(1, 5)),
                    context=kind)
                params = CosinetParams(config)
                assert params.count() == expected_parameter_count(config)

    def test_context_hidden_defaults(self):
        assert CosinetConfig(context="rnn").context_hidden == 300
        assert CosinetConfig(context="birnn").context_hidden == 150
        assert CosinetConfig(context="bilstm").context_hidden == 150
        assert CosinetConfig(context="none").context_hidden is None

    def test_config_validation(self):
        with pytest.raises(ValueError, match="context"):
            CosinetConfig(context="gru")
        with pytest.raises(ValueError, match="even"):
            CosinetConfig(conv_hidden=5, context="birnn")
        with pytest.raises(ValueError, match="kernel_width"):
            CosinetConfig(kernel_width=0)
        for dim in (0, -2):  # named as a setting, not as a vector file of the wrong width
            with pytest.raises(ValueError, match=f"embedding_dim must be >= 1, got {dim}"):
                CosinetConfig(embedding_dim=dim)
        # named as a setting, not by the random generator once the data has loaded
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            CosinetConfig(seed=-1)
        assert CosinetConfig(seed=0).seed == 0


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        config = tiny_config("lstm")
        params = CosinetParams(config)
        k, e1, h = config.kernel_width, config.embedding_dim + 1, config.conv_hidden
        limit = np.sqrt(6.0 / (k * e1 + h))
        w = params.arrays["q_conv_w"]
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit
        np.testing.assert_array_equal(params.arrays["q_conv_b"], 0)
        np.testing.assert_array_equal(params.arrays["ctx_b"], 0)
        np.testing.assert_array_equal(params.arrays["head_b"], 0)

    def test_seed_controls_draws(self):
        a = CosinetParams(tiny_config(seed=1))
        b = CosinetParams(tiny_config(seed=1))
        c = CosinetParams(tiny_config(seed=2))
        np.testing.assert_array_equal(a.arrays["head_w"], b.arrays["head_w"])
        assert (a.arrays["head_w"] != c.arrays["head_w"]).any()

    def test_towers_are_unshared(self):
        params = CosinetParams(tiny_config())
        assert (params.arrays["q_conv_w"] != params.arrays["c_conv_w"]).any()

    @pytest.mark.parametrize("kind", CONTEXT_KINDS)
    def test_arrays_are_read_only_views_of_flat(self, kind):
        params = CosinetParams(tiny_config(kind))
        params.flat[:] = np.arange(params.flat.size)
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in params.arrays.values()]), params.flat)
        with pytest.raises(TypeError):
            params.arrays["head_b"] = np.zeros((1, 1), dtype=np.float32)


# ---------------------------------------------------------------------------
# end-to-end gradients


class TestEndToEndGradients:
    def test_param_gradients_match_finite_differences(self):
        # 20 cases cycling through every context kind, all at 64-bit
        for seed in range(20):
            kind = CONTEXT_KINDS[seed % len(CONTEXT_KINDS)]
            config = tiny_config(kind, seed=seed)
            params = CosinetParams(config, dtype=np.float64)
            rng = np.random.default_rng(100 + seed)
            batch = Batch(rng, config, n_pairs=2, max_len=5)
            w = rng.uniform(-1, 1, (2, 1))
            names = list(params.arrays)

            def loss_of(tape, arrs):
                # the w-weighted sum of the (n, 1) score column
                leaves = {n: tape.leaf(a) for n, a in zip(names, arrs)}
                return probe(score_pairs(batch.pairs, batch.table, config, leaves), w), leaves

            arrays = [params.arrays[n].astype(np.float64) for n in names]
            tape = Tape(dtype=np.float64)
            loss, leaves = loss_of(tape, arrays)
            tape.backward(loss)

            for i, name in enumerate(names):
                num = numeric_gradient(
                    lambda arrs: float(loss_of(Tape(dtype=np.float64), arrs)[0].data[0, 0]),
                    arrays, i, 1e-6)
                err = max_rel_error(leaves[name].grad, num)
                assert err <= 1e-5, f"{kind} seed {seed} {name}: rel err {err:.3g}"


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    build = staticmethod(small_model)

    def test_round_trip_bit_exact(self, tmp_path):
        config, params, table = self.build()
        path = tmp_path / "m.bin"
        save_model(path, config, params, table)
        config2, params2, table2 = load_model(path)
        assert config2 == config
        assert list(params2.arrays) == list(params.arrays)
        for name in params.arrays:
            np.testing.assert_array_equal(params2.arrays[name], params.arrays[name])
        assert table2.vocabulary == table.vocabulary
        np.testing.assert_array_equal(table2.matrix, table.matrix)

    @pytest.mark.parametrize("kind", CONTEXT_KINDS)
    def test_load_draws_no_random_numbers_and_reads_back_every_bit(self, tmp_path, kind,
                                                                   monkeypatch):
        config, params, table = self.build(seed=4, context=kind)
        # trained-looking weights: every bias nonzero, so a weight left at its init shows
        params.flat[:] = np.random.default_rng(9).standard_normal(params.flat.size)
        path = tmp_path / "m.bin"
        save_model(path, config, params, table)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        config2, params2, table2 = load_model(path)
        assert config2 == config
        assert params2.flat.dtype == params.flat.dtype
        assert params2.flat.tobytes() == params.flat.tobytes()
        assert [(n, a.shape) for n, a in params2.arrays.items()] == \
            [(n, a.shape) for n, a in params.arrays.items()]
        assert table2.matrix.tobytes() == table.matrix.tobytes()

    def test_round_trip_preserves_scores(self, tmp_path):
        config, params, table = self.build(seed=3)
        group = make_group("q", "alpha beta ?", [("beta gamma .", 1), ("alpha .", 0)])
        before = score_group(group, table, params, config)
        path = tmp_path / "m.bin"
        save_model(path, config, params, table)
        config2, params2, table2 = load_model(path)
        after = score_group(group, table2, params2, config2)
        np.testing.assert_array_equal(before, after)

    def test_layout(self, tmp_path):
        import json
        import struct

        config, params, table = self.build()
        path = tmp_path / "m.bin"
        save_model(path, config, params, table)
        blob = path.read_bytes()
        assert blob[:8] == b"COSINET\x00"
        (version,) = struct.unpack_from("<I", blob, 8)
        assert version == 2
        (hlen,) = struct.unpack_from("<Q", blob, 12)
        header = json.loads(blob[20:20 + hlen])
        assert header["tensors"][0][0] == "embedding_matrix"
        assert [t[0] for t in header["tensors"][1:]] == list(params.arrays)
        n_floats = table.matrix.size + params.count()
        assert len(blob) == 20 + hlen + 4 * n_floats + 32
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()

    def test_payload_corruption_detected(self, tmp_path):
        config, params, table = self.build()
        path = tmp_path / "m.bin"
        save_model(path, config, params, table)
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0xFF  # inside the payload, before the digest
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        # version 1, whose digest covered the payload only, is no longer read either
        config, params, table = self.build()
        path = tmp_path / "m.bin"
        save_model(path, config, params, table)
        blob = bytearray(path.read_bytes())
        for version in (1, 99):
            blob[8:12] = struct.pack("<I", version)
            path.write_bytes(bytes(blob))
            with pytest.raises(ValueError, match=f"version {version}"):
                load_model(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        # a well-formed file with a valid digest whose manifest also names a
        # tensor the model does not have, with its three floats
        header, payload = split_model_file(saved_model_bytes())
        header["tensors"].append(["bogus", [3]])
        path = tmp_path / "m.bin"
        path.write_bytes(model_file(header, payload + bytes(12)))
        with pytest.raises(ValueError, match=r"is \['bogus', \[3\]\], .* has nothing"):
            load_model(path)

    def test_repeated_tensor_rejected(self, tmp_path):
        # the same, with a second head_b entry and its float
        header, payload = split_model_file(saved_model_bytes())
        header["tensors"].append(["head_b", [1, 1]])
        path = tmp_path / "m.bin"
        path.write_bytes(model_file(header, payload + bytes(4)))
        with pytest.raises(ValueError, match=r"is \['head_b', \[1, 1\]\], .* has nothing"):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        # a well-formed file with a valid digest whose last tensor, head_b,
        # is declared (2, 2) instead of (1, 1), with its three extra floats
        header, payload = split_model_file(saved_model_bytes())
        assert header["tensors"][-1] == ["head_b", [1, 1]]
        header["tensors"][-1][1] = [2, 2]
        path = tmp_path / "m.bin"
        path.write_bytes(model_file(header, payload + bytes(12)))
        with pytest.raises(ValueError, match=r"\['head_b', \[2, 2\]\], .* \['head_b', \[1, 1\]\]"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        config, params, table = self.build()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(p1, config, params, table)
        save_model(p2, config, params, table)
        assert p1.read_bytes() == p2.read_bytes()

    def test_short_file_rejected(self, tmp_path):
        blob = saved_model_bytes()
        path = tmp_path / "m.bin"
        for n in (0, 15, 20 + 31):  # the preamble plus the digest is 52 bytes
            path.write_bytes(blob[:n])
            with pytest.raises(ValueError, match="too short"):
                load_model(path)

    def test_header_length_past_end_rejected(self, tmp_path):
        blob = bytearray(saved_model_bytes())
        path = tmp_path / "m.bin"
        for bad in (len(blob) - 20 - 31, 2 ** 64 - 1):
            blob[12:20] = struct.pack("<Q", bad)
            path.write_bytes(bytes(blob))
            with pytest.raises(ValueError, match="header length"):
                load_model(path)

    def test_header_nested_past_the_recursion_limit_rejected(self, tmp_path):
        # json.loads recurses once per level and raises RecursionError, no ValueError
        raw = b"[" * 100_000 + b"]" * 100_000
        body = model.MAGIC + struct.pack("<IQ", model.FORMAT_VERSION, len(raw)) + raw
        path = tmp_path / "m.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(ValueError, match=f"^{path}: malformed header"):
            load_model(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        # context_hidden is derived: files that listed it in the config no longer load
        path = tmp_path / "m.bin"
        for key, value in (("dropout", 0.5), ("context_hidden", 3)):
            header, payload = split_model_file(saved_model_bytes())
            header["config"][key] = value
            path.write_bytes(model_file(header, payload))
            with pytest.raises(ValueError, match=key):
                load_model(path)

    def test_embedding_width_other_than_config_rejected(self, tmp_path):
        # an 8-wide table under a 4-wide config: neither written nor read
        config, params, table = self.build()
        wide = make_table(["alpha", "beta", "gamma", "?"], dim=8)
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="embedding_dim"):
            save_model(path, config, params, wide)
        assert not path.exists()
        save_model(path, config, params, table)
        header, payload = split_model_file(path.read_bytes())
        matrix = np.frombuffer(payload[:table.matrix.nbytes], "<f4").reshape(table.matrix.shape)
        rest = payload[table.matrix.nbytes:]
        # header embedding_dim, matrix width, config embedding_dim; the error names the
        # width that disagrees with the config's
        for header_dim, width, config_dim, named in (
                (8, 8, 4, "header embedding_dim 8 is not the config's embedding_dim 4"),
                (4, 8, 4, r"is \['embedding_matrix', \[4, 8\]\], .* \[4, 4\]"),
                (8, 4, 8, r"is \['embedding_matrix', \[4, 4\]\], .* \[4, 8\]")):
            header["embedding_dim"] = header_dim
            header["tensors"][0][1] = [len(matrix), width]
            header["config"]["embedding_dim"] = config_dim
            body = np.tile(matrix, (1, width // 4)).tobytes() + rest
            path.write_bytes(model_file(header, body))
            with pytest.raises(ValueError, match=named):
                load_model(path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_no_partial_file(self, tmp_path, existing, monkeypatch):
        # the write of the weights fails after the preamble, the header and
        # the embedding matrix were written; an older file at the path stays
        # as it was
        config, params, table = self.build()
        path = tmp_path / "m.bin"
        if existing:
            save_model(path, config, params, table)
        before = path.read_bytes() if existing else None
        real_open = model.atomic_open

        class FailingWrites:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 4:
                    raise OSError("disk full")
                return self.fh.write(data)

        @contextlib.contextmanager
        def failing_open(*args, **kwargs):
            with real_open(*args, **kwargs) as fh:
                yield FailingWrites(fh)

        monkeypatch.setattr(model, "atomic_open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, config, params, table)
        assert [p.name for p in tmp_path.iterdir()] == (["m.bin"] if existing else [])
        if existing:
            assert path.read_bytes() == before


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(st.data())
def test_truncated_model_file_is_a_value_error(tmp_path, data):
    blob = saved_model_bytes()
    path = tmp_path / "m.bin"
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(ValueError):
        load_model(path)


@FUZZ
@given(st.data())
def test_bit_flip_outside_header_is_a_value_error(tmp_path, data):
    # preamble, payload and digest: every single-bit flip is caught
    blob = bytearray(saved_model_bytes())
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    pos = data.draw(st.integers(0, len(blob) - hlen - 1))
    pos += hlen if pos >= 20 else 0
    blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    path = tmp_path / "m.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_model(path)


@FUZZ
@given(st.data())
def test_header_bit_flip_never_escapes_as_another_error(tmp_path, data):
    # the digest covers the header too, so even a flip that keeps the JSON
    # valid (inside a vocabulary token, or the config seed) is caught
    blob = bytearray(saved_model_bytes())
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    blob[data.draw(st.integers(20, 20 + hlen - 1))] ^= 1 << data.draw(st.integers(0, 7))
    path = tmp_path / "m.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_model(path)
