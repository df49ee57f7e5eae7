from pathlib import Path

import numpy as np
import pytest

from cosinet.baselines import score_rr, score_wo
from cosinet.corpus import ingest_jsonl
from cosinet.metrics import RankingMetrics, evaluate, group_metrics


def brute_force_order(scores):
    """Reference ranking: sort (descending score, ascending position)."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def brute_force_ap(scores, labels):
    order = brute_force_order(scores)
    hits, total = 0, 0.0
    for k, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            total += hits / k
    return total / sum(labels)


def brute_force_rr(scores, labels):
    order = brute_force_order(scores)
    for k, i in enumerate(order, start=1):
        if labels[i]:
            return 1.0 / k


@pytest.fixture(scope="module")
def synth_groups(tmp_path_factory):
    """110 groups from the benchmark's data generator, through ``ingest_jsonl``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import synth
    gen = synth.Generator(3)
    path = tmp_path_factory.mktemp("synth") / "groups.jsonl"
    synth.write_jsonl(gen.groups(synth.size_mix(gen.shape, 110), "g"), path)
    return ingest_jsonl(path)[0]


class TestExamples:
    def test_perfect_ranking(self):
        assert group_metrics([3.0, 2.0, 1.0], [1, 0, 0]) == (1.0, 1.0, 1.0)

    def test_positive_at_second(self):
        assert group_metrics([3.0, 2.0], [0, 1]) == (0.5, 0.5, 0.0)

    def test_two_positives_split(self):
        # positives land at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        ap, rr, p1 = group_metrics([5.0, 4.0, 3.0], [1, 0, 1])
        np.testing.assert_allclose(ap, (1.0 + 2.0 / 3.0) / 2.0)
        assert rr == p1 == 1.0

    def test_no_positive_is_an_error(self):
        with pytest.raises(ValueError, match="group has no positive label"):
            group_metrics([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError, match="group has no positive label"):
            group_metrics([], [])

    @pytest.mark.parametrize("scores,labels,want", [
        ([2.0, 1.0], [0, 0, 1], r"shape \(2,\) for labels of shape \(3,\)"),
        ([2.0, 1.0, 0.5], [1, 0], r"shape \(3,\) for labels of shape \(2,\)"),
        ([[2.0], [1.0]], [1, 0], r"shape \(2, 1\) for labels of shape \(2,\)"),
        ([], [1], r"shape \(0,\) for labels of shape \(1,\)"),
    ], ids=["fewer_scores", "more_scores", "score_column", "no_scores"])
    def test_score_and_label_counts_must_match(self, scores, labels, want):
        with pytest.raises(ValueError, match=want):
            group_metrics(scores, labels)


class TestAgainstBruteForce:
    def test_random_toy_groups(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 10))
            # draw from few distinct values so ties actually occur
            scores = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[rng.integers(0, n)] = 1
            top = brute_force_order(scores)[0]
            assert group_metrics(scores, labels) == (
                brute_force_ap(scores, labels), brute_force_rr(scores, labels),
                float(labels[top]))

    def test_single_positive_ap_equals_rr(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 8))
            scores = rng.uniform(0, 1, n)
            labels = np.zeros(n, dtype=int)
            labels[rng.integers(0, n)] = 1
            ap, rr, _ = group_metrics(scores, labels)
            assert ap == rr


class TestRankingProperties:
    def test_monotone_transform_invariance(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            scores = rng.uniform(-2, 2, n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            for f in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
                assert group_metrics(scores, labels) == pytest.approx(
                    group_metrics(f(scores), labels))

    def test_ties_resolved_by_original_rank(self):
        # a candidate's position is its original rank: the earlier one wins a tie
        scores = [1.0, 1.0, 1.0]
        assert group_metrics(scores, [0, 1, 0])[1] == 0.5
        assert group_metrics(scores, [0, 0, 1])[1] == 1.0 / 3.0

    def test_tie_break_is_deterministic(self):
        scores = np.ones(6)
        labels = [0, 0, 1, 0, 1, 0]
        vals = {group_metrics(scores, labels) for _ in range(10)}
        assert len(vals) == 1


class TestEvaluate:
    def test_rr_on_toy_groups(self, toy_groups):
        m = evaluate(score_rr, toy_groups)
        # positives at document positions 1, 2, (1 and 3)
        want_map = 100.0 * np.mean([1.0, 0.5, (1.0 + 2.0 / 3.0) / 2.0])
        want_mrr = 100.0 * np.mean([1.0, 0.5, 1.0])
        np.testing.assert_allclose(m.map, want_map)
        np.testing.assert_allclose(m.mrr, want_mrr)
        np.testing.assert_allclose(m.p_at_1, 100.0 * 2.0 / 3.0)
        assert m.n_questions == 3
        assert m.wall_seconds >= 0.0

    @pytest.mark.parametrize("dataset", ["toy_groups", "synth_groups"])
    def test_tied_scores_rank_in_document_order(self, request, dataset):
        # the tie rule end to end: all-equal scores rank every group as
        # score_rr does, bit for bit
        groups = request.getfixturevalue(dataset)
        tied = evaluate(lambda g: np.zeros(len(g.candidates)), groups)
        rr = evaluate(score_rr, groups)
        assert (tied.map, tied.mrr, tied.p_at_1) == (rr.map, rr.mrr, rr.p_at_1)

    def test_wo_scorer_runs(self, toy_groups):
        m = evaluate(score_wo, toy_groups)
        assert 0.0 <= m.map <= 100.0
        assert m.mrr >= m.p_at_1 - 1e-9  # first hit can only come earlier

    def test_perfect_oracle_scores_100(self, toy_groups):
        m = evaluate(lambda g: np.asarray(g.labels, dtype=float), toy_groups)
        assert m.map == m.mrr == m.p_at_1 == 100.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(score_rr, [])

    @pytest.mark.parametrize("bad", [
        lambda g: [np.nan] + [0.0] * (len(g.candidates) - 1),
        lambda g: [np.inf] * len(g.candidates),
    ])
    def test_non_finite_score_rejected(self, toy_groups, bad):
        with pytest.raises(ValueError, match="non-finite score for question q1"):
            evaluate(bad, toy_groups)

    @pytest.mark.parametrize("bad", [
        lambda g: [0.0] * (len(g.candidates) - 1),
        lambda g: [0.0] * (len(g.candidates) + 1),
        lambda g: np.zeros((len(g.candidates), 1)),
    ])
    def test_wrong_score_count_rejected(self, toy_groups, bad):
        with pytest.raises(ValueError, match="question q1 with 3 candidates"):
            evaluate(bad, toy_groups)

    def test_to_dict_rounds(self):
        m = RankingMetrics(map=64.214999, mrr=64.26, p_at_1=46.09,
                           n_questions=243, wall_seconds=0.123456)
        d = m.to_dict()
        assert d["map"] == 64.21
        assert d["mrr"] == 64.26
        assert d["n_questions"] == 243
        assert d["wall_seconds"] == 0.1235

    def test_mrr_bounds_p_at_1(self, toy_groups):
        # RR is 1 exactly when the top candidate is positive, else < 1
        for seed in range(20):
            rng = np.random.default_rng(seed)
            def scorer(g, rng=rng):
                return rng.uniform(0, 1, len(g.candidates))
            m = evaluate(scorer, toy_groups)
            assert m.p_at_1 - 1e-9 <= m.mrr <= 100.0 + 1e-9
