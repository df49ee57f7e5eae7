"""Acceptance gate: one test per criterion, one printed PASS/FAIL/SKIP line each.

Criteria 1-5 need the real WikiQA splits (and, for 4-5, 300-dim pretrained
word vectors); point COSINET_WIKIQA_DIR / COSINET_EMBEDDINGS at local copies
(see conftest). Without the data they skip and say so. Criteria 6-7 always run.
"""

import numpy as np
import pytest

from cosinet.baselines import score_rr, score_wo, score_wo_rr
from cosinet.corpus import ingest_wikiqa
from cosinet.embeddings import load_embeddings
from cosinet.metrics import evaluate
from cosinet.model import (
    CosinetConfig,
    CosinetParams,
    make_scorer,
)
from cosinet.training import TrainConfig, fit
from conftest import (
    ACCEPTANCE_LINES,
    TOY_ROWS,
    make_group,
    make_table,
    require_embeddings,
    require_wikiqa,
    table_digest,
)


def announce(n, status, detail=""):
    line = f"ACCEPTANCE {n}: {status}"
    if detail:
        line += f" — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _require(n, getter):
    try:
        return getter()
    except pytest.skip.Exception as exc:
        announce(n, "SKIP", str(exc))
        raise


def _finish(n, detail, *conditions):
    ok = all(conditions)
    announce(n, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1-3: dataset statistics and rule baselines


def test_criterion_1_reciprocal_rank_baseline():
    path = _require(1, lambda: require_wikiqa("test"))
    groups, _ = ingest_wikiqa(path)
    m = evaluate(score_rr, groups)
    detail = (f"rr map {m.map:.2f} (want 64.21±0.15), mrr {m.mrr:.2f} "
              f"(64.26±0.15), p@1 {m.p_at_1:.2f} (46.09±0.15), "
              f"wall {m.wall_seconds:.3f}s (< 1s)")
    _finish(1, detail,
            abs(m.map - 64.21) <= 0.15,
            abs(m.mrr - 64.26) <= 0.15,
            abs(m.p_at_1 - 46.09) <= 0.15,
            m.wall_seconds < 1.0)


def test_criterion_2_overlap_baselines():
    path = _require(2, lambda: require_wikiqa("test"))
    groups, _ = ingest_wikiqa(path)
    wo = evaluate(score_wo, groups)
    combo = evaluate(score_wo_rr, groups)
    detail = (f"wo map {wo.map:.2f} (51.02±2.0), mrr {wo.mrr:.2f} (51.24±2.0); "
              f"wo+rr map {combo.map:.2f} (68.25±2.0), mrr {combo.mrr:.2f} "
              f"(69.43±2.0)")
    _finish(2, detail,
            abs(wo.map - 51.02) <= 2.0,
            abs(wo.mrr - 51.24) <= 2.0,
            abs(combo.map - 68.25) <= 2.0,
            abs(combo.mrr - 69.43) <= 2.0)


def test_criterion_3_ingestion_counts():
    path = _require(3, lambda: require_wikiqa("test"))
    _, report = ingest_wikiqa(path)
    detail = (f"{report.total_questions} questions (want 633), "
              f"{report.total_candidates} sentences (want 6165), "
              f"{report.kept_groups} answered groups (want 243)")
    _finish(3, detail,
            report.total_questions == 633,
            report.total_candidates == 6165,
            report.kept_groups == 243)


# ---------------------------------------------------------------------------
# 4-5: full model reproduction


REPRO_SETTINGS = {
    "pointwise": ("pointwise", "none", 68.9, 73.0),
    "listwise": ("listwise", "none", 69.2, 73.2),
    "listwise_birnn": ("listwise", "birnn", 73.5, 77.5),
}
REPRO_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def reproduction_runs():
    try:
        train_path = require_wikiqa("train")
        test_path = require_wikiqa("test")
        emb_path = require_embeddings()
    except pytest.skip.Exception as exc:
        announce(4, "SKIP", str(exc))
        announce(5, "SKIP", str(exc))
        raise
    train_groups, _ = ingest_wikiqa(train_path)
    test_groups, _ = ingest_wikiqa(test_path)
    vocab = set()
    for groups in (train_groups, test_groups):
        for g in groups:
            vocab.update(g.question_tokens)
            for c in g.candidates:
                vocab.update(c.tokens)
    table = load_embeddings(emb_path, vocab_filter=vocab, dimension=300)

    results = {}
    for name, (loss, context, *_band) in REPRO_SETTINGS.items():
        maps, walls = [], []
        for seed in REPRO_SEEDS:
            config = CosinetConfig(context=context, seed=seed)
            params = CosinetParams(config)
            report = fit(train_groups, table, params, config,
                         TrainConfig(loss=loss, seed=seed))
            m = evaluate(make_scorer(params, config, table), test_groups)
            maps.append(m.map)
            walls.append(report.wall_seconds)
        results[name] = (maps, walls)
    return results


def test_criterion_4_model_reproduction(reproduction_runs):
    details = []
    conditions = []
    for name, (loss, context, lo, hi) in REPRO_SETTINGS.items():
        maps, walls = reproduction_runs[name]
        mean = float(np.mean(maps))
        details.append(f"{name} mean map {mean:.2f} over {len(maps)} seeds "
                       f"(want [{lo}, {hi}]), max train wall {max(walls):.1f}s")
        conditions.append(lo <= mean <= hi)
    _finish(4, "; ".join(details), *conditions)


def test_criterion_5_rank_structure_effect(reproduction_runs):
    flat = float(np.mean(reproduction_runs["listwise"][0]))
    structured = float(np.mean(reproduction_runs["listwise_birnn"][0]))
    gap = structured - flat
    detail = (f"listwise+birnn {structured:.2f} vs listwise {flat:.2f}: "
              f"gap {gap:+.2f} (want >= +2.5)")
    _finish(5, detail, gap >= 2.5)


# ---------------------------------------------------------------------------
# 6: parameter-count identities (always runs)


def test_criterion_6_parameter_counts():
    wanted = {
        "none": 904_201,
        "rnn": 1_174_501,
        "birnn": 1_129_201,
        "lstm": 1_985_101,
        "bilstm": 1_805_101,
    }
    got = {}
    for kind, want in wanted.items():
        got[kind] = CosinetParams(CosinetConfig(context=kind)).count()
    detail = ", ".join(f"{k} {v:,}" for k, v in got.items())
    _finish(6, detail, *(got[k] == wanted[k] for k in wanted))


# ---------------------------------------------------------------------------
# 7: property-suite roll-up (always runs)


def _toy_world():
    groups = [make_group(qid, q, rows) for qid, q, rows in TOY_ROWS]
    words = set()
    for g in groups:
        words.update(g.question_tokens)
        for c in g.candidates:
            words.update(c.tokens)
    return groups, make_table(sorted(words), dim=16, seed=7)


def _run_gradient_checks():
    from test_ndgrad import ALL_CASES, N_SEEDS, check_grads
    for case in ALL_CASES:
        for seed in range(N_SEEDS):
            arrays, build = case(np.random.default_rng(seed))
            check_grads(build, arrays, np.float64, 1e-6, 1e-5)


def _run_end_to_end_gradcheck():
    from test_model import TestEndToEndGradients
    TestEndToEndGradients().test_param_gradients_match_finite_differences()


def _run_metric_oracle():
    from test_metrics import TestAgainstBruteForce
    TestAgainstBruteForce().test_random_toy_groups()


def _run_permutation_properties():
    from test_model import TestForward
    t = TestForward()
    t.test_scores_permutation_equivariant_without_context()
    t.test_rank_context_breaks_permutation_equivariance()


def _run_padding_invariance():
    from test_model import TestForward
    TestForward().test_padding_invariance()


def _run_embedding_freeze():
    groups, table = _toy_world()
    before = table_digest(table)
    config = CosinetConfig(embedding_dim=16, conv_hidden=8, kernel_width=3)
    fit(groups, table, CosinetParams(config), config, TrainConfig(epochs=2))
    assert table_digest(table) == before


def _run_listwise_gradient_closed_form():
    from test_training import TestListwiseLoss
    TestListwiseLoss().test_gradient_equals_softmax_minus_gold()


def _run_training_bit_reproducibility():
    groups, table = _toy_world()

    def one_run():
        config = CosinetConfig(embedding_dim=16, conv_hidden=8, kernel_width=3,
                               context="birnn", seed=5)
        params = CosinetParams(config)
        report = fit(groups, table, params, config,
                     TrainConfig(epochs=3, seed=11))
        return report.loss_curve, params

    curve_a, params_a = one_run()
    curve_b, params_b = one_run()
    assert curve_a == curve_b
    for name in params_a.arrays:
        np.testing.assert_array_equal(params_a.arrays[name],
                                      params_b.arrays[name])


def test_criterion_7_property_suites():
    suites = [
        ("gradient-checks", _run_gradient_checks),
        ("end-to-end-gradcheck", _run_end_to_end_gradcheck),
        ("metric-brute-force-oracle", _run_metric_oracle),
        ("permutation-equivariance", _run_permutation_properties),
        ("padding-invariance", _run_padding_invariance),
        ("embedding-freeze-checksum", _run_embedding_freeze),
        ("listwise-gradient-closed-form", _run_listwise_gradient_closed_form),
        ("training-bit-reproducibility", _run_training_bit_reproducibility),
    ]
    failures = []
    for name, runner in suites:
        try:
            runner()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    detail = ("all green: " + ", ".join(name for name, _ in suites)
              if not failures else "; ".join(failures))
    _finish(7, detail, not failures)
