"""Ranking metrics (MAP, MRR, P@1) and dataset-level evaluation.

Rankings are stable descending sorts by score with ties broken by original
rank (ascending), which makes metrics over rank-preserving scorers exact
and reproducible. Metrics are reported x100.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


def _ranking(scores, original_ranks=None):
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if original_ranks is None:
        original_ranks = np.arange(1, n + 1)
    else:
        original_ranks = np.asarray(original_ranks)
    # lexsort: last key is primary
    return np.lexsort((original_ranks, -scores))


def average_precision(scores, labels, original_ranks=None) -> float:
    """AP in [0, 1]: mean over positive positions k of (#pos in top-k)/k."""
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average_precision: group has no positive label")
    order = _ranking(scores, original_ranks)
    ranked = labels[order]
    hits = 0
    total = 0.0
    for k, lab in enumerate(ranked, start=1):
        if lab:
            hits += 1
            total += hits / k
    return total / n_pos


def reciprocal_rank(scores, labels, original_ranks=None) -> float:
    labels = np.asarray(labels)
    if labels.sum() == 0:
        raise ValueError("reciprocal_rank: group has no positive label")
    order = _ranking(scores, original_ranks)
    for k, i in enumerate(order, start=1):
        if labels[i]:
            return 1.0 / k
    raise AssertionError("unreachable")


def precision_at_1(scores, labels, original_ranks=None) -> float:
    order = _ranking(scores, original_ranks)
    return float(np.asarray(labels)[order[0]])


@dataclass
class RankingMetrics:
    map: float
    mrr: float
    p_at_1: float
    n_questions: int
    wall_seconds: float

    def to_dict(self) -> dict:
        return {
            "map": round(self.map, 2),
            "mrr": round(self.mrr, 2),
            "p_at_1": round(self.p_at_1, 2),
            "n_questions": self.n_questions,
            "wall_seconds": round(self.wall_seconds, 4),
        }


def evaluate(scorer, groups) -> RankingMetrics:
    """Score every group and average AP / RR / P@1 (unweighted, x100).

    ``scorer(group) -> per-candidate scores`` must be deterministic and
    return one finite score per candidate; groups must already be filtered
    to have at least one positive each.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("evaluate: empty dataset")
    t0 = time.perf_counter()
    aps, rrs, p1s = [], [], []
    for g in groups:
        scores = np.asarray(scorer(g), dtype=np.float64)
        if scores.shape != (len(g.candidates),):
            raise ValueError(f"evaluate: scorer returned shape {scores.shape} for question "
                             f"{g.question_id} with {len(g.candidates)} candidates")
        if not np.isfinite(scores).all():
            raise ValueError(f"evaluate: non-finite score for question {g.question_id}")
        ranks = [c.original_rank for c in g.candidates]
        labels = g.labels
        aps.append(average_precision(scores, labels, ranks))
        rrs.append(reciprocal_rank(scores, labels, ranks))
        p1s.append(precision_at_1(scores, labels, ranks))
    wall = time.perf_counter() - t0
    return RankingMetrics(
        map=100.0 * float(np.mean(aps)),
        mrr=100.0 * float(np.mean(rrs)),
        p_at_1=100.0 * float(np.mean(p1s)),
        n_questions=len(groups),
        wall_seconds=wall,
    )
