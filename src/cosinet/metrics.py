"""Ranking metrics (MAP, MRR, P@1) and dataset-level evaluation.

A group's candidates come in document order, so a candidate's position is
its original rank. A group is ranked by descending score with ties in
document order: one stable sort per group, which makes metrics over
rank-preserving scorers exact and reproducible. Metrics are reported x100.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


def group_metrics(scores, labels) -> tuple:
    """(AP, RR, P@1) of one group, each in [0, 1].

    AP is the mean over positive ranks k of (#positives in top k) / k; RR is
    1/k for the first positive rank k; P@1 is 1 when the top candidate is
    positive. Raises ``ValueError`` when the score and label counts differ
    or the group has no positive label.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"group_metrics: scores of shape {scores.shape} "
                         f"for labels of shape {labels.shape}")
    order = np.argsort(-scores, kind="stable")
    hit_ranks = (np.flatnonzero(labels[order]) + 1).tolist()
    if not hit_ranks:
        raise ValueError("group_metrics: group has no positive label")
    ap = sum(hits / k for hits, k in enumerate(hit_ranks, start=1)) / len(hit_ranks)
    return ap, 1.0 / hit_ranks[0], float(hit_ranks[0] == 1)


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
    per_group = []
    for g in groups:
        scores = np.asarray(scorer(g), dtype=np.float64)
        if scores.shape != (len(g.candidates),):
            raise ValueError(f"evaluate: scorer returned shape {scores.shape} for question "
                             f"{g.question_id} with {len(g.candidates)} candidates")
        if not np.isfinite(scores).all():
            raise ValueError(f"evaluate: non-finite score for question {g.question_id}")
        per_group.append(group_metrics(scores, g.labels))
    wall = time.perf_counter() - t0
    aps, rrs, p1s = zip(*per_group)
    return RankingMetrics(
        map=100.0 * float(np.mean(aps)),
        mrr=100.0 * float(np.mean(rrs)),
        p_at_1=100.0 * float(np.mean(p1s)),
        n_questions=len(groups),
        wall_seconds=wall,
    )
