"""Rule baselines: word overlap (wo), reciprocal rank (rr), and wo+rr.

All three are pure per-group scorers returning one real per candidate,
suitable for ``metrics.evaluate``.
"""

from __future__ import annotations

import numpy as np

from .corpus import QuestionGroup


def score_rr(group: QuestionGroup) -> np.ndarray:
    """Candidate at position k (1-based) scores 1/k (preserves document order)."""
    return 1.0 / np.arange(1, len(group.candidates) + 1)


def score_wo(group: QuestionGroup) -> np.ndarray:
    """Count of unique tokens shared by question and candidate.

    Tokens are compared as exact strings post-tokenization; repetition
    does not change the score.
    """
    q = set(group.question_tokens)
    return np.array([float(len(q.intersection(c.tokens))) for c in group.candidates])


def score_wo_rr(group: QuestionGroup) -> np.ndarray:
    """Word overlap with reciprocal rank as tie-break.

    Encoded as a single scalar wo + (1/rank)/(n+1): the tie-break term is
    strictly below the minimal overlap gap of 1, so it can never flip a
    strict overlap ordering.
    """
    return score_wo(group) + score_rr(group) / (len(group.candidates) + 1)


SCORERS = {"wo": score_wo, "rr": score_rr, "wo_rr": score_wo_rr}
