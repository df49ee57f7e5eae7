"""Paired significance over per-question scores, for quality comparisons.

Smucker, Allan & Carterette ("A Comparison of Statistical Significance Tests
for Information Retrieval Evaluation", CIKM 2007) recommend the randomization
test for paired IR metrics such as per-question AP. Both helpers take the two
systems' values in the same question order (average each question over
training seeds first, if there are several) and are deterministic per seed.
"""

import itertools

import numpy as np

TIE = 1e-9  # a flipped sum this close to the observed one, relative to sum |d|, reaches it


def _differences(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape or not a.size:
        raise ValueError(f"paired: needs two non-empty 1-d score lists of one length, "
                         f"got {a.shape} and {b.shape}")
    return a - b


def sign_flip_p(a, b, samples=10_000, seed=0) -> float:
    """Two-sided randomization p-value of mean(a - b) under sign flips of the differences.

    The share of sign vectors s with |sum(s * d)| >= |sum(d)|, for d = a - b.
    When 2**n <= ``samples`` all 2**n sign vectors are enumerated and the value
    is exact; otherwise ``samples`` vectors are drawn from ``default_rng(seed)``.
    """
    d = _differences(a, b)
    if 2 ** d.size <= samples:
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=d.size)))
    else:
        signs = np.random.default_rng(seed).choice((1.0, -1.0), size=(samples, d.size))
    reach = np.abs(signs @ d) >= abs(d.sum()) - TIE * np.abs(d).sum()
    return float(reach.mean())


def bootstrap_ci(a, b, level=0.95, samples=10_000, seed=0) -> tuple[float, float]:
    """Percentile bootstrap interval of mean(a - b), resampling questions with replacement."""
    d = _differences(a, b)
    means = d[np.random.default_rng(seed).integers(0, d.size, (samples, d.size))].mean(axis=1)
    lo, hi = np.quantile(means, [(1 - level) / 2, (1 + level) / 2])
    return float(lo), float(hi)
