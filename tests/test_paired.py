import itertools
import math

import numpy as np
import pytest

from paired import TIE, bootstrap_ci, sign_flip_p


def enumerated_p(d):
    """The sign-flip p-value by a plain loop over all 2**n sign vectors."""
    observed, scale = abs(sum(d)), sum(abs(x) for x in d)
    hits = sum(abs(sum(s * x for s, x in zip(signs, d))) >= observed - TIE * scale
               for signs in itertools.product((1, -1), repeat=len(d)))
    return hits / 2 ** len(d)


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_flip_p_is_the_exact_enumeration_up_to_12_questions(n):
    rng = np.random.default_rng(n)
    a, b = rng.uniform(0, 1, (2, n))  # per-question AP of two systems
    assert sign_flip_p(a, b) == enumerated_p((a - b).tolist())
    # dyadic differences, several of equal size: flips reach the observed sum exactly
    d = rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], n)
    assert sign_flip_p(d, np.zeros(n)) == enumerated_p(d.tolist())


def test_sign_flip_p_closed_forms():
    # n equal positive differences: only no flip and every flip reach the sum
    assert sign_flip_p(np.ones(10), np.zeros(10)) == 2 / 2 ** 10
    # no difference at all: every flip reaches it
    assert sign_flip_p([0.3, 0.7], [0.3, 0.7]) == 1.0
    assert sign_flip_p([0.9, 0.2], [0.1, 0.8]) == sign_flip_p([0.1, 0.8], [0.9, 0.2])


def test_sign_flip_p_samples_past_enumeration_deterministically():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(0, 1, (2, 16)) + [[0.15], [0.0]]
    exact = sign_flip_p(a, b, samples=2 ** 16)
    drawn = sign_flip_p(a, b, samples=4_000, seed=1)
    assert drawn == sign_flip_p(a, b, samples=4_000, seed=1)
    assert abs(drawn - exact) < 4 * math.sqrt(exact * (1 - exact) / 4_000)


def test_bootstrap_ci_is_deterministic_and_brackets_the_mean():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(0, 1, (2, 50))
    lo, hi = bootstrap_ci(a, b, seed=2)
    assert (lo, hi) == bootstrap_ci(a, b, seed=2)
    assert lo < (a - b).mean() < hi
    narrow = bootstrap_ci(a, b, level=0.5, seed=2)
    assert lo < narrow[0] < narrow[1] < hi
    shifted = bootstrap_ci(a + 0.25, b, seed=2)  # the same resamples of d + 0.25
    np.testing.assert_allclose(shifted, (lo + 0.25, hi + 0.25), rtol=0, atol=1e-12)
    assert bootstrap_ci(np.full(7, 0.5), np.zeros(7)) == (0.5, 0.5)


@pytest.mark.parametrize("a, b", [([], []), ([0.1, 0.2], [0.1]), ([[0.1]], [[0.2]])])
def test_unpaired_inputs_rejected(a, b):
    with pytest.raises(ValueError):
        sign_flip_p(a, b)
