"""Seeded synthetic answer-selection data with WikiQA-like shapes.

The program under test only ever sees the two files written here: a JSONL
corpus in cosinet's interchange format and a whitespace-separated text
vector file in the Numberbatch layout (``/c/en/`` prefixed tokens). The
real WikiQA corpus and pretrained vectors are not available offline.

Shapes follow WikiQA: groups of 2-30 candidates (about 10 on average),
candidates of about 25 tokens (up to 60), questions of about 7 tokens.
``size_mix`` gives a fixed, representative mix of group sizes, so a caller
can cut the data into blocks that all cost about the same to process; for
the same reason every group of n candidates gets the same multiset of
candidate lengths (the length law's quantiles), in a shuffled order.

Planted signal, sized so the ranking task is learnable but not trivial:
  - every group has a topic; words of one topic have correlated vectors, so
    topic-mates score a high cosine without being the same word;
  - a positive candidate repeats a fraction of the question's content words
    (drawn around ``pos_share``) as one contiguous phrase, a distractor
    repeats some too (around ``neg_share``) but scattered, and all
    candidates draw filler from the group topic, so word overlap ranks well
    but not perfectly and a convolution window can see the phrase;
  - positives skew to early document ranks, as WikiQA answers do, which is
    what the ``rr`` baseline exploits;
  - ``oov_share`` of the vocabulary is absent from the vector file, and the
    file also holds words that never occur in the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

CONCEPT_PREFIX = "/c/en/"
WH_WORDS = ("what", "who", "when", "where", "how", "which", "why")


@dataclass(frozen=True)
class Shape:
    dim: int = 300
    vocab: int = 6000          # corpus vocabulary (filler + content words)
    extra_vectors: int = 1500  # vector-file words that never occur in the corpus
    topics: int = 60
    function_words: int = 150  # shared, frequent words outside any topic
    function_share: float = 0.5  # share of filler tokens that are function words
    topic_weight: float = 0.15 # share of a word vector drawn from its topic centre
    oov_share: float = 0.03    # share of the corpus vocabulary missing from the vectors
    pos_share: float = 0.7     # mean share of question content words a positive repeats
    neg_share: float = 0.2     # same for a distractor
    cand_len: float = 25.0
    max_cand_len: int = 60
    q_len: float = 7.0
    max_group: int = 30
    mean_group: float = 10.0


def _words(n: int, rng: np.random.Generator, taken: set) -> list:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    out = []
    while len(out) < n:
        w = "".join(rng.choice(letters, size=int(rng.integers(4, 10))))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** 0.8
    return p / p.sum()


class Generator:
    """Vocabulary, topic structure and vectors for one seed."""

    def __init__(self, seed: int, shape: Shape = Shape()):
        self.shape = shape
        self.rng = np.random.default_rng(seed)
        taken = set(WH_WORDS)
        self.words = _words(shape.vocab, self.rng, taken)
        self.extra = _words(shape.extra_vectors, self.rng, taken)
        nf = shape.function_words
        self.topic_of = np.concatenate([
            np.full(nf, -1), self.rng.integers(0, shape.topics, size=shape.vocab - nf)])
        self.function_p = _zipf(nf)
        self.by_topic = [np.flatnonzero(self.topic_of == t) for t in range(shape.topics)]
        self.topic_p = [_zipf(len(idx)) for idx in self.by_topic]
        n_oov = int(round(shape.oov_share * shape.vocab))
        self.oov = set(self.rng.choice(shape.vocab, size=n_oov, replace=False).tolist())
        self._length_mix = {}

    # -- corpus -------------------------------------------------------------

    def _filler(self, topic: int, n: int) -> list:
        n_fn = int(self.rng.binomial(n, self.shape.function_share))
        idx = np.concatenate([
            self.rng.choice(self.shape.function_words, size=n_fn, p=self.function_p),
            self.rng.choice(self.by_topic[topic], size=n - n_fn, p=self.topic_p[topic])])
        self.rng.shuffle(idx)
        return [self.words[i] for i in idx]

    def _group(self, qid: str, n: int) -> dict:
        s, rng = self.shape, self.rng
        topic = int(rng.integers(0, s.topics))
        n_content = max(2, min(12, int(rng.poisson(s.q_len - 2))))
        # question words are the specific ones: uniform over the topic, so
        # filler repeats them only by chance
        content = [self.words[i] for i in
                   self.rng.choice(self.by_topic[topic], size=n_content, replace=False)]
        question = [str(rng.choice(WH_WORDS))] + content + ["?"]

        n_pos = 1 + int(rng.random() < 0.15) + int(rng.random() < 0.05)
        n_pos = min(n_pos, n - 1)
        rank_p = 1.0 / np.arange(1, n + 1) ** 0.7
        pos = set(rng.choice(n, size=n_pos, replace=False, p=rank_p / rank_p.sum()).tolist())

        cands = []
        for r, length in enumerate(rng.permutation(self._lengths(n))):
            label = int(r in pos)
            length = int(length)
            share = rng.beta(4.0, 4.0 * (1 - s.pos_share) / s.pos_share) if label else \
                rng.beta(2.0, 2.0 * (1 - s.neg_share) / s.neg_share)
            k = min(length - 1, int(rng.binomial(n_content, share)))
            shared = [content[i] for i in rng.choice(n_content, size=k, replace=False)]
            body = self._filler(topic, length - 1 - k)
            if label:
                at = int(rng.integers(0, len(body) + 1))
                body[at:at] = shared
            else:
                body += shared
                rng.shuffle(body)
            cands.append({"text": " ".join(body) + " .", "label": label})
        return {"question_id": qid, "question": " ".join(question), "candidates": cands}

    def _lengths(self, n: int) -> np.ndarray:
        if n not in self._length_mix:
            s = self.shape
            draws = np.random.default_rng(0).gamma(4.0, s.cand_len / 4.0, size=100_000)
            draws = np.clip(np.round(draws), 3, s.max_cand_len)
            self._length_mix[n] = np.quantile(draws, (np.arange(n) + 0.5) / n, method="nearest")
        return self._length_mix[n]

    def groups(self, sizes, prefix: str) -> list:
        """One group per entry of ``sizes`` (candidate counts), in a shuffled order."""
        sizes = self.rng.permutation(np.asarray(sizes))
        return [self._group(f"{prefix}{i}", int(n)) for i, n in enumerate(sizes)]

    # -- vectors ------------------------------------------------------------

    def write_vectors(self, path) -> None:
        """Write the text vector file, one ``/c/en/word v1 .. vdim`` line each."""
        s, rng = self.shape, self.rng
        # function words (topic -1) index the trailing zero centre
        centres = np.vstack([rng.standard_normal((s.topics, s.dim)), np.zeros((1, s.dim))])
        known = [i for i in range(s.vocab) if i not in self.oov]
        rows = [(self.words[i], int(self.topic_of[i])) for i in known]
        rows += [(w, int(rng.integers(0, s.topics))) for w in self.extra]
        order = rng.permutation(len(rows))
        a = np.sqrt(s.topic_weight)
        b = np.sqrt(1.0 - s.topic_weight)
        row = " ".join(["%.4f"] * s.dim)  # one format call per line, not one per value
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(rows)} {s.dim}\n")
            for lo in range(0, len(order), 512):
                chunk = [rows[i] for i in order[lo:lo + 512]]
                topics = np.array([t for _, t in chunk])
                vecs = a * centres[topics] + b * rng.standard_normal((len(chunk), s.dim))
                vecs /= np.sqrt(s.dim)
                lines = [CONCEPT_PREFIX + w + " " + row % tuple(v)
                         for (w, _), v in zip(chunk, vecs.tolist())]
                fh.write("\n".join(lines) + "\n")


def size_mix(shape: Shape, n: int) -> list:
    """``n`` group sizes at evenly spaced quantiles of the group-size law.

    The same for every seed, so blocks built from it cost the same to score
    or train on whatever the seed.
    """
    draws = np.random.default_rng(0).gamma(2.0, (shape.mean_group - 1.5) / 2.0, size=100_000)
    draws = np.clip(np.round(draws) + 2, 2, shape.max_group)
    return [int(x) for x in np.quantile(draws, (np.arange(n) + 0.5) / n, method="nearest")]


def write_jsonl(groups, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g in groups:
            fh.write(json.dumps(g) + "\n")
