import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

# one "ACCEPTANCE n: PASS/FAIL/SKIP" line per criterion, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

from cosinet.corpus import Candidate, QuestionGroup, tokenize
from cosinet.embeddings import EmbeddingTable

# Real-data locations.  The acceptance tests need the WikiQA TSV corpus and a
# ConceptNet Numberbatch english text file. By default they are looked up
# where the README puts them, under the repository root; point these at
# other local copies:
#   COSINET_WIKIQA_DIR   directory containing WikiQA-{train,dev,test}.tsv
#   COSINET_EMBEDDINGS   path to numberbatch-en text file (optionally .gz-free)
REPO_ROOT = Path(__file__).resolve().parent.parent
WIKIQA_DIR = os.environ.get("COSINET_WIKIQA_DIR", str(REPO_ROOT / "data" / "wikiqa"))
EMBEDDINGS_PATH = os.environ.get(
    "COSINET_EMBEDDINGS", str(REPO_ROOT / "data" / "numberbatch-en.txt")
)


def wikiqa_split_path(split):
    return Path(WIKIQA_DIR) / f"WikiQA-{split}.tsv"


def require_wikiqa(split="test"):
    path = wikiqa_split_path(split)
    if not path.is_file():
        pytest.skip(
            f"WikiQA {split} split not found at {path}; "
            "set COSINET_WIKIQA_DIR to a directory with WikiQA-*.tsv"
        )
    return path


def require_embeddings():
    path = Path(EMBEDDINGS_PATH)
    if not path.is_file():
        pytest.skip(
            f"word embeddings not found at {path}; "
            "set COSINET_EMBEDDINGS to a numberbatch-en text file"
        )
    return path


def make_table(words, dim=16, seed=0):
    """Deterministic random embedding table over the given vocabulary."""
    rng = np.random.default_rng(seed)
    words = list(words)
    matrix = rng.standard_normal((len(words), dim)).astype(np.float32)
    return EmbeddingTable({w: i for i, w in enumerate(words)}, matrix)


def table_digest(table):
    """SHA-256 of an embedding table's matrix, to show it stayed frozen."""
    return hashlib.sha256(table.matrix.tobytes()).digest()


def make_group(question_id, question, rows):
    """rows: list of (candidate_text, label)."""
    candidates = tuple(
        Candidate(text=text, tokens=tuple(tokenize(text)), label=label,
                  original_rank=i + 1)
        for i, (text, label) in enumerate(rows)
    )
    return QuestionGroup(
        question_id=question_id,
        question=question,
        question_tokens=tuple(tokenize(question)),
        candidates=candidates,
    )


TOY_ROWS = [
    (
        "q1",
        "how do plants make food ?",
        [
            ("plants make food by photosynthesis in their leaves .", 1),
            ("some plants are green .", 0),
            ("food is sold in shops .", 0),
        ],
    ),
    (
        "q2",
        "when did the war end ?",
        [
            ("the weather was cold .", 0),
            ("the war ended in 1945 .", 1),
        ],
    ),
    (
        "q3",
        "who wrote the book ?",
        [
            ("the book was written by the author twain .", 1),
            ("books are made of paper .", 0),
            ("twain wrote the book .", 1),
            ("nobody knows .", 0),
        ],
    ),
]


@pytest.fixture
def toy_groups():
    return [make_group(qid, q, rows) for qid, q, rows in TOY_ROWS]


@pytest.fixture
def toy_table(toy_groups):
    words = set()
    for g in toy_groups:
        words.update(g.question_tokens)
        for c in g.candidates:
            words.update(c.tokens)
    # leave a couple of words out so OOV paths get exercised
    words.discard("photosynthesis")
    words.discard("1945")
    return make_table(sorted(words), dim=16, seed=7)


MINI_WIKIQA_HEADER = (
    "QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"
)

MINI_WIKIQA_BODY = (
    "Q1\thow are glacier caves formed?\tD1\tGlacier cave\tD1-0\t"
    "A glacier cave is a cave formed within the ice of a glacier.\t1\n"
    "Q1\thow are glacier caves formed?\tD1\tGlacier cave\tD1-1\t"
    "Glacier caves are often called ice caves.\t0\n"
    "Q2\thow much is 1 tablespoon of water?\tD2\tTablespoon\tD2-0\t"
    "It is abbreviated as T, tb, tbs or tbsp.\t0\n"
    "Q2\thow much is 1 tablespoon of water?\tD2\tTablespoon\tD2-1\t"
    "In the US a tablespoon is 15 ml.\t0\n"
    "Q3\twho won the race?\tD3\tRace\tD3-0\t"
    "The race was won by Hill in 1994.\t1\n"
    "Q3\twho won the race?\tD3\tRace\tD3-1\t"
    "Races are held every year.\t0\n"
)


@pytest.fixture
def mini_wikiqa_tsv(tmp_path):
    path = tmp_path / "WikiQA-mini.tsv"
    path.write_text(MINI_WIKIQA_HEADER + MINI_WIKIQA_BODY, encoding="utf-8")
    return path
