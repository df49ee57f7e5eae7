"""Dataset ingestion into ranked candidate groups.

Raw files (WikiQA TSV or the generic JSONL interchange format) become lists
of ``QuestionGroup``: one question plus its candidates in original document
order with binary labels. Preprocessing is deterministic: lowercase,
rule-based tokenization, empty candidates dropped, unanswered questions
removed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
import secrets
from dataclasses import dataclass, field

WIKIQA_COLUMNS = ("QuestionID", "Question", "DocumentID", "DocumentTitle",
                  "SentenceID", "Sentence", "Label")


_SUBTOKEN = re.compile(r"[^\W_]+|\S")  # [^\W_] is str.isalnum, \S is not str.isspace


def tokenize(text: str) -> list[str]:
    """Lowercase and split into tokens.

    Contiguous letter-or-digit runs stay whole; every other character
    becomes its own single-character token. Deterministic, whitespace
    never yields tokens.
    """
    return list(_Tokenizer()(text))


class _Tokenizer(dict):
    """``tokenize`` with a memo: each lowercased whitespace word -> its token tuple.

    Calling it on a text gives the text's tokens as a tuple. A word is
    tokenized the first time it is seen, and every occurrence of a token is
    then the same ``str`` object. A word that is all letters and digits is one
    token as it stands; only the other words go through the regex.
    """

    def __init__(self):
        super().__init__()
        self._shared = {}  # token -> its one str object

    def __missing__(self, word: str) -> tuple:
        tokens = [word] if word.isalnum() else _SUBTOKEN.findall(word)
        self[word] = tokens = tuple([self._shared.setdefault(t, t) for t in tokens])
        return tokens

    def __call__(self, text: str) -> tuple:
        tokens = []
        for word in text.lower().split():
            tokens += self[word]
        return tuple(tokens)


@dataclass(frozen=True)
class Candidate:
    text: str
    tokens: tuple
    label: int


@dataclass(frozen=True)
class QuestionGroup:
    question_id: str
    question: str
    question_tokens: tuple
    candidates: tuple  # in document order: a candidate's position is its rank

    @property
    def labels(self):
        return [c.label for c in self.candidates]


@dataclass
class IngestReport:
    """Counts reported by ingestion (pre-filter totals and drops)."""
    total_questions: int = 0
    total_candidates: int = 0
    kept_groups: int = 0
    dropped_unanswered: int = 0
    dropped_empty_candidates: int = 0
    dropped_empty_questions: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _build_groups(raw_groups):
    """Shared tail of every ingestion path; returns (groups, IngestReport).

    ``raw_groups`` is an ordered list of (question_id, question_text,
    [(sentence, label), ...]). Drops empty-after-tokenization candidates
    (the rest keep their order, so a candidate's position is its rank),
    questions that tokenize to nothing, and groups without a single
    positive label.

    Every occurrence of a token is the same ``str`` object: one tokenizer
    memo serves the whole call.
    """
    tokens_of = _Tokenizer()

    groups, report = [], IngestReport()
    for qid, question, rows in raw_groups:
        report.total_questions += 1
        report.total_candidates += len(rows)
        q_tokens = tokens_of(question)
        if not q_tokens:
            report.dropped_empty_questions += 1
            continue
        cands = []
        for text, label in rows:
            tokens = tokens_of(text)
            if not tokens:
                report.dropped_empty_candidates += 1
                continue
            cands.append(Candidate(text=text, tokens=tokens, label=label))
        if not any(c.label for c in cands):
            report.dropped_unanswered += 1
            continue
        groups.append(QuestionGroup(question_id=qid, question=question,
                                    question_tokens=q_tokens, candidates=tuple(cands)))
    report.kept_groups = len(groups)
    return groups, report


def read_lines(path, lines):
    """Yield ``lines``, a text file's or a csv reader's; an undecodable byte or a csv
    error becomes a ValueError that starts with ``path``."""
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            yield line
    except UnicodeDecodeError as exc:  # decoded a block at a time, so no line number
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise ValueError(f"{path}:{lineno + 1}: {exc}") from exc


def _parse_label(value, where: str) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise ValueError(f"{where}: label must be 0 or 1, got {value!r}")


def ingest_wikiqa(tsv_path):
    """Read an official WikiQA TSV split into question groups.

    One group per QuestionID, candidates in file order. Returns
    (groups, IngestReport).
    """
    order = []
    by_qid = {}
    with open(tsv_path, "r", encoding="utf-8", newline="") as fh:
        reader = read_lines(tsv_path, csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE))
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{tsv_path}: empty file")
        col = {name: i for i, name in enumerate(header)}
        for name in WIKIQA_COLUMNS:
            if name not in col:
                raise ValueError(f"{tsv_path}: missing column {name}")
        qi, qq, qs, ql = col["QuestionID"], col["Question"], col["Sentence"], col["Label"]
        for rowno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(header):
                raise ValueError(f"{tsv_path}:{rowno}: expected {len(header)} columns, got {len(row)}")
            label = _parse_label(row[ql], f"{tsv_path}:{rowno}")
            qid = row[qi]
            if qid not in by_qid:
                by_qid[qid] = (row[qq], [])
                order.append(qid)
            by_qid[qid][1].append((row[qs], label))
    return _build_groups([(qid, by_qid[qid][0], by_qid[qid][1]) for qid in order])


def ingest_jsonl(path):
    """Read the interchange format: one JSON object per line.

    Each record is {question_id, question, candidates: [{text, label}]}
    with candidates in document order. Returns (groups, IngestReport).
    """
    raw = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(read_lines(path, fh), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError: an int of > 4300 digits
                raise ValueError(f"{path}:{lineno}: malformed JSON "
                                 f"({getattr(exc, 'msg', exc)})") from exc
            try:
                qid = str(rec["question_id"])
                question, cand_list = rec["question"], rec["candidates"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            if not isinstance(question, str) or not isinstance(cand_list, list):
                raise ValueError(f"{path}:{lineno}: question must be a string, candidates a list")
            rows = []
            for c in cand_list:
                try:
                    rows.append((c["text"], _parse_label(c["label"], f"{path}:{lineno}")))
                except (KeyError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad candidate record ({exc})") from exc
                if not isinstance(rows[-1][0], str):
                    raise ValueError(f"{path}:{lineno}: candidate text must be a string")
            raw.append((qid, question, rows))
    return _build_groups(raw)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a fresh temporary file beside ``path`` for writing.

    When the block completes, the file is flushed and fsynced, replaces
    ``path`` in one ``os.replace``, and the directory is fsynced, so the new
    file survives a power loss whole; when the block raises, the file is
    removed. Either way no partial ``path`` and no temporary file is left
    behind. A symlinked ``path`` stays a link: the file it resolves to is
    replaced. An existing ``path`` that is not a regular file (a FIFO, a
    device) is written directly instead, never replaced. An ``OSError`` of
    these steps or of the block's writes names ``path`` as given."""
    given = path = os.fspath(path)
    if os.path.islink(path):
        path = os.path.realpath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, mode, **kwargs) as fh:
                yield fh
            return
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        if exc.strerror and exc.filename in (None, path, tmp):  # a system error on this file
            exc.filename = given
        raise
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def export_jsonl(groups, path) -> None:
    """Write groups to the interchange format; export then ingest round-trips."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g in groups:
            rec = {
                "question_id": g.question_id,
                "question": g.question,
                "candidates": [{"text": c.text, "label": c.label} for c in g.candidates],
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
