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


def tokenize(text: str) -> list[str]:
    """Lowercase and split into tokens.

    Contiguous letter-or-digit runs stay whole; every other character
    becomes its own single-character token. Deterministic, whitespace
    never yields tokens.
    """
    return re.findall(r"[^\W_]+|\S", text.lower())


@dataclass(frozen=True)
class Candidate:
    text: str
    tokens: tuple
    label: int
    original_rank: int  # 1-based position in the source document order


@dataclass(frozen=True)
class QuestionGroup:
    question_id: str
    question: str
    question_tokens: tuple
    candidates: tuple  # ordered by original_rank, exactly 1..n

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
    (ranks recompacted), questions that tokenize to nothing, and groups
    without a single positive label.
    """
    groups, report = [], IngestReport()
    for qid, question, rows in raw_groups:
        report.total_questions += 1
        report.total_candidates += len(rows)
        q_tokens = tuple(tokenize(question))
        if not q_tokens:
            report.dropped_empty_questions += 1
            continue
        cands = []
        for text, label in rows:
            tokens = tuple(tokenize(text))
            if not tokens:
                report.dropped_empty_candidates += 1
                continue
            cands.append(Candidate(text=text, tokens=tokens, label=label,
                                   original_rank=len(cands) + 1))
        if not any(c.label for c in cands):
            report.dropped_unanswered += 1
            continue
        groups.append(QuestionGroup(question_id=qid, question=question,
                                    question_tokens=q_tokens, candidates=tuple(cands)))
    report.kept_groups = len(groups)
    return groups, report


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
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{tsv_path}: empty file") from None
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
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
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
    behind. An existing ``path`` that is not a regular file (a FIFO, a
    device) is written directly instead, never replaced.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
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
