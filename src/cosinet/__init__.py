"""Efficient answer-sentence-selection: baselines, Cosinet model, training, metrics."""

from .corpus import Candidate, QuestionGroup, ingest_jsonl, ingest_wikiqa, tokenize
from .embeddings import EmbeddingTable, embed_sequence, load_embeddings
from .metrics import RankingMetrics, evaluate, group_metrics
from .model import CosinetConfig, CosinetParams, load_model, save_model, score_group
from .training import TrainConfig, TrainingReport, fit

__version__ = "0.1.0"

__all__ = [
    "Candidate", "QuestionGroup", "ingest_jsonl", "ingest_wikiqa", "tokenize",
    "EmbeddingTable", "embed_sequence", "load_embeddings",
    "RankingMetrics", "evaluate", "group_metrics",
    "CosinetConfig", "CosinetParams", "load_model", "save_model", "score_group",
    "TrainConfig", "TrainingReport", "fit",
]
