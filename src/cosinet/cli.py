"""Command-line entry point: ingest, baseline, train, eval, predict.

Every command is deterministic given its flags, the --seed value, and the
input files. Results are printed as a single JSON object on stdout; any
failure exits nonzero with a one-line diagnostic on stderr.

Flag precedence for train: built-in defaults, overridden by an optional
--config JSON file, overridden by explicit command-line flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import baselines, corpus, embeddings, metrics, model, training

TRAIN_DEFAULTS = {**asdict(model.CosinetConfig()), **asdict(training.TrainConfig())}


def _ingest(path):
    """(groups, report) of a data file: WikiQA TSV if the path ends in .tsv, else JSONL."""
    return (corpus.ingest_wikiqa if str(path).endswith(".tsv") else corpus.ingest_jsonl)(path)


def _load_groups(path):
    """(groups, report) of a data file that keeps at least one answered question group."""
    groups, report = _ingest(path)
    if not groups:
        raise ValueError(f"{path}: no answered question groups")
    return groups, report


def _emit(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def cmd_ingest(args) -> None:
    groups, report = _ingest(args.input)
    corpus.export_jsonl(groups, args.output)
    out = report.to_dict()
    out["dropped_groups"] = (report.dropped_unanswered + report.dropped_empty_questions)
    out["output"] = args.output
    _emit(out)


def cmd_baseline(args) -> None:
    groups, _ = _load_groups(args.data)
    result = metrics.evaluate(baselines.SCORERS[args.method], groups)
    _emit(result.to_dict())


def _train_configs(args):
    """(CosinetConfig, TrainConfig) of the defaults, then the --config file, then the flags.

    The file's settings must hold on their own, and every error they cause
    starts with the file's path.
    """
    settings = dict(TRAIN_DEFAULTS)

    def configs():
        return [cls(**{f.name: settings[f.name] for f in fields(cls)})
                for cls in (model.CosinetConfig, training.TrainConfig)]

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("settings must be a JSON object")
            unknown = set(file_cfg) - set(TRAIN_DEFAULTS)
            if unknown:
                raise ValueError(f"unknown settings {sorted(unknown)}")
            settings.update(file_cfg)
            configs()
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"{args.config}: {exc}") from exc
    settings.update({key: value for key in ("loss", "context", "epochs", "seed")
                     if (value := getattr(args, key)) is not None})
    return configs()


def cmd_train(args) -> None:
    cfg, tc = _train_configs(args)

    train_groups, _ = _load_groups(args.train)
    dev_groups = _load_groups(args.dev)[0] if args.dev else None

    vocab = set()
    for groups in (train_groups, dev_groups or []):
        for g in groups:
            vocab.update(g.question_tokens)
            for c in g.candidates:
                vocab.update(c.tokens)
    table = embeddings.load_embeddings(args.embeddings, vocab_filter=vocab,
                                       dimension=cfg.embedding_dim)

    params = model.CosinetParams(cfg)
    # an --out that cannot be written fails here, before any training
    with corpus.atomic_open(args.out, "wb") as fh:
        report = training.fit(train_groups, table, params, cfg, tc, dev_groups=dev_groups)
        model.write_model(fh, cfg, params, table)

    out = report.to_dict()
    out.update({"loss": tc.loss, "context": cfg.context, "seed": tc.seed, "model": args.out})
    _emit(out)


def cmd_eval(args) -> None:
    cfg, params, table = model.load_model(args.model)
    groups, _ = _load_groups(args.data)
    result = metrics.evaluate(model.make_scorer(params, cfg, table), groups)
    _emit(result.to_dict())


def cmd_predict(args) -> None:
    cfg, params, table = model.load_model(args.model)
    groups, report = _load_groups(args.data)
    n = 0
    with corpus.atomic_open(args.scores_out, "w", encoding="utf-8", newline="\n") as fh:
        for g in groups:
            scores = model.score_group(g, table, params, cfg)
            if not np.isfinite(scores).all():
                raise ValueError(f"predict: non-finite score for question {g.question_id}")
            for s in scores:
                fh.write(f"{float(s):.9g}\n")  # 9 digits round-trip every float32
                n += 1
    _emit({"n_scores": n, "n_unscored": report.total_candidates - n,
           "n_questions": len(groups), "output": args.scores_out})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosinet",
        description="Efficient answer-sentence-selection: rule baselines and the "
                    "Cosinet ranking model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a raw dataset to the JSONL interchange format")
    p.add_argument("--input", required=True,
                   help="input path, WikiQA .tsv or .jsonl interchange (default: none, required)")
    p.add_argument("--output", required=True, help="output JSONL path (default: none, required)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("baseline", help="score a dataset with a rule baseline")
    p.add_argument("--method", required=True, choices=sorted(baselines.SCORERS),
                   help="baseline scorer (default: none, required)")
    p.add_argument("--data", required=True,
                   help="dataset path, .jsonl interchange or WikiQA .tsv (default: none, required)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("train", help="train a model and write a model file")
    p.add_argument("--train", required=True, help="training data path (default: none, required)")
    p.add_argument("--dev", default=None,
                   help="optional dev data for per-epoch MAP reporting (default: none)")
    p.add_argument("--embeddings", required=True,
                   help="pretrained word-vector text file (default: none, required)")
    p.add_argument("--loss", choices=list(training.LOSS_KINDS), default=None,
                   help=f"training objective (default: {TRAIN_DEFAULTS['loss']})")
    p.add_argument("--context", choices=list(model.CONTEXT_KINDS), default=None,
                   help=f"rank contextualizer (default: {TRAIN_DEFAULTS['context']})")
    p.add_argument("--epochs", type=int, default=None,
                   help=f"training epochs (default: {TRAIN_DEFAULTS['epochs']})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed for init and shuffling (default: {TRAIN_DEFAULTS['seed']})")
    p.add_argument("--config", default=None,
                   help="optional JSON settings file; explicit flags win (default: none)")
    p.add_argument("--out", required=True, help="model file to write (default: none, required)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a dataset")
    p.add_argument("--model", required=True, help="model file path (default: none, required)")
    p.add_argument("--data", required=True, help="dataset path (default: none, required)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write one score per candidate that ingestion keeps, "
                                       "in input order")
    p.add_argument("--model", required=True, help="model file path (default: none, required)")
    p.add_argument("--data", required=True, help="dataset path (default: none, required)")
    p.add_argument("--scores-out", required=True, dest="scores_out",
                   help="output path: one score per candidate that ingestion keeps, in input "
                        "order (default: none, required)")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # an overflow ends in a check's one line, not a warning
            args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # an OSError as "<path as given>: <reason>"
        text = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else str(exc)
        print("error:", " ".join(text.splitlines()) or type(exc).__name__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
