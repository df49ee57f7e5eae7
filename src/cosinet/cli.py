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
import typing
from dataclasses import asdict, fields

from . import baselines, corpus, embeddings, metrics, model, training

TRAIN_DEFAULTS = {**asdict(model.CosinetConfig()), **asdict(training.TrainConfig())}
TRAIN_TYPES = {**typing.get_type_hints(model.CosinetConfig),
               **typing.get_type_hints(training.TrainConfig)}


def _load_groups(path):
    """Interchange files by default; raw WikiQA TSVs accepted via extension."""
    if str(path).endswith(".tsv"):
        groups, _ = corpus.ingest_wikiqa(path)
    else:
        groups, _ = corpus.ingest_jsonl(path)
    if not groups:
        raise ValueError(f"{path}: no answered question groups")
    return groups


def _emit(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def cmd_ingest(args) -> None:
    if args.dataset == "wikiqa":
        groups, report = corpus.ingest_wikiqa(args.input)
    else:
        groups, report = corpus.ingest_jsonl(args.input)
    corpus.export_jsonl(groups, args.output)
    out = report.to_dict()
    out["dropped_groups"] = (report.dropped_unanswered + report.dropped_empty_questions)
    out["output"] = args.output
    _emit(out)


def cmd_baseline(args) -> None:
    groups = _load_groups(args.data)
    result = metrics.evaluate(baselines.SCORERS[args.method], groups)
    _emit(result.to_dict())


def _merged_train_settings(args) -> dict:
    settings = dict(TRAIN_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: settings must be a JSON object")
        unknown = set(file_cfg) - set(TRAIN_DEFAULTS)
        if unknown:
            raise ValueError(f"{args.config}: unknown settings {sorted(unknown)}")
        for key, value in file_cfg.items():
            want = TRAIN_TYPES[key]
            allowed = typing.get_args(want) or (want,)
            allowed += (int,) if float in allowed else ()  # JSON may write 1.0 as 1
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"{args.config}: setting {key!r} must be "
                                 f"{getattr(want, '__name__', want)}, got {json.dumps(value)}")
        settings.update(file_cfg)
    for key in ("loss", "context", "epochs", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def cmd_train(args) -> None:
    s = _merged_train_settings(args)
    cfg, tc = (cls(**{f.name: s[f.name] for f in fields(cls)})
               for cls in (model.CosinetConfig, training.TrainConfig))

    train_groups = _load_groups(args.train)
    dev_groups = _load_groups(args.dev) if args.dev else None

    vocab = set()
    for groups in (train_groups, dev_groups or []):
        for g in groups:
            vocab.update(g.question_tokens)
            for c in g.candidates:
                vocab.update(c.tokens)
    table = embeddings.load_embeddings(args.embeddings, vocab_filter=vocab,
                                       dimension=cfg.embedding_dim)

    params = model.CosinetParams(cfg)
    report = training.fit(train_groups, table, params, cfg, tc, dev_groups=dev_groups)
    model.save_model(args.out, cfg, params, table)

    out = report.to_dict()
    out.update({"loss": s["loss"], "context": s["context"], "seed": s["seed"],
                "model": args.out})
    _emit(out)


def cmd_eval(args) -> None:
    cfg, params, table = model.load_model(args.model)
    groups = _load_groups(args.data)
    result = metrics.evaluate(model.make_scorer(params, cfg, table), groups)
    _emit(result.to_dict())


def cmd_predict(args) -> None:
    cfg, params, table = model.load_model(args.model)
    groups = _load_groups(args.data)
    n = 0
    with corpus.atomic_open(args.scores_out, "w", encoding="utf-8", newline="\n") as fh:
        for g in groups:
            for s in model.score_group(g, table, params, cfg):
                fh.write(f"{float(s):.9g}\n")  # 9 digits round-trip every float32
                n += 1
    _emit({"n_scores": n, "n_questions": len(groups), "output": args.scores_out})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosinet",
        description="Efficient answer-sentence-selection: rule baselines and the "
                    "Cosinet ranking model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a raw dataset to the JSONL interchange format")
    p.add_argument("--dataset", required=True, choices=["wikiqa", "jsonl"],
                   help="input format (default: none, required)")
    p.add_argument("--input", required=True, help="input file path (default: none, required)")
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

    p = sub.add_parser("predict", help="write per-candidate scores in input order")
    p.add_argument("--model", required=True, help="model file path (default: none, required)")
    p.add_argument("--data", required=True, help="dataset path (default: none, required)")
    p.add_argument("--scores-out", required=True, dest="scores_out",
                   help="output path, one score per line (default: none, required)")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
