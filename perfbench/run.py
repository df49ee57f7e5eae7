"""cosinet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload listwise_bilstm --seed 1 --seconds 20 --trace 0

Run it from the repository root (it imports ``src/cosinet`` from there).
The data comes from ``perfbench/synth.py`` seeded with ``--seed``; the
program only receives the generated JSONL corpus and text vector file.
One process, one closed-loop client: each call into cosinet starts only
after the previous one returned. BLAS runs on one thread, pinned before
numpy is imported.

Every workload trains a model with one ``training.fit`` call over all its
training groups (the fixed budget, as ``cli train`` does) and then scores
held-out groups one at a time with ``model.score_group``, aggregated with
``metrics.evaluate``. The training rate comes from rate-only fit calls on
one-shard slices, run on a throwaway copy of the weights so they never
touch the scored model. On the training workloads a rate-only call follows
every scored block, so both rates are medians over the same stretch of
time (other tenants of a small shared box slow it down for tens of seconds
at a time). rank_birnn is inference only: a forked child trains and saves
its model before the parent starts, so the parent's set-up, checks, rank
phase, peak RSS and trace hold no training; its rate-only calls run after
the rank phase and after peak RSS is read. The measured phase (rank blocks
and rate-only calls) lasts at least ``--seconds``.

End-to-end metrics (``--trace 0``):
  setup_s            median of 3 set-ups (ingest of the JSONL files and the
                     filtered ``load_embeddings``), one before training and
                     two spread between the rank blocks; on rank_birnn plus
                     the median of 3 ``save_model`` + ``load_model`` round trips
  train_pairs_per_s  median over rate-only fit calls (the first left out) of
                     candidate pairs x epochs / wall time of the call
  dev_map            MAP x100 over the held-out blocks (1100 groups)
  rank_groups_per_s  median over held-out blocks of groups / wall time
  rank_ms_p50        median of per-group ``score_group`` wall time over the
                     1100 timed groups; p95 and p99 (55 and 11 samples past
                     them) go to the details line: on a shared 2-core box
                     their quartile spread over ten seeds reached 0.26 of
                     the median, above any bound the gate allows
  peak_rss_mb        the process's maximum resident set size at the end of
                     the rank phase
The fixed budget's final-epoch mean loss goes to the details line as
``train_loss_last``, not to the metrics: it depends on the seed's data so
much (a quartile spread of 0.15-0.26 of its median over ten seeds) that no
bound of at most 0.25 holds; dev_map is the quality metric.
Failures (non-finite step losses or scores, raising groups, failed checks)
go to the result's ``failed`` out of ``attempted``; a failed fraction is
0 on a healthy run, so it is not a metric of its own.

``--trace 1`` runs a fixed amount of the same work three times: untraced,
traced (under ``spans.Tracer``) and untraced again, and prints the
per-layer metrics of the traced pass; the spans go to ``perfbench/out/``.
The last line of stdout is the result object; the line before it holds
provenance and check details. ``--smoke`` shrinks every shape so the whole
harness runs in seconds (used by ``perfbench/test_smoke.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
LAYERS = ("corpus", "embeddings", "model", "ndgrad", "training", "metrics", "baselines", "cli")
SETUP_REPEATS = 3
WARMUP_GROUPS = 3     # held-out groups scored before timing starts (first call pays lazy set-up)
WARMUP_FIT_CALLS = 1  # rate-only fit calls left out of the training rate for the same reason
MIN_RATE_SAMPLES = 8  # rate-only fit calls kept, at least
BLOCK = 110           # held-out groups per metrics.evaluate call
RANK_BLOCKS = 10      # 1100 timed groups put 11 samples past p99
CHECK_GROUPS = 8      # groups in the round-trip and cli predict checks
TRACE_BLOCKS = 2      # held-out blocks per traced pass; per-layer counts need no p99


@dataclass(frozen=True)
class Workload:
    why: str
    loss: str
    context: str
    train_groups: int   # groups in the fixed training budget, one fit call over all
    shard_groups: int   # groups per rate-only fit call; every shard has the same size mix
    epochs: int
    max_lr: float
    inference_only: bool = False


# Why each workload: the "why" field, repeated in BENCHMARK.json. Learning
# rates: at the program's defaults (2e-4 listwise, 2e-3 pointwise) these
# budgets leave the model on the steep part of its learning curve, so
# dev_map swings with the seed and pointwise barely beats the rr baseline.
WORKLOADS = {
    "listwise_bilstm": Workload(
        why="heaviest training path: per-candidate conv, LSTM steps both ways, "
            "full backward and one Adam step per group; 2 epochs re-prepare every pair",
        loss="listwise", context="bilstm", train_groups=60, shard_groups=5, epochs=2,
        max_lr=4e-4),
    "pointwise_none": Workload(
        why="same conv towers and backward through fit's separate pointwise head; "
            "no recurrence, one Adam step per 64 pairs",
        loss="pointwise", context="none", train_groups=150, shard_groups=10, epochs=3,
        max_lr=5e-3),
    "rank_birnn": Workload(
        why="inference only after a save/load round trip: forward and reads, "
            "each pair prepared once, so training-side gains and repeat caches show no change",
        loss="listwise", context="birnn", train_groups=200, shard_groups=10, epochs=1,
        max_lr=5e-4, inference_only=True),
}

# Functions whose spans become per-layer metrics, and what they should move:
# ingest, vector load and model save/load -> setup_s; prepare, relatedness,
# embed, conv1d and masked_max_pool -> train_pairs_per_s and rank_ms_p50;
# Tape.backward, Adam.step and the losses -> train_pairs_per_s only (they
# read 0 on rank_birnn); lstm_cell runs on listwise_bilstm only, rnn_cell on
# rank_birnn only; baselines.score_rr and cli.main run in checks only.
TRACED_FUNCTIONS = (
    "ndgrad.conv1d", "ndgrad.masked_max_pool", "ndgrad.Tape.backward",
    "ndgrad.lstm_cell", "ndgrad.rnn_cell",
    "training.fit", "training.Adam.step", "training.listwise_loss", "training.pointwise_loss",
    "model.prepare_group", "model.prepare_pair", "model.relatedness",
    "model.encode_pair", "model.contextualize", "model.score_pairs", "model.score_group",
    "model.save_model", "model.load_model",
    "embeddings.embed_sequence", "embeddings.load_embeddings",
    "corpus.ingest_jsonl", "metrics.evaluate", "baselines.score_rr", "cli.main",
)


def per_layer_names() -> list:
    names = [f"{f}.{stat}" for f in TRACED_FUNCTIONS for stat in ("calls", "busy_s", "self_s")]
    names += [f"{m}.{stat}" for m in LAYERS for stat in ("calls", "self_s")]
    names += ["ndgrad.ops_per_pair", "model.prepare.repeat_frac", "trace.overhead_frac"]
    names += [f"src_lines.{m}" for m in LAYERS]
    return names


class Sizes:
    """Shapes of one run; ``smoke`` shrinks them so the harness runs in seconds."""

    def __init__(self, workload: Workload, smoke: bool):
        import synth  # imports numpy, so only after main has pinned the BLAS threads

        self.shape = synth.Shape()
        self.conv_hidden = 300
        self.train_groups = workload.train_groups
        self.shard_groups = workload.shard_groups
        self.block = BLOCK
        if smoke:
            self.shape = synth.Shape(dim=16, vocab=400, extra_vectors=50, topics=8,
                                     function_words=30)
            self.conv_hidden = 16
            self.train_groups = 8
            self.shard_groups = 4
            self.block = 6


class Counters:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pairs = 0      # candidate pairs the harness sent into the model
        self.in_checks = False  # set while checks re-score groups on purpose
        self.checks = {}

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def steps(self, losses) -> None:
        self.attempted += len(losses)
        self.failed += sum(1 for x in losses if not math.isfinite(x))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _n_pairs(groups) -> int:
    return sum(len(g.candidates) for g in groups)


def generate(sizes: Sizes, seed: int, workdir: Path) -> dict:
    """Write the program's inputs; returns their paths.

    Training shards and held-out blocks each draw their group sizes from one
    fixed mix, so every rate-only fit call and every block costs about the
    same and their median rate is a steady estimate on a noisy machine.
    """
    import synth

    gen = synth.Generator(seed, sizes.shape)
    files = {"train": workdir / "train.jsonl", "heldout": workdir / "heldout.jsonl",
             "check": workdir / "check.jsonl", "vectors": workdir / "vectors.txt"}
    shard_mix = synth.size_mix(sizes.shape, sizes.shard_groups)
    block_mix = synth.size_mix(sizes.shape, sizes.block)
    synth.write_jsonl([g for i in range(sizes.train_groups // sizes.shard_groups)
                       for g in gen.groups(shard_mix, f"train{i}-")], files["train"])
    heldout = gen.groups(synth.size_mix(sizes.shape, WARMUP_GROUPS), "warmup-")
    heldout += [g for i in range(RANK_BLOCKS) for g in gen.groups(block_mix, f"heldout{i}-")]
    synth.write_jsonl(heldout, files["heldout"])
    synth.write_jsonl(gen.groups(synth.size_mix(sizes.shape, CHECK_GROUPS), "check-"),
                      files["check"])
    gen.write_vectors(files["vectors"])
    return files


def ingest(cosinet, files, dim):
    """Program-side set-up: corpus ingest and the filtered vector load, as ``cli train`` does."""
    train, _ = cosinet.corpus.ingest_jsonl(files["train"])
    heldout, _ = cosinet.corpus.ingest_jsonl(files["heldout"])
    check, _ = cosinet.corpus.ingest_jsonl(files["check"])
    vocab = set()
    for g in train + heldout + check:
        vocab.update(g.question_tokens)
        for c in g.candidates:
            vocab.update(c.tokens)
    table = cosinet.embeddings.load_embeddings(files["vectors"], vocab_filter=vocab,
                                               dimension=dim)
    return train, heldout, check, table


class Trainer:
    """The fixed training budget, and rate-only fit calls that cycle over one-shard slices."""

    def __init__(self, cosinet, workload, sizes, seed, groups, table, counters):
        self.cosinet, self.groups, self.table, self.counters = cosinet, groups, table, counters
        self.epochs = workload.epochs
        self.cfg = cosinet.model.CosinetConfig(embedding_dim=sizes.shape.dim,
                                               conv_hidden=sizes.conv_hidden,
                                               context=workload.context, seed=seed)
        self.tc = cosinet.training.TrainConfig(loss=workload.loss, epochs=workload.epochs,
                                               max_lr=workload.max_lr, seed=seed)
        n = sizes.shard_groups
        self.shards = [groups[i:i + n] for i in range(0, len(groups), n)]
        self.params = cosinet.model.CosinetParams(self.cfg)
        self.scratch = None
        self.rates, self.rate_calls = [], 0

    def _fit(self, groups, params) -> tuple:
        report, dt = _timed(self.cosinet.training.fit, groups, self.table, params,
                            self.cfg, self.tc)
        pairs = self.epochs * _n_pairs(groups)
        self.counters.pairs += pairs
        self.counters.steps(report.loss_curve)
        return report, pairs / dt

    def fixed_budget(self) -> dict:
        report, rate = self._fit(self.groups, self.params)
        return {"train_loss_last": report.epoch_mean_loss[-1], "budget_pairs_per_s": rate}

    def rate_sample(self) -> None:
        if self.scratch is None:
            self.scratch = copy.deepcopy(self.params)
        _, rate = self._fit(self.shards[self.rate_calls % len(self.shards)], self.scratch)
        if self.rate_calls >= WARMUP_FIT_CALLS:
            self.rates.append(rate)
        self.rate_calls += 1


def train_in_child(cosinet, workload, sizes, seed, files, model_path) -> dict:
    """Train and save rank_birnn's model in a forked child; returns its summary.

    The parent waits for the child, so there is still one client at a time,
    and the parent's peak RSS and spans hold no training.
    """
    summary_path = model_path.with_suffix(".json")

    def child():
        counters = Counters()
        train, _, _, table = ingest(cosinet, files, sizes.shape.dim)
        trainer = Trainer(cosinet, workload, sizes, seed, train, table, counters)
        summary = trainer.fixed_budget()
        cosinet.model.save_model(model_path, trainer.cfg, trainer.params, table)
        summary.update(steps=counters.attempted, failed_steps=counters.failed)
        summary_path.write_text(json.dumps(summary))

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"training child exited with code {proc.exitcode}")
    return json.loads(summary_path.read_text())


def rank(cosinet, cfg, params, table, heldout, sizes, blocks, counters, between):
    """Score ``blocks`` held-out blocks, one group per call.

    ``between(n)`` runs after the n-th block (counting from 1).
    """
    import numpy as np

    latencies = []

    def scorer(group):
        t0 = time.perf_counter()
        try:
            scores = cosinet.model.score_group(group, table, params, cfg)
            ok = len(scores) == len(group.candidates) and all(map(math.isfinite, scores))
        except Exception:  # a raising group is a counted failure, not a crash
            scores, ok = None, False
        latencies.append(time.perf_counter() - t0)
        counters.attempted += 1
        counters.pairs += len(group.candidates)
        if not ok:
            counters.failed += 1
            return [0.0] * len(group.candidates)
        return scores

    for g in heldout[:WARMUP_GROUPS]:
        scorer(g)
    latencies.clear()
    pool = heldout[WARMUP_GROUPS:WARMUP_GROUPS + blocks * sizes.block]
    maps, rates = [], []
    for lo in range(0, len(pool), sizes.block):
        block = pool[lo:lo + sizes.block]
        result, dt = _timed(cosinet.metrics.evaluate, scorer, block)
        rates.append(len(block) / dt)
        maps.append(result.map)
        between(len(rates))
    lat_ms = [1000.0 * x for x in latencies]
    p50, p95, p99 = (float(x) for x in np.percentile(lat_ms, [50, 95, 99]))
    return {
        "rank_groups_per_s": statistics.median(rates),
        "rank_ms_p50": p50,
        "rank_ms_p95": p95,
        "rank_ms_p99": p99,
        "rank_samples": len(lat_ms),
        "rank_samples_beyond_p95": sum(1 for x in lat_ms if x > p95),
        "rank_samples_beyond_p99": sum(1 for x in lat_ms if x > p99),
        "rank_block_rates": rates,
        "dev_map": statistics.fmean(maps),
        "rr_map": cosinet.metrics.evaluate(cosinet.baselines.score_rr, pool).map,
    }


def save_load(cosinet, cfg, params, table, path):
    """Timed ``save_model`` then ``load_model``; returns the loaded model and the total time."""
    t0 = time.perf_counter()
    cosinet.model.save_model(path, cfg, params, table)
    loaded = cosinet.model.load_model(path)
    return loaded, time.perf_counter() - t0


def round_trip_checks(cosinet, cfg, params, table, check_groups, files, workdir, counters):
    """Save/load round trip: loaded scores equal in-memory scores bit for bit; cli predict.

    Returns the loaded model and the round trip's time.
    """
    counters.in_checks = True
    model_path = workdir / "model.bin"
    (cfg2, params2, table2), round_trip_s = save_load(cosinet, cfg, params, table, model_path)
    mismatched = 0
    for g in check_groups:
        a = cosinet.model.score_group(g, table, params, cfg)
        b = cosinet.model.score_group(g, table2, params2, cfg2)
        counters.pairs += 2 * len(g.candidates)
        mismatched += int(a.tobytes() != b.tobytes())
    counters.check("round_trip_bitwise", mismatched == 0,
                   {"groups": len(check_groups), "mismatched": mismatched})

    scores_path = workdir / "scores.txt"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cosinet.cli.main(["predict", "--model", str(model_path), "--data",
                                   str(files["check"]), "--scores-out", str(scores_path)])
    counters.pairs += _n_pairs(check_groups)
    lines = scores_path.read_text().split() if scores_path.exists() else []
    finite = all(math.isfinite(float(x)) for x in lines)
    want = _n_pairs(check_groups)
    counters.check("cli_predict", status == 0 and len(lines) == want and finite,
                   {"status": status, "scores": len(lines), "candidates": want})
    counters.in_checks = False
    return cfg2, params2, table2, round_trip_s


def run_once(cosinet, workload, sizes, seed, files, workdir, counters, *, budget_s,
             setup_repeats, blocks, child=None):
    """One pass of the workload; returns (end-to-end metrics, details).

    ``child`` is the summary of ``train_in_child`` on rank_birnn, whose model
    sits at ``workdir/trained.bin``. With ``budget_s`` 0 the pass is fixed
    work (the traced run): no rate-only calls beyond those after each block.
    The first set-up comes before everything else; the other
    ``setup_repeats - 1`` are spread evenly between the rank blocks, so the
    median set-up time samples the same stretch of time as the rates.
    """
    ingest_s, round_trip_s = [], []
    (train_g, heldout, check_g, table), dt = _timed(ingest, cosinet, files, sizes.shape.dim)
    ingest_s.append(dt)

    trainer = Trainer(cosinet, workload, sizes, seed, train_g, table, counters)
    if workload.inference_only:
        train = dict(child)
        counters.attempted += train.pop("steps")
        counters.failed += train.pop("failed_steps")
        cfg, params, _ = cosinet.model.load_model(workdir / "trained.bin")
        cfg, params, table, dt = round_trip_checks(cosinet, cfg, params, table, check_g,
                                                   files, workdir, counters)
        round_trip_s.append(dt)
    else:
        train = trainer.fixed_budget()
        cfg, params = trainer.cfg, trainer.params

    extra = setup_repeats - 1
    setup_after = {round((i + 1) * blocks / (extra + 1)) for i in range(extra)}

    def between(n_blocks):
        if not workload.inference_only:
            trainer.rate_sample()
        if n_blocks in setup_after:
            ingest_s.append(_timed(ingest, cosinet, files, sizes.shape.dim)[1])
            if workload.inference_only:
                round_trip_s.append(save_load(cosinet, cfg, params, table,
                                              workdir / "setup.bin")[1])

    t0 = time.perf_counter()
    rk = rank(cosinet, cfg, params, table, heldout, sizes, blocks, counters, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while budget_s and (time.perf_counter() - t0 < budget_s
                        or len(trainer.rates) < MIN_RATE_SAMPLES):
        trainer.rate_sample()
    measured_s = time.perf_counter() - t0

    counters.check("dev_map_above_rr", rk["dev_map"] > rk["rr_map"],
                   {"dev_map": rk["dev_map"], "rr_map": rk["rr_map"]})
    counters.check("train_loss_finite", math.isfinite(train["train_loss_last"]))
    metrics = {
        "setup_s": statistics.median(ingest_s)
        + (statistics.median(round_trip_s) if round_trip_s else 0.0),
        "train_pairs_per_s": statistics.median(trainer.rates) if trainer.rates else math.nan,
        "dev_map": rk["dev_map"],
        "rank_groups_per_s": rk["rank_groups_per_s"],
        "rank_ms_p50": rk["rank_ms_p50"],
        "peak_rss_mb": peak_rss_mb,
    }
    details = {k: v for k, v in rk.items() if k not in metrics}
    details.update(train_loss_last=train["train_loss_last"],
                   fit_rates=trainer.rates, rate_fit_calls=trainer.rate_calls,
                   budget_pairs_per_s=train["budget_pairs_per_s"], measured_s=measured_s,
                   setup_ingest_s=ingest_s, setup_round_trip_s=round_trip_s)
    return metrics, details


UNITS = {"setup_s": "s", "train_pairs_per_s": "1/s", "dev_map": "%",
         "rank_groups_per_s": "1/s", "rank_ms_p50": "ms", "peak_rss_mb": "MB"}


def traced_metrics(cosinet, workload, sizes, seed, files, workdir, child, trace_path):
    """Fixed work three times: untraced, traced, untraced.

    The first pass pays the one-time costs (lazy BLAS set-up, first calls)
    and warms up the other two; the traced pass is compared with the last,
    which starts as warm as it does. Per-layer metrics come from the traced
    pass.
    """
    import spans

    def one_pass(counters):
        t0 = time.perf_counter()
        run_once(cosinet, workload, sizes, seed, files, workdir, counters, budget_s=0.0,
                 setup_repeats=1, blocks=TRACE_BLOCKS, child=child)
        return time.perf_counter() - t0

    warmup_s = one_pass(Counters())

    counters = Counters()
    seen, repeats = set(), [0, 0]

    def observe_prepare(args, kwargs):
        if counters.in_checks:
            return
        # question and candidate tokens, however they were passed
        tokens = list(args[:2]) + [kwargs[k] for k in ("q_tokens", "c_tokens") if k in kwargs]
        key = tuple(tuple(t) for t in tokens)
        repeats[0] += 1
        repeats[1] += key in seen
        seen.add(key)

    modules = [getattr(cosinet, m) for m in LAYERS]
    tracer = spans.Tracer(modules, observers={"model.prepare_pair": observe_prepare})
    with tracer:
        traced = one_pass(counters)
    tracer.write(trace_path)
    untraced = one_pass(Counters())

    metrics, absent = layer_metrics(tracer.stats(), counters.pairs, *repeats,
                                    traced / untraced - 1.0)
    details = {"pairs": counters.pairs, "prepare_calls_outside_checks": repeats[0],
               "warmup_s": warmup_s, "untraced_s": untraced, "traced_s": traced, "absent": absent,
               "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, counters, details


def layer_metrics(stats, pairs, prepare_calls, prepare_repeats, overhead_frac):
    """Per-layer metrics from ``Tracer.stats``; a function that no longer exists reads 0.

    Returns (metrics, names of traced functions that were absent).
    """
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        s = stats.get(fn, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat, value in s.items():
            metrics[f"{fn}.{stat}"] = value
    for m in LAYERS:
        mine = [s for name, s in stats.items() if name.split(".", 1)[0] == m]
        metrics[f"{m}.calls"] = sum(s["calls"] for s in mine)
        metrics[f"{m}.self_s"] = sum(s["self_s"] for s in mine)
    # primitives are ndgrad's module-level functions, not Tape methods
    primitives = sum(s["calls"] for name, s in stats.items()
                     if name.startswith("ndgrad.") and name.count(".") == 1)
    metrics["ndgrad.ops_per_pair"] = primitives / pairs
    metrics["model.prepare.repeat_frac"] = prepare_repeats / prepare_calls if prepare_calls else 0.0
    metrics["trace.overhead_frac"] = overhead_frac
    metrics.update({f"src_lines.{m}": n for m, n in src_lines().items()})
    return metrics, [fn for fn in TRACED_FUNCTIONS if fn not in stats]


def src_lines() -> dict:
    out = {}
    for m in LAYERS:
        path = ROOT / "src" / "cosinet" / f"{m}.py"
        out[m] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    return out


def provenance(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy has no dict mode; provenance is best-effort
        blas = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cosinet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the checkout the benchmark runs in need not be a git repository,
        # so the source is identified by its digest
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "warmup_groups_excluded": WARMUP_GROUPS,
        "warmup_fit_calls_excluded": WARMUP_FIT_CALLS,
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny shapes, for the harness test")
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        # one thread, set before numpy loads: the box is small and shared, and
        # threaded BLAS on these small matrices mostly adds run-to-run spread
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cosinet
        # the package imports only some submodules; the layers are used as attributes
        from cosinet import (baselines, cli, corpus, embeddings, metrics,  # noqa: F401
                             model, ndgrad, training)
    except ImportError as exc:
        print(f"error: cannot import cosinet from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    sizes = Sizes(workload, args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        files = generate(sizes, args.seed, workdir)
        child = None
        if workload.inference_only:
            child = train_in_child(cosinet, workload, sizes, args.seed, files,
                                   workdir / "trained.bin")
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            values, counters, details = traced_metrics(cosinet, workload, sizes, args.seed,
                                                       files, workdir, child, trace_path)
            units = {name: _per_layer_unit(name) for name in values}
        else:
            counters = Counters()
            values, details = run_once(cosinet, workload, sizes, args.seed, files, workdir,
                                       counters, budget_s=args.seconds,
                                       setup_repeats=SETUP_REPEATS, blocks=RANK_BLOCKS,
                                       child=child)
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
            "provenance": provenance(args.seed), "checks": counters.checks,
            "failed_frac": counters.failed / counters.attempted, "details": details}
    print(json.dumps(info))
    print(json.dumps({
        "correct": counters.failed == 0,
        "attempted": counters.attempted,
        "failed": counters.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.startswith("src_lines."):
        return "lines"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "ndgrad.ops_per_pair":
        return "ops/pair"
    return "frac"


if __name__ == "__main__":
    sys.exit(main())
