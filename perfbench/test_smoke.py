"""Smoke test of the benchmark harness at tiny shapes; runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced with ``--smoke`` (16-dim vectors, eight
training groups), so a failure here means the harness is broken, not
that the program got slow.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

# at smoke shapes the model is too small to learn, so the quality check may fail
QUALITY_CHECKS = {"dev_map_above_rr"}


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_contract_result(workload, trace_flag):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace_flag), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace_flag else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    failing = {name for name, c in info["checks"].items() if not c["ok"]}
    assert failing <= QUALITY_CHECKS, info["checks"]
    assert result["failed"] == len(failing)
    assert result["attempted"] >= 1

    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace_flag:
        assert all(v > 0 for v in values.values()), values
        return
    assert info["details"]["absent"] == []
    if workload == "pointwise_none":
        assert values["ndgrad.lstm_cell.calls"] == 0
    if workload == "rank_birnn":
        assert values["model.prepare.repeat_frac"] == 0
        # trained in a forked child, so the traced pass holds inference only
        assert values["training.Adam.step.calls"] == 0
        assert values["ndgrad.Tape.backward.calls"] == 0
        assert values["cli.main.calls"] == 1
    else:
        assert values["model.prepare.repeat_frac"] > 0


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _bench("--workload", "rank_birnn", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_every_namespace_and_restores():
    from cosinet import model, training

    original = model.score_pairs
    tracer = spans.Tracer([model])
    with tracer:
        assert training.score_pairs is model.score_pairs is not original
        assert training.prepare_pair is model.prepare_pair
    assert model.score_pairs is original and training.score_pairs is original


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer([])
    tracer.names = ["outer", "inner"]
    # [name, start, end, parent, nested]
    tracer.spans = [[0, 0.0, 10.0, -1, False], [1, 1.0, 4.0, 0, False],
                    [1, 5.0, 6.0, 0, False], [0, 7.0, 9.0, 0, True]]
    stats = tracer.stats()
    assert stats["outer"] == {"calls": 2, "busy_s": 10.0, "self_s": 4.0 + 2.0}
    assert stats["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


def test_renamed_function_reads_absent_not_crash():
    stats = {"ndgrad.conv1d": {"calls": 4, "busy_s": 1.0, "self_s": 1.0}}
    metrics, absent = run.layer_metrics(stats, pairs=2, prepare_calls=0, prepare_repeats=0,
                                        overhead_frac=0.01)
    assert metrics["ndgrad.conv1d.calls"] == 4
    assert metrics["ndgrad.ops_per_pair"] == 2.0
    assert metrics["model.prepare_pair.calls"] == 0 and "model.prepare_pair" in absent
    assert list(metrics) == run.per_layer_names()
