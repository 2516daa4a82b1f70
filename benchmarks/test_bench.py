"""Tests of the benchmark itself: its output checks, its inputs and its report.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import synth  # noqa: E402
import worker  # noqa: E402
from sentigru import (EpochRecord, LabeledCorpus, LabeledRecord,  # noqa: E402
                      frequency_by_label, report_from_predictions)

TINY = dict(run.PAPER, model={
    "vocab_size": 200, "embed_dim": 4, "seq_len": 8, "gru_units": [3, 2, 2],
    "dropout_rate": 0.3, "num_classes": 6, "dtype": "float32"},
    train_records=40, vocab_records=60, predict_texts=30, eval_rows=20,
    ingest_records=60, check_rows=4, setup_runs=2)


def test_predict_check_rejects_one_flipped_bit():
    rng = np.random.default_rng(0)
    batched = rng.random((3, 6)).astype(np.float32)
    probs = [row.copy() for row in batched]
    assert worker.predict_failures(probs, batched) == [False, False, False]
    probs[1].view(np.uint32)[2] ^= 1
    assert worker.predict_failures(probs, batched) == [False, True, False]
    probs[1] = np.full(6, np.nan, dtype=np.float32)
    assert worker.predict_failures(probs, np.vstack([batched[:1], probs[1:2], batched[2:]]))[1]


def test_eval_check_rejects_wrong_total_and_wrong_prediction():
    truth = np.array([0, 1, 2, 3, 4, 5, 0, 1])
    pred = np.array([0, 1, 2, 0, 4, 5, 1, 1])
    report = report_from_predictions(truth, pred, 6)
    assert not worker.eval_failed(report, pred, 8, {3: 0, 6: 1})
    assert worker.eval_failed(report, pred, 9, {3: 0})
    assert worker.eval_failed(report, pred, 8, {3: 1})


def test_ingest_check_rejects_bad_tables_and_ids():
    data = LabeledCorpus((LabeledRecord("Happy happy day!", 1),
                          LabeledRecord("sad, sad night", 0)))
    tables = frequency_by_label(data)
    ids = np.array([[0, 2, 3], [0, 4, 4]])
    assert not worker.ingest_failed(tables, ids, 5)
    assert worker.ingest_failed(tables, ids, 4)
    tables["all"].counts["happy"] += 1
    assert worker.ingest_failed(tables, ids, 5)


def test_train_check_rejects_non_finite_loss():
    good = EpochRecord(1, 1.7, 0.2, 1.8, 0.2, 1.0)
    bad = EpochRecord(1, float("nan"), 0.2, 1.8, 0.2, 1.0)
    assert worker.train_failures([good, bad, None]) == [False, True, True]


def test_inputs_depend_only_on_the_seed():
    a, b = synth.TextGenerator(3).records(200), synth.TextGenerator(3).records(200)
    assert a == b
    assert a != synth.TextGenerator(4).records(200)
    assert {label for _, label in a} == set(range(6))
    assert any(len(text.split()) > 79 for text, _ in synth.TextGenerator(3).records(500))


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(run.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


def test_every_traced_function_has_metrics():
    import tracing
    names = {name for _, _, name, _, _ in tracing.FUNCTIONS}
    assert names <= set(run.SPANS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.run(workload, seed=5, seconds=0.2, trace=trace, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] \
        == [m[:2] for m in expected]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if trace:
        assert values["trace.self_s_total"] <= values["trace.wall_s"]
        assert values["numerics.matmul.calls"] > 0 or workload == "ingest_corpus"
    else:
        assert all(v > 0 for v in values.values())
