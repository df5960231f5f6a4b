"""Tests of the benchmark's own helpers (streams, percentiles, failures,
spans) and of ``BENCHMARK.json`` against the metrics the runs print."""

from __future__ import annotations

import json
import math
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import layers
import measure
import streams

ROOT = Path(__file__).resolve().parent.parent


def test_seeded_streams_are_deterministic():
    assert np.array_equal(
        streams.uniform_burst(7, 3, 1000, 64), streams.uniform_burst(7, 3, 1000, 64)
    )
    assert not np.array_equal(
        streams.uniform_burst(7, 3, 1000, 64), streams.uniform_burst(8, 3, 1000, 64)
    )
    assert not np.array_equal(
        streams.uniform_burst(7, 3, 1000, 64), streams.uniform_burst(7, 4, 1000, 64)
    )
    pairs = streams.edge_pairs(5, 50, 400)
    assert np.array_equal(pairs, streams.edge_pairs(5, 50, 400))
    assert np.all(pairs[:, 0] != pairs[:, 1]) and pairs.min() >= 0 and pairs.max() < 50
    assert np.array_equal(streams.dataset_order(2, 3), streams.dataset_order(2, 3))
    assert sorted(streams.dataset_order(2, 3)) == list(range(3))


def test_zipf_bursts_are_deterministic_and_favour_popular_nodes():
    ranking = streams.popularity(0, 300)
    assert np.array_equal(ranking, streams.popularity(0, 300))
    assert sorted(ranking) == list(range(300))
    first = streams.zipf_burst(1, 0, ranking, 4000, 1.1)
    assert np.array_equal(first, streams.zipf_burst(1, 0, ranking, 4000, 1.1))
    assert not np.array_equal(first, streams.zipf_burst(2, 0, ranking, 4000, 1.1))
    assert not np.array_equal(first, streams.zipf_burst(1, 1, ranking, 4000, 1.1))
    counts = np.bincount(first, minlength=300)
    # Rank 1 is drawn about 2^1.1 times as often as rank 2.
    assert counts.argmax() == ranking[0]
    assert 1.6 < counts[ranking[0]] / counts[ranking[1]] < 2.8


@pytest.mark.parametrize("count", [11, 24, 100, 500, 1000])
def test_tail_quantile_leaves_exactly_ten_samples_beyond(count):
    values = np.arange(count, dtype=np.float64)
    tail = measure.percentile(values, measure.tail_quantile(count))
    if count >= 20:
        assert np.count_nonzero(values > tail) == 10
    else:
        assert tail == measure.percentile(values, 0.5)


def test_tail_quantile_is_capped_at_p99_and_floored_at_the_median():
    assert measure.tail_quantile(100_000) == 0.99
    values = np.arange(5000, dtype=np.float64)
    assert np.count_nonzero(values > measure.percentile(values, 0.99)) == 50
    assert measure.tail_quantile(15) == 0.5
    assert measure.tail_quantile(0) == 0.5


def test_a_future_that_raises_counts_as_failed():
    ok, broken = Future(), Future()
    ok.set_result(np.zeros(4))
    broken.set_exception(ValueError("node index out of bounds"))
    log = measure.RequestLog()
    log.record(1.0, measure.answered_at(ok, 1.5))
    log.record(1.0, measure.answered_at(broken, 1.5))
    assert log.attempted == 2 and log.failed == 1
    latencies = log.latencies_ms()
    assert latencies[0] == pytest.approx(500.0) and math.isinf(latencies[1])
    # A failed request misses every latency limit: with 11 failures in 30
    # requests, the tail lies among them.
    for _ in range(18):
        log.record(1.0, measure.answered_at(ok, 1.5))
    for _ in range(10):
        log.record(1.0, measure.answered_at(broken, 1.5))
    summary = measure.summarize(log.latencies_ms())
    assert log.failed == 11 and summary["p50"] == pytest.approx(500.0)
    assert math.isinf(summary["tail"])


def test_window_index_splits_the_span_evenly():
    index = measure.window_index([0.0, 0.4, 0.5, 0.99, 1.0], 2)
    assert index.tolist() == [0, 0, 1, 1, 1]
    assert measure.window_index([3.0, 3.0], 4).tolist() == [0, 0]


class _Layer:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value


def test_spans_nest_and_self_time_excludes_children():
    tracer = layers.Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner", info=lambda args, result: result)
    assert _Layer().outer(2) == 3
    tracer.restore()
    assert _Layer.outer.__name__ == "outer" and not hasattr(_Layer.outer, "__wrapped__")
    (inner_id, inner, *_, inner_info), (outer_id, outer, *_, outer_parent, _) = tracer.spans
    assert (inner, outer, inner_info) == ("inner", "outer", 2)
    assert tracer.spans[0][4] == outer_id and outer_parent == -1
    seconds, calls, infos = layers.self_times(tracer.spans)
    durations = {span[1]: span[3] - span[2] for span in tracer.spans}
    assert seconds["outer"] == pytest.approx(durations["outer"] - durations["inner"])
    assert calls == {"outer": 1, "inner": 1} and infos["inner"] == [2]


def test_fit_called_by_fine_tune_counts_as_fine_tuning():
    spans = [
        (1, "trainer.fit", 0.0, 1.0, 0, None),
        (0, "trainer.fine_tune", 0.0, 1.5, -1, None),
        (2, "trainer.fit", 2.0, 4.0, -1, None),
    ]
    seconds, _, _ = layers.self_times(spans)
    assert seconds["trainer.fine_tune"] == pytest.approx(1.5)
    assert seconds["trainer.fit"] == pytest.approx(2.0)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
