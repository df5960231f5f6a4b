"""Micro-benchmark: telemetry must be near-free when disabled.

The observability layer leaves spans and counters inline on the serving hot
path (engine predict, cache lookup, plan replay, batcher queue).  Its
disabled-path budget is pinned here:

* **a disabled span call is one ContextVar read** returning a shared no-op
  singleton — measured directly in a tight loop;
* **the per-request instrumentation cost** (disabled span calls × span
  sites on the warm-cache leg) must stay under 2% of the measured
  warm-cache per-request latency;
* with telemetry **enabled**, the same request records a trace — the smoke
  check that the machinery being budgeted is actually live.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.obs.trace import NULL_SPAN, Tracer, span, use_telemetry, use_tracer
from repro.serve import GraphSession, InferenceEngine, RequestBatcher

NUM_NODES = 400
NUM_FEATURES = 8
NUM_CLASSES = 3

# Disabled span-call sites on the warm-cache leg.  Per *request* only the
# ``start_trace`` in ``submit`` runs (the queue span is guarded behind a
# ``root is not NULL_SPAN`` check); the remaining sites run once per
# *batch*: ``engine.predict`` and ``engine.cache_lookup`` (the
# ``batcher.engine_call`` site is likewise guarded), counted with headroom.
SPAN_SITES_PER_SUBMIT = 1
SPAN_SITES_PER_BATCH = 4
BATCH = 64

OVERHEAD_BUDGET = 0.02


def _serving_stack():
    csr, features, _ = generate_scaling_graph(
        NUM_NODES,
        num_classes=NUM_CLASSES,
        average_degree=5.0,
        num_features=NUM_FEATURES,
        seed=0,
    )
    model = build_model(
        "gcn",
        in_features=NUM_FEATURES,
        num_classes=NUM_CLASSES,
        hidden_features=8,
        rng=0,
    )
    model.eval()
    session = GraphSession(csr, features)
    return InferenceEngine(model, session)


def test_disabled_span_is_noop_singleton():
    with use_telemetry(spans=False):
        assert span("engine.predict") is NULL_SPAN


def test_disabled_overhead_within_budget():
    engine = _serving_stack()
    batcher = RequestBatcher(engine, max_batch_size=BATCH)
    nodes = np.arange(BATCH)

    with use_telemetry(spans=False):
        # Warm the logit cache and the fused plan.
        for node in nodes:
            batcher.submit(int(node))
        batcher.flush()

        # Warm-cache serving leg: every request hits the cache.
        rounds = 5
        started = time.perf_counter()
        for _ in range(rounds):
            for node in nodes:
                batcher.submit(int(node))
            batcher.flush()
        per_request = (time.perf_counter() - started) / (rounds * nodes.size)

        # Disabled span call cost, amortised over a tight loop.
        calls = 200_000
        started = time.perf_counter()
        for _ in range(calls):
            span("engine.predict")
        per_span = (time.perf_counter() - started) / calls

    sites_per_request = SPAN_SITES_PER_SUBMIT + SPAN_SITES_PER_BATCH / BATCH
    per_request_overhead = per_span * sites_per_request
    ratio = per_request_overhead / per_request
    print(
        f"\nwarm-cache request: {per_request * 1e6:.1f}µs; disabled span: "
        f"{per_span * 1e9:.0f}ns × {sites_per_request:.2f} sites/request = "
        f"{per_request_overhead * 1e9:.0f}ns ({ratio * 100:.3f}% of request)"
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled telemetry costs {ratio * 100:.2f}% of the warm-cache "
        f"serving leg (budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )


def test_enabled_tracing_records_the_request():
    engine = _serving_stack()
    tracer = Tracer()
    with use_tracer(tracer), use_telemetry(spans=True):
        batcher = RequestBatcher(engine, max_batch_size=8)
        future = batcher.submit(0)
        batcher.flush()
        future.result()
    tids = tracer.trace_ids()
    assert len(tids) == 1
    names = {s["name"] for s in tracer.trace(tids[0])}
    assert {"request", "engine.predict"} <= names
