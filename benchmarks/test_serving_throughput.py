"""Serving benchmark: warm-cache sampled serving vs naive full-graph forward.

The point of the serving subsystem is per-request cost: a naive deployment
answers every prediction request with one full-graph forward — Θ(N + m)
even on CSR — while the engine's sampled ego-block path costs
``O(Π fanouts)`` per miss and O(1) per warm-cache hit.  A closed-loop load
generator over a 20k-node SBM graph measures both and reports requests/sec
plus p50/p99 latencies.

Acceptance (ISSUE 4): warm-cache sampled serving sustains ≥ 10× the
requests/sec of the naive full-graph baseline at 20k nodes.  (Staleness
under incremental updates is asserted by ``tests/test_serving.py``.)

A second leg measures the vectorised fanout sampler against the historical
per-row ``rng.choice`` loop it replaced (the PR-3 follow-on hot spot): same
row counts, ≥ 2× faster at benchmark scale.

A third leg measures the cold-**miss** path: a deep flush of
distinct uncached requests answered by one engine call (one sampling pass
over the union of the ego blocks, one plan replay) versus the unfused
per-micro-batch module forwards.  The deep call wins twice — deduplicated
receptive fields and one kernel dispatch sequence per flush instead of one
per micro-batch — so the gap widens with flush depth; at a 4096-request
flush the fused path must be ≥ 2× the unfused one, with the plan counters
proving the timed path *replayed* a cached plan rather than re-recording
it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from conftest import run_once
from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.gnn.plan import PlanCache, record_plan
from repro.gnn.sampling import _subsample_rows
from repro.serve.batching import RequestBatcher
from repro.serve.engine import InferenceEngine, ServeConfig
from repro.serve.session import GraphSession
from repro.sparse.csr import CSRMatrix
from repro.sparse.backend import use_backend

NUM_NODES = 20_000
NUM_FEATURES = 16
NUM_CLASSES = 4
AVERAGE_DEGREE = 10.0
FANOUTS = (10, 10)
WORKING_SET = 512        # distinct nodes the request stream draws from
WARM_REQUESTS = 4_000    # measured warm-phase requests
NAIVE_REQUESTS = 5       # full-graph forwards are expensive; few suffice
MIN_SPEEDUP = 10.0
PLAN_FLUSH = 4_096       # cold-miss flush depth (one engine call) for the plan leg
PLAN_MICRO_BATCH = 64    # unfused leg micro-batch (the pre-plan default)
PLAN_REPEATS = 3         # best-of timing repeats per leg
PLAN_MIN_SPEEDUP = 2.0


def _setup():
    csr, features, labels = generate_scaling_graph(
        NUM_NODES,
        num_classes=NUM_CLASSES,
        average_degree=AVERAGE_DEGREE,
        num_features=NUM_FEATURES,
        seed=0,
    )
    # Serving throughput is independent of the weights; an untrained model
    # keeps the benchmark about the serving path, not a training budget.
    model = build_model(
        "gcn",
        in_features=NUM_FEATURES,
        num_classes=NUM_CLASSES,
        hidden_features=16,
        rng=0,
    )
    model.eval()
    return csr, features, model


def _naive_rps(model, features, csr) -> float:
    start = time.perf_counter()
    for node in range(NAIVE_REQUESTS):
        model.predict_logits(features, csr)[node]
    return NAIVE_REQUESTS / (time.perf_counter() - start)


def _served_metrics(model, features, csr) -> dict:
    session = GraphSession(csr, features)
    engine = InferenceEngine(model, session, ServeConfig(fanouts=FANOUTS))
    rng = np.random.default_rng(1)
    working_set = rng.choice(NUM_NODES, size=WORKING_SET, replace=False)

    cold_start = time.perf_counter()
    engine.predict_logits(working_set)  # prime: every request below can hit
    cold_seconds = time.perf_counter() - cold_start

    stream = rng.choice(working_set, size=WARM_REQUESTS, replace=True)
    latencies: List[float] = []
    warm_start = time.perf_counter()
    for node in stream:
        begin = time.perf_counter()
        engine.predict_logits(int(node))
        latencies.append(time.perf_counter() - begin)
    warm_seconds = time.perf_counter() - warm_start

    ordered = np.sort(latencies)
    stats = engine.cache_stats
    return {
        "warm_rps": WARM_REQUESTS / warm_seconds,
        "cold_rps": WORKING_SET / cold_seconds,
        "p50_ms": 1e3 * ordered[int(0.50 * (ordered.size - 1))],
        "p99_ms": 1e3 * ordered[int(0.99 * (ordered.size - 1))],
        "hit_rate": stats.hit_rate,
    }


def _reference_subsample_rows(sliced: CSRMatrix, fanout: int, rng) -> CSRMatrix:
    """The historical per-row ``rng.choice`` loop (kept for the comparison)."""
    counts = np.diff(sliced.indptr)
    keep_positions = []
    new_counts = np.minimum(counts, fanout)
    for row in range(sliced.shape[0]):
        start, stop = int(sliced.indptr[row]), int(sliced.indptr[row + 1])
        degree = stop - start
        if degree == 0:
            continue
        if degree <= fanout:
            keep_positions.append(np.arange(start, stop, dtype=np.int64))
        else:
            chosen = rng.choice(degree, size=fanout, replace=False)
            chosen.sort()
            keep_positions.append(start + chosen.astype(np.int64))
    if keep_positions:
        flat = np.concatenate(keep_positions)
        indices, data = sliced.indices[flat], sliced.data[flat]
    else:
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    indptr = np.zeros(sliced.shape[0] + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr[1:])
    return CSRMatrix(indptr, indices, data, sliced.shape)


def _sampler_comparison(csr) -> dict:
    rows = np.arange(csr.shape[0], dtype=np.int64)
    sliced = csr.slice_rows(rows)
    fanout = 5

    start = time.perf_counter()
    reference = _reference_subsample_rows(sliced, fanout, np.random.default_rng(0))
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorised = _subsample_rows(sliced, fanout, np.random.default_rng(0))
    vector_seconds = time.perf_counter() - start

    assert np.array_equal(
        np.diff(reference.indptr), np.diff(vectorised.indptr)
    ), "samplers must keep identical per-row counts"
    return {
        "loop_seconds": loop_seconds,
        "vector_seconds": vector_seconds,
        "speedup": loop_seconds / vector_seconds,
    }


def _flush_once(batcher: RequestBatcher, working: np.ndarray) -> tuple:
    """Submit every node of ``working`` and drain inline; returns (s, rows)."""
    futures = [batcher.submit(int(node)) for node in working]
    start = time.perf_counter()
    batcher.flush()
    elapsed = time.perf_counter() - start
    return elapsed, np.vstack([future.result() for future in futures])


def _plan_comparison(csr, features, model) -> dict:
    """Cold-miss fused-vs-unfused: one deep flush of distinct requests.

    Both legs serve the identical PLAN_FLUSH-node flush with the logit cache
    off, so every timed request is on the miss path.  The unfused leg is the
    pre-plan serving stack (module forwards over strict micro-batches); the
    fused leg answers the flush in one engine call and replays the cached
    plan.  The plan is recorded (and validated) by an untimed priming call —
    the counters assert the timed flushes replayed it, never re-recorded.
    """
    rng = np.random.default_rng(11)
    working = rng.choice(NUM_NODES, size=PLAN_FLUSH, replace=False)

    session = GraphSession(csr, features)
    unfused_engine = InferenceEngine(
        model, session, ServeConfig(fanouts=FANOUTS, cache=False, plan=False)
    )
    unfused_batcher = RequestBatcher(unfused_engine, max_batch_size=PLAN_MICRO_BATCH)
    unfused_seconds = None
    for _ in range(PLAN_REPEATS):
        elapsed, unfused_rows = _flush_once(unfused_batcher, working)
        unfused_seconds = elapsed if unfused_seconds is None else min(
            unfused_seconds, elapsed
        )

    plan_cache = PlanCache()
    fused_engine = InferenceEngine(
        model,
        GraphSession(csr, features),
        ServeConfig(fanouts=FANOUTS, cache=False),
        plan_cache=plan_cache,
    )
    fused_engine.predict_logits(working[:8])  # prime: record + validate once
    fused_batcher = RequestBatcher(fused_engine, max_batch_size=PLAN_FLUSH)
    fused_seconds = None
    for _ in range(PLAN_REPEATS):
        elapsed, fused_rows = _flush_once(fused_batcher, working)
        fused_seconds = elapsed if fused_seconds is None else min(
            fused_seconds, elapsed
        )

    np.testing.assert_allclose(fused_rows, unfused_rows, rtol=0.0, atol=1e-8)

    # Per-op dispatch accounting: a replay runs the plan's flat kernel list
    # once per flush; the unfused leg walks the module graph once per
    # micro-batch, dispatching the same kernel sequence each time.
    plan = record_plan(model)
    micro_batches = PLAN_FLUSH // PLAN_MICRO_BATCH
    stats = fused_engine.cache_stats
    return {
        "unfused_seconds": unfused_seconds,
        "fused_seconds": fused_seconds,
        "speedup": unfused_seconds / fused_seconds,
        "unfused_rps": PLAN_FLUSH / unfused_seconds,
        "fused_rps": PLAN_FLUSH / fused_seconds,
        "op_count": plan.op_count,
        "unfused_dispatches": micro_batches * plan.op_count,
        "fused_dispatches": plan.op_count,
        "unfused_spmm": micro_batches * plan.num_layers,
        "fused_spmm": plan.num_layers,
        "plans_recorded": stats.plans_recorded,
        "plan_replays": stats.plan_replays,
        "plan_fallbacks": stats.plan_fallbacks,
    }


def _report():
    csr, features, model = _setup()
    with use_backend("sparse"):
        naive_rps = _naive_rps(model, features, csr)
        served = _served_metrics(model, features, csr)
        plan = _plan_comparison(csr, features, model)
    sampling = _sampler_comparison(csr)
    return {"naive_rps": naive_rps, **served, "sampling": sampling, "plan": plan}


def test_serving_throughput(benchmark):
    metrics = run_once(benchmark, _report)
    print()
    print(
        f"naive full-graph: {metrics['naive_rps']:8.1f} req/s   "
        f"(one Θ(N+m) forward per request, N={NUM_NODES})"
    )
    print(
        f"served cold:      {metrics['cold_rps']:8.1f} req/s   "
        f"(miss: sampled ego-block forward, fanouts {FANOUTS})"
    )
    print(
        f"served warm:      {metrics['warm_rps']:8.1f} req/s   "
        f"(hit rate {metrics['hit_rate']:.2f}, "
        f"p50 {metrics['p50_ms']:.3f}ms, p99 {metrics['p99_ms']:.3f}ms)"
    )
    sampling = metrics["sampling"]
    print(
        f"fanout sampling:  loop {sampling['loop_seconds'] * 1e3:.1f}ms → "
        f"vectorised {sampling['vector_seconds'] * 1e3:.1f}ms "
        f"({sampling['speedup']:.1f}×)"
    )
    plan = metrics["plan"]
    print(
        f"cold-miss flush ({PLAN_FLUSH} requests): "
        f"unfused {plan['unfused_seconds'] * 1e3:.1f}ms "
        f"({plan['unfused_rps']:.0f} req/s) → "
        f"fused {plan['fused_seconds'] * 1e3:.1f}ms "
        f"({plan['fused_rps']:.0f} req/s)  {plan['speedup']:.2f}×"
    )
    print(
        f"  dispatches/flush: unfused {plan['unfused_dispatches']} "
        f"({plan['unfused_spmm']} spmm) → fused {plan['fused_dispatches']} "
        f"({plan['fused_spmm']} spmm, {plan['op_count']} plan ops); "
        f"plans recorded {plan['plans_recorded']}, "
        f"replays {plan['plan_replays']}, "
        f"fallbacks {plan['plan_fallbacks']}"
    )

    speedup = metrics["warm_rps"] / metrics["naive_rps"]
    assert speedup >= MIN_SPEEDUP, (
        f"warm-cache serving is only {speedup:.1f}× the naive baseline "
        f"(required ≥ {MIN_SPEEDUP}×)"
    )
    # The vectorised sampler must beat the python loop it replaced.
    assert sampling["speedup"] >= 2.0, (
        f"vectorised sampler speedup {sampling['speedup']:.1f}× < 2×"
    )
    # Fused plan replay must carry the cold-miss path (ISSUE 7), and the
    # counters must prove the timed flushes replayed one cached plan.
    assert plan["speedup"] >= PLAN_MIN_SPEEDUP, (
        f"fused cold-miss flush is only {plan['speedup']:.2f}× the unfused "
        f"path (required ≥ {PLAN_MIN_SPEEDUP}×)"
    )
    assert plan["plans_recorded"] == 1, "plan must be recorded exactly once"
    assert plan["plan_replays"] >= PLAN_REPEATS, "timed flushes must replay"
    assert plan["plan_fallbacks"] == 0, "no fused flush may fall back"
