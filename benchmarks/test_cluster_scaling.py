"""Cluster benchmark: cold-miss serving throughput, 4 shards vs 1 process.

The single-process engine computes every cache miss under one GIL; the shard
router fans a request batch out to worker *processes* that compute their
misses concurrently.  This benchmark drives an all-miss (cold) request
stream — each node asked exactly once, so caching never helps — over a
20k-node SBM graph and compares requests/sec:

* single process — one ``InferenceEngine`` answering batches directly;
* cluster — a 4-shard ``ShardRouter`` over child-process workers, same
  batches, same sampled fanouts.

The speedup depends on the cores available and on how much per-request
compute there is to parallelise against the fixed routing/IPC cost, so this
test asserts only what holds on every host: a whole batch of cluster
answers equals a fresh single-process engine's to 1e-8, and the cluster
stays within a sane overhead factor (≥ 0.25×) of the single process.  The
measured numbers are printed; the cluster/single throughput ratio is
tracked by the ``cluster_cold`` and ``serve_cold`` perfbench workloads.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import run_once
from repro.cluster import ShardRouter
from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.serve.engine import InferenceEngine, ServeConfig
from repro.serve.session import GraphSession
from repro.sparse.backend import use_backend

NUM_NODES = 20_000
NUM_FEATURES = 16
NUM_CLASSES = 4
AVERAGE_DEGREE = 10.0
FANOUTS = (10, 10)
NUM_SHARDS = 4
REQUESTS = 4_096
BATCH = 256


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _setup():
    csr, features, labels = generate_scaling_graph(
        NUM_NODES,
        num_classes=NUM_CLASSES,
        average_degree=AVERAGE_DEGREE,
        num_features=NUM_FEATURES,
        seed=0,
    )
    model = build_model(
        "gcn",
        in_features=NUM_FEATURES,
        num_classes=NUM_CLASSES,
        hidden_features=16,
        rng=0,
    )
    model.eval()
    rng = np.random.default_rng(1)
    stream = rng.choice(NUM_NODES, size=REQUESTS, replace=False)
    batches = [stream[start : start + BATCH] for start in range(0, REQUESTS, BATCH)]
    return csr, features, model, batches


def _single_process_rps(model, csr, features, batches) -> float:
    session = GraphSession(csr, features)
    engine = InferenceEngine(model, session, ServeConfig(fanouts=FANOUTS))
    start = time.perf_counter()
    for batch in batches:
        engine.predict_logits(batch)
    return REQUESTS / (time.perf_counter() - start)


def _cluster_metrics(model, csr, features, batches) -> dict:
    session = GraphSession(csr, features)
    spawn_start = time.perf_counter()
    router = ShardRouter(
        model,
        session,
        num_shards=NUM_SHARDS,
        strategy="hash",
        config=ServeConfig(fanouts=FANOUTS),
        workers="process",
    )
    spawn_seconds = time.perf_counter() - spawn_start
    with router:
        router.predict_logits(batches[0][:8])  # handshake warm-up
        start = time.perf_counter()
        answers = [router.predict_logits(batch) for batch in batches]
        elapsed = time.perf_counter() - start
        stats = router.stats()
        owned_sizes = np.bincount(router.owners, minlength=NUM_SHARDS).tolist()
    # correctness: a whole timed batch of cluster answers equals a fresh engine's
    reference = InferenceEngine(
        model, GraphSession(csr, features), ServeConfig(fanouts=FANOUTS)
    )
    np.testing.assert_allclose(
        answers[-1],
        reference.predict_logits(batches[-1]),
        rtol=0,
        atol=1e-8,
        err_msg="sharded answers diverged from the single-process engine",
    )
    return {
        "rps": REQUESTS / elapsed,
        "spawn_seconds": spawn_seconds,
        "owned_sizes": owned_sizes,
        "per_shard_requests": [s["requests"] for s in stats.shards],
    }


def _report():
    csr, features, model, batches = _setup()
    with use_backend("sparse"):
        single_rps = _single_process_rps(model, csr, features, batches)
        cluster = _cluster_metrics(model, csr, features, batches)
    return {"single_rps": single_rps, **cluster}


def test_cluster_cold_miss_scaling(benchmark):
    cores = _effective_cores()
    metrics = run_once(benchmark, _report)
    speedup = metrics["rps"] / metrics["single_rps"]
    print()
    print(
        f"single process:  {metrics['single_rps']:8.1f} req/s   "
        f"(all-miss sampled serving, fanouts {FANOUTS}, N={NUM_NODES})"
    )
    print(
        f"cluster x{NUM_SHARDS}:      {metrics['rps']:8.1f} req/s   "
        f"({speedup:.2f}x, spawn {metrics['spawn_seconds']:.2f}s, "
        f"{cores} core(s) available)"
    )
    print(
        f"ownership:       owned sizes {metrics['owned_sizes']}, "
        f"shard requests {metrics['per_shard_requests']}"
    )
    assert speedup >= 0.25, f"cluster overhead factor {speedup:.2f}x is pathological"
