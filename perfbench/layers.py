"""The traced run: spans around calls into each layer's public functions.

Spans are recorded from the benchmark's own files by replacing a function
with a timing wrapper *where its caller looks it up*: a class attribute for
methods, and the importing module's global for functions bound by
``from ... import`` (``repro.serve.engine.pack_blocks``, not
``repro.gnn.plan.pack_blocks``, which the engine never reads again).

Each span records its name, start, end, parent span (the innermost open span
of the same thread) and an optional per-call measurement.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its children; children never overlap, because they run on
their parent's thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from measure import percentile

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # serve.batching: should move latency_p50_ms on serve_mixed and
    # throughput_rps on serve_cold.
    ("batching.submit_ms", "ms", "lower"),
    ("batching.flush_ms", "ms", "lower"),
    ("batching.engine_calls", "count", "lower"),
    ("batching.batch_size_mean", "count", "higher"),
    ("batching.queue_wait_p50_ms", "ms", "lower"),
    ("batching.queue_wait_p99_ms", "ms", "lower"),
    # gnn.sampling: throughput_rps and latency_p50_ms on serve_cold and
    # cluster_cold; little on serve_mixed, nothing on paper_table4.
    ("sampler.ego_blocks_ms", "ms", "lower"),
    ("sampler.calls", "count", "lower"),
    ("sampler.nodes_per_call", "count", "higher"),
    ("sampler.src_per_dst", "ratio", "lower"),
    ("sampler.edges", "count", "lower"),
    ("sampler.with_mutation_ms", "ms", "lower"),
    # gnn.plan: serve_cold; nothing on paper_table4.
    ("plan.pack_ms", "ms", "lower"),
    ("plan.replay_ms", "ms", "lower"),
    ("plan.replays", "count", "higher"),
    ("plan.fallbacks", "count", "lower"),
    ("plan.recorded", "count", "lower"),
    ("model.forward_blocks_ms", "ms", "lower"),
    # serve.engine and its logit cache: write_tail_ms and latency_tail_ms on
    # serve_mixed; nothing on serve_cold.
    ("engine.predict_self_ms", "ms", "lower"),
    ("cache.lookup_ms", "ms", "lower"),
    ("cache.store_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.requests", "count", "higher"),
    ("cache.invalidate_ms", "ms", "lower"),
    ("cache.invalidated", "count", "lower"),
    # serve.session and graphs.khop: the writes of every serving workload.
    ("session.mutate_ms", "ms", "lower"),
    ("session.mutations", "count", "higher"),
    ("khop.frontier_ms", "ms", "lower"),
    ("khop.dirty_nodes_mean", "count", "lower"),
    # cluster: throughput_rps and write_p50_ms on cluster_cold.
    ("router.predict_ms", "ms", "lower"),
    ("router.shards_per_call", "count", "lower"),
    ("ipc.send_ms", "ms", "lower"),
    ("ipc.recv_wait_ms", "ms", "lower"),
    ("worker.compute_p50_ms", "ms", "lower"),
    ("worker.compute_ms", "ms", "lower"),
    # gnn.trainer and nn.autodiff: wall_s on paper_table4 only.
    ("trainer.fit_s", "s", "lower"),
    ("trainer.fine_tune_s", "s", "lower"),
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.backward_calls", "count", "lower"),
    # influence and optimization.qclp: wall_s.
    ("influence.bias_s", "s", "lower"),
    ("influence.utility_s", "s", "lower"),
    ("qclp.solve_s", "s", "lower"),
    # core.perturbation, privacy and fairness.inform: wall_s.
    ("perturb.s", "s", "lower"),
    ("dp.s", "s", "lower"),
    ("evaluate.s", "s", "lower"),
    ("attack.s", "s", "lower"),
    ("similarity.s", "s", "lower"),
    # The trace itself.
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)
"""Every per-layer metric: name, unit and which direction is better."""

Span = Tuple[int, str, float, float, int, object]
"""``(id, name, start, end, parent id or -1, per-call measurement)``."""


class Tracer:
    """Records spans around wrapped functions until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        info: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``info(args, result)`` runs after the call, outside the span, to
        measure the call's work.
        """
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, name, start, perf_counter(), parent, None))
                raise
            end = perf_counter()
            stack.pop()
            measured = None if info is None else info(args, result)
            spans.append((span_id, name, start, end, parent, measured))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a ``name`` span around the benchmark's own block of calls."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, None))


def _sampled(args, blocks) -> Tuple[int, int, int]:
    return (
        int(np.size(args[1])),
        int(blocks[0].num_src),
        sum(int(block.adjacency.nnz) for block in blocks),
    )


def serving_targets() -> List[tuple]:
    """``(owner, attr, span name, info)`` for the serving layers.

    ``RequestBatcher.submit`` runs once per request; the closed loops record
    one ``batching.submit`` span around each burst of submissions instead.
    """
    from repro.cluster import router, worker
    from repro.gnn import models, plan, sampling
    from repro.serve import batching, engine, session

    batch_size = lambda args, result: int(np.size(args[1]))  # noqa: E731
    return [
        (batching.RequestBatcher, "flush", "batching.flush", None),
        (engine.InferenceEngine, "predict_proba", "engine.predict_proba", batch_size),
        (engine.InferenceEngine, "predict_logits", "engine.predict_logits", None),
        (engine.LogitCache, "lookup", "cache.lookup", None),
        (engine.LogitCache, "store", "cache.store", None),
        (engine.LogitCache, "invalidate", "cache.invalidate", batch_size),
        (engine, "pack_blocks", "plan.pack", None),
        (engine, "khop_frontier", "khop.frontier", None),
        (plan.InferencePlan, "replay", "plan.replay", None),
        (sampling.NeighborSampler, "ego_blocks", "sampler.ego_blocks", _sampled),
        (sampling.NeighborSampler, "with_mutation", "sampler.with_mutation", None),
        (models.GNNModel, "predict_logits_blocks", "model.forward_blocks", None),
        (session.GraphSession, "add_edges", "session.add_edges", None),
        (router.ShardRouter, "predict_proba", "router.predict_proba", batch_size),
        (router.ShardRouter, "predict_logits", "router.predict_logits", None),
        (router, "khop_frontier", "khop.frontier", None),
        (worker.ProcessWorker, "send", "ipc.send", lambda args, result: int(args[1] == "predict")),
        (worker.ProcessWorker, "recv", "ipc.recv", None),
    ]


def write_targets() -> List[tuple]:
    """The paper pipeline's structure perturbations, at their call sites."""
    from repro.core import baselines, ppfr

    return [
        (ppfr, "privacy_aware_perturbation", "perturb.pp", None),
        (baselines, "edge_rand", "dp.edge_rand", None),
        (baselines, "lap_graph", "dp.lap_graph", None),
    ]


def pipeline_targets() -> List[tuple]:
    """Training, influence, reweighting, perturbation and evaluation."""
    from repro.core import pipeline
    from repro.fairness import reweighting
    from repro.gnn import trainer
    from repro.influence import functions
    from repro.nn import tensor
    from repro.privacy.attacks import link_stealing

    return write_targets() + [
        (trainer.Trainer, "fit", "trainer.fit", None),
        (trainer.Trainer, "fine_tune", "trainer.fine_tune", None),
        (tensor.Tensor, "backward", "autodiff.backward", None),
        (functions.InfluenceEstimator, "bias_influence", "influence.bias", None),
        (functions.InfluenceEstimator, "utility_influence", "influence.utility", None),
        (reweighting, "solve_qclp", "qclp.solve", None),
        (pipeline, "evaluate_method", "evaluate", None),
        (pipeline, "graph_similarity", "similarity", None),
        (link_stealing.LinkStealingAttack, "evaluate_posteriors", "attack", None),
    ]


def install(tracer: Tracer, targets: Sequence[tuple]) -> None:
    for owner, attr, name, info in targets:
        tracer.wrap(owner, attr, name, info=info)


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Counter, Dict[str, list]]:
    """Self seconds and call counts per span name, and per-call measurements.

    A ``Trainer.fit`` called by ``Trainer.fine_tune`` counts as fine-tuning.
    """
    names = {span[0]: span[1] for span in spans}
    children: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    infos: Dict[str, list] = defaultdict(list)
    for span_id, name, start, end, parent, measured in spans:
        key = name
        if name == "trainer.fit" and names.get(parent) == "trainer.fine_tune":
            key = "trainer.fine_tune"
        seconds[key] += end - start - children[span_id]
        calls[name] += 1
        if measured is not None:
            infos[name].append(measured)
    return seconds, calls, infos


def layer_metrics(
    spans: Sequence[Span],
    busy_s: float,
    stats: Dict[str, float],
    waits_ms: Sequence[float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric but ``trace.overhead_pct``.

    ``busy_s`` is the time the run's threads spent working (wall time minus
    the load generators' sleeps and the drain thread's idle waits); the
    spans' self times should cover at least 90% of it.  ``stats`` carries
    the counters read from the program's public statistics.
    """
    seconds, calls, infos = self_times(spans)
    ms = lambda *names: 1e3 * sum(seconds[name] for name in names)  # noqa: E731
    mean = lambda values: float(np.mean(values)) if len(values) else 0.0  # noqa: E731

    front = infos["engine.predict_proba"] + infos["router.predict_proba"]
    sampled = np.asarray(infos["sampler.ego_blocks"], dtype=np.float64).reshape(-1, 3)
    dst, src, edges = sampled.sum(axis=0)
    predict_sends = sum(infos["ipc.send"])
    lookups = stats["cache_hits"] + stats["cache_misses"]
    metrics = {
        "batching.submit_ms": ms("batching.submit"),
        "batching.flush_ms": ms("batching.flush"),
        "batching.engine_calls": len(front),
        "batching.batch_size_mean": mean(front),
        "batching.queue_wait_p50_ms": percentile(waits_ms, 0.5) if len(waits_ms) else 0.0,
        "batching.queue_wait_p99_ms": percentile(waits_ms, 0.99) if len(waits_ms) else 0.0,
        "sampler.ego_blocks_ms": ms("sampler.ego_blocks"),
        "sampler.calls": calls["sampler.ego_blocks"],
        "sampler.nodes_per_call": dst / len(sampled) if len(sampled) else 0.0,
        "sampler.src_per_dst": src / dst if dst else 0.0,
        "sampler.edges": edges,
        "sampler.with_mutation_ms": ms("sampler.with_mutation"),
        "plan.pack_ms": ms("plan.pack"),
        "plan.replay_ms": ms("plan.replay"),
        "plan.replays": stats["plan_replays"],
        "plan.fallbacks": stats["plan_fallbacks"],
        "plan.recorded": stats["plans_recorded"],
        "model.forward_blocks_ms": ms("model.forward_blocks"),
        "engine.predict_self_ms": ms("engine.predict_logits", "engine.predict_proba"),
        "cache.lookup_ms": ms("cache.lookup"),
        "cache.store_ms": ms("cache.store"),
        "cache.hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
        "cache.requests": lookups,
        "cache.invalidate_ms": ms("cache.invalidate"),
        "cache.invalidated": stats["cache_invalidated"],
        "session.mutate_ms": ms("session.add_edges"),
        "session.mutations": calls["session.add_edges"],
        "khop.frontier_ms": ms("khop.frontier"),
        "khop.dirty_nodes_mean": mean(infos["cache.invalidate"]),
        "router.predict_ms": ms("router.predict_logits", "router.predict_proba"),
        "router.shards_per_call": (
            predict_sends / calls["router.predict_logits"]
            if calls["router.predict_logits"]
            else 0.0
        ),
        "ipc.send_ms": ms("ipc.send"),
        "ipc.recv_wait_ms": ms("ipc.recv"),
        "worker.compute_p50_ms": stats["worker_compute_p50_ms"],
        "worker.compute_ms": stats["worker_compute_ms"],
        "trainer.fit_s": seconds["trainer.fit"],
        "trainer.fine_tune_s": seconds["trainer.fine_tune"],
        "autodiff.backward_s": seconds["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "influence.bias_s": seconds["influence.bias"],
        "influence.utility_s": seconds["influence.utility"],
        "qclp.solve_s": seconds["qclp.solve"],
        "perturb.s": seconds["perturb.pp"],
        "dp.s": seconds["dp.edge_rand"] + seconds["dp.lap_graph"],
        "evaluate.s": seconds["evaluate"],
        "attack.s": seconds["attack"],
        "similarity.s": seconds["similarity"],
        "trace.coverage": sum(seconds.values()) / busy_s if busy_s > 0 else 0.0,
    }
    return {name: float(value) for name, value in metrics.items()}
