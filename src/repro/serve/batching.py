"""Request batching: coalesce queued predictions into shared block stacks.

A read-heavy serving workload arrives one node at a time, but the inference
engine's cost is dominated by per-call overhead (block extraction + one
forward): answering K queued requests as a single batch shares one
sampled block stack across all of them.  :class:`RequestBatcher` provides
that coalescing:

* :meth:`submit` enqueues a request and returns a
  :class:`concurrent.futures.Future`;
* a drain loop (inline :meth:`flush`, or the background thread started by
  :meth:`start`) pops up to ``max_batch_size`` queued requests, answers them
  with **one** engine call, and resolves their futures;
* duplicate nodes inside a batch are computed once (the engine deduplicates
  and the cache serves repeats).

Because engine results are pure functions of ``(node, session version,
engine seed)`` — exhaustive *and* keyed-sampled modes alike — the responses
are independent of how requests happen to be coalesced: any number of
submitting threads, any drain interleaving, same answers.  The batcher
determinism test drives exactly that scenario.

Telemetry: every :meth:`submit` opens a root ``request`` trace whose
``batcher.queue`` child measures queue wait.  Coalesced batches run the
shared engine call under the *first* request's trace (the leader); the other
roots carry a ``coalesced_into`` attribute pointing at the leader's trace
id.  Queue-wait and end-to-end latency also feed registry histograms when
tracing is on.  All of this is inert when telemetry is disabled.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import active_metrics, next_instance
from repro.obs.trace import NULL_SPAN, get_tracer
from repro.obs.trace import span as obs_span
from repro.obs.trace import start_trace
from repro.serve.engine import InferenceEngine

__all__ = ["BatcherStats", "RequestBatcher"]


@dataclass(frozen=True)
class BatcherStats:
    """Throughput bookkeeping of a :class:`RequestBatcher`.

    A thin frozen view over the batcher's registry counters
    (:mod:`repro.obs.metrics`).  ``largest_batch`` is the biggest single
    pop observed.
    """

    requests: int
    batches: int
    largest_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


# Queue entry: (node, future, submit perf-counter, root span, queue span).
_Entry = Tuple[int, Future, float, object, object]


class RequestBatcher:
    """Coalesces prediction requests into batches over one engine.

    ``max_batch_size`` is the most requests one engine call answers: a deep
    queue drains in pops of up to that many, and the engine samples each
    pop's misses in one ego-block call and runs one forward (plan replay)
    over them.
    """

    def __init__(self, engine: InferenceEngine, max_batch_size: int = 512) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.engine = engine
        self.max_batch_size = int(max_batch_size)
        self._queue: "Deque[_Entry]" = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Event()
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None
        metrics = active_metrics()
        labels = {"component": "batcher", "instance": next_instance()}
        self._requests = metrics.counter("serve.batcher.requests", **labels)
        self._batches = metrics.counter("serve.batcher.batches", **labels)
        self._largest_batch = metrics.gauge("serve.batcher.largest_batch", **labels)
        # Latency distributions only fill while tracing is enabled — the
        # disabled serving leg stays within its ≤2% overhead budget.
        self._queue_wait = metrics.histogram("serve.batcher.queue_wait", **labels)
        self._latency = metrics.histogram("serve.request.latency", **labels)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, node: int) -> Future:
        """Enqueue a prediction request; resolves to the node's proba row.

        The node index is validated here so one bad request fails alone
        instead of poisoning every other request coalesced into its batch.
        """
        node = int(node)
        future: Future = Future()
        if not 0 <= node < self.engine.session.num_nodes:
            future.set_exception(
                ValueError(f"node index {node} out of bounds")
            )
            return future
        root = start_trace("request")
        queue_span = NULL_SPAN
        if root is not NULL_SPAN:
            root.set(node=node)
            queue_span = get_tracer().span("batcher.queue", parent=root)
        with self._lock:
            self._queue.append(
                (node, future, time.perf_counter(), root, queue_span)
            )
            self._requests.inc()
        self._wakeup.set()
        return future

    def predict(self, node: int, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`.

        Requires a running background drain loop (:meth:`start`) — calling it
        without one deadlocks by construction.
        """
        return self.submit(node).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Draining
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Drain the queue inline; returns the number of answered requests."""
        answered = 0
        while True:
            batch = self._pop_batch()
            if not batch:
                return answered
            self._answer(batch)
            answered += len(batch)

    def start(self) -> "RequestBatcher":
        """Run the drain loop on a daemon thread (idempotent)."""
        with self._lock:
            if self._worker is not None:
                return self
            self._stop.clear()
            self._worker = threading.Thread(target=self._drain_loop, daemon=True)
        self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the background loop after draining outstanding requests."""
        with self._lock:
            worker = self._worker
            self._worker = None
        if worker is None:
            return
        self._stop.set()
        self._wakeup.set()
        worker.join()
        self.flush()

    @property
    def stats(self) -> BatcherStats:
        return BatcherStats(
            requests=self._requests.value,
            batches=self._batches.value,
            largest_batch=int(self._largest_batch.value),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _pop_batch(self) -> List[_Entry]:
        with self._lock:
            if not self._queue:
                return []
            batch = [
                self._queue.popleft()
                for _ in range(min(self.max_batch_size, len(self._queue)))
            ]
            self._batches.inc()
            if len(batch) > self._largest_batch.value:
                self._largest_batch.set(len(batch))
        # Queue-wait spans close at pop: request left the queue here.  The
        # engine call that follows runs under the leader's trace.
        if batch[0][4] is not NULL_SPAN:
            now = time.perf_counter()
            for _, _, t_submit, _, queue_span in batch:
                queue_span.finish()
                self._queue_wait.observe(now - t_submit)
        return batch

    def _answer(self, batch: List[_Entry]) -> None:
        nodes = np.asarray([entry[0] for entry in batch], dtype=np.int64)
        leader = batch[0][3]
        try:
            if leader is not NULL_SPAN:
                for _, _, _, root, _ in batch[1:]:
                    root.set(coalesced_into=leader.trace_id)
                with leader.active():
                    with obs_span("batcher.engine_call") as call_span:
                        call_span.set(batch=len(batch))
                        rows = self.engine.predict_proba(nodes)
            else:
                rows = self.engine.predict_proba(nodes)
        except Exception as error:  # pragma: no cover - propagated to callers
            for _, future, _, root, _ in batch:
                future.set_exception(error)
                if root is not NULL_SPAN:
                    root.set(error=type(error).__name__)
                    root.finish()
            return
        for (_, future, _, _, _), row in zip(batch, rows):
            future.set_result(row)
        if leader is not NULL_SPAN:
            done = time.perf_counter()
            for _, _, t_submit, root, _ in batch:
                root.finish()
                self._latency.observe(done - t_submit)

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            self._wakeup.wait(timeout=0.05)
            self._wakeup.clear()
            self.flush()
        self.flush()
