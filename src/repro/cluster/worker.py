"""Shard worker: one full engine replica, driven by commands.

A :class:`ShardWorker` hosts its own :class:`~repro.serve.session.GraphSession`
and :class:`~repro.serve.engine.InferenceEngine` over the whole graph and
answers predictions for the nodes its shard owns.  The replica holds the
same structure and features as the router's global session, so the engine's
ego blocks, keyed sampling, logit cache and k-hop dirty sets behave
*identically* to a single-process engine's.

The worker runs in-process (tests, debugging) or as a child process behind a
command pipe (:class:`ProcessWorker`): the router sends ``(command, payload,
ctx)`` tuples — ``predict`` / ``mutate`` / ``stats`` / ``shutdown``, with the
sender's trace context or ``None`` — and each reply is ``("ok", value)`` or
``("error", message)``, plus the worker's recorded spans when traced.  Process workers load their
model parameters from the shared on-disk
:class:`~repro.serve.registry.ModelRegistry` rather than receiving a pickled
model, so every replica serves exactly the committed registry version.

Mutations arrive as :class:`ShardUpdate` payloads assembled by the router:
the mutation endpoints, their rows of the new structure and the feature rows
of appended nodes.  The worker splices the rows in with
:func:`repro.sparse.ops.splice_rows_csr` and commits through
:meth:`GraphSession.replace_structure`, which drives the normal
``MutationListener`` invalidation path — cross-shard staleness is therefore
impossible for the same reason single-process staleness is.
"""

from __future__ import annotations

import ctypes
import itertools
import multiprocessing
import multiprocessing.connection
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

import numpy as np

from repro.obs.metrics import active_metrics, next_instance
from repro.obs.profile import active_profiler
from repro.obs.trace import Telemetry, adopt, get_tracer, set_telemetry
from repro.obs.trace import span as obs_span
from repro.serve.engine import InferenceEngine, ServeConfig
from repro.serve.session import GraphSession
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import append_empty_node_csr, splice_rows_csr

__all__ = [
    "ClusterWorkerError",
    "SHARD_STATS_SCHEMA_VERSION",
    "ShardStatsSnapshot",
    "ShardUpdate",
    "WorkerInit",
    "ShardWorker",
    "InProcessWorker",
    "ProcessWorker",
]


class ClusterWorkerError(RuntimeError):
    """A shard worker rejected a command (re-raised router-side)."""


SHARD_STATS_SCHEMA_VERSION = 4
"""Bump on every field change of :class:`ShardStatsSnapshot`.  The router
validates the version of every snapshot it aggregates, so a worker running
an older schema (stale child re-used across a deploy, renamed counter) fails
loudly instead of silently contributing zeros to cluster totals.

v2 added the optional ``histograms`` (per-shard latency distributions as
``Histogram.state()`` dicts, merged router-side into cluster-wide p50/p99)
and ``profile`` (kernel-profiler aggregate table) sections; v3 dropped the two
segment-packing counters; v4 dropped the ghost-row count, since every shard
became a full replica."""

_OPTIONAL_SECTIONS = ("histograms", "profile")
"""Snapshot fields that are dicts-or-``None`` instead of int counters."""


@dataclass(frozen=True)
class ShardStatsSnapshot:
    """Typed wire-format of one shard's counters.

    Replaces the former untyped dict: a missing or renamed counter now
    raises (``__getitem__``/attribute access) rather than vanishing into a
    ``.get(key, 0)`` sum.  Dict-style access is kept because callers (CLI,
    tests) index snapshots by key.  Pickle bypasses ``__post_init__``, so
    the schema check lives in :meth:`validate`, called router-side.
    """

    schema: int
    shard_id: int
    owned: int
    requests: int
    version: int
    hits: int
    misses: int
    invalidated: int
    cache_size: int
    plans_recorded: int
    plan_replays: int
    plan_fallbacks: int
    histograms: Optional[dict] = None
    profile: Optional[dict] = None

    def __getitem__(self, key: str):
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(
                f"unknown shard stats field {key!r} "
                f"(schema v{self.schema}; known: "
                f"{', '.join(f.name for f in fields(self))})"
            ) from None

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and any(
            f.name == key for f in fields(self)
        )

    def validate(self) -> "ShardStatsSnapshot":
        """Schema/type check (router-side, after the pipe round trip)."""
        if self.schema != SHARD_STATS_SCHEMA_VERSION:
            raise ClusterWorkerError(
                f"shard stats schema mismatch: worker sent "
                f"v{self.schema}, router expects "
                f"v{SHARD_STATS_SCHEMA_VERSION}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _OPTIONAL_SECTIONS:
                if value is not None and not isinstance(value, dict):
                    raise ClusterWorkerError(
                        f"shard stats section {f.name!r} must be a dict "
                        f"or None: {value!r}"
                    )
                continue
            if not isinstance(value, int):
                raise ClusterWorkerError(
                    f"shard stats field {f.name!r} is not an int: "
                    f"{value!r}"
                )
        return self


@dataclass
class ShardUpdate:
    """One mutation's payload for one shard.

    ``endpoints`` (sorted, unique) are the only rows a mutation changes;
    ``rows_csr`` holds their content in the new structure, one row per
    endpoint.  ``features`` are the feature rows of nodes appended past the
    replica's current size, and ``own_node`` transfers ownership of a freshly
    appended node to this shard.  Every shard receives every update, so each
    replica's deterministic sampling key stays equal to the global session's.
    """

    num_nodes: int
    version: int
    endpoints: np.ndarray
    rows_csr: CSRMatrix
    features: np.ndarray
    own_node: Optional[int] = None


@dataclass
class WorkerInit:
    """Everything a worker (process) needs to build its replica.

    ``owned`` are the nodes this shard answers for; ``csr`` and ``features``
    are the whole graph.  Exactly one of ``model`` (in-process / pre-built
    instance) or ``registry_root``+``model_name`` (load from the shared
    registry) must be provided.  ``backend`` pins the compute-backend
    contextvar inside the child process, which does not inherit the parent's
    context.
    """

    shard_id: int
    owned: np.ndarray
    csr: CSRMatrix
    features: np.ndarray
    config: ServeConfig = field(default_factory=ServeConfig)
    backend: Optional[str] = None
    model: Optional[object] = None
    registry_root: Optional[str] = None
    model_name: Optional[str] = None
    model_version: Optional[int] = None
    base_version: int = 0
    """The primary session's mutation counter at router construction: replica
    sessions start from it so sampling keys (and the router's drift check)
    stay aligned even when the global session had pre-router history."""
    telemetry: Telemetry = Telemetry()
    """Captured from :func:`repro.obs.trace.telemetry` at router
    construction: a child process does not inherit the parent's contextvars,
    so the state travels with the init payload."""


def _load_model(init: WorkerInit):
    if init.model is not None:
        return init.model
    if init.registry_root is None or init.model_name is None:
        raise ValueError(
            "WorkerInit needs either a model instance or a registry reference"
        )
    from repro.serve.registry import ModelRegistry

    model, _ = ModelRegistry(init.registry_root).load(
        init.model_name, version=init.model_version
    )
    return model


class ShardWorker:
    """The in-process core: session + engine replica of the whole graph."""

    def __init__(self, init: WorkerInit) -> None:
        self.shard_id = init.shard_id
        self._owned_mask = np.zeros(init.csr.shape[0], dtype=bool)
        self._owned_mask[init.owned] = True
        self.model = _load_model(init)
        self.session = GraphSession(
            init.csr, init.features, initial_version=init.base_version
        )
        self.engine = InferenceEngine(self.model, self.session, init.config)
        instance = next_instance()
        self._requests = active_metrics().counter(
            "cluster.shard.requests",
            component="shard_worker",
            shard=self.shard_id,
            instance=instance,
        )
        self._compute = active_metrics().histogram(
            "worker.compute",
            component="shard_worker",
            shard=self.shard_id,
            instance=instance,
        )

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #
    def predict_logits(self, nodes: np.ndarray) -> np.ndarray:
        """Logit rows for owned ``nodes`` (router-routed; ownership checked)."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.size and not self._owned_mask[nodes].all():
            stray = nodes[~self._owned_mask[nodes]]
            raise ClusterWorkerError(
                f"shard {self.shard_id} does not own nodes {stray[:8].tolist()}"
            )
        self._requests.inc(int(nodes.size))
        t0 = time.perf_counter()
        try:
            return self.engine.predict_logits(nodes)
        finally:
            self._compute.observe(time.perf_counter() - t0)

    def apply(self, update: ShardUpdate) -> int:
        """Install one mutation's payload; returns the new session version."""
        session = self.session
        csr = session.csr
        grown = update.num_nodes - csr.shape[0]
        if grown < 0:
            raise ClusterWorkerError("shard structure cannot shrink")
        features = None
        if grown:
            for _ in range(grown):
                csr = append_empty_node_csr(csr)
            features = np.vstack([session.features, update.features])
            self._owned_mask = np.concatenate(
                [self._owned_mask, np.zeros(grown, dtype=bool)]
            )
        if update.own_node is not None:
            self._owned_mask[update.own_node] = True
        session.replace_structure(
            splice_rows_csr(csr, update.endpoints, update.rows_csr),
            endpoints=update.endpoints,
            features=features,
        )
        if session.version != update.version:
            raise ClusterWorkerError(
                f"shard {self.shard_id} version drifted: "
                f"{session.version} != {update.version}"
            )
        return session.version

    def stats(self) -> ShardStatsSnapshot:
        """Cache + throughput + fused-plan counters of this replica.

        The v2 optional sections ride along: the worker's compute-latency
        distribution (always — the histogram is always observed) and, when
        profiling is on, the kernel-profiler aggregate table and memory
        high-water marks, so the router can assemble cluster-wide views.
        """
        cache = self.engine.cache_stats
        profiler = active_profiler()
        profile_section = None
        if profiler is not None:
            table = profiler.table()
            if table or profiler.memory_marks():
                profile_section = {
                    "ops": table,
                    "memory": profiler.memory_marks(),
                }
        return ShardStatsSnapshot(
            schema=SHARD_STATS_SCHEMA_VERSION,
            shard_id=self.shard_id,
            owned=int(np.count_nonzero(self._owned_mask)),
            requests=self._requests.value,
            version=self.session.version,
            hits=0 if cache is None else cache.hits,
            misses=0 if cache is None else cache.misses,
            invalidated=0 if cache is None else cache.invalidated,
            cache_size=0 if cache is None else cache.size,
            plans_recorded=0 if cache is None else cache.plans_recorded,
            plan_replays=0 if cache is None else cache.plan_replays,
            plan_fallbacks=0 if cache is None else cache.plan_fallbacks,
            histograms={"worker.compute": self._compute.state()},
            profile=profile_section,
        )

    def handle(self, command: str, payload) -> object:
        """Dispatch one protocol command (shared by both worker frontends)."""
        if command == "predict":
            return self.predict_logits(payload)
        if command == "mutate":
            return self.apply(payload)
        if command == "stats":
            return self.stats()
        raise ClusterWorkerError(f"unknown command {command!r}")


def _handle(worker: ShardWorker, command: str, payload, ctx) -> Tuple[str, object]:
    """Run one command under the sender's trace context (both frontends).

    Returns the protocol reply ``("ok", value)`` or ``("error", message)``.
    """
    received_at = time.time()
    try:
        with adopt(ctx):
            with obs_span("worker.handle") as handle_span:
                handle_span.set(command=command, shard=worker.shard_id)
                if ctx is not None:
                    handle_span.set(ipc_wait_s=round(received_at - ctx.sent_at, 6))
                return ("ok", worker.handle(command, payload))
    except Exception as error:  # noqa: BLE001 - mirrored to the protocol
        return ("error", f"{type(error).__name__}: {error}")


class InProcessWorker:
    """Pipe-free worker frontend: same protocol, same thread (tests/CLI)."""

    def __init__(self, init: WorkerInit) -> None:
        self._worker = ShardWorker(init)
        self._pending: Optional[Tuple[str, object]] = None

    def send(self, command: str, payload=None, ctx=None) -> None:
        if command == "shutdown":
            self._pending = ("ok", None)
            return
        self._pending = _handle(self._worker, command, payload, ctx)

    def recv(self):
        status, value = self._pending
        self._pending = None
        if status == "error":
            raise ClusterWorkerError(value)
        return value

    def request(self, command: str, payload=None, ctx=None):
        self.send(command, payload, ctx)
        return self.recv()

    def close(self) -> None:
        self._pending = None


def _single_thread_blas() -> None:
    """Give every OpenBLAS loaded in this process one thread (Linux only).

    Shard workers are sibling processes on shared cores that the router
    already runs in parallel.  A forked worker keeps its parent's BLAS
    thread count, and idle OpenBLAS threads spin, so per-worker pools starve
    the sibling shards.  NumPy and SciPy wheels each bundle an OpenBLAS whose
    symbols may carry a ``scipy_`` prefix and a ``64_`` suffix.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(None, 5)[-1].strip() for line in maps if "openblas" in line
            }
    except OSError:
        return
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            setter = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _worker_main(
    conn: multiprocessing.connection.Connection, init: WorkerInit
) -> None:
    """Child-process entry: build the replica, serve the command pipe."""
    from repro.sparse.backend import use_backend

    _single_thread_blas()
    set_telemetry(spans=init.telemetry.spans, kernels=init.telemetry.kernels)
    scope = use_backend(init.backend) if init.backend else nullcontext()
    with scope:
        try:
            worker = ShardWorker(init)
        except Exception as error:  # noqa: BLE001 - surfaced to the router
            conn.send(("error", f"{type(error).__name__}: {error}"))
            return
        conn.send(("ok", worker.shard_id))
        tracer = get_tracer()
        tracer.drain()  # discard construction-time spans (no parent request)
        while True:
            try:
                command, payload, ctx = conn.recv()
            except (EOFError, OSError):
                return
            if command == "shutdown":
                conn.send(("ok", None))
                return
            reply = _handle(worker, command, payload, ctx)
            # Ship the spans recorded while handling (child processes have
            # no other path back to the parent's trace store).
            shipped = tracer.drain() if ctx is not None else []
            conn.send(reply + (shipped,) if shipped else reply)


class ProcessWorker:
    """Worker frontend over a child process and a duplex command pipe."""

    def __init__(self, init: WorkerInit, start_method: Optional[str] = None) -> None:
        context = multiprocessing.get_context(start_method)
        self._conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child, init), daemon=True
        )
        self.process.start()
        child.close()
        # Handshake: surfaces construction failures (bad registry ref, …)
        # at spawn time instead of on the first predict.
        status, value = self._conn.recv()
        if status == "error":
            self.close()
            raise ClusterWorkerError(value)

    def send(self, command: str, payload=None, ctx=None) -> None:
        self._conn.send((command, payload, ctx))

    def recv(self):
        reply = self._conn.recv()
        if len(reply) == 3:
            # Spans recorded in the child while handling this command:
            # stitch them into the router-process trace store.
            get_tracer().ingest(reply[2])
        status, value = reply[0], reply[1]
        if status == "error":
            raise ClusterWorkerError(value)
        return value

    def request(self, command: str, payload=None, ctx=None):
        self.send(command, payload, ctx)
        return self.recv()

    def close(self) -> None:
        if self.process.is_alive():
            try:
                self._conn.send(("shutdown", None, None))
                self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive teardown
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._conn.close()
