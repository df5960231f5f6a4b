"""The telemetry core: one on/off state and one event record.

One serving request touches many layers — batcher queue, engine cache,
fused-plan replay, router fan-out, worker processes, the kernels they
dispatch — and a slow p99 is useless without knowing *which* stage on
*which* shard ate the time.  This module is what those layers share:

* :class:`Telemetry` — which event kinds are on: request/stage *spans*
  (``REPRO_TELEMETRY``) and *kernels* (``REPRO_PROFILE``).  One process
  default, one context-local override, one setter (:func:`set_telemetry`)
  and one scope (:func:`use_telemetry`);
* :class:`Span` — the one event record, of kind request, stage or kernel.
  The hot-path call sites :func:`span` and :func:`start_trace` cost one
  :class:`contextvars.ContextVar` read when spans are off, returning a
  shared no-op singleton (pinned ≤ 2% of the warm-cache serving leg by
  ``benchmarks/test_obs_overhead.py``).  A span is a context manager *and*
  manually finishable, so a request can be closed on the drain thread.
  Events nest through a ContextVar holding the current one.  A
  :func:`kernel` event folds into a :mod:`repro.obs.profile` kernel table
  and becomes a ``kernel.<name>`` span when spans are on and one is open;
* :class:`SpanContext` — the propagation token.  The router attaches
  :func:`current_context` to every worker command; the child process adopts
  it with :func:`adopt`, records its spans locally (queue/IPC wait derived
  from the context's ``sent_at`` wall-clock), and ships the finished span
  dicts back with the reply where :meth:`Tracer.ingest` stitches them into
  the parent's trace store — one tree per request, across processes;
* :class:`Tracer` — bounded per-process store of finished spans keyed by
  trace id, with a drain buffer for pipe export and a tree renderer.

Span ids are ``pid-sequence`` strings: unique across the cluster's processes
without any randomness, and self-describing in rendered trees.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Telemetry",
    "SpanContext",
    "Span",
    "Tracer",
    "telemetry",
    "set_telemetry",
    "use_telemetry",
    "span",
    "start_trace",
    "kernel",
    "current_context",
    "adopt",
    "get_tracer",
    "render_trace",
]

# Event kinds: the root of one trace, one timed layer under it, one op.
REQUEST, STAGE, KERNEL = "request", "stage", "kernel"


@dataclass(frozen=True)
class Telemetry:
    """Which event kinds are recorded: request/stage spans, and kernels."""

    spans: bool = False
    kernels: bool = False

    def with_kinds(
        self, spans: Optional[bool] = None, kernels: Optional[bool] = None
    ) -> "Telemetry":
        """This state with the given kinds changed (``None`` keeps one)."""
        return Telemetry(
            self.spans if spans is None else bool(spans),
            self.kernels if kernels is None else bool(kernels),
        )


def _env_on(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "on", "yes")


# A *process-wide* default plus a context-local override.  The default must
# be module-global, not a ContextVar default: the batcher's drain thread
# (and any worker thread) runs in a fresh contextvars context, so a purely
# context-scoped state set on the main thread would read as off there.
_DEFAULT = Telemetry(_env_on("REPRO_TELEMETRY"), _env_on("REPRO_PROFILE"))
_OVERRIDE: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "repro_telemetry"
)


def telemetry() -> Telemetry:
    """The telemetry state of the current context."""
    return _OVERRIDE.get(_DEFAULT)


def set_telemetry(
    spans: Optional[bool] = None, kernels: Optional[bool] = None
) -> None:
    """Turn event kinds on/off process-wide, background threads included
    (``None`` keeps a kind); :func:`use_telemetry` scopes a context."""
    global _DEFAULT
    _DEFAULT = _DEFAULT.with_kinds(spans, kernels)


@contextlib.contextmanager
def use_telemetry(
    spans: Optional[bool] = None, kernels: Optional[bool] = None
) -> Iterator[Telemetry]:
    """Scope event kinds on/off (tests, benchmark legs); a kind left as
    ``None`` keeps the value it has on entry."""
    token = _OVERRIDE.set(telemetry().with_kinds(spans, kernels))
    try:
        yield _OVERRIDE.get()
    finally:
        _OVERRIDE.reset(token)


# The innermost open event of this context: a Span, or the SpanContext of a
# remote parent installed by adopt().
_CURRENT: contextvars.ContextVar[Optional[object]] = contextvars.ContextVar(
    "repro_current_span", default=None
)

_SEQ = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_SEQ):x}"


@dataclass(frozen=True)
class SpanContext:
    """Wire-format parent reference: carried through worker command pipes.

    ``sent_at`` is the sender's wall clock at transmission; the receiving
    process records ``ipc_wait_s = recv_time - sent_at`` (same-host clocks,
    so skew is microseconds against waits of milliseconds).
    """

    trace_id: str
    span_id: str
    sent_at: float


class _NullSpan:
    """Shared no-op span: the entire disabled-path cost."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def finish(self) -> None:
        return None

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        yield


NULL_SPAN = _NullSpan()

_KERNEL_PREFIX = "kernel."


class Span:
    """One timed event of a trace: a request, a stage or a kernel.

    Starts its clock at construction.  As a context manager it also makes
    itself the current event (children created inside nest under it); via
    :meth:`finish` a request or stage span can be closed from a different
    thread without ever touching the ContextVar.  A kernel event is closed
    by its ``with`` block; its ``tracer`` is ``None`` unless it is recorded
    as a span too.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start",
        "duration",
        "attrs",
        "out",
        "_t0",
        "_token",
        "_finished",
        "_child",
        "_table",
        "_args",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        trace_id: Optional[str],
        parent_id: Optional[str],
        attrs: Optional[Dict] = None,
        kind: str = STAGE,
        table=None,
        args: tuple = (),
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = None if tracer is None else _new_id()
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.start = time.time()
        self.duration = 0.0
        self._t0 = time.perf_counter()
        self._token = None
        self._finished = False
        # Kernel events: the result, nested kernel time, the kernel table
        # and the operands of the flop/byte estimate.
        self.out = None
        self._child = 0.0
        self._table = table
        self._args = args

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def context(self) -> SpanContext:
        """Propagation token naming this span as the remote parent."""
        return SpanContext(self.trace_id, self.span_id, time.time())

    @contextlib.contextmanager
    def active(self) -> Iterator["Span"]:
        """Make this span current without entering/finishing it — used by
        the batcher to run a shared engine call under the leader request."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def finish(self) -> None:
        """Close the event (idempotent; callable from any thread)."""
        if self._finished:
            return
        self._finished = True
        self.duration = time.perf_counter() - self._t0
        if self.kind == KERNEL:
            # __exit__ has already made the enclosing event current again.
            outer = _CURRENT.get()
            if isinstance(outer, Span) and outer.kind == KERNEL:
                outer._child += self.duration
            shapes, flops, moved = self._table.fold(
                self.name[len(_KERNEL_PREFIX) :],
                self.duration,
                max(self.duration - self._child, 0.0),
                self._args,
                self.out,
            )
            self.attrs.update(shapes=shapes, flops=flops, bytes=moved)
        if self.tracer is not None:
            self.tracer._record(self.to_dict())

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "pid": os.getpid(),
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class Tracer:
    """Bounded per-process store of finished spans, keyed by trace id."""

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 1024) -> None:
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._traces: "OrderedDict[str, List[Dict]]" = OrderedDict()
        self._export: List[Dict] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        parent: Optional[object] = None,
        new_trace: bool = False,
        **attrs,
    ) -> Span:
        """Open a span under ``parent`` (default: the current span).

        ``parent`` may be a :class:`Span`, a :class:`SpanContext` (remote),
        or ``None``; ``new_trace=True`` forces a fresh root trace.
        """
        if new_trace:
            return Span(self, name, _new_id(), None, attrs, REQUEST)
        if parent is None:
            parent = _CURRENT.get()
        if parent is None or parent.trace_id is None:
            return Span(self, name, _new_id(), None, attrs)
        return Span(self, name, parent.trace_id, parent.span_id, attrs)

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def _record(self, span_dict: Dict) -> None:
        with self._lock:
            spans = self._traces.get(span_dict["trace"])
            if spans is None:
                spans = []
                self._traces[span_dict["trace"]] = spans
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            if len(spans) < self.max_spans_per_trace:
                spans.append(span_dict)
            self._export.append(span_dict)
            # The export buffer only exists for pipe shipping / snapshot
            # emission; bound it the same way.
            if len(self._export) > self.max_traces * self.max_spans_per_trace:
                del self._export[: len(self._export) // 2]

    def ingest(self, span_dicts: List[Dict]) -> None:
        """Stitch remotely-recorded spans (worker replies) into the store."""
        for span_dict in span_dicts:
            self._record(span_dict)

    def drain(self) -> List[Dict]:
        """Pop every span finished since the last drain (pipe export)."""
        with self._lock:
            out, self._export = self._export, []
            return out

    def trace(self, trace_id: str) -> List[Dict]:
        """All recorded spans of one trace (parents and children alike)."""
        with self._lock:
            return list(self._traces.get(trace_id, []))

    def trace_ids(self) -> List[str]:
        """Known trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def export_traces(self, last: int = 16) -> Dict[str, List[Dict]]:
        """Up to ``last`` traces as a JSON-serialisable mapping.

        Half the budget goes to the *richest* traces (most spans — the
        batch leaders whose trees hold the cross-process stages), half to
        the most recent; a coalesced burst of follower traces therefore
        cannot push the leader tree out of the snapshot.
        """
        with self._lock:
            ids = list(self._traces)
            richest = sorted(
                ids, key=lambda tid: len(self._traces[tid]), reverse=True
            )[: max(1, last // 2)]
            chosen = dict.fromkeys(ids[-(last - len(richest)) :])
            chosen.update(dict.fromkeys(richest))
            # Preserve insertion (recording) order in the export.
            return {
                tid: list(self._traces[tid])
                for tid in ids
                if tid in chosen
            }


_GLOBAL_TRACER = Tracer()

_ACTIVE_TRACER: contextvars.ContextVar[Optional[Tracer]] = contextvars.ContextVar(
    "repro_tracer", default=None
)


def get_tracer() -> Tracer:
    """The tracer of the current context (defaults to the process-global)."""
    return _ACTIVE_TRACER.get() or _GLOBAL_TRACER


@contextlib.contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Tracer]:
    """Scope a tracer (tests isolate their span stores this way)."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer or _GLOBAL_TRACER
    finally:
        _ACTIVE_TRACER.reset(token)


# ---------------------------------------------------------------------- #
# Hot-path helpers
# ---------------------------------------------------------------------- #
def span(name: str) -> object:
    """Open a stage span — THE instrumentation call site.

    Spans off: one ContextVar read, return the shared no-op singleton.
    Attributes go through ``.set(...)`` on the returned object so call sites
    never build kwargs dicts when spans are off.
    """
    if not _OVERRIDE.get(_DEFAULT).spans:
        return NULL_SPAN
    return get_tracer().span(name)


def start_trace(name: str) -> object:
    """Open a fresh root trace (one request span per serving request)."""
    if not _OVERRIDE.get(_DEFAULT).spans:
        return NULL_SPAN
    return get_tracer().span(name, new_trace=True)


def kernel(name: str, table, args: tuple = ()) -> Span:
    """Open a kernel event (``with`` form) that folds into ``table``.

    ``table`` is the :class:`~repro.obs.profile.KernelProfiler` from
    :func:`~repro.obs.profile.active_profiler` (``None`` — and no event —
    when kernels are off); ``args`` are the operands of the flop/byte
    estimate; set ``event.out`` to the result inside the block.  The event
    is a ``kernel.<name>`` span as well when spans are on and one is open.
    """
    outer = _CURRENT.get()
    traced = outer is not None and outer.trace_id is not None and telemetry().spans
    return Span(
        get_tracer() if traced else None,
        _KERNEL_PREFIX + name,
        outer.trace_id if traced else None,
        outer.span_id if traced else None,
        kind=KERNEL,
        table=table,
        args=args,
    )


def current_context() -> Optional[SpanContext]:
    """Propagation token for the current span (``None`` when off/idle)."""
    if not _OVERRIDE.get(_DEFAULT).spans:
        return None
    current = _CURRENT.get()
    if current is None or current.trace_id is None:
        return None
    return SpanContext(current.trace_id, current.span_id, time.time())


@contextlib.contextmanager
def adopt(ctx: Optional[SpanContext]) -> Iterator[None]:
    """Install a remote parent context (worker-process side; ``None`` no-op)."""
    if ctx is None:
        yield
        return
    token = _CURRENT.set(ctx)
    try:
        yield
    finally:
        _CURRENT.reset(token)


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def render_trace(spans: List[Dict]) -> str:
    """ASCII tree of one trace's spans (children indented under parents)."""
    if not spans:
        return "(empty trace)"
    by_id = {s["span"]: s for s in spans}
    children: Dict[Optional[str], List[Dict]] = {}
    for s in spans:
        parent = s["parent"] if s["parent"] in by_id else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s["start"])

    lines: List[str] = []

    def walk(span_dict: Dict, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span_dict["attrs"].items()))
        lines.append(
            "  " * depth
            + f"{span_dict['name']}  {span_dict['duration'] * 1e3:.2f}ms"
            + f"  [pid {span_dict['pid']}]"
            + (f"  {attrs}" if attrs else "")
        )
        for child in children.get(span_dict["span"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
