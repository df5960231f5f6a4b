"""Chrome-trace (catapult JSON) export of stitched request timelines.

The tracer already produces one tree per serving request with spans from
every process involved (workers ship their spans — and, with profiling on,
their ``kernel.*`` events — back on the command-pipe reply).  This module
converts those span dicts into the Trace Event Format consumed by
``chrome://tracing`` / Perfetto: one ``ph: "X"`` (complete) event per span,
timestamps in microseconds of wall-clock time, real OS pids as track ids —
so a single exported file shows request → batcher → router → shard →
kernel across every process on one timeline.

Format reference: the "Trace Event Format" catapult spec — required keys per
complete event are ``name``, ``ph``, ``ts``, ``dur``, ``pid``, ``tid``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = [
    "spans_to_chrome",
    "collect_traces",
    "write_chrome_trace",
]


def collect_traces(snapshots: List[Dict]) -> Dict[str, List[Dict]]:
    """Merge the trace sections of successive snapshots (later wins:
    a later snapshot carries a more complete version of the same trace)."""
    traces: Dict[str, List[Dict]] = {}
    for snapshot in snapshots:
        for tid, spans in snapshot.get("traces", {}).items():
            traces[tid] = spans
    return traces


def spans_to_chrome(
    traces: Dict[str, List[Dict]], trace_id: Optional[str] = None
) -> Dict[str, object]:
    """Convert span dicts to a catapult JSON object.

    ``trace_id`` restricts the export to one request tree; by default every
    known trace lands on the shared timeline (wall-clock timestamps keep
    them naturally ordered).
    """
    selected = (
        {trace_id: traces[trace_id]} if trace_id is not None else traces
    )
    events: List[Dict[str, object]] = []
    pids = set()
    for tid, spans in selected.items():
        for span in spans:
            pid = int(span.get("pid", 0))
            pids.add(pid)
            name = str(span.get("name", "?"))
            args: Dict[str, object] = {
                "trace": tid,
                "span": span.get("span"),
            }
            if span.get("parent"):
                args["parent"] = span["parent"]
            args.update(span.get("attrs") or {})
            events.append(
                {
                    "name": name,
                    "cat": span.get("kind", "stage"),
                    "ph": "X",
                    "ts": float(span.get("start", 0.0)) * 1e6,
                    "dur": max(float(span.get("duration", 0.0)), 0.0) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, traces: Dict[str, List[Dict]], trace_id: Optional[str] = None
) -> int:
    """Write the catapult JSON file; returns the number of events."""
    doc = spans_to_chrome(traces, trace_id)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return len(doc["traceEvents"])
