"""Command-line entry point: ``python -m repro.obs <command>``.

Examples
--------
Dump the latest telemetry snapshot emitted by a serve loop::

    python -m repro.obs dump --path results/obs/telemetry.jsonl

Poll the snapshot file and print metric deltas as they land::

    python -m repro.obs watch --interval 2

Render one request's stitched cross-process trace tree::

    python -m repro.obs trace 1a2b-3f --path results/obs/telemetry.jsonl
    python -m repro.obs trace --last
    python -m repro.obs trace --best

Rank the hottest kernels recorded by the profiler (``--profile`` runs)::

    python -m repro.obs top --limit 15

Export every stitched timeline as a Chrome trace (load in
``chrome://tracing`` or https://ui.perfetto.dev)::

    python -m repro.obs export --chrome --out results/obs/timeline.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.obs.chrome import collect_traces, write_chrome_trace
from repro.obs.profile import format_top
from repro.obs.snapshot import (
    DEFAULT_SNAPSHOT_PATH,
    latest_snapshot,
    read_snapshots,
)
from repro.obs.trace import render_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect telemetry snapshots emitted by the serving loops.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--path",
        default=DEFAULT_SNAPSHOT_PATH,
        help=f"snapshot JSONL file (default: {DEFAULT_SNAPSHOT_PATH})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "dump", parents=[common], help="print the latest snapshot's metrics"
    )

    watch = commands.add_parser(
        "watch", parents=[common], help="poll the snapshot file, print deltas"
    )
    watch.add_argument("--interval", type=float, default=2.0)
    watch.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop after this many polls (0 = run until interrupted)",
    )

    trace = commands.add_parser(
        "trace", parents=[common], help="render one trace tree"
    )
    trace.add_argument("trace_id", nargs="?", default=None)
    trace.add_argument(
        "--last", action="store_true", help="render the most recent trace"
    )
    trace.add_argument(
        "--best",
        action="store_true",
        help="render the trace with the most spans (the richest request)",
    )

    top = commands.add_parser(
        "top", parents=[common], help="hottest kernels from the profiler"
    )
    top.add_argument("--limit", type=int, default=20)

    export = commands.add_parser(
        "export", parents=[common], help="export stitched traces"
    )
    export.add_argument(
        "--chrome",
        action="store_true",
        help="catapult JSON for chrome://tracing / Perfetto (the only format)",
    )
    export.add_argument("--out", default="results/obs/timeline.json")
    export.add_argument(
        "--trace", dest="trace_id", default=None, help="restrict to one trace id"
    )
    return parser


def _format_metrics(metrics: Dict) -> List[str]:
    lines: List[str] = []
    totals = metrics.get("totals", {})
    if totals:
        lines.append("totals:")
        for name in sorted(totals):
            lines.append(f"  {name} = {totals[name]:g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            if not h.get("count"):
                continue
            lines.append(
                f"  {name}: n={h['count']} mean={h['mean'] * 1e3:.3f}ms "
                f"p50={h['p50'] * 1e3:.3f}ms p90={h['p90'] * 1e3:.3f}ms "
                f"p99={h['p99'] * 1e3:.3f}ms max={h['max'] * 1e3:.3f}ms"
            )
    collectors = metrics.get("collectors", {})
    for name in sorted(collectors):
        lines.append(f"collector {name}: {collectors[name]}")
    return lines


def cmd_dump(args) -> int:
    snapshot = latest_snapshot(args.path)
    stamp = time.strftime("%H:%M:%S", time.localtime(snapshot.get("time", 0)))
    print(f"snapshot @ {stamp} (pid {snapshot.get('pid', '?')})")
    for line in _format_metrics(snapshot.get("metrics", {})):
        print(line)
    traces = snapshot.get("traces", {})
    if traces:
        print(f"traces: {len(traces)} recorded — {', '.join(list(traces)[-8:])}")
    return 0


def cmd_watch(args) -> int:
    seen = 0
    polls = 0
    last_totals: Dict[str, float] = {}
    while True:
        try:
            snapshots = read_snapshots(args.path)
        except FileNotFoundError:
            snapshots = []
        if len(snapshots) > seen:
            snapshot = snapshots[-1]
            seen = len(snapshots)
            totals = snapshot.get("metrics", {}).get("totals", {})
            stamp = time.strftime("%H:%M:%S", time.localtime(snapshot.get("time", 0)))
            deltas = [
                f"{name} +{totals[name] - last_totals.get(name, 0):g}"
                for name in sorted(totals)
                if totals[name] != last_totals.get(name, 0)
            ]
            print(f"[{stamp}] " + ("; ".join(deltas) if deltas else "(no change)"))
            last_totals = dict(totals)
        polls += 1
        if args.count and polls >= args.count:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def _resolve_trace_id(traces: Dict[str, List[Dict]], trace_id: str) -> str:
    """``trace_id`` itself or the one known id it prefixes."""
    if trace_id in traces:
        return trace_id
    prefixed = [tid for tid in traces if tid.startswith(trace_id)]
    if len(prefixed) != 1:
        raise ValueError(f"unknown trace {trace_id!r}; known: {', '.join(traces)}")
    return prefixed[0]


def cmd_trace(args) -> int:
    traces = collect_traces(read_snapshots(args.path))
    if not traces:
        print("no traces recorded (was tracing enabled? --telemetry)")
        return 1
    trace_id: Optional[str] = args.trace_id
    if args.best:
        trace_id = max(traces, key=lambda tid: len(traces[tid]))
    elif args.last or trace_id is None:
        trace_id = list(traces)[-1]
    trace_id = _resolve_trace_id(traces, trace_id)
    spans = traces[trace_id]
    pids = sorted({s["pid"] for s in spans})
    print(f"trace {trace_id}: {len(spans)} spans across pids {pids}")
    print(render_trace(spans))
    return 0


def cmd_top(args) -> int:
    snapshot = latest_snapshot(args.path)
    profile = (
        snapshot.get("metrics", {}).get("collectors", {}).get("profile.kernels", {})
    )
    ops = profile.get("ops", {})
    if not ops:
        print("no kernel samples recorded (was profiling enabled? --profile)")
        return 1
    stamp = time.strftime("%H:%M:%S", time.localtime(snapshot.get("time", 0)))
    print(f"hottest kernels @ {stamp} (pid {snapshot.get('pid', '?')})")
    print(format_top(ops, profile.get("memory") or None, limit=args.limit))
    return 0


def cmd_export(args) -> int:
    traces = collect_traces(read_snapshots(args.path))
    if not traces:
        print("no traces recorded (was tracing enabled? --telemetry)")
        return 1
    trace_id = args.trace_id
    if trace_id is not None:
        trace_id = _resolve_trace_id(traces, trace_id)
    count = write_chrome_trace(args.out, traces, trace_id)
    scope = trace_id if trace_id else f"{len(traces)} traces"
    print(f"wrote {count} chrome-trace events ({scope}) to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dump":
            return cmd_dump(args)
        if args.command == "watch":
            return cmd_watch(args)
        if args.command == "top":
            return cmd_top(args)
        if args.command == "export":
            return cmd_export(args)
        return cmd_trace(args)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
