"""Command-line entry point: ``python -m repro.cluster <command>``.

Examples
--------
Serve a registered model over four shard worker processes, mutating the
graph across shard boundaries halfway through the request stream::

    python -m repro.cluster serve --name cora-gcn --shards 4 --requests 200 --mutate 16
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.cluster.partition import PARTITION_STRATEGIES
from repro.cluster.router import ShardRouter
from repro.obs.metrics import active_metrics, next_instance
from repro.obs.profile import format_top, global_profiler, set_profiling
from repro.obs.slo import check_slo, format_slo, resolve_slo_histograms
from repro.obs.snapshot import SnapshotEmitter
from repro.obs.trace import set_tracing
from repro.serve.batching import RequestBatcher
from repro.serve.engine import InferenceEngine, ServeConfig
from repro.serve.registry import DEFAULT_REGISTRY_ROOT, ModelRegistry
from repro.serve.session import GraphSession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Sharded multi-process serving over trained reproduction models.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="serve a registered model over shard worker processes"
    )
    serve.add_argument("--registry", default=DEFAULT_REGISTRY_ROOT)
    serve.add_argument("--name", required=True)
    serve.add_argument("--version", type=int, default=None)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--strategy", default="greedy", choices=PARTITION_STRATEGIES)
    serve.add_argument("--requests", type=int, default=100)
    serve.add_argument(
        "--fanouts",
        type=_parse_fanouts,
        default=None,
        help="per-layer sampling budgets, e.g. '10,10' (default: exhaustive/exact)",
    )
    serve.add_argument(
        "--mutate",
        type=int,
        default=0,
        help="inject this many random edges halfway through the request stream",
    )
    serve.add_argument("--seed", type=int, default=0, help="request-stream seed")
    serve.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="largest engine call: requests one batcher pop sends to the router",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="compare final answers against a fresh single-process engine",
    )
    from repro.serve.__main__ import add_telemetry_arguments

    add_telemetry_arguments(serve)
    return parser


def _parse_fanouts(text: str):
    from repro.experiments.__main__ import parse_fanouts

    return parse_fanouts(text)


def cmd_serve(args) -> int:
    from repro.serve.__main__ import _rebuild_graph
    from repro.core.config import ComputeConfig

    # ComputeConfig is the shared validation surface for compute selection;
    # the --shards flag goes through it like --backend/--jobs do elsewhere.
    try:
        num_shards = ComputeConfig(shards=args.shards).shards
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    registry = ModelRegistry(args.registry)
    meta = registry.read_meta(args.name, version=args.version)
    graph = _rebuild_graph(meta)
    model, meta = registry.load(args.name, version=args.version, expect_graph=graph)
    session = GraphSession(graph.csr(), graph.features)
    if args.telemetry:
        # Before router construction: worker processes inherit the flag
        # through WorkerInit.telemetry.
        set_tracing(True)
    if args.profile:
        # Likewise before router construction: WorkerInit.profile turns
        # the kernel profiler on inside every shard process.
        set_profiling(True)
    router = ShardRouter(
        model,
        session,
        num_shards=num_shards,
        strategy=args.strategy,
        config=ServeConfig(fanouts=args.fanouts),
        workers="process",
        model_ref=(args.registry, args.name, meta["version"]),
    )
    owned_sizes = np.bincount(router.owners, minlength=num_shards).tolist()
    print(
        f"cluster up: {args.shards} shard processes, strategy={args.strategy} "
        f"(owned sizes {owned_sizes})"
    )

    rng = np.random.default_rng(args.seed)
    nodes = rng.integers(0, session.num_nodes, size=args.requests)
    half = args.requests // 2
    # Streaming latency percentiles over registry histogram buckets, not a
    # per-request perf_counter list.
    latency = active_metrics().histogram(
        "cluster.cli.latency",
        component="cluster_cli",
        instance=next_instance(),
    )
    emitter = (
        SnapshotEmitter(args.obs_path, interval=args.obs_interval)
        if args.telemetry or args.profile
        else None
    )
    if emitter is not None:
        # start() registers the atexit flush even for interval=0 runs;
        # the periodic thread only spins up when an interval was asked for.
        emitter.start()
    started = time.perf_counter()
    with router:
        batcher = RequestBatcher(router, max_batch_size=args.batch_size).start()

        def fire(batch_nodes) -> None:
            pending = [
                (time.perf_counter(), batcher.submit(int(node)))
                for node in batch_nodes
            ]
            for submitted, future in pending:
                future.result()
                latency.observe(time.perf_counter() - submitted)

        fire(nodes[:half])
        if args.mutate > 0:
            pairs = np.stack(
                [
                    rng.integers(0, session.num_nodes, size=args.mutate),
                    rng.integers(0, session.num_nodes, size=args.mutate),
                ],
                axis=1,
            )
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            session.add_edges(pairs)
            cross = int(
                np.count_nonzero(
                    router.owners[pairs[:, 0]]
                    != router.owners[pairs[:, 1]]
                )
            )
            print(
                f"mutated: +{pairs.shape[0]} random edges "
                f"({cross} crossing shard boundaries)"
            )
        fire(nodes[half:])
        batcher.stop()
        elapsed = time.perf_counter() - started
        stats = router.stats()
        # Cluster-wide views: shard workers ship histogram bucket states and
        # kernel-profiler tables inside their stats snapshots; merging them
        # into the router-side registry/profiler makes the final telemetry
        # snapshot (and `repro.obs top`) span the whole cluster.
        merged_histograms = stats.merged_histograms()
        for shard in stats.shards:
            if shard.profile:
                global_profiler().merge_table(shard.profile["ops"])
                global_profiler().merge_memory(shard.profile["memory"])
        if emitter is not None:
            emitter.stop()
            print(f"telemetry: snapshots at {args.obs_path}")
        print(
            f"served {args.requests} requests in {elapsed:.3f}s "
            f"({args.requests / elapsed:.0f} req/s, "
            f"mean batch {batcher.stats.mean_batch_size:.1f})"
        )
        if latency.count:
            print(
                f"latency p50 {latency.quantile(0.50) * 1e3:.2f}ms  "
                f"p99 {latency.quantile(0.99) * 1e3:.2f}ms"
            )
        compute = merged_histograms.get("worker.compute")
        if compute is not None and compute.count:
            print(
                f"worker compute (all shards) "
                f"p50 {compute.quantile(0.50) * 1e3:.2f}ms  "
                f"p99 {compute.quantile(0.99) * 1e3:.2f}ms"
            )
        for shard in stats.shards:
            print(
                f"  shard {shard['shard_id']}: owned {shard['owned']}, "
                f"{shard['requests']} requests, "
                f"{shard['hits']} hits / {shard['misses']} misses "
                f"({shard['invalidated']} invalidated)"
            )
        if args.verify:
            if args.fanouts is not None and args.mutate > 0:
                # Warm sampled entries were keyed at pre-mutation versions
                # (exactly like a single-process engine serving the same
                # stream); a fresh engine keys everything at the current
                # version, so the comparison is only defined without
                # mid-stream mutations.
                print("verify: skipped (sampled mode with mid-stream mutations)")
            else:
                # A replica session starting from the live session's mutation
                # counter draws the same sampling keys, so the check is exact
                # in sampled mode too.
                reference = InferenceEngine(
                    model,
                    GraphSession(
                        session.csr,
                        session.features,
                        initial_version=session.version,
                    ),
                    ServeConfig(fanouts=args.fanouts),
                )
                answers = router.predict_logits(nodes)
                expected = reference.predict_logits(nodes)
                ok = bool(np.allclose(answers, expected, atol=1e-8))
                print(
                    f"verify vs single-process engine: {'OK' if ok else 'MISMATCH'}"
                )
                if not ok:
                    return 1
    if args.profile:
        print("profile (hottest kernels, all processes):")
        print(
            format_top(
                global_profiler().table(),
                global_profiler().memory_marks(),
                limit=10,
            )
        )
    if args.slo is not None:
        violations = check_slo(
            latency,
            args.slo,
            histograms={
                **resolve_slo_histograms(args.slo),
                **merged_histograms,
            },
        )
        if violations:
            for violation in violations:
                print(f"SLO FAIL: {violation}")
            return 1
        print(f"SLO OK: {format_slo(args.slo)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return cmd_serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
