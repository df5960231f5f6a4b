"""Command-line entry point: ``python -m repro.serve <command>``.

Examples
--------
Train a GCN on the Cora surrogate and register it::

    python -m repro.serve train --dataset cora --model gcn --epochs 40

Serve 200 requests from the registered model, mutating the graph halfway::

    python -m repro.serve serve --name cora-gcn --requests 200 --mutate 16

Serve the same stream over four shard worker processes and check the
answers against a fresh single-process engine::

    python -m repro.serve serve --name cora-gcn --shards 4 --requests 200 --mutate 16 --verify

List registry contents::

    python -m repro.serve list
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.cluster.router import ShardRouter
from repro.core.config import ComputeConfig
from repro.datasets import load_dataset
from repro.gnn.models import MODEL_REGISTRY, build_model
from repro.obs.metrics import active_metrics, next_instance
from repro.obs.profile import format_top, global_profiler
from repro.obs.slo import check_slo, format_slo, parse_slo, resolve_slo_histograms
from repro.obs.snapshot import DEFAULT_SNAPSHOT_PATH, SnapshotEmitter
from repro.obs.trace import set_telemetry
from repro.gnn.trainer import TrainConfig, Trainer
from repro.serve.batching import RequestBatcher
from repro.serve.engine import InferenceEngine, ServeConfig
from repro.serve.registry import DEFAULT_REGISTRY_ROOT, ModelRegistry
from repro.serve.session import GraphSession


def _parse_fanouts(text: str):
    from repro.experiments.__main__ import parse_fanouts

    return parse_fanouts(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online inference serving over trained reproduction models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--registry",
        default=DEFAULT_REGISTRY_ROOT,
        help=f"model registry root directory (default: {DEFAULT_REGISTRY_ROOT})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train",
        parents=[common],
        help="train a model on a dataset surrogate and register it",
    )
    train.add_argument("--dataset", default="cora")
    train.add_argument("--model", default="gcn", choices=sorted(MODEL_REGISTRY))
    train.add_argument("--name", default=None, help="registry name (default: <dataset>-<model>)")
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--hidden", type=int, default=16)
    train.add_argument("--scale", type=float, default=0.45, help="dataset scale factor")
    train.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve",
        parents=[common],
        help="load a registered model and answer prediction requests",
    )
    serve.add_argument("--name", required=True)
    serve.add_argument("--version", type=int, default=None)
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
    serve.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="largest engine call: requests answered by one batcher pop",
    )
    serve.add_argument("--seed", type=int, default=0, help="request-stream seed")
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve through a ShardRouter over this many worker processes "
        "instead of one engine",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="compare final answers against a fresh single-process engine",
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="record request and stage spans (the telemetry state's spans "
        "kind, as REPRO_TELEMETRY=1) and emit telemetry snapshots",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="record kernel events (the telemetry state's kernels kind, as "
        "REPRO_PROFILE=1): per-op times, flops and memory high-water marks; "
        "with --telemetry they also join the request timelines",
    )
    serve.add_argument(
        "--obs-path",
        default=DEFAULT_SNAPSHOT_PATH,
        help=f"telemetry snapshot JSONL path (default: {DEFAULT_SNAPSHOT_PATH})",
    )
    serve.add_argument(
        "--obs-interval",
        type=float,
        default=0.0,
        help="emit a snapshot every N seconds while serving "
        "(default: one final snapshot)",
    )
    serve.add_argument(
        "--slo",
        type=parse_slo,
        default=None,
        metavar="SPEC",
        help="latency objectives in ms, e.g. 'p99=50' or 'p50=10,p99=50'; "
        "'p99:worker.compute=20' targets a named histogram; violations "
        "exit 1",
    )

    commands.add_parser(
        "list", parents=[common], help="list registered models and versions"
    )

    gc = commands.add_parser(
        "gc",
        parents=[common],
        help="prune old registry versions (pinned versions survive)",
    )
    gc.add_argument("--name", default=None, help="one model name (default: all)")
    gc.add_argument(
        "--keep-last",
        type=int,
        default=3,
        help="committed versions to retain per name (default: 3)",
    )

    pin = commands.add_parser(
        "pin", parents=[common], help="protect one version from gc"
    )
    pin.add_argument("--name", required=True)
    pin.add_argument("--version", type=int, required=True)

    unpin = commands.add_parser(
        "unpin", parents=[common], help="remove a gc protection pin"
    )
    unpin.add_argument("--name", required=True)
    unpin.add_argument("--version", type=int, required=True)
    return parser


def _rebuild_graph(meta: dict):
    info = meta.get("metadata", {})
    dataset = info.get("dataset")
    if dataset is None:
        raise SystemExit(
            "registry entry carries no dataset metadata; this CLI can only "
            "serve models registered by 'python -m repro.serve train'"
        )
    return load_dataset(
        dataset, seed=int(info.get("seed", 0)), scale=float(info.get("scale", 1.0))
    )


def cmd_train(args) -> int:
    graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    model = build_model(
        args.model,
        in_features=graph.num_features,
        num_classes=graph.num_classes,
        hidden_features=args.hidden,
        rng=args.seed,
    )
    config = TrainConfig(epochs=args.epochs, patience=None)
    result = Trainer(model, config).fit(graph)
    registry = ModelRegistry(args.registry)
    name = args.name or f"{args.dataset}-{args.model}"
    version = registry.save(
        name,
        model,
        graph=graph,
        metadata={
            "dataset": args.dataset,
            "seed": args.seed,
            "scale": args.scale,
            "epochs": args.epochs,
            "final_val_accuracy": result.final_val_accuracy,
        },
    )
    print(
        f"registered {name} v{version} under {args.registry} "
        f"(val accuracy {result.final_val_accuracy:.3f})"
    )
    return 0


def cmd_serve(args) -> int:
    # ComputeConfig is the shared validation surface for compute selection;
    # the --shards flag goes through it like --backend/--jobs do elsewhere.
    try:
        shards = ComputeConfig(shards=args.shards).shards
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    registry = ModelRegistry(args.registry)
    meta = registry.read_meta(args.name, version=args.version)
    graph = _rebuild_graph(meta)
    # expect_graph verifies the rebuilt surrogate fingerprints identically to
    # the structure the model was trained on.
    model, meta = registry.load(args.name, version=args.version, expect_graph=graph)
    session = GraphSession.from_graph(graph)
    config = ServeConfig(fanouts=args.fanouts)
    # Before the front end: shard workers read the state from WorkerInit
    # at construction.  An unset flag leaves REPRO_TELEMETRY/REPRO_PROFILE
    # in charge of its kind.
    set_telemetry(spans=args.telemetry or None, kernels=args.profile or None)
    emitter = (
        SnapshotEmitter(args.obs_path, interval=args.obs_interval)
        if args.telemetry or args.profile
        else None
    )
    if emitter is not None:
        # start() registers the atexit flush; the thread only spins with
        # a positive interval.
        emitter.start()

    rng = np.random.default_rng(args.seed)
    nodes = rng.integers(0, session.num_nodes, size=args.requests)
    half = args.requests // 2
    # The bench loop's own latency record is a registry histogram
    # (streaming p50/p99 over log-spaced buckets).
    latency = active_metrics().histogram(
        "serve.cli.latency",
        component="serve_cli",
        instance=next_instance(),
    )
    if shards is None:
        router = None
        frontend = InferenceEngine(model, session, config)
    else:
        router = frontend = ShardRouter(
            model,
            session,
            num_shards=shards,
            config=config,
            workers="process",
            model_ref=(args.registry, args.name, meta["version"]),
        )
        owned_sizes = np.bincount(router.owners, minlength=shards).tolist()
        print(
            f"cluster up: {shards} shard processes (owned sizes {owned_sizes})"
        )
    try:
        batcher = RequestBatcher(frontend, max_batch_size=args.batch_size).start()

        def fire(batch_nodes) -> None:
            pending = [
                (time.perf_counter(), batcher.submit(int(node)))
                for node in batch_nodes
            ]
            for submitted, future in pending:
                future.result()
                latency.observe(time.perf_counter() - submitted)

        started = time.perf_counter()
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
            print(
                f"mutated: +{pairs.shape[0]} random edges "
                f"(revision {session.revision})"
            )
        fire(nodes[half:])
        elapsed = time.perf_counter() - started
        batcher.stop()

        if router is not None:
            stats = router.stats()
            # Shard workers ship histogram bucket states and kernel-profiler
            # tables in their stats; merging them here makes the final
            # snapshot, `repro.obs top` and the SLO gate span the cluster.
            instance = next_instance()
            for shard in stats.shards:
                for name, state in (shard.histograms or {}).items():
                    active_metrics().histogram(
                        name,
                        component="shard_worker",
                        shard=shard.shard_id,
                        instance=instance,
                    ).merge(state)
                if shard.profile:
                    global_profiler().merge_table(shard.profile["ops"])
                    global_profiler().merge_memory(shard.profile["memory"])
        if emitter is not None:
            emitter.stop()
            print(f"telemetry: snapshots at {args.obs_path}")

        print(
            f"served {args.requests} requests in {elapsed:.3f}s "
            f"({args.requests / elapsed:.0f} req/s)"
        )
        if latency.count:
            print(
                f"latency p50 {latency.quantile(0.50) * 1e3:.2f}ms  "
                f"p99 {latency.quantile(0.99) * 1e3:.2f}ms"
            )
        if router is None:
            cache = frontend.cache_stats
            if cache is not None:
                print(
                    f"logit cache: {cache.hits} hits / {cache.misses} misses "
                    f"({cache.invalidated} invalidated, {cache.size} resident)"
                )
        else:
            compute = stats.merged_histograms().get("worker.compute")
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
        print(
            f"batches: {batcher.stats.batches} "
            f"(mean size {batcher.stats.mean_batch_size:.1f})"
        )

        if args.verify:
            if args.fanouts is not None and args.mutate > 0:
                # Warm sampled entries were keyed at pre-mutation versions; a
                # fresh engine keys everything at the current version, so the
                # comparison is only defined without mid-stream mutations.
                print("verify: skipped (sampled mode with mid-stream mutations)")
            else:
                # A replica session starting from the live session's mutation
                # counter draws the same sampling keys, so the check is exact
                # in sampled mode too.
                reference = InferenceEngine(
                    model,
                    GraphSession(
                        session.csr, session.features, initial_version=session.version
                    ),
                    config,
                )
                ok = bool(
                    np.allclose(
                        frontend.predict_logits(nodes),
                        reference.predict_logits(nodes),
                        atol=1e-8,
                    )
                )
                print(f"verify vs fresh engine: {'OK' if ok else 'MISMATCH'}")
                if not ok:
                    return 1
    finally:
        if router is not None:
            router.close()

    if args.profile:
        profiler = global_profiler()
        print("profile (hottest kernels):")
        print(format_top(profiler.table(), profiler.memory_marks(), limit=10))
    if args.slo is not None:
        violations = check_slo(
            latency, args.slo, histograms=resolve_slo_histograms(args.slo)
        )
        if violations:
            for violation in violations:
                print(f"SLO FAIL: {violation}")
            return 1
        print(f"SLO OK: {format_slo(args.slo)}")
    return 0


def cmd_list(args) -> int:
    registry = ModelRegistry(args.registry)
    names = registry.list_models()
    if not names:
        print(f"(no models registered under {args.registry})")
        return 0
    for name in names:
        for version in registry.versions(name):
            meta = registry.read_meta(name, version)
            info = meta.get("metadata", {})
            print(
                f"{name} v{version}: {meta['model_type']} "
                f"dataset={info.get('dataset', '?')} "
                f"val_acc={info.get('final_val_accuracy', float('nan')):.3f}"
            )
    return 0


def cmd_gc(args) -> int:
    registry = ModelRegistry(args.registry)
    names = [args.name] if args.name else registry.list_models()
    total = 0
    for name in names:
        removed = registry.prune(name, keep_last=args.keep_last)
        pinned = registry.pinned_versions(name)
        total += len(removed)
        print(
            f"{name}: removed {removed or 'nothing'}, "
            f"kept {registry.versions(name)}"
            + (f" (pinned {pinned})" if pinned else "")
        )
    print(f"gc: {total} version(s) removed")
    return 0


def cmd_pin(args) -> int:
    registry = ModelRegistry(args.registry)
    if args.command == "pin":
        registry.pin(args.name, args.version)
    else:
        registry.unpin(args.name, args.version)
    print(
        f"{args.command}ned {args.name} v{args.version} "
        f"(pinned: {registry.pinned_versions(args.name)})"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return cmd_train(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "gc":
        return cmd_gc(args)
    if args.command in ("pin", "unpin"):
        return cmd_pin(args)
    return cmd_list(args)


if __name__ == "__main__":
    sys.exit(main())
