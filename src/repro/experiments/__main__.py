"""Command-line entry point: ``python -m repro.experiments <experiment>``.

Examples
--------
Run the Table IV grid at the quick preset and print the rows::

    python -m repro.experiments table4 --preset quick

Run every experiment at the smoke preset, two cells at a time, and store
JSON outputs (one shared runner means e.g. Figure 4 reuses Table III's
trained cells)::

    python -m repro.experiments all --preset smoke --jobs 2 --output results/
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.core.config import GRID_EXECUTORS
from repro.experiments.grid import GridRunner
from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.runner import EXPERIMENTS, run_experiment, run_experiment_seeds


def parse_seeds(text: str) -> Tuple[int, ...]:
    """Parse ``--seeds`` values like ``"0,1,2"`` (distinct non-negative ints)."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError("empty seed entry")
        try:
            value = int(part)
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"invalid seed {part!r}: expected an integer"
            ) from error
        if value < 0:
            raise argparse.ArgumentTypeError("seeds must be non-negative")
        seeds.append(value)
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError("seeds must be distinct")
    return tuple(seeds)


def parse_fanouts(text: str) -> Tuple[Optional[int], ...]:
    """Parse ``--fanouts`` values like ``"10,10"`` or ``"5,all"``.

    Each comma-separated entry is a per-layer neighbour budget (input layer
    first); ``all``/``full``/``-1`` mean exhaustive sampling at that layer.
    """
    entries: List[Optional[int]] = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            raise argparse.ArgumentTypeError("empty fanout entry")
        if part in ("all", "full", "-1", "none"):
            entries.append(None)
            continue
        try:
            value = int(part)
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"invalid fanout {part!r}: expected an integer or 'all'"
            ) from error
        if value <= 0:
            raise argparse.ArgumentTypeError("fanouts must be positive (or 'all')")
        entries.append(value)
    return tuple(entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the PPFR paper (ICDE 2024).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=sorted(PRESETS),
        help="size/budget preset (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--seeds",
        type=parse_seeds,
        default=None,
        help=(
            "comma-separated seed list for multi-seed replication, e.g. "
            "'0,1,2': every cell is replicated per seed and table cells "
            "report mean ± std (overrides --seed)"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "switch method training to neighbour-sampled mini-batches of this "
            "many seed nodes (default: full-batch training)"
        ),
    )
    parser.add_argument(
        "--fanouts",
        type=parse_fanouts,
        default=None,
        help=(
            "per-layer neighbour budgets for mini-batch training, input layer "
            "first, e.g. '10,10' ('all' = exhaustive; requires --batch-size; "
            "default: exhaustive at every layer)"
        ),
    )
    parser.add_argument(
        "--eval-interval",
        type=int,
        default=None,
        help=(
            "evaluate full-graph only every K training epochs (mini-batch "
            "runs on large graphs stay N-independent between evaluations; "
            "requires --batch-size; default: every epoch)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "parallel grid-cell workers; > 1 executes independent (dataset, "
            "model) cells concurrently (default: 1, serial)"
        ),
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=GRID_EXECUTORS,
        help=(
            "cell executor; defaults to 'thread' when --jobs > 1 and 'serial' "
            "otherwise ('process' isolates cells in worker processes)"
        ),
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="enable the artifact/operator caches (default; deterministic)",
    )
    cache.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="disable caching (every cell trains from scratch)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist the artifact cache to DIR (conventionally "
            "'results/cache'): repeated invocations and process-pool workers "
            "reuse trained cells across processes (implies --cache)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="directory to write <experiment>.json result files into",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch_size is not None and args.batch_size <= 0:
        parser.error("--batch-size must be positive")
    if args.fanouts is not None and args.batch_size is None:
        parser.error("--fanouts requires --batch-size")
    if args.eval_interval is not None:
        if args.batch_size is None:
            parser.error("--eval-interval requires --batch-size")
        if args.eval_interval <= 0:
            parser.error("--eval-interval must be positive")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    preset = get_preset(args.preset)
    if args.batch_size is not None:
        # A modified preset (rather than a side channel) so batched cells key
        # separately in the artifact cache and in process workers.  The name
        # suffix flows into every ExperimentResult's metadata and saved JSON,
        # so batched numbers are never mistaken for full-batch reproductions.
        fanout_tag = (
            "" if args.fanouts is None
            else "x" + ",".join("all" if f is None else str(f) for f in args.fanouts)
        )
        preset = replace(
            preset,
            name=f"{preset.name}-mb{args.batch_size}{fanout_tag}",
            batch_size=args.batch_size,
            fanouts=args.fanouts,
            eval_interval=args.eval_interval if args.eval_interval is not None else 1,
        )
    # One runner for the whole invocation: experiments share trained cells
    # (table3 and figure4 declare identical (gcn, vanilla/reg) grids).
    if args.cache_dir is not None and not args.cache:
        parser.error("--cache-dir conflicts with --no-cache")
    runner = GridRunner(
        executor=args.executor,
        jobs=args.jobs,
        cache=args.cache,
        cache_dir=args.cache_dir,
    )
    for name in names:
        if args.seeds is not None:
            result = run_experiment_seeds(
                name, seeds=args.seeds, preset=preset, runner=runner
            )
        else:
            result = run_experiment(name, preset=preset, seed=args.seed, runner=runner)
        print(result.formatted())
        print()
        if args.output:
            path = os.path.join(args.output, f"{name}.json")
            result.save_json(path)
            print(f"saved {path}")
    stats = runner.cache_stats
    if stats is not None:
        print(f"artifact cache: {stats}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
