"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  A traced run first
runs the same workload and seed untraced in a child interpreter and reports
the difference as ``trace.overhead_pct``; its spans go to
``.perfbench/trace-<workload>-<seed>.json``.  ``--workload all`` runs every
workload, each in its own interpreter.  The exit code is non-zero when a
correctness check fails.

Each run is its own interpreter, so peak memory, set-up time and the
process-wide caches (such as the shared plan cache) never carry over.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("serve_cold", "serve_mixed", "cluster_cold", "paper_table4")
PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
REFUSED_FLAGS = ("REPRO_TELEMETRY", "REPRO_PROFILE")
CHILD_TIMEOUT_S = 170
COVERAGE_FLOOR = 0.9
"""A traced run fails unless its spans' self times explain this share of
the time its threads were busy."""


def _command(workload: str, args, trace: int) -> list:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]


def _run_child(command: list) -> dict:
    """Run one benchmark interpreter; its result line, parsed."""
    child = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{command} printed no result: {child.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOAD_NAMES:
        result = _run_child(_command(workload, args, args.trace))
        print(workload, json.dumps(result), flush=True)
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Telemetry inside the program would be measured as part of it.
    refused = [flag for flag in REFUSED_FLAGS if os.environ.get(flag)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    # Before NumPy loads: BLAS reads its thread count once, at import.
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # noqa: F401 - needs the program's sources
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from layers import PER_LAYER, Tracer
    from measure import environment

    env = environment(ROOT)
    print("# env", json.dumps(env), flush=True)
    untraced = None
    if args.trace:
        untraced = _run_child(_command(args.workload, args, trace=0))
    tracer = Tracer() if args.trace else None
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)

    if args.trace:
        metrics = outcome.per_layer()
        name, better = workloads.PRIMARY[args.workload]
        before, after = untraced["metrics"][name]["value"], outcome.end_to_end()[name]
        worse = (before - after) if better == "higher" else (after - before)
        metrics["trace.overhead_pct"] = 100.0 * worse / before
        outcome.details[f"untraced_{name}"] = before
        if metrics["trace.coverage"] < COVERAGE_FLOOR:
            outcome.failures.append(
                f"layer self times cover {metrics['trace.coverage']:.1%} of busy time"
                f" (< {COVERAGE_FLOOR:.0%})"
            )
        units = {name: unit for name, unit, _ in PER_LAYER}
        _write_trace(args, env, outcome, metrics)
    else:
        metrics = outcome.end_to_end()
        units = {name: unit for name, unit, _, _ in workloads.END_TO_END}

    for failure in outcome.failures:
        print("# FAILED:", failure, flush=True)
    for name, value in metrics.items():
        print(f"# {name:28s} {value:14.4f} {units[name]}")
    details = {
        key: value
        for key, value in outcome.details.items()
        if isinstance(value, (int, float, dict))
    }
    print("# details", json.dumps(details), flush=True)
    correct = not outcome.failures and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": _finite(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _finite(value: float) -> float:
    # A failed request has infinite latency; JSON has no infinity.
    return value if abs(value) < float("inf") else sys.float_info.max


def _write_trace(args, env: dict, outcome, metrics: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "metrics": metrics,
        "spans": ["id name start end parent info".split()]
        + [list(span) for span in outcome.tracer.spans],
    }
    path.write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
