"""Serving-time SLO checks: turn measured latency distributions into CI gates.

``--slo p99=50`` (milliseconds) on the serving CLIs parses through
:func:`parse_slo` and evaluates through :func:`check_slo` against the
request-latency histogram the bench loop fills — a violated objective turns
the run's exit code to 1, which is all a CI job needs to fail a regression.

Objectives can also target *named* histograms:
``--slo p99:serve.cli.latency=50,p99:worker.compute=20`` gates any
histogram the run recorded (resolved by bare metric name across label sets,
including distributions merged router-side from shard workers).  The bare
``p99=50`` form keeps meaning "the CLI's own request-latency histogram".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    active_metrics,
    merge_histogram_states,
)

__all__ = ["parse_slo", "check_slo", "format_slo", "resolve_slo_histograms"]

_QUANTILES = {"p50": 0.50, "p90": 0.90, "p99": 0.99}


def parse_slo(text: str) -> Dict[str, float]:
    """Parse ``"p99=50"`` / ``"p50=10,p99:worker.compute=20"`` (ms) to seconds.

    Each clause is ``quantile[:histogram_name]=millis``.  A bare quantile
    targets the CLI's own latency histogram (backward-compatible form); a
    ``quantile:name`` key targets the named histogram.  Raises ``ValueError``
    on unknown quantile names or non-positive bounds, so a typo fails the
    CLI at argument-parsing time, not after the run.
    """
    objectives: Dict[str, float] = {}
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, _, bound = clause.partition("=")
        key = key.strip()
        quantile, _, target = key.partition(":")
        quantile = quantile.strip().lower()
        target = target.strip()
        if quantile not in _QUANTILES:
            raise ValueError(
                f"unknown SLO quantile {quantile!r} "
                f"(supported: {', '.join(sorted(_QUANTILES))})"
            )
        try:
            millis = float(bound)
        except ValueError:
            raise ValueError(f"SLO bound {bound!r} is not a number") from None
        if millis <= 0:
            raise ValueError(f"SLO bound for {key} must be positive")
        objectives[f"{quantile}:{target}" if target else quantile] = millis / 1e3
    if not objectives:
        raise ValueError("empty SLO specification")
    return objectives


def _split_key(key: str):
    quantile, _, target = key.partition(":")
    return quantile, (target or None)


def resolve_slo_histograms(
    objectives: Dict[str, float],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Histogram]:
    """Look up each named objective's histogram in ``registry``.

    Multiple label sets under the same bare name (per-shard workers, several
    engine instances) merge into one distribution — the quantile is then
    over the union of observations, which is the only correct aggregation.
    """
    registry = registry or active_metrics()
    wanted = {
        target for key in objectives for _, target in [_split_key(key)] if target
    }
    if not wanted:
        return {}
    states: Dict[str, List] = {}
    for metric in registry.metrics():
        if metric.kind == "histogram" and metric.name in wanted:
            states.setdefault(metric.name, []).append(metric)
    return {
        name: merge_histogram_states(group)
        for name, group in states.items()
        if group
    }


def check_slo(
    latency: Union[Histogram, Dict, None],
    objectives: Dict[str, float],
    histograms: Optional[Dict[str, Union[Histogram, Dict]]] = None,
) -> List[str]:
    """Violation messages (empty = pass) for ``objectives``.

    ``latency`` answers the bare-quantile objectives (a live
    :class:`Histogram` or its ``snapshot()`` dict); ``histograms`` maps bare
    metric names to distributions for the ``quantile:name`` objectives.  A
    named objective with no recorded data is itself a violation — a gate
    that silently passes because the metric vanished is worse than a typo.
    """
    violations: List[str] = []
    for key in sorted(objectives):
        bound = objectives[key]
        quantile, target = _split_key(key)
        if target is None:
            source: Union[Histogram, Dict, None] = latency
        else:
            source = (histograms or {}).get(target)
        if source is None:
            violations.append(f"{key}: no histogram data recorded")
            continue
        if isinstance(source, Histogram):
            measured = source.quantile(_QUANTILES[quantile])
        else:
            measured = float(source.get(quantile, 0.0))
        if measured > bound:
            violations.append(
                f"{key} {measured * 1e3:.2f}ms exceeds SLO {bound * 1e3:.2f}ms"
            )
    return violations


def format_slo(objectives: Dict[str, float]) -> str:
    return ", ".join(
        f"{key}≤{objectives[key] * 1e3:g}ms" for key in sorted(objectives)
    )
