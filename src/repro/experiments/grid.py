"""Declarative experiment grid engine.

Every table and figure of the paper evaluates the same (dataset × model ×
method × seed) cells; this module turns those grids from hand-rolled serial
loops into *declarations*:

* :class:`CellSpec` — a frozen, hashable, picklable description of one cell
  (kind, dataset, model, methods, seed, preset, overrides);
* :class:`GridRunner` — expands specs into cells and executes them through a
  pluggable executor (``serial`` / ``thread`` / ``process``), deduplicating
  shared work via a content-keyed :class:`~repro.utils.cache.ArtifactCache`
  (finished cell payloads and trained ``MethodRun`` artifacts) and scoping a
  propagation-operator cache around every cell.

Cells are independent and deterministic, and autodiff/operator-cache state
is ``contextvars``-scoped, so the executors produce bitwise-identical
:class:`~repro.experiments.reporting.ExperimentResult` rows — parallelism and
caching change wall-clock only.  The determinism tests assert this for the
quick table3/figure4 grids across all three executors with the cache on and
off.
"""

from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import GRID_EXECUTORS as EXECUTORS
from repro.experiments.presets import ExperimentPreset, get_preset
from repro.sparse.opcache import OperatorCache, use_operator_cache
from repro.utils.cache import ArtifactCache, CacheStats, stable_hash

__all__ = [
    "EXECUTORS",
    "CellSpec",
    "CellResult",
    "GridRunner",
    "run_grid",
]

_MISSING = object()


def _default_jobs() -> int:
    return max(2, min(4, os.cpu_count() or 2))


@dataclass(frozen=True)
class CellSpec:
    """One cell of an experiment grid.

    Frozen and built from primitives/tuples only, so specs are hashable
    (grid-level dedup), picklable (process executors) and content-hashable
    (artifact cache keys).  ``preset`` is embedded as the resolved
    :class:`ExperimentPreset` value, not a registry name, so ad-hoc presets
    participate in caching correctly.
    """

    kind: str
    dataset: str
    preset: ExperimentPreset
    model: str = "gcn"
    methods: Tuple[str, ...] = ()
    seed: int = 0
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        from repro.experiments.cells import CELL_KINDS

        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; available: {', '.join(sorted(CELL_KINDS))}"
            )

    @staticmethod
    def resolve_preset(preset) -> ExperimentPreset:
        return get_preset(preset) if isinstance(preset, str) else preset

    def key(self) -> str:
        """Content key of the finished cell payload in the artifact cache."""
        return f"cell:{stable_hash(self)}"


@dataclass
class CellResult:
    """One executed (or cache-served) cell."""

    spec: CellSpec
    payload: Dict
    cached: bool = False
    duration: float = 0.0


class GridRunner:
    """Executes cell grids through a pluggable executor with shared caches.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``; ``None`` infers
        ``"thread"`` when ``jobs > 1`` and ``"serial"`` otherwise.
    jobs:
        Worker count for the parallel executors (default: a small multiple of
        the CPU count, capped at 4).
    cache:
        Enables the artifact cache (cell payloads + trained methods) and the
        per-cell propagation-operator cache.  Both are deterministic, so this
        flag trades memory for wall-clock only.
    cache_dir:
        Optional directory for the *persistent* artifact tier: entries are
        spilled to disk so repeated CLI invocations (and process-pool
        workers, which share the directory) reuse trained cells across
        process boundaries.  Implies ``cache``; ignored when an explicit
        ``artifact_cache`` is supplied.
    artifact_cache / operator_cache:
        Pre-built caches to share across runners (e.g. one CLI invocation).
    """

    def __init__(
        self,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        artifact_cache: Optional[ArtifactCache] = None,
        operator_cache: Optional[OperatorCache] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        if executor is None:
            executor = "thread" if (jobs or 1) > 1 else "serial"
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; available: {', '.join(EXECUTORS)}"
            )
        self.executor = executor
        self.jobs = jobs if jobs is not None else (
            1 if executor == "serial" else _default_jobs()
        )
        self.cache_enabled = bool(cache) or cache_dir is not None
        self.cache_dir = cache_dir
        self.artifact_cache = artifact_cache if artifact_cache is not None else (
            ArtifactCache(directory=cache_dir) if self.cache_enabled else None
        )
        self.operator_cache = operator_cache if operator_cache is not None else (
            OperatorCache() if self.cache_enabled else None
        )

    @classmethod
    def from_config(cls, compute, **kwargs) -> "GridRunner":
        """Build a runner from a :class:`repro.core.config.ComputeConfig`."""
        return cls(
            executor=compute.executor,
            jobs=compute.jobs,
            cache=compute.cache,
            cache_dir=getattr(compute, "cache_dir", None),
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, specs: Sequence[CellSpec]) -> List[CellResult]:
        """Execute ``specs``, returning one :class:`CellResult` per spec in order.

        Identical specs within the batch are executed once; specs whose
        payload is already in the artifact cache (e.g. from a previous run
        through the same runner) are served without executing.
        """
        specs = list(specs)
        results: List[Optional[CellResult]] = [None] * len(specs)
        pending: "Dict[CellSpec, List[int]]" = {}
        for index, spec in enumerate(specs):
            if self.artifact_cache is not None:
                payload = self.artifact_cache.get(spec.key(), _MISSING)
                if payload is not _MISSING:
                    self.artifact_cache.record_hit()
                    results[index] = CellResult(spec, payload, cached=True)
                    continue
            pending.setdefault(spec, []).append(index)

        executed = self._execute_pending(list(pending))
        for spec, indices in pending.items():
            payload, duration = executed[spec]
            if self.artifact_cache is not None:
                self.artifact_cache.put(spec.key(), payload)
                self.artifact_cache.record_miss()
            for position, index in enumerate(indices):
                results[index] = CellResult(
                    spec, payload, cached=position > 0, duration=duration if position == 0 else 0.0
                )
        return results  # type: ignore[return-value]

    def _execute_pending(
        self, specs: List[CellSpec]
    ) -> Dict[CellSpec, Tuple[Dict, float]]:
        if not specs:
            return {}
        if self.executor == "serial" or self.jobs == 1 or len(specs) == 1:
            return {spec: self._execute_one(spec) for spec in specs}
        if self.executor == "process":
            return self._execute_process(specs)
        return self._execute_thread(specs)

    def _cell_scope(self):
        """Operator-cache context applied around one cell.

        Enabled runners share their cache; cache-disabled runners mask any
        ambient cache so "cache off" means off (the determinism tests rely
        on this).
        """
        return use_operator_cache(self.operator_cache if self.cache_enabled else None)

    def _execute_one(self, spec: CellSpec) -> Tuple[Dict, float]:
        from repro.experiments.cells import execute_cell

        start = time.perf_counter()
        with self._cell_scope():
            payload = execute_cell(spec, artifact_cache=self.artifact_cache)
        return payload, time.perf_counter() - start

    def _execute_thread(
        self, specs: List[CellSpec]
    ) -> Dict[CellSpec, Tuple[Dict, float]]:
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                # Each task runs in a copy of the submitting context so the
                # ambient autodiff-mode contextvars propagate into
                # worker threads.
                spec: pool.submit(
                    contextvars.copy_context().run, self._execute_one, spec
                )
                for spec in specs
            }
            return {spec: future.result() for spec, future in futures.items()}

    def _execute_process(
        self, specs: List[CellSpec]
    ) -> Dict[CellSpec, Tuple[Dict, float]]:
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                spec: pool.submit(
                    _process_cell, spec, self.cache_enabled, self.cache_dir
                )
                for spec in specs
            }
            return {spec: future.result() for spec, future in futures.items()}

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> Optional[CacheStats]:
        return None if self.artifact_cache is None else self.artifact_cache.stats


def _process_cell(
    spec: CellSpec, cache: bool, cache_dir: Optional[str] = None
) -> Tuple[Dict, float]:
    """Top-level process-executor entry point (must be picklable by name).

    Workers get fresh per-task caches: the operator cache still collapses the
    per-epoch normalisation rebuilds inside the cell, while results stay
    independent of worker scheduling.  A shared ``cache_dir`` extends
    artifact deduplication across workers through the persistent tier.
    """
    from repro.experiments.cells import execute_cell

    start = time.perf_counter()
    with use_operator_cache(OperatorCache() if cache else None):
        payload = execute_cell(
            spec,
            artifact_cache=(
                ArtifactCache(directory=cache_dir) if cache else None
            ),
        )
    return payload, time.perf_counter() - start


def run_grid(
    specs: Sequence[CellSpec], runner: Optional[GridRunner] = None
) -> List[CellResult]:
    """Execute a grid with ``runner`` (or a fresh serial runner)."""
    return (runner or GridRunner()).run(specs)
