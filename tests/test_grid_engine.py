"""Tests for the declarative experiment grid engine.

The acceptance property of the engine is *executor transparency*: the quick
table3 + figure4 grids must produce bitwise-identical ``ExperimentResult``s
under the serial, thread and process executors, with the artifact cache on
and off.  Alongside that, unit tests cover the cell-spec hashing, artifact
cache semantics, operator-cache revision safety and the ComputeConfig /
CLI surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ComputeConfig
from repro.experiments import figures, tables
from repro.experiments.__main__ import build_parser
from repro.experiments.grid import CellSpec, GridRunner, run_grid
from repro.experiments.presets import ExperimentPreset
from repro.graphs.revision import adjacency_revision, ensure_revision, tag_adjacency
from repro.sparse import OperatorCache, use_operator_cache
from repro.sparse.backend import build_propagation
from repro.utils.cache import ArtifactCache, stable_hash


TINY_PRESET = ExperimentPreset(
    name="grid-test",
    dataset_scale=0.3,
    epochs=8,
    models=("gcn",),
    hidden_features=8,
    cg_iterations=3,
)


def tiny_spec(**overrides) -> CellSpec:
    base = dict(
        kind="methods",
        dataset="cora",
        preset=TINY_PRESET,
        model="gcn",
        methods=("vanilla", "reg"),
        seed=0,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestCellSpec:
    def test_key_is_content_stable(self):
        assert tiny_spec().key() == tiny_spec().key()
        assert tiny_spec().key() != tiny_spec(seed=1).key()
        assert tiny_spec().key() != tiny_spec(methods=("vanilla",)).key()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(kind="bogus")

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = tiny_spec()
        assert hash(spec) == hash(tiny_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_stable_hash_rejects_exotic_values(self):
        with pytest.raises(TypeError):
            stable_hash(object())


class TestArtifactCache:
    def test_get_or_create_counts_hits_and_misses(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.contains("a") and cache.contains("c") and not cache.contains("b")

    def test_concurrent_same_key_builds_once(self):
        import threading

        cache = ArtifactCache()
        builds = []

        def build():
            builds.append(1)
            return "artifact"

        threads = [
            threading.Thread(target=lambda: cache.get_or_create("cell", build))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1


class TestOperatorCacheRevisions:
    def test_cache_hits_for_same_revision(self, tiny_graph):
        cache = OperatorCache()
        with use_operator_cache(cache):
            first = build_propagation(tiny_graph.adjacency, kind="gcn")
            second = build_propagation(tiny_graph.adjacency, kind="gcn")
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_bump_revision_invalidates(self):
        from repro.graphs.graph import Graph

        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        graph = Graph(adjacency=adjacency, features=np.eye(4))
        cache = OperatorCache()
        with use_operator_cache(cache):
            before = build_propagation(graph.adjacency, kind="gcn")
            # In-place mutation must go through bump_revision; the cache then
            # can never serve the stale normalisation.
            graph.adjacency[2, 3] = graph.adjacency[3, 2] = 1.0
            graph.bump_revision()
            after = build_propagation(graph.adjacency, kind="gcn")
        assert before is not after
        assert not np.allclose(before.to_array(), after.to_array())

    def test_untagged_arrays_never_cached(self, rng):
        adjacency = (rng.random((6, 6)) > 0.5).astype(float)
        adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
        cache = OperatorCache()
        with use_operator_cache(cache):
            build_propagation(adjacency, kind="gcn")
            build_propagation(adjacency, kind="gcn")
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_ensure_revision_refreshes_unowned_tags(self, rng):
        adjacency = (rng.random((5, 5)) > 0.5).astype(float)
        adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
        first = ensure_revision(adjacency)
        assert adjacency_revision(adjacency) == first
        second = ensure_revision(adjacency)
        assert second != first  # unowned: refreshed, a mutated array can't stale-hit
        owned = tag_adjacency(adjacency, owned=True)
        assert ensure_revision(adjacency) == owned  # owned: stable

    def test_graph_revisions_are_unique_per_instance(self, tiny_graph):
        copy = tiny_graph.copy()
        assert copy.revision != tiny_graph.revision
        derived = tiny_graph.with_adjacency(tiny_graph.adjacency.copy())
        assert derived.revision not in (copy.revision, tiny_graph.revision)


class TestGridRunner:
    def test_repeated_cell_is_served_from_cache(self):
        runner = GridRunner()
        spec = tiny_spec()
        first = runner.run([spec])
        second = runner.run([spec])
        assert not first[0].cached and second[0].cached
        assert second[0].payload == first[0].payload
        assert runner.cache_stats.hits >= 1

    def test_duplicate_specs_in_one_batch_execute_once(self):
        runner = GridRunner()
        spec = tiny_spec()
        results = runner.run([spec, spec])
        assert [cell.cached for cell in results] == [False, True]
        assert results[0].payload == results[1].payload

    def test_methods_are_shared_across_overlapping_cells(self):
        runner = GridRunner()
        runner.run([tiny_spec(methods=("vanilla", "reg"))])
        misses_before = runner.cache_stats.misses
        runner.run([tiny_spec(methods=("vanilla", "reg", "pp"))])
        # Only the new method (train + eval) and the new cell payload miss;
        # vanilla and reg resolve from the first cell's artifacts.
        assert runner.cache_stats.misses == misses_before + 3
        assert runner.cache_stats.hits >= 4

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            GridRunner(executor="fleet")
        with pytest.raises(ValueError):
            GridRunner(jobs=0)

    def test_from_compute_config(self):
        runner = GridRunner.from_config(
            ComputeConfig(executor="thread", jobs=3, cache=False)
        )
        assert runner.executor == "thread" and runner.jobs == 3
        assert runner.artifact_cache is None and runner.operator_cache is None

    def test_jobs_imply_thread_executor(self):
        assert GridRunner(jobs=2).executor == "thread"
        assert GridRunner().executor == "serial"


class TestComputeConfig:
    def test_executor_validation(self):
        with pytest.raises(ValueError):
            ComputeConfig(executor="boat")
        with pytest.raises(ValueError):
            ComputeConfig(jobs=0)
        config = ComputeConfig(executor="process", jobs=2, cache=False)
        assert config.executor == "process"

    def test_cli_parser_flags(self):
        args = build_parser().parse_args(
            ["table3", "--jobs", "2", "--executor", "process", "--no-cache"]
        )
        assert args.jobs == 2 and args.executor == "process" and args.cache is False
        assert build_parser().parse_args(["table3"]).cache is True


def _result_fingerprint(result):
    return (result.experiment, result.rows, result.metadata)


class TestExecutorDeterminism:
    """Acceptance: quick table3 + figure4 identical across executors and caches."""

    @pytest.fixture(scope="class")
    def reference(self):
        runner = GridRunner(executor="serial", cache=True)
        return {
            "table3": _result_fingerprint(
                tables.table3_accuracy_bias("quick", seed=0, runner=runner)
            ),
            "figure4": _result_fingerprint(
                figures.figure4_attack_auc("quick", seed=0, runner=runner)
            ),
        }

    @pytest.mark.parametrize(
        "executor,cache",
        [("serial", False), ("thread", True), ("process", True)],
        ids=["serial-nocache", "thread-cache", "process-cache"],
    )
    def test_bitwise_identical_results(self, reference, executor, cache):
        runner = GridRunner(executor=executor, jobs=2, cache=cache)
        table3 = tables.table3_accuracy_bias("quick", seed=0, runner=runner)
        figure4 = figures.figure4_attack_auc("quick", seed=0, runner=runner)
        assert _result_fingerprint(table3) == reference["table3"]
        assert _result_fingerprint(figure4) == reference["figure4"]

    def test_table3_and_figure4_share_cells(self, reference):
        runner = GridRunner(executor="serial", cache=True)
        tables.table3_accuracy_bias("quick", seed=0, runner=runner)
        hits_before = runner.cache_stats.hits
        figure4 = figures.figure4_attack_auc("quick", seed=0, runner=runner)
        # Figure 4 declares the exact cells Table III trained: all hits.
        assert runner.cache_stats.hits >= hits_before + 3
        assert _result_fingerprint(figure4) == reference["figure4"]


class TestQuickJaccardEquivalence:
    """CSR vs dense Jaccard agreement on the quick figure4 datasets.

    The evaluation bias uses the CSR similarity; the InFoRM regulariser and
    the bias-influence gradient use the dense one.
    """

    def test_quick_figure4_jaccard_sparse_vs_dense(self):
        from repro.datasets import load_dataset
        from repro.graphs.similarity import jaccard_similarity

        preset = CellSpec.resolve_preset("quick")
        for dataset in preset.strong_homophily_datasets:
            graph = load_dataset(dataset, seed=0, scale=preset.dataset_scale)
            dense = jaccard_similarity(graph.adjacency)
            sparse = jaccard_similarity(graph.csr())
            assert np.allclose(sparse.to_dense(), dense, atol=1e-8)
