"""Tests for the online inference serving subsystem (:mod:`repro.serve`).

Acceptance properties:

* **registry round-trip** — save/load reproduces GCN, GraphSAGE and GAT
  parameters bit-for-bit and guards against graph-fingerprint mismatches;
* **serve-vs-offline equivalence** — exhaustive-sampled served logits match
  the offline full-graph forward (from a dense or a CSR adjacency) to 1e-8,
  for GCN and GraphSAGE;
* **incremental updates** — ``add_edges`` / ``remove_edges`` / ``add_node``
  keep the session CSR identical to the dense structure, bump revisions, and
  never let the engine return a stale cached prediction (while untouched
  nodes keep hitting the cache);
* **batcher determinism** — responses are independent of request coalescing
  and thread interleaving, in exhaustive and keyed-sampled modes alike.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.gnn.trainer import TrainConfig, Trainer
from repro.graphs.perturb import add_edges as dense_add_edges
from repro.serve import (
    GraphSession,
    InferenceEngine,
    ModelRegistry,
    RequestBatcher,
    ServeConfig,
    graph_fingerprint,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def trained_models(tiny_graph):
    """One quickly trained model per architecture, shared by the module."""
    models = {}
    for name in ("gcn", "graphsage", "gat"):
        # rng=0 trains all three architectures NaN-free on the tiny graph
        # (full-batch SAGE is prone to the zero-row normalize_rows collapse
        # under some inits — the instability PR 3 fixed for the block path).
        model = build_model(
            name,
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        Trainer(model, TrainConfig(epochs=25, patience=None, track_best=False)).fit(
            tiny_graph
        )
        model.eval()
        models[name] = model
    return models


def _fresh_graph(tiny_graph):
    return tiny_graph.copy()


def _absent_pairs(graph, count, seed=0):
    """``count`` non-adjacent node pairs (valid targets for add_edges)."""
    return graph.non_edge_sample(count, np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# Model registry
# --------------------------------------------------------------------- #
class TestModelRegistry:
    @pytest.mark.parametrize("name", ["gcn", "graphsage", "gat"])
    def test_round_trip_state_and_predictions(self, tmp_path, tiny_graph, trained_models, name):
        registry = ModelRegistry(str(tmp_path))
        model = trained_models[name]
        version = registry.save(f"tiny-{name}", model, graph=tiny_graph)
        assert version == 1
        loaded, meta = registry.load(f"tiny-{name}", expect_graph=tiny_graph)
        assert meta["model_type"] == name
        original_state = model.state_dict()
        loaded_state = loaded.state_dict()
        assert sorted(original_state) == sorted(loaded_state)
        for key in original_state:
            assert np.array_equal(original_state[key], loaded_state[key])
        expected = model.predict_logits(tiny_graph.features, tiny_graph.adjacency)
        served = loaded.predict_logits(tiny_graph.features, tiny_graph.adjacency)
        np.testing.assert_allclose(served, expected, atol=0)

    def test_versions_increment_and_latest_wins(self, tmp_path, tiny_graph, trained_models):
        registry = ModelRegistry(str(tmp_path))
        assert registry.save("m", trained_models["gcn"]) == 1
        assert registry.save("m", trained_models["gcn"]) == 2
        assert registry.versions("m") == [1, 2]
        _, meta = registry.load("m")
        assert meta["version"] == 2
        assert registry.list_models() == ["m"]

    def test_fingerprint_mismatch_rejected(self, tmp_path, tiny_graph, trained_models):
        registry = ModelRegistry(str(tmp_path))
        registry.save("m", trained_models["gcn"], graph=tiny_graph)
        mutated = tiny_graph.copy()
        pair = _absent_pairs(mutated, 1)[0]
        mutated.adjacency[pair[0], pair[1]] = 1.0
        mutated.adjacency[pair[1], pair[0]] = 1.0
        mutated.bump_revision()
        with pytest.raises(ValueError, match="different structure"):
            registry.load("m", expect_graph=mutated)

    def test_fingerprint_representation_independent(self, tiny_graph):
        dense = graph_fingerprint(tiny_graph.adjacency)
        csr = graph_fingerprint(CSRMatrix.from_dense(tiny_graph.adjacency))
        assert dense == csr == graph_fingerprint(tiny_graph)

    def test_missing_entries_raise(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        with pytest.raises(KeyError):
            registry.load("absent")
        with pytest.raises(KeyError):
            registry.read_meta("absent", version=3)

    def test_version_claim_skips_occupied_directories(self, tmp_path, trained_models):
        """A concurrently claimed (uncommitted) version dir is never reused."""
        import os

        registry = ModelRegistry(str(tmp_path))
        os.makedirs(tmp_path / "m" / "v1")  # another process mid-save
        assert registry.save("m", trained_models["gcn"]) == 2
        assert registry.versions("m") == [2]
        _, meta = registry.load("m")
        assert meta["version"] == 2


# --------------------------------------------------------------------- #
# Serve-vs-offline equivalence (acceptance criterion)
# --------------------------------------------------------------------- #
class TestServeOfflineEquivalence:
    @pytest.mark.parametrize("structure_form", ["dense", "csr"])
    @pytest.mark.parametrize("model_name", ["gcn", "graphsage"])
    def test_exhaustive_serving_matches_full_forward(
        self, tiny_graph, trained_models, model_name, structure_form
    ):
        model = trained_models[model_name]
        graph = _fresh_graph(tiny_graph)
        structure = graph.adjacency if structure_form == "dense" else graph.csr()
        offline = model.predict_logits(graph.features, structure)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        served = engine.predict_logits(np.arange(graph.num_nodes))
        np.testing.assert_allclose(served, offline, atol=1e-8)

    def test_single_node_and_repeated_requests(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        offline = model.predict_logits(graph.features, graph.adjacency)
        row = engine.predict_logits(5)
        np.testing.assert_allclose(row[0], offline[5], atol=1e-8)
        batch = engine.predict_logits(np.array([5, 2, 5, 9]))
        np.testing.assert_allclose(batch[0], batch[2], atol=0)
        stats = engine.cache_stats
        assert stats.hits >= 1  # node 5 was already resident

    def test_gat_full_graph_fallback(self, tiny_graph, trained_models):
        model = trained_models["gat"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        offline = model.predict_logits(graph.features, graph.adjacency)
        served = engine.predict_logits(np.arange(12))
        np.testing.assert_allclose(served, offline[:12], atol=1e-8)
        # The fallback forward produced every row; they are all cached, so
        # requests outside the first miss batch hit without a new forward.
        others = engine.predict_logits(np.arange(12, graph.num_nodes))
        np.testing.assert_allclose(others, offline[12:], atol=1e-8)
        assert engine.cache_stats.misses == 12  # only the first batch missed
        with pytest.raises(ValueError, match="no sampled forward path"):
            InferenceEngine(model, session, ServeConfig(fanouts=(3, 3)))

    def test_proba_and_labels_consistent(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session)
        nodes = np.arange(20)
        proba = engine.predict_proba(nodes)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(proba.argmax(axis=1), engine.predict_labels(nodes))


# --------------------------------------------------------------------- #
# Sampled (keyed) serving
# --------------------------------------------------------------------- #
class TestSampledServing:
    def test_sampled_predictions_batch_independent(self, tiny_graph, trained_models):
        """A node's sampled logits do not depend on its request batch."""
        model = trained_models["gcn"]
        config = ServeConfig(fanouts=(3, 3), seed=11, cache=False)
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session, config)
        alone = engine.predict_logits(7)[0]
        grouped = engine.predict_logits(np.array([2, 7, 40, 88]))[1]
        np.testing.assert_allclose(alone, grouped, atol=0)

    def test_sampled_serving_deterministic_across_engines(
        self, tiny_graph, trained_models
    ):
        model = trained_models["gcn"]
        nodes = np.arange(30)
        outputs = []
        for _ in range(2):
            session = GraphSession.from_graph(_fresh_graph(tiny_graph))
            engine = InferenceEngine(
                model, session, ServeConfig(fanouts=(3, 3), seed=5)
            )
            outputs.append(engine.predict_logits(nodes))
        np.testing.assert_allclose(outputs[0], outputs[1], atol=0)

    def test_seed_changes_sample(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        a = InferenceEngine(model, session, ServeConfig(fanouts=(2, 2), seed=0))
        b = InferenceEngine(model, session, ServeConfig(fanouts=(2, 2), seed=1))
        nodes = np.arange(session.num_nodes)
        assert not np.allclose(a.predict_logits(nodes), b.predict_logits(nodes))


# --------------------------------------------------------------------- #
# Incremental updates and cache invalidation (acceptance criterion)
# --------------------------------------------------------------------- #
class TestIncrementalUpdates:
    def test_session_csr_tracks_dense_structure(self, tiny_graph):
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        added = _absent_pairs(graph, 4, seed=1)
        session.add_edges(added)
        assert session.csr.allclose(graph.adjacency)
        assert graph.csr() is session.csr  # attach_csr keeps the O(m) view
        removed = graph.edge_list()[:5]
        session.remove_edges(removed)
        assert session.csr.allclose(graph.adjacency)
        reference = dense_add_edges(tiny_graph.adjacency, added)
        for i, j in removed:
            reference[i, j] = reference[j, i] = 0.0
        assert session.csr.allclose(reference)

    def test_mutations_bump_revision_and_version(self, tiny_graph):
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        revision, version = session.revision, session.version
        session.add_edges(_absent_pairs(graph, 1))
        assert session.revision > revision and session.version == version + 1
        assert graph.revision == session.revision

    def test_no_stale_predictions_after_add_edges(self, tiny_graph, trained_models):
        """The stale-embedding regression test of the acceptance criteria."""
        model = trained_models["gcn"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        nodes = np.arange(graph.num_nodes)
        before = engine.predict_logits(nodes)  # cache fully warm
        pairs = _absent_pairs(graph, 3, seed=2)
        session.add_edges(pairs)
        after = engine.predict_logits(nodes)
        offline = model.predict_logits(graph.features, graph.adjacency)
        np.testing.assert_allclose(after, offline, atol=1e-8)
        # The mutation must actually change some predictions...
        assert not np.allclose(after, before, atol=1e-12)
        # ...and the endpoints' own logits must reflect the new structure.
        endpoint = int(pairs[0, 0])
        np.testing.assert_allclose(after[endpoint], offline[endpoint], atol=1e-8)

    def test_no_stale_predictions_after_remove_edges(self, tiny_graph, trained_models):
        model = trained_models["graphsage"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        nodes = np.arange(graph.num_nodes)
        engine.predict_logits(nodes)
        session.remove_edges(graph.edge_list()[:4])
        after = engine.predict_logits(nodes)
        offline = model.predict_logits(graph.features, graph.adjacency)
        np.testing.assert_allclose(after, offline, atol=1e-8)

    def test_untouched_nodes_keep_hitting_cache(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        nodes = np.arange(graph.num_nodes)
        engine.predict_logits(nodes)
        hits_before = engine.cache_stats.hits
        session.add_edges(_absent_pairs(graph, 1, seed=3))
        stats = engine.cache_stats
        assert 0 < stats.invalidated < graph.num_nodes
        engine.predict_logits(nodes)
        assert engine.cache_stats.hits - hits_before > 0

    def test_dirty_set_covers_receptive_field_only(self, tiny_graph, trained_models):
        """Invalidation is the 2-hop ball of the endpoints, not the graph."""
        model = trained_models["gcn"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        engine.predict_logits(np.arange(graph.num_nodes))
        from repro.graphs.khop import khop_frontier

        pair = _absent_pairs(graph, 1, seed=4)
        old_csr = session.csr
        session.add_edges(pair)
        expected = np.union1d(
            khop_frontier(old_csr, pair.reshape(-1), 2),
            khop_frontier(session.csr, pair.reshape(-1), 2),
        )
        assert engine.cache_stats.invalidated == expected.size

    def test_add_node_served_consistently(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        engine = InferenceEngine(model, session)
        engine.predict_logits(np.arange(graph.num_nodes))
        node = session.add_node(graph.features[0], neighbors=[1, 2, 3])
        assert node == tiny_graph.num_nodes
        assert graph.num_nodes == tiny_graph.num_nodes + 1
        assert session.csr.allclose(graph.adjacency)
        served = engine.predict_logits(np.arange(session.num_nodes))
        offline = model.predict_logits(graph.features, graph.adjacency)
        np.testing.assert_allclose(served, offline, atol=1e-8)

    def test_detached_session_over_csr(self, tiny_graph, trained_models):
        """Sessions work without an attached Graph (benchmark-scale path)."""
        model = trained_models["gcn"]
        csr = CSRMatrix.from_dense(tiny_graph.adjacency)
        session = GraphSession(csr, tiny_graph.features)
        engine = InferenceEngine(model, session)
        nodes = np.arange(session.num_nodes)
        before = engine.predict_logits(nodes)
        np.testing.assert_allclose(
            before,
            model.predict_logits(tiny_graph.features, tiny_graph.adjacency),
            atol=1e-8,
        )
        pairs = _absent_pairs(tiny_graph, 2, seed=5)
        session.add_edges(pairs)
        after = engine.predict_logits(nodes)
        reference = model.predict_logits(
            tiny_graph.features, dense_add_edges(tiny_graph.adjacency, pairs)
        )
        np.testing.assert_allclose(after, reference, atol=1e-8)

    def test_invalid_mutations_rejected(self, tiny_graph):
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        with pytest.raises(ValueError, match="self-loops"):
            session.add_edges(np.array([[1, 1]]))
        with pytest.raises(ValueError, match="out of range"):
            session.remove_edges(np.array([[0, 10_000]]))
        with pytest.raises(ValueError, match="features_row"):
            session.add_node(np.zeros(3))

    def test_weighted_existing_edge_keeps_weight_in_both_views(self, tiny_graph):
        """Adding an existing weighted edge keeps its stored weight — in the
        CSR *and* the attached dense adjacency (they must never diverge)."""
        graph = _fresh_graph(tiny_graph)
        i, j = graph.edge_list()[0]
        graph.adjacency[i, j] = graph.adjacency[j, i] = 0.5
        graph.bump_revision()
        session = GraphSession.from_graph(graph)
        session.add_edges(np.array([[i, j]]))
        assert graph.adjacency[i, j] == 0.5
        assert session.csr.allclose(graph.adjacency)

    def test_failed_add_node_leaves_session_untouched(self, tiny_graph):
        """Regression: invalid neighbours must not grow any state."""
        graph = _fresh_graph(tiny_graph)
        session = GraphSession.from_graph(graph)
        n, revision, version = session.num_nodes, session.revision, session.version
        with pytest.raises(ValueError, match="existing node indices"):
            session.add_node(graph.features[0], neighbors=[n + 5])
        with pytest.raises(ValueError, match="existing node indices"):
            # the new node's own index is not a valid neighbour either
            session.add_node(graph.features[0], neighbors=[n])
        assert session.num_nodes == n
        assert session.features.shape[0] == n
        assert graph.num_nodes == n and graph.features.shape[0] == n
        assert session.revision == revision and session.version == version

    def test_late_store_under_stale_revision_never_resurrects(
        self, tiny_graph, trained_models
    ):
        """Regression: a miss computed over pre-mutation structure that lands
        *after* the mutation's invalidation must not become a hit when a
        later mutation revalidates the surviving entries."""
        from repro.serve.engine import LogitCache

        cache = LogitCache(maxsize=16)
        cache.store([5], 1, np.ones((1, 3)))
        cache.invalidate(np.array([5]), 2, expected_revision=1)  # 5 now dirty
        cache.store([5], 1, np.full((1, 3), 7.0))  # late store, old revision
        cache.invalidate(np.array([0]), 3, expected_revision=2)  # untouched by 5
        found, missing = cache.lookup([5], 3)
        assert missing == [5] and not found, "stale row was resurrected"


    def test_miss_racing_a_mutation_samples_one_version(self):
        """Regression: the session bumps its version before notifying the
        engine, so a miss running in between (here: inside an earlier
        listener) once sampled the old structure under the new key and
        matched neither version.  It must answer for the old version."""
        csr, features, _ = generate_scaling_graph(
            2_000, num_classes=3, average_degree=8.0, num_features=8, seed=0
        )
        model = build_model("gcn", in_features=8, num_classes=3, hidden_features=8, rng=0)
        model.eval()
        config = ServeConfig(fanouts=(3, 3), cache=False)
        nodes = np.arange(2_000)
        pairs = np.array([[0, 1_000], [7, 1_500], [42, 1_999]])
        old = InferenceEngine(model, GraphSession(csr, features), config)
        old_reference = old.predict_logits(nodes)

        session = GraphSession(csr, features)
        raced = []
        session.add_listener(lambda event: raced.append(engine.predict_logits(nodes)))
        engine = InferenceEngine(model, session, config)
        session.add_edges(pairs)
        new_reference = InferenceEngine(
            model, GraphSession(session.csr, features, initial_version=1), config
        ).predict_logits(nodes)

        np.testing.assert_array_equal(raced[0], old_reference)
        assert not np.allclose(old_reference, new_reference, atol=1e-8)
        np.testing.assert_array_equal(engine.predict_logits(nodes), new_reference)

    def test_concurrent_misses_each_match_one_version(self):
        """Readers racing a stream of mutations: every answer equals the
        answer for exactly one session version."""
        csr, features, _ = generate_scaling_graph(
            2_000, num_classes=3, average_degree=8.0, num_features=8, seed=0
        )
        model = build_model("gcn", in_features=8, num_classes=3, hidden_features=8, rng=0)
        model.eval()
        config = ServeConfig(fanouts=(3, 3), cache=False)
        nodes = np.arange(0, 2_000, 5)
        mutations = [np.array([[k, 1_000 + k], [2 * k + 1, 1_999 - k]]) for k in range(6)]

        reference_session = GraphSession(csr, features)
        reference = InferenceEngine(model, reference_session, config)
        expected = [reference.predict_logits(nodes)]
        for pairs in mutations:
            reference_session.add_edges(pairs)
            expected.append(reference.predict_logits(nodes))

        session = GraphSession(csr, features)
        # A slow earlier listener widens the window between the session's
        # version bump and the engine's own notification.
        session.add_listener(lambda event: time.sleep(0.002))
        engine = InferenceEngine(model, session, config)
        answers, errors = [], []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    answers.append(engine.predict_logits(nodes))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for pairs in mutations:
                session.add_edges(pairs)
                time.sleep(0.005)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert answers
        for answer in answers:
            assert any(np.array_equal(answer, rows) for rows in expected)


# --------------------------------------------------------------------- #
# Request batching
# --------------------------------------------------------------------- #
class TestRequestBatcher:
    def test_inline_flush_matches_engine(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session)
        batcher = RequestBatcher(engine, max_batch_size=8)
        nodes = [3, 1, 3, 77, 12, 1]
        futures = [batcher.submit(node) for node in nodes]
        answered = batcher.flush()
        assert answered == len(nodes)
        expected = engine.predict_proba(np.asarray(nodes))
        for future, row in zip(futures, expected):
            np.testing.assert_allclose(future.result(), row, atol=0)
        assert batcher.stats.requests == len(nodes)

    @pytest.mark.parametrize("fanouts", [None, (3, 3)])
    def test_determinism_under_thread_executor(
        self, tiny_graph, trained_models, fanouts
    ):
        """Concurrent submitters + background drain = same answers as direct."""
        model = trained_models["gcn"]
        config = ServeConfig(fanouts=fanouts, seed=2)
        reference_session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        reference = InferenceEngine(model, reference_session, config)
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, tiny_graph.num_nodes, size=120)
        expected = reference.predict_proba(nodes)

        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session, config)
        batcher = RequestBatcher(engine, max_batch_size=16).start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = list(pool.map(batcher.submit, nodes.tolist()))
            rows = np.stack([future.result(timeout=30) for future in futures])
        finally:
            batcher.stop()
        np.testing.assert_allclose(rows, expected, atol=0)
        assert batcher.stats.requests == nodes.size

    def test_invalid_node_fails_alone(self, tiny_graph, trained_models):
        """A bad request must not poison the other requests in its batch."""
        model = trained_models["gcn"]
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session)
        batcher = RequestBatcher(engine, max_batch_size=8)
        good = batcher.submit(3)
        bad = batcher.submit(session.num_nodes)
        batcher.flush()
        np.testing.assert_allclose(
            good.result(), engine.predict_proba(np.array([3]))[0], atol=0
        )
        with pytest.raises(ValueError, match="out of bounds"):
            bad.result()

    def test_background_predict_and_stop_drains(self, tiny_graph, trained_models):
        model = trained_models["gcn"]
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session)
        batcher = RequestBatcher(engine, max_batch_size=4).start()
        try:
            row = batcher.predict(9, timeout=30)
        finally:
            batcher.stop()
        np.testing.assert_allclose(
            row, engine.predict_proba(np.array([9]))[0], atol=0
        )


# --------------------------------------------------------------------- #
# Registry concurrency + retention (cluster satellites)
# --------------------------------------------------------------------- #
def _concurrent_save(root: str) -> int:
    """Child-process body: register one model, return the claimed version."""
    from repro.gnn.models import build_model
    from repro.serve import ModelRegistry

    model = build_model(
        "gcn", in_features=4, num_classes=2, hidden_features=4, rng=0
    )
    return ModelRegistry(root).save("shared", model)


class TestRegistryConcurrency:
    def test_concurrent_saves_claim_distinct_versions(self, tmp_path):
        """mkdir-as-lock allocation: parallel savers never share a version."""
        import multiprocessing

        context = multiprocessing.get_context()
        with context.Pool(4) as pool:
            versions = pool.map(_concurrent_save, [str(tmp_path)] * 8)
        assert sorted(versions) == list(range(1, 9))
        registry = ModelRegistry(str(tmp_path))
        assert registry.versions("shared") == list(range(1, 9))
        # every claimed entry is fully committed and loadable
        for version in versions:
            model, meta = registry.load("shared", version=version)
            assert meta["version"] == version


class TestRegistryRetention:
    def _fill(self, root, count=5):
        registry = ModelRegistry(root)
        model = build_model(
            "gcn", in_features=4, num_classes=2, hidden_features=4, rng=0
        )
        for _ in range(count):
            registry.save("m", model)
        return registry

    def test_prune_keeps_newest_k(self, tmp_path):
        registry = self._fill(str(tmp_path))
        removed = registry.prune("m", keep_last=2)
        assert removed == [1, 2, 3]
        assert registry.versions("m") == [4, 5]
        # versions are never reused after a prune
        model = build_model(
            "gcn", in_features=4, num_classes=2, hidden_features=4, rng=0
        )
        assert registry.save("m", model) == 6

    def test_pinned_versions_survive(self, tmp_path):
        registry = self._fill(str(tmp_path))
        registry.pin("m", 2)
        assert registry.pinned_versions("m") == [2]
        assert registry.prune("m", keep_last=1) == [1, 3, 4]
        assert registry.versions("m") == [2, 5]
        registry.unpin("m", 2)
        assert registry.prune("m", keep_last=1) == [2]
        assert registry.versions("m") == [5]

    def test_latest_always_survives(self, tmp_path):
        registry = self._fill(str(tmp_path), count=3)
        assert registry.prune("m", keep_last=0) == [1, 2]
        assert registry.versions("m") == [3]
        _, meta = registry.load("m")
        assert meta["version"] == 3

    def test_pin_unknown_version_raises(self, tmp_path):
        registry = self._fill(str(tmp_path), count=1)
        with pytest.raises(KeyError):
            registry.pin("m", 9)
        registry.unpin("m", 9)  # unpin is a forgiving no-op

    def test_prune_validates_keep_last(self, tmp_path):
        registry = self._fill(str(tmp_path), count=1)
        with pytest.raises(ValueError, match="keep_last"):
            registry.prune("m", keep_last=-1)


# --------------------------------------------------------------------- #
# Fused-plan serving counters and the GAT flush amortisation
# --------------------------------------------------------------------- #
class TestPlanServing:
    def test_cache_stats_always_an_object(self, tiny_graph, trained_models):
        """With caching disabled the stats still carry the plan counters."""
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(
            trained_models["gcn"], session, ServeConfig(cache=False)
        )
        stats = engine.cache_stats
        assert stats.hits == 0 and stats.misses == 0 and stats.size == 0
        engine.predict_logits(np.arange(8))
        stats = engine.cache_stats
        assert stats.plans_recorded + stats.plan_replays == 1
        assert stats.hits == 0 and stats.misses == 0

    def test_gat_fallback_forward_once_per_flush(
        self, tiny_graph, trained_models, monkeypatch
    ):
        """A flush split into several miss batches pays one full forward."""
        model = trained_models["gat"]
        session = GraphSession.from_graph(_fresh_graph(tiny_graph))
        engine = InferenceEngine(model, session, ServeConfig(cache=False))
        calls = {"n": 0}
        original = type(model).predict_logits

        def counting(self, features, adjacency):
            calls["n"] += 1
            return original(self, features, adjacency)

        monkeypatch.setattr(type(model), "predict_logits", counting)
        batcher = RequestBatcher(engine, max_batch_size=4)
        for node in range(12):
            batcher.submit(node)
        assert batcher.flush() == 12
        assert batcher.stats.batches == 3
        assert calls["n"] == 1, "3 miss batches must share one forward"
        # A mutation drops the memo: the next batch pays exactly one more.
        session.add_edges(_absent_pairs(_fresh_graph(tiny_graph), 1, seed=9))
        engine.predict_logits(np.arange(6))
        engine.predict_logits(np.arange(6, 12))
        assert calls["n"] == 2
