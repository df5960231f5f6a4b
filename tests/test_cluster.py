"""Tests for the sharded serving subsystem (:mod:`repro.cluster`).

Acceptance properties:

* **ownership** — both strategies produce a complete, bounded-balance
  ownership;
* **full replicas** — after any mix of mutations every worker's structure
  and features equal the global session's byte for byte;
* **exhaustive equivalence** — router predictions equal the single-process
  engine (and therefore the offline full-graph forward) to 1e-8, for GCN and
  GraphSAGE, from a dense or a CSR initial structure, through in-process and
  child-process workers alike;
* **cross-shard consistency** — after ``add_edges`` / ``remove_edges`` /
  ``add_node`` spanning shard boundaries, router answers equal a *fresh*
  single-process engine over the mutated structure (no stale logits),
  under serial and background-drain batching;
* **determinism** — keyed-sampled cluster serving matches a single-process
  engine with the same seed because every shard applies every mutation,
  which keeps its sampling key equal to the global session's;
* **dead workers** — a request that reaches a dead worker raises, and never
  leaves a reply queued for a later request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterWorkerError,
    ShardRouter,
    ShardWorker,
    WorkerInit,
    assign_owners,
)
from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.graphs.khop import khop_frontier
from repro.serve import GraphSession, InferenceEngine, RequestBatcher, ServeConfig

NUM_NODES = 320
NUM_FEATURES = 8
NUM_CLASSES = 3


@pytest.fixture(scope="module")
def small_graph():
    csr, features, labels = generate_scaling_graph(
        NUM_NODES,
        num_classes=NUM_CLASSES,
        average_degree=5.0,
        num_features=NUM_FEATURES,
        seed=0,
    )
    return csr, features


@pytest.fixture(scope="module")
def gcn_model():
    model = build_model(
        "gcn",
        in_features=NUM_FEATURES,
        num_classes=NUM_CLASSES,
        hidden_features=8,
        rng=0,
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def sage_model():
    model = build_model(
        "graphsage",
        in_features=NUM_FEATURES,
        num_classes=NUM_CLASSES,
        hidden_features=8,
        rng=1,
    )
    model.eval()
    return model


def _cross_shard_absent_pairs(csr, owners, count, seed=0):
    """Non-adjacent pairs whose endpoints live on different shards."""
    dense = csr.to_dense()
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = (int(v) for v in rng.integers(0, csr.shape[0], size=2))
        if i != j and owners[i] != owners[j] and dense[i, j] == 0.0:
            pairs.append((i, j))
    return np.asarray(pairs, dtype=np.int64)


def _fresh_reference(model, session, config=None):
    """A brand-new single-process engine over the session's current state."""
    return InferenceEngine(
        model,
        GraphSession(session.csr, session.features),
        config or ServeConfig(),
    )


# --------------------------------------------------------------------- #
# Ownership
# --------------------------------------------------------------------- #
class TestPartitioner:
    @pytest.mark.parametrize("strategy", ["hash"])
    def test_owners_cover_all_nodes(self, small_graph, strategy):
        csr, _ = small_graph
        owners = assign_owners(csr, 4, strategy=strategy)
        assert owners.shape == (NUM_NODES,)
        assert owners.min() >= 0 and owners.max() < 4
        # Deterministic: same inputs, same assignment.
        assert np.array_equal(owners, assign_owners(csr, 4, strategy=strategy))

    def test_shard_structure_is_exact_row_subset(self, small_graph, gcn_model):
        """A full replica's row subset is every row: the owned sets partition
        the nodes, and each worker's structure and features are the global
        ones, with no row masked out."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        dense = csr.to_dense()
        with ShardRouter(
            gcn_model, session, 3, strategy="hash", workers="inproc"
        ) as router:
            owned = [
                np.flatnonzero(worker._worker._owned_mask) for worker in router.workers
            ]
            assert np.array_equal(np.sort(np.concatenate(owned)), np.arange(NUM_NODES))
            for shard, worker in enumerate(router.workers):
                assert np.array_equal(owned[shard], np.flatnonzero(router.owners == shard))
                replica = worker._worker.session
                assert replica.csr.shape == csr.shape
                assert np.array_equal(replica.csr.to_dense(), dense)
                np.testing.assert_array_equal(replica.features, features)

    def test_stats_report(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(
            gcn_model, session, 4, strategy="hash", workers="inproc"
        ) as router:
            query = np.arange(0, NUM_NODES, 3)
            router.predict_logits(query)
            stats = router.stats()
            assert [s["shard_id"] for s in stats.shards] == [0, 1, 2, 3]
            sizes = np.bincount(router.owners, minlength=4)
            assert [s["owned"] for s in stats.shards] == sizes.tolist()
            assert sizes.sum() == NUM_NODES
            expected = np.bincount(router.owners[query], minlength=4)
            assert [s["requests"] for s in stats.shards] == expected.tolist()
            assert stats.requests == query.size
            assert [s["version"] for s in stats.shards] == [session.version] * 4

    def test_validation_errors(self, small_graph):
        csr, _ = small_graph
        with pytest.raises(ValueError, match="strategy"):
            assign_owners(csr, 2, strategy="metis")
        with pytest.raises(ValueError, match="num_shards"):
            assign_owners(csr, 0)
        with pytest.raises(ValueError, match="shards"):
            assign_owners(csr, NUM_NODES + 1)


# --------------------------------------------------------------------- #
# Shard worker
# --------------------------------------------------------------------- #
def _shard_zero(csr, features, model):
    """A worker for shard 0 of a 2-shard hash ownership, and that ownership."""
    owners = assign_owners(csr, 2)
    init = WorkerInit(
        shard_id=0,
        owned=np.flatnonzero(owners == 0),
        csr=csr,
        features=features,
        model=model,
    )
    return ShardWorker(init), owners


class TestShardWorker:
    def test_rejects_unowned_nodes(self, small_graph, gcn_model):
        worker, owners = _shard_zero(*small_graph, gcn_model)
        stray = int(np.flatnonzero(owners == 1)[0])
        with pytest.raises(ClusterWorkerError, match="does not own"):
            worker.predict_logits(np.asarray([stray]))

    def test_stats_shape(self, small_graph, gcn_model):
        worker, owners = _shard_zero(*small_graph, gcn_model)
        owned = np.flatnonzero(owners == 0)
        worker.predict_logits(owned[:5])
        stats = worker.stats()
        assert stats["requests"] == 5
        assert stats["owned"] == owned.size
        assert stats["version"] == 0


# --------------------------------------------------------------------- #
# Router: exhaustive equivalence
# --------------------------------------------------------------------- #
class TestRouterEquivalence:
    @pytest.mark.parametrize("structure_form", ["dense", "csr"])
    @pytest.mark.parametrize("model_name", ["gcn", "sage"])
    def test_matches_single_process_engine(
        self, small_graph, gcn_model, sage_model, model_name, structure_form
    ):
        csr, features = small_graph
        model = gcn_model if model_name == "gcn" else sage_model
        rng = np.random.default_rng(1)
        nodes = rng.integers(0, NUM_NODES, size=80)
        structure = csr.to_dense() if structure_form == "dense" else csr
        session = GraphSession(structure, features)
        with ShardRouter(model, session, 3, workers="inproc") as router:
            # The reference starts from the original CSR, so a dense initial
            # structure must convert to the same graph.
            reference = _fresh_reference(model, GraphSession(csr, features))
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                reference.predict_logits(nodes),
                atol=1e-8,
            )

    def test_matches_offline_full_graph_forward(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 4, workers="inproc") as router:
            offline = gcn_model.predict_logits(features, csr)
            nodes = np.arange(NUM_NODES)
            np.testing.assert_allclose(
                router.predict_logits(nodes), offline, atol=1e-8
            )

    def test_keyed_sampled_serving_matches_single_engine(self, small_graph, gcn_model):
        csr, features = small_graph
        config = ServeConfig(fanouts=(3, 3), seed=9)
        session = GraphSession(csr, features)
        nodes = np.random.default_rng(2).integers(0, NUM_NODES, size=60)
        with ShardRouter(gcn_model, session, 3, workers="inproc", config=config) as router:
            reference = _fresh_reference(gcn_model, session, config)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                reference.predict_logits(nodes),
                atol=1e-8,
            )

    def test_gat_full_graph_fallback_is_exact(self, small_graph):
        """GAT has no sampled path; the shard-local full forward still equals
        the single-process one on owned rows (L-local receptive fields)."""
        csr, features = small_graph
        model = build_model(
            "gat",
            in_features=NUM_FEATURES,
            num_classes=NUM_CLASSES,
            hidden_features=8,
            rng=2,
        )
        model.eval()
        session = GraphSession(csr, features)
        nodes = np.random.default_rng(4).integers(0, NUM_NODES, size=50)
        with ShardRouter(model, session, 2, workers="inproc") as router:
            reference = _fresh_reference(model, session)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                reference.predict_logits(nodes),
                atol=1e-8,
            )
            session.add_edges(
                _cross_shard_absent_pairs(csr, router.owners, 2, seed=9)
            )
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                _fresh_reference(model, session).predict_logits(nodes),
                atol=1e-8,
            )

    def test_prediction_surface(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 2, workers="inproc") as router:
            proba = router.predict_proba([0, 1, 2])
            np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
            labels = router.predict_labels([0, 1, 2])
            assert labels.shape == (3,)
            with pytest.raises(ValueError, match="out of bounds"):
                router.predict_logits([NUM_NODES])
            with pytest.raises(ValueError, match="non-empty"):
                router.predict_logits(np.empty(0, dtype=np.int64))


# --------------------------------------------------------------------- #
# Cross-shard consistency under mutation
# --------------------------------------------------------------------- #
class TestCrossShardConsistency:
    @pytest.mark.parametrize("strategy", ["hash"])
    def test_cross_shard_edge_mutations(self, small_graph, gcn_model, strategy):
        csr, features = small_graph
        session = GraphSession(csr, features)
        rng = np.random.default_rng(3)
        nodes = rng.integers(0, NUM_NODES, size=100)
        with ShardRouter(
            gcn_model, session, 3, strategy=strategy, workers="inproc"
        ) as router:
            router.predict_logits(nodes)  # warm every shard cache
            pairs = _cross_shard_absent_pairs(csr, router.owners, 6)

            session.add_edges(pairs)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                _fresh_reference(gcn_model, session).predict_logits(nodes),
                atol=1e-8,
            )
            session.remove_edges(pairs[:3])
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                _fresh_reference(gcn_model, session).predict_logits(nodes),
                atol=1e-8,
            )

    def test_add_node_across_shards(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 3, workers="inproc") as router:
            owners = router.owners
            # neighbours on two different shards
            first = 0
            second = int(np.flatnonzero(owners != owners[first])[0])
            warm = np.arange(0, NUM_NODES, 4)
            router.predict_logits(warm)
            owned_before = [s["owned"] for s in router.stats().shards]
            node = session.add_node(
                np.ones(NUM_FEATURES), neighbors=np.asarray([first, second])
            )
            assert router.owner_of(node) >= 0
            # the ownership views grow with the session
            assert router.owners.size == session.num_nodes
            owned_after = [s["owned"] for s in router.stats().shards]
            owned_before[router.owner_of(node)] += 1
            assert owned_after == owned_before
            query = np.concatenate([[node, first, second], warm[:20]])
            np.testing.assert_allclose(
                router.predict_logits(query),
                _fresh_reference(gcn_model, session).predict_logits(query),
                atol=1e-8,
            )

    def test_mutation_keeps_untouched_entries_warm(self, small_graph, gcn_model):
        """Ticked shards revalidate instead of dropping their caches."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 3, workers="inproc") as router:
            nodes = np.arange(NUM_NODES)
            router.predict_logits(nodes)
            pairs = _cross_shard_absent_pairs(csr, router.owners, 2)
            session.add_edges(pairs)
            misses_before = router.stats().misses
            router.predict_logits(nodes)
            stats = router.stats()
            # Only the dirty k-hop region recomputes; everything else hits.
            recomputed = stats.misses - misses_before
            dirty = khop_frontier(session.csr, pairs.reshape(-1), 2)
            assert 0 < recomputed <= dirty.size
            assert stats.invalidated > 0

    def test_router_on_session_with_prior_history(self, small_graph, gcn_model):
        """Regression: shard replicas must inherit the session's mutation
        counter, or every post-construction mutation drifts and fails."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        session.add_edges(np.array([[0, 100], [7, 200]]))
        session.remove_edges(np.array([[0, 100]]))
        assert session.version == 2
        config = ServeConfig(fanouts=(3, 3), seed=4)
        with ShardRouter(gcn_model, session, 3, workers="inproc", config=config) as router:
            # A single-process engine on the SAME session draws the same keys.
            engine = InferenceEngine(
                gcn_model,
                GraphSession(
                    session.csr, session.features, initial_version=session.version
                ),
                config,
            )
            nodes = np.random.default_rng(8).integers(0, NUM_NODES, size=60)
            np.testing.assert_allclose(
                router.predict_logits(nodes), engine.predict_logits(nodes), atol=1e-8
            )
            pairs = _cross_shard_absent_pairs(
                session.csr, router.owners, 3, seed=11
            )
            session.add_edges(pairs)  # raised ClusterWorkerError before the fix
            versions = [s["version"] for s in router.stats().shards]
            assert versions == [session.version] * 3

    def test_versions_stay_synchronised(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 3, workers="inproc") as router:
            pairs = _cross_shard_absent_pairs(csr, router.owners, 4)
            session.add_edges(pairs[:2])
            session.remove_edges(pairs[:1])
            session.add_node(np.zeros(NUM_FEATURES), neighbors=[5])
            versions = [s["version"] for s in router.stats().shards]
            assert versions == [session.version] * 3

    def test_replicas_equal_global_session(self, small_graph, gcn_model):
        """Every worker is a full replica: after edge additions across
        owners, removals and node additions with and without neighbours, its
        structure and features equal the global session's byte for byte."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 3, workers="inproc") as router:
            replicas = [worker._worker for worker in router.workers]
            updates = []
            apply = replicas[0].apply

            def recording_apply(update):
                updates.append(update)
                return apply(update)

            replicas[0].apply = recording_apply

            pairs = _cross_shard_absent_pairs(csr, router.owners, 4, seed=13)
            session.add_edges(pairs[:1])
            # One edge changes exactly its two endpoint rows.
            assert np.array_equal(updates[-1].endpoints, np.sort(pairs[0]))
            assert updates[-1].rows_csr.shape == (2, NUM_NODES)
            session.add_edges(pairs[1:])
            row = int(np.flatnonzero(np.diff(csr.indptr))[0])
            existing = np.asarray([[row, csr.indices[csr.indptr[row]]]])
            session.remove_edges(np.concatenate([pairs[:2], existing]))
            session.add_node(np.full(NUM_FEATURES, 0.5), neighbors=pairs[2])
            session.add_node(np.ones(NUM_FEATURES))
            for replica in replicas:
                for name in ("indptr", "indices", "data"):
                    got = getattr(replica.session.csr, name)
                    want = getattr(session.csr, name)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                assert replica.session.features.shape == session.features.shape
                assert replica.session.features.tobytes() == session.features.tobytes()
                assert replica.session.version == session.version

    @pytest.mark.parametrize("drain", ["serial", "background"])
    def test_consistency_under_batching(self, small_graph, gcn_model, drain):
        """Satellite: cross-shard mutations with the RequestBatcher in front."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        rng = np.random.default_rng(7)
        nodes = rng.integers(0, NUM_NODES, size=80)
        with ShardRouter(gcn_model, session, 3, workers="inproc") as router:
            batcher = RequestBatcher(router, max_batch_size=16)
            if drain == "background":
                batcher.start()

            def answer(batch):
                futures = [batcher.submit(int(node)) for node in batch]
                if drain == "serial":
                    batcher.flush()
                return np.stack([future.result(timeout=30) for future in futures])

            answer(nodes)  # warm
            pairs = _cross_shard_absent_pairs(csr, router.owners, 5)
            session.add_edges(pairs)
            node = session.add_node(np.ones(NUM_FEATURES), neighbors=pairs[0])
            session.remove_edges(pairs[2:3])
            query = np.concatenate([nodes, [node]])
            got = answer(query)
            batcher.stop()
            expected = _fresh_reference(gcn_model, session).predict_proba(query)
            np.testing.assert_allclose(got, expected, atol=1e-8)


# --------------------------------------------------------------------- #
# Process workers (pipe protocol end to end)
# --------------------------------------------------------------------- #
class TestProcessWorkers:
    def test_process_cluster_matches_engine(self, tmp_path, small_graph, gcn_model):
        from repro.serve import ModelRegistry

        csr, features = small_graph
        registry = ModelRegistry(str(tmp_path))
        version = registry.save("cluster-gcn", gcn_model, graph=csr)
        session = GraphSession(csr, features)
        nodes = np.random.default_rng(5).integers(0, NUM_NODES, size=50)
        with ShardRouter(
            gcn_model,
            session,
            2,
            workers="process",
            model_ref=(str(tmp_path), "cluster-gcn", version),
        ) as router:
            reference = _fresh_reference(gcn_model, session)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                reference.predict_logits(nodes),
                atol=1e-8,
            )
            pairs = _cross_shard_absent_pairs(csr, router.owners, 3)
            session.add_edges(pairs)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                _fresh_reference(gcn_model, session).predict_logits(nodes),
                atol=1e-8,
            )
            stats = router.stats()
            assert stats.requests == 100
        with pytest.raises(RuntimeError, match="closed"):
            router.predict_logits(nodes)

    def test_worker_blas_runs_single_threaded(self):
        import ctypes
        import multiprocessing

        from repro.cluster.worker import _single_thread_blas

        def openblas_thread_counts():
            with open("/proc/self/maps") as maps:
                paths = {
                    line.split(None, 5)[-1].strip()
                    for line in maps
                    if "openblas" in line
                }
            counts = []
            for path in paths:
                library = ctypes.CDLL(path)
                for name in (
                    "openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                ):
                    getter = getattr(library, name, None)
                    if getter is not None:
                        counts.append(getter())
            return counts

        def report(queue):
            _single_thread_blas()
            queue.put(openblas_thread_counts())

        try:
            if not openblas_thread_counts():
                pytest.skip("no OpenBLAS found in this process")
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=report, args=(queue,))
        child.start()
        counts = queue.get(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive()
        assert counts and set(counts) == {1}

    def test_dead_worker_never_returns_another_requests_rows(
        self, small_graph, gcn_model
    ):
        """A request that reaches a dead worker raises; the live shard's
        reply to it must not be read as the answer to the next request."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        with ShardRouter(gcn_model, session, 2, workers="process") as router:
            shard0 = np.flatnonzero(router.owners == 0)
            shard1 = np.flatnonzero(router.owners == 1)
            dead = router.workers[1].process
            dead.kill()
            dead.join(timeout=30)
            with pytest.raises((OSError, EOFError, ClusterWorkerError)):
                router.predict_logits(np.concatenate([shard0[:10], shard1[:10]]))
            later = shard0[10:20]
            try:
                rows = router.predict_logits(later)
            except (OSError, EOFError, ClusterWorkerError):
                return
            np.testing.assert_allclose(
                rows,
                _fresh_reference(gcn_model, session).predict_logits(later),
                atol=1e-8,
            )

    def test_bad_registry_reference_fails_fast(self, tmp_path, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        with pytest.raises(ClusterWorkerError):
            ShardRouter(
                gcn_model,
                session,
                2,
                workers="process",
                model_ref=(str(tmp_path), "absent-model", None),
            )


# --------------------------------------------------------------------- #
# Fused plan replay across shards
# --------------------------------------------------------------------- #
class TestClusterPlans:
    def test_two_shard_serve_under_plan_replay(self, small_graph, gcn_model):
        """2-shard fused serving equals a single-process engine, with the
        plan demonstrably replayed (not re-recorded) after its first use."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        nodes = np.random.default_rng(3).integers(0, NUM_NODES, size=90)
        with ShardRouter(gcn_model, session, 2, workers="inproc") as router:
            reference = _fresh_reference(gcn_model, session)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                reference.predict_logits(nodes),
                atol=1e-8,
            )
            router.predict_logits(nodes[::-1])
            stats = router.stats()
            assert stats.plan_fallbacks == 0
            assert stats.plans_recorded + stats.plan_replays >= 2
            assert stats.plan_replays >= 1, "warm batches must replay"
            # After mutation the replay path stays consistent too.
            pairs = _cross_shard_absent_pairs(csr, router.owners, 2, seed=5)
            session.add_edges(pairs)
            np.testing.assert_allclose(
                router.predict_logits(nodes),
                _fresh_reference(gcn_model, session).predict_logits(nodes),
                atol=1e-8,
            )

    def test_worker_stats_carry_plan_counters(self, small_graph, gcn_model):
        worker, owners = _shard_zero(*small_graph, gcn_model)
        worker.predict_logits(np.flatnonzero(owners == 0)[:6])
        stats = worker.stats()
        for key in (
            "plans_recorded",
            "plan_replays",
            "plan_fallbacks",
        ):
            assert key in stats
        assert stats["plans_recorded"] + stats["plan_replays"] == 1
