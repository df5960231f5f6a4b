"""Tests for fused inference plans (:mod:`repro.gnn.plan`).

Acceptance properties:

* **record/replay equality** — a recorded plan replayed over packed blocks
  reproduces ``predict_logits_blocks`` bitwise for GCN (2- and 3-layer)
  and GraphSAGE, and one large engine call equals the same nodes served in
  small chunks;
* **engine integration** — the fused serving path equals the unfused one
  before and after graph mutations, counters distinguish recording from
  replay, unsupported models fall back transparently, and a registry-style
  parameter hot-swap records a fresh plan instead of replaying stale
  weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.gnn.plan import (
    BufferPool,
    PlanCache,
    PlanUnsupported,
    pack_blocks,
    plan_params_hash,
    record_plan,
    shared_plan_cache,
)
from repro.gnn.sampling import NeighborSampler
from repro.gnn.trainer import TrainConfig, Trainer
from repro.serve import (
    GraphSession,
    InferenceEngine,
    ModelRegistry,
    RequestBatcher,
    ServeConfig,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def plan_models(tiny_graph):
    """Trained sampled-path models (one per architecture/depth under test)."""
    models = {}
    for name, kwargs in (
        ("gcn", {}),
        ("gcn3", {"num_layers": 3}),
        ("graphsage", {}),
    ):
        model = build_model(
            "gcn" if name.startswith("gcn") else name,
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
            **kwargs,
        )
        Trainer(model, TrainConfig(epochs=15, patience=None, track_best=False)).fit(
            tiny_graph
        )
        model.eval()
        models[name] = model
    return models


# --------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------- #
class TestRecording:
    def test_gcn_plan_shape(self, plan_models):
        plan = record_plan(plan_models["gcn"])
        assert plan.kinds == ("gcn", "gcn")
        # matmul+prop+bias per layer, relu between layers
        assert [op for op, _ in plan.ops] == [
            "matmul", "prop", "bias", "relu", "matmul", "prop", "bias",
        ]

    def test_gcn3_plan_depth(self, plan_models):
        plan = record_plan(plan_models["gcn3"])
        assert plan.num_layers == 3
        assert plan.kinds == ("gcn", "gcn", "gcn")

    def test_sage_plan_shape(self, plan_models):
        plan = record_plan(plan_models["graphsage"])
        assert plan.kinds == ("mean_noself", "mean_noself")
        assert [op for op, _ in plan.ops] == ["sage", "relu", "normalize", "sage"]

    def test_gat_unsupported(self, tiny_graph):
        model = build_model(
            "gat",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        with pytest.raises(PlanUnsupported):
            record_plan(model)

    def test_params_hash_tracks_content(self, plan_models):
        model = plan_models["gcn"]
        before = plan_params_hash(model)
        state = model.state_dict()
        perturbed = {k: v + 1e-3 for k, v in state.items()}
        model.load_state_dict(perturbed)
        try:
            assert plan_params_hash(model) != before
        finally:
            model.load_state_dict(state)
        assert plan_params_hash(model) == before


# --------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------- #
class TestReplay:
    @pytest.mark.parametrize("name", ["gcn", "gcn3", "graphsage"])
    def test_replay_matches_unfused(self, tiny_graph, plan_models, name):
        model = plan_models[name]
        plan = record_plan(model)
        csr = CSRMatrix.from_dense(tiny_graph.adjacency)
        sampler = NeighborSampler(csr, seed=0)
        fanouts = (None,) * plan.num_layers
        rng = np.random.default_rng(5)
        nodes = rng.choice(tiny_graph.num_nodes, size=48, replace=False)
        # The replay must agree with the unfused forward over exactly
        # the same blocks.
        blocks = sampler.ego_blocks(nodes, fanouts, key=3)
        unfused = model.predict_logits_blocks(tiny_graph.features, blocks)
        packed = pack_blocks(blocks, plan.kinds)
        fused = plan.replay(tiny_graph.features, packed, BufferPool())
        np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(fused, unfused)

    @pytest.mark.parametrize("name", ["gcn", "graphsage"])
    def test_one_call_equals_chunked_calls(self, name):
        """One 1,500-node engine call equals the same nodes in 64-node calls.

        Keyed sampling makes every node's blocks independent of its batch;
        only the within-row summation order follows the block-local ids, so
        the batchings agree to round-off.  Within the large call the replay
        is bitwise equal to the unfused forward.
        """
        csr, features, _ = generate_scaling_graph(
            2_000, num_classes=3, average_degree=8.0, num_features=8, seed=0
        )
        model = build_model(
            name, in_features=8, num_classes=3, hidden_features=8, rng=0
        )
        model.eval()
        nodes = np.random.default_rng(0).choice(2_000, size=1_500, replace=False)
        chunks = np.array_split(nodes, range(64, nodes.size, 64))
        fused, unfused = (
            InferenceEngine(
                model,
                GraphSession(csr, features),
                ServeConfig(fanouts=(5, 5), cache=False, plan=plan),
                plan_cache=PlanCache(),
            )
            for plan in (True, False)
        )
        whole = fused.predict_logits(nodes)
        chunked = np.vstack([fused.predict_logits(chunk) for chunk in chunks])
        reference = unfused.predict_logits(nodes)
        assert fused.cache_stats.plan_replays == len(chunks)
        np.testing.assert_allclose(whole, chunked, rtol=0, atol=1e-12)
        np.testing.assert_allclose(whole, reference, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(whole, reference)

    def test_replay_sampled_fanouts(self, tiny_graph, plan_models):
        model = plan_models["graphsage"]
        plan = record_plan(model)
        csr = CSRMatrix.from_dense(tiny_graph.adjacency)
        sampler = NeighborSampler(csr, seed=1)
        nodes = np.arange(30)
        blocks = sampler.ego_blocks(nodes, (3, 3), key=9)
        packed = pack_blocks(blocks, plan.kinds)
        fused = plan.replay(tiny_graph.features, packed, BufferPool())
        unfused = model.predict_logits_blocks(tiny_graph.features, blocks)
        np.testing.assert_array_equal(fused, unfused)

    def test_pack_rejects_mismatched_depth(self, tiny_graph, plan_models):
        plan = record_plan(plan_models["gcn"])
        csr = CSRMatrix.from_dense(tiny_graph.adjacency)
        sampler = NeighborSampler(csr, seed=0)
        stack = sampler.ego_blocks(np.arange(4), (None,) * 2, key=0)
        with pytest.raises(ValueError, match="depth"):
            pack_blocks(stack[:1], plan.kinds)

    def test_buffer_pool_buckets(self):
        pool = BufferPool()
        first = pool.take(5, 3)
        assert first.shape == (5, 3)
        again = pool.take(7, 3)
        # 5 and 7 share the rows-8 bucket: one underlying buffer.
        assert again.base is first.base or again.base is first
        assert len(pool) == 1
        other = pool.take(9, 3)
        assert other.shape == (9, 3)
        assert len(pool) == 2


# --------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------- #
class TestEnginePlans:
    @pytest.mark.parametrize("name", ["gcn", "graphsage"])
    def test_fused_serving_matches_unfused(
        self, tiny_graph, plan_models, name
    ):
        """Fused == unfused through the whole engine, across mutations."""
        model = plan_models[name]
        fused_session = GraphSession.from_graph(tiny_graph.copy())
        unfused_session = GraphSession.from_graph(tiny_graph.copy())
        fused = InferenceEngine(
            model,
            fused_session,
            ServeConfig(cache=False),
            plan_cache=PlanCache(),
        )
        unfused = InferenceEngine(
            model, unfused_session, ServeConfig(cache=False, plan=False)
        )
        nodes = np.arange(tiny_graph.num_nodes)
        np.testing.assert_allclose(
            fused.predict_logits(nodes),
            unfused.predict_logits(nodes),
            rtol=0,
            atol=1e-8,
        )
        pairs = tiny_graph.non_edge_sample(3, np.random.default_rng(0))
        fused_session.add_edges(pairs)
        unfused_session.add_edges(pairs)
        np.testing.assert_allclose(
            fused.predict_logits(nodes),
            unfused.predict_logits(nodes),
            rtol=0,
            atol=1e-8,
        )
        removed = tiny_graph.edge_list()[:2]
        fused_session.remove_edges(removed)
        unfused_session.remove_edges(removed)
        np.testing.assert_allclose(
            fused.predict_logits(nodes),
            unfused.predict_logits(nodes),
            rtol=0,
            atol=1e-8,
        )

    def test_counters_record_once_then_replay(self, tiny_graph, plan_models):
        model = plan_models["gcn"]
        session = GraphSession.from_graph(tiny_graph.copy())
        engine = InferenceEngine(
            model,
            session,
            ServeConfig(cache=False),
            plan_cache=PlanCache(),
        )
        engine.predict_logits(np.arange(20))
        stats = engine.cache_stats
        assert stats.plans_recorded == 1
        assert stats.plan_replays == 0
        for start in (20, 40, 60):
            engine.predict_logits(np.arange(start, start + 20))
        stats = engine.cache_stats
        assert stats.plans_recorded == 1, "plan must be recorded exactly once"
        assert stats.plan_replays == 3
        assert stats.plan_fallbacks == 0

    def test_plan_shared_across_engines(self, tiny_graph, plan_models):
        """Replicas with one plan cache record once between them."""
        model = plan_models["gcn"]
        cache = PlanCache()
        engines = [
            InferenceEngine(
                model,
                GraphSession.from_graph(tiny_graph.copy()),
                ServeConfig(cache=False),
                plan_cache=cache,
            )
            for _ in range(2)
        ]
        engines[0].predict_logits(np.arange(10))
        engines[1].predict_logits(np.arange(10))
        assert engines[0].cache_stats.plans_recorded == 1
        assert engines[1].cache_stats.plans_recorded == 0
        assert engines[1].cache_stats.plan_replays == 1
        assert len(cache) == 1
        np.testing.assert_array_equal(
            engines[0].predict_logits(np.arange(10)),
            engines[1].predict_logits(np.arange(10)),
        )

    def test_hot_swap_records_fresh_plan(self, tiny_graph, plan_models, tmp_path):
        """A registry hot-swap must not replay the old weights' plan."""
        model = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        model.load_state_dict(plan_models["gcn"].state_dict())
        model.eval()
        session = GraphSession.from_graph(tiny_graph.copy())
        cache = PlanCache()
        engine = InferenceEngine(
            model, session, ServeConfig(cache=False), plan_cache=cache
        )
        nodes = np.arange(12)
        before = engine.predict_logits(nodes)
        assert engine.cache_stats.plans_recorded == 1

        # Hot-swap: load different weights in place (what a registry reload
        # does to a serving replica's model object).
        registry = ModelRegistry(str(tmp_path))
        other = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=1,
        )
        registry.save("swap", other)
        loaded, _ = registry.load("swap")
        model.load_state_dict(loaded.state_dict())

        after = engine.predict_logits(nodes)
        stats = engine.cache_stats
        assert stats.plans_recorded == 2, "swap must record a fresh plan"
        assert len(cache) == 2
        assert not np.allclose(before, after), "swap must change predictions"
        expected = InferenceEngine(
            loaded,
            GraphSession.from_graph(tiny_graph.copy()),
            ServeConfig(cache=False, plan=False),
        ).predict_logits(nodes)
        np.testing.assert_allclose(after, expected, rtol=0, atol=1e-8)

    def test_plan_cache_invalidate(self, tiny_graph, plan_models):
        cache = PlanCache()
        engine = InferenceEngine(
            plan_models["gcn"],
            GraphSession.from_graph(tiny_graph.copy()),
            ServeConfig(cache=False),
            plan_cache=cache,
        )
        engine.predict_logits(np.arange(5))
        assert len(cache) == 1
        key = next(iter(cache._entries))
        assert cache.invalidate(signature_hash="no-such-model") == 0
        assert cache.invalidate(signature_hash=key[0]) == 1
        assert len(cache) == 0
        engine.predict_logits(np.arange(5, 10))
        assert engine.cache_stats.plans_recorded == 2

    def test_unsupported_model_falls_back(self, tiny_graph, plan_models):
        """A model without a plan serves unfused and counts the fallback."""
        from repro.gnn.models import GCN

        class OpaqueGCN(GCN):
            def record_inference_plan(self, recorder):
                raise NotImplementedError("opaque by construction")

        model = OpaqueGCN(
            in_features=tiny_graph.num_features,
            hidden_features=8,
            num_classes=tiny_graph.num_classes,
            rng=0,
        )
        model.load_state_dict(plan_models["gcn"].state_dict())
        model.eval()
        session = GraphSession.from_graph(tiny_graph.copy())
        engine = InferenceEngine(
            model, session, ServeConfig(cache=False), plan_cache=PlanCache()
        )
        nodes = np.arange(15)
        got = engine.predict_logits(nodes)
        stats = engine.cache_stats
        assert stats.plan_fallbacks == 1
        assert stats.plans_recorded == 0 and stats.plan_replays == 0
        reference = InferenceEngine(
            plan_models["gcn"],
            GraphSession.from_graph(tiny_graph.copy()),
            ServeConfig(cache=False, plan=False),
        ).predict_logits(nodes)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-8)
        # The unsupported verdict is cached: no re-probe per batch.
        engine.predict_logits(np.arange(15, 30))
        assert engine.cache_stats.plan_fallbacks == 2

    def test_registry_exposes_shared_cache(self):
        assert ModelRegistry.plan_cache() is shared_plan_cache()


# --------------------------------------------------------------------- #
# Batcher coalescing
# --------------------------------------------------------------------- #
class TestBatcherCoalescing:
    @pytest.fixture
    def engine(self, tiny_graph, plan_models):
        return InferenceEngine(
            plan_models["gcn"],
            GraphSession.from_graph(tiny_graph.copy()),
            ServeConfig(cache=False),
            plan_cache=PlanCache(),
        )

    def test_one_pop_per_engine_call_and_stats(self, engine):
        batcher = RequestBatcher(engine, max_batch_size=32)
        futures = [batcher.submit(node) for node in range(30)]
        assert batcher.flush() == 30
        stats = batcher.stats
        # 30 requests, limit 32: one pop and one engine call serve them all.
        assert stats.batches == 1
        assert stats.largest_batch == 30
        assert engine.cache_stats.plans_recorded == 1
        reference = engine.predict_proba(np.arange(30))
        for future, row in zip(futures, reference):
            np.testing.assert_allclose(future.result(), row, atol=0)

    def test_pops_bounded_by_max_batch_size(self, engine):
        batcher = RequestBatcher(engine, max_batch_size=8)
        for node in range(30):
            batcher.submit(node)
        batcher.flush()
        stats = batcher.stats
        assert stats.batches == 4
        assert stats.largest_batch == 8

    def test_coalesce_validation(self, engine):
        assert RequestBatcher(engine).max_batch_size == 512
        with pytest.raises(ValueError, match="max_batch_size"):
            RequestBatcher(engine, max_batch_size=0)
