"""Tests for neighbour-sampled mini-batch training (:mod:`repro.gnn.sampling`).

The acceptance properties of the subsystem mirror the grid engine's:

* **equivalence** — exhaustive fanouts + a single batch covering the train
  nodes reproduce the full-batch forward logits to 1e-8, from a dense or a
  CSR adjacency, for GCN and GraphSAGE;
* **determinism** — the batch schedule and every sampled block are pure
  functions of ``(seed, epoch, batch_index)``, so serial, thread-pool and
  process-pool execution produce byte-identical structures (the PR-2
  executor-transparency pattern);
* **edge cases** — isolated nodes, degree < fanout, empty frontiers and
  single-node batches are well-formed;
* **cache hygiene** — batch-local blocks never enter (nor get served from)
  the revision-keyed full-graph propagation-operator cache.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.gnn.models import build_model
from repro.gnn.sampling import (
    BatchSpec,
    NeighborSampler,
    SampledBlock,
    _hash_keys,
    _keep_smallest_keys,
    _subsample_rows,
    block_propagation,
)
from repro.gnn.trainer import TrainConfig, Trainer
from repro.graphs.graph import Graph
from repro.graphs.khop import khop_frontier
from repro.graphs.revision import adjacency_revision
from repro.sparse import OperatorCache, use_operator_cache
from repro.sparse.backend import build_propagation
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    gcn_norm_csr,
    induced_subgraph_csr,
    left_norm_csr,
    mean_aggregation_csr,
)


def _path_graph_with_isolates() -> Graph:
    """A 7-node graph: a 5-path (0-1-2-3-4) plus isolated nodes 5 and 6."""
    adjacency = np.zeros((7, 7))
    for i in range(4):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    features = np.eye(7)
    labels = np.array([0, 1, 0, 1, 0, 1, 0])
    masks = np.ones(7, dtype=bool)
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=masks.copy(),
        val_mask=~masks,
        test_mask=~masks,
    )


# --------------------------------------------------------------------- #
# Exhaustive-sampling equivalence (satellite 1)
# --------------------------------------------------------------------- #
class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("model_name", ["gcn", "graphsage"])
    @pytest.mark.parametrize("structure_form", ["dense", "csr"])
    def test_single_batch_matches_full_forward(self, tiny_graph, model_name, structure_form):
        model = build_model(
            model_name,
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        seeds = tiny_graph.train_indices()
        sampler = NeighborSampler(tiny_graph.csr(), seed=3)
        blocks = sampler.sample_blocks(seeds, (None,) * model.message_passing_layers)
        structure = tiny_graph.adjacency if structure_form == "dense" else tiny_graph.csr()
        full = model.predict_logits(tiny_graph.features, structure)
        mini = model.predict_logits_blocks(tiny_graph.features, blocks)
        assert np.allclose(mini, full[seeds], atol=1e-8)

    def test_block_operators_match_full_kernels(self, tiny_graph):
        """Exhaustive block propagation rows equal the full-graph operator rows."""
        csr = tiny_graph.csr()
        seeds = np.arange(tiny_graph.num_nodes, dtype=np.int64)  # every node
        sampler = NeighborSampler(csr, seed=0)
        block = sampler.sample_layer(seeds, fanout=None)
        full = {
            "gcn": gcn_norm_csr(csr),
            "left": left_norm_csr(csr),
            "mean": mean_aggregation_csr(csr, include_self=True),
            "mean_noself": mean_aggregation_csr(csr, include_self=False),
        }
        for kind, reference in full.items():
            assert np.allclose(
                block_propagation(block, kind).to_dense(),
                reference.to_dense(),
                atol=1e-8,
            )

    def test_block_src_set_is_khop_frontier(self, tiny_graph):
        """A stack of exhaustive blocks covers exactly the L-hop receptive field."""
        seeds = tiny_graph.train_indices()[:5]
        sampler = NeighborSampler(tiny_graph.csr(), seed=0)
        blocks = sampler.sample_blocks(seeds, (None, None))
        receptive = khop_frontier(tiny_graph.csr(), seeds, hops=2)
        assert np.array_equal(np.sort(blocks[0].src_nodes), receptive)


# --------------------------------------------------------------------- #
# Seeded determinism across executors (satellite 2)
# --------------------------------------------------------------------- #
def _batch_fingerprint(payload) -> bytes:
    """Schedule + blocks of one (epoch, batch) drawn from scratch.

    Top-level so the process executor can pickle it; the sampler is rebuilt
    from the raw CSR arrays inside the worker, exactly as a fresh process
    would.
    """
    indptr, indices, data, n, seed, fanouts, epoch, batch_index = payload
    sampler = NeighborSampler(CSRMatrix(indptr, indices, data, (n, n)), seed=seed)
    batches = sampler.epoch_schedule(np.arange(n, dtype=np.int64), 16, epoch=epoch)
    seeds = batches[batch_index]
    blocks = sampler.sample_blocks(seeds, fanouts, epoch=epoch, batch_index=batch_index)
    return seeds.tobytes() + b"#" + b"#".join(block.fingerprint() for block in blocks)


class TestSeededDeterminism:
    @pytest.fixture(scope="class")
    def payloads(self, tiny_graph):
        csr = tiny_graph.csr()
        return [
            (
                csr.indptr,
                csr.indices,
                csr.data,
                tiny_graph.num_nodes,
                11,
                (4, 4),
                epoch,
                batch_index,
            )
            for epoch in range(2)
            for batch_index in range(3)
        ]

    # tiny_graph is consumed through `payloads`; listing it keeps fixture
    # construction in the main process for the session-scoped graph.
    def test_thread_and_process_executors_match_serial(self, payloads, tiny_graph):
        serial = [_batch_fingerprint(payload) for payload in payloads]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_batch_fingerprint, payloads))
        with ProcessPoolExecutor(max_workers=2) as pool:
            processed = list(pool.map(_batch_fingerprint, payloads))
        assert serial == threaded == processed

    def test_same_seed_same_schedule_and_blocks(self, tiny_graph):
        nodes = tiny_graph.train_indices()
        first = NeighborSampler(tiny_graph.csr(), seed=5)
        second = NeighborSampler(tiny_graph.csr(), seed=5)
        for epoch in range(3):
            a = first.epoch_schedule(nodes, 8, epoch=epoch)
            b = second.epoch_schedule(nodes, 8, epoch=epoch)
            assert [batch.tolist() for batch in a] == [batch.tolist() for batch in b]
            blocks_a = first.sample_blocks(a[0], (3, 3), epoch=epoch, batch_index=0)
            blocks_b = second.sample_blocks(b[0], (3, 3), epoch=epoch, batch_index=0)
            assert [x.fingerprint() for x in blocks_a] == [
                x.fingerprint() for x in blocks_b
            ]

    def test_different_seed_differs(self, tiny_graph):
        nodes = tiny_graph.train_indices()
        a = NeighborSampler(tiny_graph.csr(), seed=0).epoch_schedule(nodes, 8)
        b = NeighborSampler(tiny_graph.csr(), seed=1).epoch_schedule(nodes, 8)
        assert any(x.tolist() != y.tolist() for x, y in zip(a, b))

    def test_batched_training_is_reproducible(self, tiny_graph):
        def run():
            model = build_model(
                "gcn",
                in_features=tiny_graph.num_features,
                num_classes=tiny_graph.num_classes,
                hidden_features=8,
                rng=0,
            )
            config = TrainConfig(
                epochs=6,
                patience=None,
                track_best=False,
                batch_size=8,
                fanouts=(4, 4),
                batch_seed=2,
            )
            Trainer(model, config).fit(tiny_graph)
            return model.state_dict()

        first, second = run(), run()
        assert all(np.array_equal(first[key], second[key]) for key in first)


# --------------------------------------------------------------------- #
# Sampler / kernel edge cases (satellite 3)
# --------------------------------------------------------------------- #
class TestEdgeCases:
    def test_isolated_nodes_sample_only_themselves(self):
        graph = _path_graph_with_isolates()
        sampler = NeighborSampler(graph.csr(), seed=0)
        block = sampler.sample_layer(np.array([5, 6]), fanout=3, rng=np.random.default_rng(0))
        assert block.adjacency.nnz == 0
        assert block.src_nodes.tolist() == [5, 6]
        # gcn/left/mean self-loops keep isolated rows stochastic; mean_noself is zero.
        for kind in ("gcn", "left", "mean"):
            dense = block_propagation(block, kind).to_dense()
            assert np.allclose(np.diag(dense), 1.0)
        assert block_propagation(block, "mean_noself").nnz == 0

    def test_degree_below_fanout_takes_all_neighbors(self):
        graph = _path_graph_with_isolates()
        sampler = NeighborSampler(graph.csr(), seed=0)
        block = sampler.sample_layer(
            np.arange(5), fanout=10, rng=np.random.default_rng(0)
        )
        # fanout exceeds every degree, so the block equals the exhaustive one.
        exhaustive = sampler.sample_layer(np.arange(5), fanout=None)
        assert block.fingerprint() == exhaustive.fingerprint()

    def test_fanout_caps_sampled_degree(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph.csr(), seed=0)
        block = sampler.sample_layer(
            tiny_graph.train_indices(), fanout=2, rng=np.random.default_rng(1)
        )
        degrees = np.diff(block.adjacency.indptr)
        assert degrees.max() <= 2
        # sampled columns must be real neighbours
        dense = tiny_graph.adjacency
        for row in range(block.num_dst):
            cols = block.adjacency.indices[
                block.adjacency.indptr[row] : block.adjacency.indptr[row + 1]
            ]
            for col in block.src_nodes[cols]:
                assert dense[block.dst_nodes[row], col] > 0

    def test_duplicate_dst_rejected(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph.csr(), seed=0)
        with pytest.raises(ValueError):
            sampler.sample_layer(np.array([3, 3]), fanout=None)

    def test_empty_frontier(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph.csr(), seed=0)
        block = sampler.sample_layer(np.empty(0, dtype=np.int64), fanout=None)
        assert block.num_dst == 0 and block.num_src == 0
        assert block.adjacency.shape == (0, 0)
        blocks = sampler.sample_blocks(np.empty(0, dtype=np.int64), (2, 2))
        assert all(b.num_dst == 0 for b in blocks)

    def test_single_node_batch_trains_and_predicts(self, tiny_graph):
        model = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        seed_node = tiny_graph.train_indices()[:1]
        sampler = NeighborSampler(tiny_graph.csr(), seed=0)
        blocks = sampler.sample_blocks(seed_node, (None, None))
        logits = model.predict_logits_blocks(tiny_graph.features, blocks)
        full = model.predict_logits(tiny_graph.features, tiny_graph.adjacency)
        assert logits.shape == (1, tiny_graph.num_classes)
        assert np.allclose(logits[0], full[seed_node[0]], atol=1e-8)

    def test_batch_spec_validation(self):
        with pytest.raises(ValueError):
            BatchSpec(batch_size=0)
        with pytest.raises(ValueError):
            BatchSpec(batch_size=4, fanouts=(0, 3))
        assert BatchSpec(batch_size=4).layer_fanouts(3) == (None, None, None)
        with pytest.raises(ValueError):
            BatchSpec(batch_size=4, fanouts=(2,)).layer_fanouts(2)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-1)
        with pytest.raises(ValueError):
            TrainConfig(fanouts=(5, 5))  # fanouts without batch_size
        with pytest.raises(ValueError):
            TrainConfig(batch_size=4, eval_interval=0)

    def test_slice_rows_matches_dense(self, tiny_graph):
        csr = tiny_graph.csr()
        rows = np.array([4, 0, 4, 11])  # duplicates allowed, order preserved
        sliced = csr.slice_rows(rows)
        assert np.allclose(sliced.to_dense(), tiny_graph.adjacency[rows])
        with pytest.raises(ValueError):
            csr.slice_rows(np.array([tiny_graph.num_nodes]))

    def test_induced_subgraph_matches_dense(self, tiny_graph):
        nodes = np.array([3, 0, 17, 9])
        induced = induced_subgraph_csr(tiny_graph.csr(), nodes)
        assert np.allclose(
            induced.to_dense(), tiny_graph.adjacency[np.ix_(nodes, nodes)]
        )
        with pytest.raises(ValueError):
            induced_subgraph_csr(tiny_graph.csr(), np.array([1, 1]))

    def test_induced_subgraph_empty_and_isolated(self):
        graph = _path_graph_with_isolates()
        empty = induced_subgraph_csr(graph.csr(), np.empty(0, dtype=np.int64))
        assert empty.shape == (0, 0) and empty.nnz == 0
        isolated = induced_subgraph_csr(graph.csr(), np.array([5, 6]))
        assert isolated.shape == (2, 2) and isolated.nnz == 0


# --------------------------------------------------------------------- #
# Operator-cache hygiene (satellite 4)
# --------------------------------------------------------------------- #
class TestOperatorCacheHygiene:
    def test_blocks_are_never_revision_tagged(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph.csr(), seed=0)
        blocks = sampler.sample_blocks(tiny_graph.train_indices()[:8], (3, 3))
        for block in blocks:
            assert adjacency_revision(block.adjacency) is None

    def test_batched_training_does_not_pollute_opcache(self, tiny_graph):
        """Mini-batch epochs must leave the propagation cache to the full graph.

        Only the full-graph evaluation operator may enter the cache (one
        entry, hit every epoch); block operators bypass it entirely, and the
        entry served afterwards is still the untouched full-graph operator.
        """
        model = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        cache = OperatorCache()
        config = TrainConfig(
            epochs=5, patience=None, track_best=False, batch_size=8, fanouts=(3, 3)
        )
        with use_operator_cache(cache):
            Trainer(model, config).fit(tiny_graph)
            stats = cache.stats
            # One miss per (revision, kind) the *evaluation* needed;
            # batches contributed nothing.
            assert stats.size == stats.misses == 1
            assert stats.hits >= config.epochs - 1
            cached = build_propagation(tiny_graph.adjacency, kind="gcn")
        reference = build_propagation(tiny_graph.adjacency, kind="gcn")
        assert np.allclose(cached.to_array(), reference.to_array(), atol=0)

    def test_full_batch_path_unchanged_when_batching_off(self, tiny_graph):
        """batch_size=None must reproduce the original trainer bit-for-bit."""

        def run(config):
            model = build_model(
                "gcn",
                in_features=tiny_graph.num_features,
                num_classes=tiny_graph.num_classes,
                hidden_features=8,
                rng=0,
            )
            result = Trainer(model, config).fit(tiny_graph)
            return model.state_dict(), result.history

        state_a, history_a = run(TrainConfig(epochs=8, patience=None, track_best=False))
        state_b, history_b = run(
            TrainConfig(epochs=8, patience=None, track_best=False, batch_size=None)
        )
        assert history_a == history_b
        assert all(np.array_equal(state_a[key], state_b[key]) for key in state_a)


# --------------------------------------------------------------------- #
# Mini-batch training end-to-end
# --------------------------------------------------------------------- #
class TestMiniBatchTraining:
    def test_batched_training_learns(self, tiny_graph):
        model = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        config = TrainConfig(
            epochs=40,
            patience=None,
            track_best=False,
            batch_size=8,
            fanouts=(5, 5),
            eval_interval=4,
        )
        result = Trainer(model, config).fit(tiny_graph)
        assert result.final_train_accuracy > 0.8
        # eval_interval spaces evaluations out; skipped epochs record NaN.
        evaluated = np.isfinite(result.history["val_accuracy"])
        assert 0 < evaluated.sum() < result.epochs_run

    def test_early_stop_only_fires_on_evaluated_epochs(self, tiny_graph):
        """Regression: with eval_interval > 1 a stale patience counter must
        not break on a skipped epoch, which would report NaN final
        accuracies for a model state nobody measured."""
        model = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        config = TrainConfig(
            epochs=60,
            patience=1,
            min_epochs=12,
            batch_size=8,
            fanouts=(3, 3),
            eval_interval=5,
        )
        result = Trainer(model, config).fit(tiny_graph)
        assert np.isfinite(result.final_train_accuracy)
        assert np.isfinite(result.final_val_accuracy)
        # The stopping epoch itself was evaluated.
        assert np.isfinite(result.history["val_accuracy"][-1])

    @pytest.mark.parametrize("model_seed", [0, 1, 2])
    def test_batched_sage_stays_finite(self, tiny_graph, model_seed):
        """Regression: zero post-ReLU block rows must not NaN-poison training.

        Sampled SAGE blocks hit exactly-zero rows far more often than the
        full-batch path; the stable row normalisation keeps every gradient
        finite (with the plain kernel, training collapsed to chance).
        """
        model = build_model(
            "graphsage",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=model_seed,
        )
        config = TrainConfig(
            epochs=30,
            patience=None,
            track_best=False,
            batch_size=8,
            fanouts=(3, 3),
            batch_seed=model_seed,
        )
        result = Trainer(model, config).fit(tiny_graph)
        assert all(
            np.isfinite(value).all() for value in model.state_dict().values()
        )
        assert result.final_train_accuracy > 0.5

    def test_trainer_accepts_explicit_batch_spec(self, tiny_graph):
        model = build_model(
            "graphsage",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        spec = BatchSpec(batch_size=16, fanouts=(4, 4), seed=9)
        trainer = Trainer(
            model, TrainConfig(epochs=10, patience=None, track_best=False), batch_spec=spec
        )
        result = trainer.fit(tiny_graph)
        assert result.epochs_run == 10

    def test_method_settings_with_batching(self):
        from repro.core.config import MethodSettings

        settings = MethodSettings()
        batched = settings.with_batching(32, fanouts=(10, 10), batch_seed=4)
        assert batched.train.batch_size == 32
        assert batched.train.fanouts == (10, 10)
        assert settings.train.batch_size is None  # original untouched
        assert batched.with_batching(None).train.batch_size is None

    def test_cli_parser_batch_flags(self):
        from repro.experiments.__main__ import build_parser, parse_fanouts

        args = build_parser().parse_args(
            ["table3", "--batch-size", "64", "--fanouts", "10,all", "--eval-interval", "5"]
        )
        assert args.batch_size == 64 and args.fanouts == (10, None)
        assert args.eval_interval == 5
        assert build_parser().parse_args(["table3"]).batch_size is None
        assert parse_fanouts("5") == (5,)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--fanouts", "0,2"])

    def test_preset_batch_fields_reach_train_config(self):
        from dataclasses import replace

        from repro.experiments.presets import get_preset

        preset = replace(
            get_preset("smoke"), batch_size=16, fanouts=(4, 4), eval_interval=3
        )
        train = preset.method_settings("cora").train
        assert train.batch_size == 16
        assert train.fanouts == (4, 4)
        assert train.eval_interval == 3


# --------------------------------------------------------------------- #
# Vectorised fanout sampling (PR-4 satellite)
# --------------------------------------------------------------------- #
def _dense_test_graph(seed: int = 42, n: int = 40, density: float = 0.18) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    dense = np.triu(dense, 1)
    return CSRMatrix.from_dense(dense + dense.T)


class TestVectorisedSampler:
    """The batched argsort sampler replacing the per-row ``rng.choice`` loop."""

    GOLDEN_BLOCKS = "590d393a795ed010fd34dc6c8483abe57669e378079323b3f83f952ad0b2d408"
    GOLDEN_KEYED = "e8563b6bf5213fae323be2fb36817abdc3d9f9b554ee2225e047fcc3a92a4e1b"

    def test_seeded_golden_blocks(self):
        """Pinned stream: the vectorised sampler's output is frozen here.

        Byte-identity with the historical per-row ``rng.choice`` stream is
        NOT required (the draw order changed); what is pinned is that the
        *new* stream never drifts silently across refactors.
        """
        import hashlib

        sampler = NeighborSampler(_dense_test_graph(), seed=0)
        blocks = sampler.sample_blocks(np.arange(8), (2, 3), epoch=1, batch_index=2)
        digest = hashlib.sha256(b"|".join(b.fingerprint() for b in blocks)).hexdigest()
        assert digest == self.GOLDEN_BLOCKS

    def test_seeded_golden_keyed_blocks(self):
        import hashlib

        sampler = NeighborSampler(_dense_test_graph(), seed=0)
        blocks = sampler.ego_blocks(np.arange(8), (2, 3), key=123)
        digest = hashlib.sha256(b"|".join(b.fingerprint() for b in blocks)).hexdigest()
        assert digest == self.GOLDEN_KEYED

    def test_sampled_rows_are_valid_subsets(self):
        csr = _dense_test_graph(seed=3, n=60, density=0.3)
        sampler = NeighborSampler(csr, seed=1)
        fanout = 4
        block = sampler.sample_layer(
            np.arange(60), fanout, np.random.default_rng(9)
        )
        degrees = np.diff(csr.indptr)
        counts = np.diff(block.adjacency.indptr)
        assert np.array_equal(counts, np.minimum(degrees, fanout))
        for row in range(60):
            start, stop = block.adjacency.indptr[row], block.adjacency.indptr[row + 1]
            sampled = np.sort(block.src_nodes[block.adjacency.indices[start:stop]])
            full = csr.indices[csr.indptr[row] : csr.indptr[row + 1]]
            assert np.all(np.isin(sampled, full))
            # Ascending-column order is preserved within each row.
            local = block.adjacency.indices[start:stop]
            globals_ = block.src_nodes[local]
            assert np.array_equal(globals_, np.sort(globals_))

    def test_sampling_is_approximately_uniform(self):
        """Rank-of-uniform-keys selection draws uniform without-replacement subsets."""
        star = np.zeros((9, 9))
        star[0, 1:] = star[1:, 0] = 1.0  # node 0 has 8 neighbours
        sampler = NeighborSampler(CSRMatrix.from_dense(star), seed=0)
        rng = np.random.default_rng(7)
        counts = np.zeros(9)
        trials = 4000
        for _ in range(trials):
            block = sampler.sample_layer(np.array([0]), 2, rng)
            chosen = block.src_nodes[block.adjacency.indices]
            counts[chosen] += 1
        expected = trials * 2 / 8
        assert np.all(np.abs(counts[1:] - expected) < 5 * np.sqrt(expected))

    def test_keyed_sampling_batch_independent(self):
        """A dst row's keyed sample never depends on its batch companions."""
        sampler = NeighborSampler(_dense_test_graph(seed=5, density=0.4), seed=0)
        alone = sampler.sample_layer_keyed(np.array([7]), 3, key=99)
        grouped = sampler.sample_layer_keyed(np.array([2, 7, 31]), 3, key=99)
        row_alone = alone.src_nodes[
            alone.adjacency.indices[alone.adjacency.indptr[0] : alone.adjacency.indptr[1]]
        ]
        row_grouped = grouped.src_nodes[
            grouped.adjacency.indices[grouped.adjacency.indptr[1] : grouped.adjacency.indptr[2]]
        ]
        assert np.array_equal(np.sort(row_alone), np.sort(row_grouped))

    def test_keyed_exhaustive_equals_plain_exhaustive(self):
        sampler = NeighborSampler(_dense_test_graph(), seed=0)
        nodes = np.arange(10)
        keyed = sampler.ego_blocks(nodes, (None, None), key=5)
        plain = sampler.sample_blocks(nodes, (None, None))
        assert [a.fingerprint() for a in keyed] == [b.fingerprint() for b in plain]


# --------------------------------------------------------------------- #
# Neighbour-sampled evaluation (PR-4 satellite)
# --------------------------------------------------------------------- #
class TestSampledEvaluation:
    @pytest.mark.parametrize("model_name", ["gcn", "graphsage"])
    def test_sampled_eval_matches_full_graph_eval(
        self, tiny_graph, model_name
    ):
        """Exhaustive ego-block evaluation equals full-graph evaluation.

        Training histories (loss, per-epoch accuracies) must agree epoch by
        epoch — the accuracies are counts over identical-to-1e-8 logits.
        """
        results = {}
        for sampled in (False, True):
            model = build_model(
                model_name,
                in_features=tiny_graph.num_features,
                num_classes=tiny_graph.num_classes,
                hidden_features=8,
                rng=0,
            )
            config = TrainConfig(
                epochs=10,
                patience=None,
                track_best=False,
                sampled_eval=sampled,
            )
            results[sampled] = Trainer(model, config).fit(tiny_graph)
        assert results[False].history["loss"] == results[True].history["loss"]
        assert (
            results[False].history["train_accuracy"]
            == results[True].history["train_accuracy"]
        )
        assert (
            results[False].history["val_accuracy"]
            == results[True].history["val_accuracy"]
        )

    def test_sampled_eval_with_minibatch_training(self, tiny_graph):
        model = build_model(
            "gcn",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        config = TrainConfig(
            epochs=20,
            patience=None,
            track_best=False,
            batch_size=8,
            fanouts=(5, 5),
            eval_interval=4,
            sampled_eval=True,
        )
        result = Trainer(model, config).fit(tiny_graph)
        assert result.final_train_accuracy > 0.8
        assert np.isfinite(result.final_val_accuracy)

    def test_sampled_eval_gat_falls_back(self, tiny_graph):
        model = build_model(
            "gat",
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        config = TrainConfig(
            epochs=4, patience=None, track_best=False, sampled_eval=True
        )
        result = Trainer(model, config).fit(tiny_graph)
        assert np.isfinite(result.final_train_accuracy)


# --------------------------------------------------------------------- #
# Incremental degree maintenance (serving-mutation satellite)
# --------------------------------------------------------------------- #
class TestIncrementalDegrees:
    """NeighborSampler.apply_mutation splices degrees instead of rebuilding."""

    def _session(self, seed=0, n=60):
        from repro.serve.session import GraphSession

        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.08).astype(float)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        features = rng.random((n, 4))
        return GraphSession(CSRMatrix.from_dense(dense), features)

    def test_degrees_track_a_mutation_chain(self):
        session = self._session()
        sampler = NeighborSampler(session.csr, seed=0)
        session.add_listener(sampler.apply_mutation)

        session.add_edges(np.array([[0, 7], [12, 40], [3, 59]]))
        session.remove_edges(np.array([[0, 7]]))
        session.add_node(np.zeros(4), neighbors=np.array([1, 2, 3]))
        session.add_node(np.zeros(4))  # isolated: degree stays d̃ = 1

        fresh = NeighborSampler(session.csr, seed=0)
        assert sampler.csr is session.csr
        assert sampler.num_nodes == session.num_nodes
        np.testing.assert_array_equal(
            sampler.degrees_with_self, fresh.degrees_with_self
        )

    def test_spliced_sampler_draws_identical_blocks(self):
        session = self._session(seed=1)
        sampler = NeighborSampler(session.csr, seed=3)
        session.add_listener(sampler.apply_mutation)
        session.add_edges(np.array([[2, 30], [5, 45]]))
        fresh = NeighborSampler(session.csr, seed=3)
        nodes = np.array([0, 2, 30, 58])
        for incremental, rebuilt in zip(
            sampler.ego_blocks(nodes, (2, 2), key=9),
            fresh.ego_blocks(nodes, (2, 2), key=9),
        ):
            assert incremental.fingerprint() == rebuilt.fingerprint()

    def test_shrinking_structure_rejected(self):
        sampler = NeighborSampler(np.zeros((4, 4)))

        class Event:
            new_csr = CSRMatrix.from_dense(np.zeros((3, 3)))
            endpoints = np.empty(0, dtype=np.int64)

        with pytest.raises(ValueError, match="grow"):
            sampler.apply_mutation(Event())

    def test_with_mutation_is_a_snapshot_copy(self):
        """The copying variant leaves the original sampler untouched (the
        engine swaps it in so in-flight readers keep a consistent view)."""
        session = self._session(seed=2)
        sampler = NeighborSampler(session.csr, seed=0)
        before_csr = sampler.csr
        before_degrees = sampler.degrees_with_self.copy()

        class Listener:
            updated = None

            def __call__(self, event):
                Listener.updated = sampler.with_mutation(event)

        session.add_listener(Listener())
        session.add_edges(np.array([[0, 9], [4, 33]]))
        updated = Listener.updated
        assert updated is not sampler
        assert sampler.csr is before_csr
        np.testing.assert_array_equal(sampler.degrees_with_self, before_degrees)
        fresh = NeighborSampler(session.csr, seed=0)
        assert updated.csr is session.csr
        np.testing.assert_array_equal(
            updated.degrees_with_self, fresh.degrees_with_self
        )


# --------------------------------------------------------------------- #
# Layer kernel vs the reference slice → select → COO-assemble pipeline
# --------------------------------------------------------------------- #
# The reference below is the sampler's earlier per-layer path, kept verbatim
# so the single layer kernel is held to byte-identical blocks: full-row slice,
# full-nnz lexsort top-k, unique/setdiff1d/searchsorted relabel and a
# from_coo assembly.
def _reference_select_rows_by_key(sliced, fanout, keys):
    counts = np.diff(sliced.indptr)
    if counts.size == 0 or counts.max(initial=0) <= fanout:
        return sliced
    rows = np.repeat(np.arange(sliced.shape[0], dtype=np.int64), counts)
    order = np.lexsort((keys, rows))
    ranks = np.arange(keys.size, dtype=np.int64) - np.repeat(
        sliced.indptr[:-1], counts
    )
    flat = np.sort(order[ranks < fanout])
    new_counts = np.minimum(counts, fanout)
    indptr = np.zeros(sliced.shape[0] + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr[1:])
    return CSRMatrix(indptr, sliced.indices[flat], sliced.data[flat], sliced.shape)


def _reference_subsample_rows(sliced, fanout, rng):
    counts = np.diff(sliced.indptr)
    if counts.size == 0 or counts.max(initial=0) <= fanout:
        return sliced
    return _reference_select_rows_by_key(sliced, fanout, rng.random(sliced.indices.size))


def _reference_assemble_block(sampler, dst, sliced):
    counts = np.diff(sliced.indptr)
    rows_local = np.repeat(np.arange(dst.size, dtype=np.int64), counts)
    cols_global = sliced.indices
    new_nodes = np.setdiff1d(np.unique(cols_global), dst)
    src = np.concatenate([dst, new_nodes])
    order = np.argsort(src, kind="stable")
    local_cols = order[np.searchsorted(src[order], cols_global)]
    adjacency = CSRMatrix.from_coo(
        rows_local, local_cols, sliced.data, (dst.size, src.size)
    )
    return SampledBlock(
        dst_nodes=dst.copy(),
        src_nodes=src,
        adjacency=adjacency,
        src_degrees=sampler.degrees_with_self[src],
    )


def _reference_sample_layer(sampler, dst, fanout, rng=None):
    dst = np.asarray(dst, dtype=np.int64)
    sliced = sampler.csr.slice_rows(dst)
    if fanout is not None:
        sliced = _reference_subsample_rows(sliced, fanout, rng)
    return _reference_assemble_block(sampler, dst, sliced)


def _reference_sample_layer_keyed(sampler, dst, fanout, key):
    dst = np.asarray(dst, dtype=np.int64)
    sliced = sampler.csr.slice_rows(dst)
    if fanout is not None:
        entry_dst = np.repeat(dst, np.diff(sliced.indptr))
        keys = _hash_keys(key, entry_dst, sliced.indices)
        sliced = _reference_select_rows_by_key(sliced, fanout, keys)
    return _reference_assemble_block(sampler, dst, sliced)


def _reference_stack(sample, nodes, fanouts):
    blocks = []
    dst = np.asarray(nodes, dtype=np.int64)
    for depth, fanout in enumerate(reversed(tuple(fanouts))):
        block = sample(dst, fanout, len(fanouts) - 1 - depth)
        blocks.append(block)
        dst = block.src_nodes
    blocks.reverse()
    return blocks


def _random_weighted_graph(seed: int, n: int = 48) -> CSRMatrix:
    """Heterogeneous degrees, random positive weights and isolated nodes."""
    rng = np.random.default_rng(seed)
    propensity = rng.uniform(0.02, 0.7, size=n)
    dense = (rng.random((n, n)) < np.outer(propensity, propensity)).astype(float)
    dense *= rng.uniform(0.1, 3.0, size=(n, n))
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    isolated = rng.choice(n, size=4, replace=False)
    dense[isolated, :] = 0.0
    dense[:, isolated] = 0.0
    return CSRMatrix.from_dense(dense)


def _dst_variants(n: int, seed: int):
    rng = np.random.default_rng(seed + 100)
    return {
        "sorted": np.sort(rng.choice(n, size=12, replace=False)),
        "unsorted": rng.choice(n, size=12, replace=False),
        "single": np.array([int(rng.integers(n))]),
        "all_permuted": rng.permutation(n),
    }


def _fanouts_for(csr: CSRMatrix):
    return (None, 1, 3, int(np.diff(csr.indptr).max()) + 1)


class TestLayerKernelMatchesReference:
    SEEDS = (0, 1, 2, 3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_layer_byte_identical(self, seed):
        csr = _random_weighted_graph(seed)
        sampler = NeighborSampler(csr, seed=seed)
        for name, dst in _dst_variants(csr.shape[0], seed).items():
            for fanout in _fanouts_for(csr):
                ours_rng = np.random.default_rng([seed, 7])
                ref_rng = np.random.default_rng([seed, 7])
                ours = sampler.sample_layer(dst, fanout, ours_rng)
                ref = _reference_sample_layer(sampler, dst, fanout, ref_rng)
                assert ours.fingerprint() == ref.fingerprint(), (name, fanout)
                # The generator stream advances exactly as before.
                assert ours_rng.random() == ref_rng.random(), (name, fanout)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_layer_keyed_byte_identical(self, seed):
        csr = _random_weighted_graph(seed)
        sampler = NeighborSampler(csr, seed=seed)
        for name, dst in _dst_variants(csr.shape[0], seed).items():
            for fanout in _fanouts_for(csr):
                for key in (0, 123, (5 << 8) ^ 1):
                    ours = sampler.sample_layer_keyed(dst, fanout, key)
                    ref = _reference_sample_layer_keyed(sampler, dst, fanout, key)
                    assert ours.fingerprint() == ref.fingerprint(), (name, fanout, key)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ego_blocks_and_sample_blocks_byte_identical(self, seed):
        csr = _random_weighted_graph(seed)
        sampler = NeighborSampler(csr, seed=seed)
        big = _fanouts_for(csr)[-1]
        stacks = [(None, None), (1, 3), (3, 1), (None, 3), (big, 2), (2, 2, 2)]
        for name, nodes in _dst_variants(csr.shape[0], seed).items():
            for fanouts in stacks:
                ours = sampler.ego_blocks(nodes, fanouts, key=41)
                ref = _reference_stack(
                    lambda dst, fanout, layer: _reference_sample_layer_keyed(
                        sampler, dst, fanout, (41 << 8) ^ layer
                    ),
                    nodes,
                    fanouts,
                )
                assert [b.fingerprint() for b in ours] == [
                    b.fingerprint() for b in ref
                ], (name, fanouts)

                ours = sampler.sample_blocks(nodes, fanouts, epoch=2, batch_index=5)
                ref_rng = np.random.default_rng([seed, 1, 2, 5])
                ref = _reference_stack(
                    lambda dst, fanout, layer: _reference_sample_layer(
                        sampler, dst, fanout, ref_rng
                    ),
                    nodes,
                    fanouts,
                )
                assert [b.fingerprint() for b in ours] == [
                    b.fingerprint() for b in ref
                ], (name, fanouts)

    def test_subsample_rows_matches_reference(self):
        csr = _random_weighted_graph(9, n=80)
        for fanout in (1, 3, 5, 100):
            ours_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            ours = _subsample_rows(csr, fanout, ours_rng)
            ref = _reference_subsample_rows(csr, fanout, ref_rng)
            for field in ("indptr", "indices", "data"):
                assert getattr(ours, field).tobytes() == getattr(ref, field).tobytes()
            assert ours_rng.random() == ref_rng.random()

    def test_tied_keys_keep_the_earliest_entries(self):
        """Equal keys inside a row rank by entry order, as a stable sort would."""
        indptr = np.array([0, 5, 7, 13], dtype=np.int64)
        over = np.array([0, 2], dtype=np.int64)
        entries = np.array([0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12], dtype=np.int64)
        keys = np.array([3, 1, 3, 1, 3, 2, 2, 2, 2, 2, 2], dtype=np.uint64)
        keep = _keep_smallest_keys(indptr, over, entries, keys, fanout=3)
        assert np.flatnonzero(keep).tolist() == [0, 1, 3, 5, 6, 7, 8, 9]


# --------------------------------------------------------------------- #
# Propagation builder vs the reference COO builder
# --------------------------------------------------------------------- #
# The reference below is the earlier block_propagation, kept verbatim: self
# loops appended as COO triplets and sorted by CSRMatrix.from_coo, then the
# CSR row/column scalings.  The O(nnz) builder must match it byte for byte.
def _reference_with_self_loops(block: SampledBlock) -> CSRMatrix:
    """The block adjacency plus unit self-loop entries for every dst node."""
    adjacency = block.adjacency
    num_dst = block.num_dst
    rows = np.repeat(np.arange(num_dst, dtype=np.int64), np.diff(adjacency.indptr))
    diag = np.arange(num_dst, dtype=np.int64)
    return CSRMatrix.from_coo(
        np.concatenate([rows, diag]),
        # dst nodes are a prefix of src nodes: local self column of dst i is i
        np.concatenate([adjacency.indices, diag]),
        np.concatenate([adjacency.data, np.ones(num_dst)]),
        adjacency.shape,
    )


def _reference_block_propagation(block: SampledBlock, kind: str) -> CSRMatrix:
    degrees = block.src_degrees
    if kind == "gcn":
        base = _reference_with_self_loops(block)
        inv_sqrt = 1.0 / np.sqrt(degrees)
        return base.scale_rows(inv_sqrt[: block.num_dst]).scale_cols(inv_sqrt)
    if kind == "left":
        base = _reference_with_self_loops(block)
        return base.scale_rows(1.0 / degrees[: block.num_dst])
    base = _reference_with_self_loops(block) if kind == "mean" else block.adjacency
    sampled = base.row_sums()
    inverse = np.zeros_like(sampled)
    populated = sampled > 0
    inverse[populated] = 1.0 / sampled[populated]
    return base.scale_rows(inverse)


def _csr_bytes(matrix: CSRMatrix):
    return (
        matrix.shape,
        matrix.indptr.tobytes(),
        matrix.indices.tobytes(),
        matrix.data.tobytes(),
    )


class TestBlockPropagationMatchesReference:
    KINDS = ("gcn", "left", "mean", "mean_noself")

    def _assert_pinned(self, blocks, label):
        for block in blocks:
            for kind in self.KINDS:
                ours = block_propagation(block, kind)
                ref = _reference_block_propagation(block, kind)
                assert _csr_bytes(ours) == _csr_bytes(ref), (label, kind)

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_sampled_and_exhaustive_blocks(self, seed):
        csr = _random_weighted_graph(seed)
        sampler = NeighborSampler(csr, seed=seed)
        for name, nodes in _dst_variants(csr.shape[0], seed).items():
            for fanouts in ((None, None), (1, 3), (3, 3)):
                blocks = sampler.ego_blocks(nodes, fanouts, key=seed)
                self._assert_pinned(blocks, (name, fanouts))

    def test_isolated_dst_rows_and_zero_entry_block(self):
        graph = _path_graph_with_isolates()
        sampler = NeighborSampler(graph.csr(), seed=0)
        mixed = sampler.sample_layer_keyed(np.array([6, 2, 5, 0]), None, key=1)
        empty = sampler.sample_layer_keyed(np.array([5, 6]), 2, key=1)
        assert empty.adjacency.nnz == 0
        self._assert_pinned([mixed, empty], "isolates")

    def test_stored_self_loops_are_summed(self):
        dense = _random_weighted_graph(5).to_dense()
        np.fill_diagonal(dense, np.linspace(0.5, 2.0, dense.shape[0]))
        sampler = NeighborSampler(CSRMatrix.from_dense(dense), seed=0)
        nodes = np.random.default_rng(1).permutation(dense.shape[0])[:20]
        for fanouts in ((None, None), (2, 4)):
            self._assert_pinned(sampler.ego_blocks(nodes, fanouts, key=2), fanouts)


class TestDestinationValidation:
    @pytest.fixture
    def sampler(self):
        return NeighborSampler(_random_weighted_graph(0), seed=0)

    @pytest.mark.parametrize(
        "bad", [np.array([3, 8, 3]), np.array([0, 48]), np.array([-1, 2])]
    )
    @pytest.mark.parametrize("fanout", [None, 2])
    def test_every_entry_point_rejects(self, sampler, bad, fanout):
        with pytest.raises(ValueError):
            sampler.sample_layer(bad, fanout, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sampler.sample_layer_keyed(bad, fanout, key=1)
        with pytest.raises(ValueError):
            sampler.ego_blocks(bad, (fanout, fanout), key=1)


class TestConcurrentEgoBlocks:
    def test_threads_sharing_a_sampler_draw_serial_blocks(self):
        """Per-call scratch maps: concurrent callers never see each other's."""
        csr = _random_weighted_graph(4, n=400)
        sampler = NeighborSampler(csr, seed=0)
        rng = np.random.default_rng(5)
        bursts = [rng.choice(400, size=40, replace=False) for _ in range(8)]

        def fingerprints(burst):
            return [
                block.fingerprint()
                for fanouts in ((3, 3), (None, 2))
                for block in sampler.ego_blocks(burst, fanouts, key=11)
            ]

        serial = [fingerprints(burst) for burst in bursts]
        results = [None] * len(bursts)
        errors = []

        def worker(index):
            try:
                for _ in range(20):
                    got = fingerprints(bursts[index])
                    if got != serial[index]:
                        results[index] = got
                        return
                results[index] = serial[index]
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(len(bursts))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == serial
