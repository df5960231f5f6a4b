"""Tests for GNN layers, models, normalisation, trainer and evaluation."""

import numpy as np
import pytest

from repro.gnn.evaluation import evaluate_accuracy, predict_labels, predict_probabilities
from repro.gnn.layers import GATConv, GCNConv, SAGEConv
from repro.gnn.models import GAT, GCN, MODEL_REGISTRY, GraphSAGE, build_model
from repro.gnn.normalization import (
    attention_mask,
    gcn_norm,
    left_norm,
    row_normalize_features,
)
from repro.gnn.trainer import TrainConfig, Trainer
from repro.graphs.revision import adjacency_revision
from repro.fairness.inform import inform_regularizer
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.sparse.backend import build_propagation
from repro.sparse.csr import CSRMatrix
from repro.sparse.opcache import OperatorCache, use_operator_cache
from repro.sparse.ops import mean_aggregation_csr


class TestNormalization:
    def test_gcn_norm_symmetric(self, tiny_graph):
        propagation = gcn_norm(tiny_graph.adjacency)
        np.testing.assert_allclose(propagation, propagation.T)

    def test_left_norm_row_stochastic(self, tiny_graph):
        propagation = left_norm(tiny_graph.adjacency)
        np.testing.assert_allclose(propagation.sum(axis=1), 1.0)

    def test_mean_aggregation_without_self(self):
        adjacency = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        operator = mean_aggregation_csr(adjacency, include_self=False)
        np.testing.assert_allclose(operator.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_mean_aggregation_isolated_node_zero_row(self):
        adjacency = CSRMatrix.from_dense(np.zeros((3, 3)))
        operator = mean_aggregation_csr(adjacency, include_self=False)
        np.testing.assert_allclose(operator.to_dense(), np.zeros((3, 3)))

    def test_attention_mask_allows_self_and_neighbors(self):
        adjacency = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        mask = attention_mask(adjacency)
        assert not mask[0, 0] and not mask[0, 1]
        assert mask[0, 2] and mask[2, 1]

    def test_row_normalize_features(self):
        features = np.array([[2.0, 2.0], [0.0, 0.0]])
        normalized = row_normalize_features(features)
        np.testing.assert_allclose(normalized[0], [0.5, 0.5])
        np.testing.assert_allclose(normalized[1], [0.0, 0.0])


class TestLayers:
    def test_gcn_conv_shape_and_grad(self):
        layer = GCNConv(6, 4, rng=0)
        propagation = Tensor(np.eye(5))
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 6))), propagation)
        assert out.shape == (5, 4)
        out.sum().backward()
        assert layer.weight.grad is not None

    def test_gat_conv_multi_head_concat(self):
        layer = GATConv(6, 4, heads=2, concat_heads=True, rng=0)
        mask = attention_mask(np.ones((5, 5)) - np.eye(5))
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 6))), mask)
        assert out.shape == (5, 8)

    def test_gat_conv_average_heads(self):
        layer = GATConv(6, 3, heads=2, concat_heads=False, rng=0)
        mask = attention_mask(np.ones((4, 4)) - np.eye(4))
        out = layer(Tensor(np.random.default_rng(0).normal(size=(4, 6))), mask)
        assert out.shape == (4, 3)

    def test_gat_invalid_heads(self):
        with pytest.raises(ValueError):
            GATConv(4, 4, heads=0)

    def test_sage_conv_shape(self):
        layer = SAGEConv(6, 4, rng=0)
        aggregation = Tensor((np.ones((5, 5)) - np.eye(5)) / 4.0)
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 6))), aggregation)
        assert out.shape == (5, 4)


class TestModels:
    def test_registry(self):
        assert set(MODEL_REGISTRY) == {"gcn", "gat", "graphsage"}
        with pytest.raises(KeyError):
            build_model("transformer", 4, 2)

    @pytest.mark.parametrize("name", ["gcn", "gat", "graphsage"])
    def test_forward_shapes(self, name, tiny_graph):
        model = build_model(
            name, tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=0
        )
        logits = model(tiny_graph.features, tiny_graph.adjacency)
        assert logits.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    def test_predict_proba_rows_sum_to_one(self, trained_gcn, tiny_graph):
        probabilities = trained_gcn.predict_proba(tiny_graph.features, tiny_graph.adjacency)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        assert probabilities.min() >= 0.0

    def test_predict_labels_range(self, trained_gcn, tiny_graph):
        labels = trained_gcn.predict_labels(tiny_graph.features, tiny_graph.adjacency)
        assert labels.min() >= 0 and labels.max() < tiny_graph.num_classes

    def test_gcn_structure_matters(self, trained_gcn, tiny_graph):
        """Predictions must depend on the adjacency (it is the attack surface)."""
        original = trained_gcn.predict_proba(tiny_graph.features, tiny_graph.adjacency)
        empty = trained_gcn.predict_proba(tiny_graph.features, np.zeros_like(tiny_graph.adjacency))
        assert not np.allclose(original, empty)

    def test_gat_requires_divisible_hidden(self):
        with pytest.raises(ValueError):
            GAT(in_features=4, hidden_features=5, num_classes=2, heads=2)

    def test_graphsage_sampling_changes_training_forward(self, tiny_graph):
        model = GraphSAGE(
            tiny_graph.num_features, 8, tiny_graph.num_classes, num_samples=2, rng=0
        )
        model.train()
        first = model(tiny_graph.features, tiny_graph.adjacency).data
        second = model(tiny_graph.features, tiny_graph.adjacency).data
        assert not np.allclose(first, second)
        # Inference is deterministic (no sampling, no dropout).
        det1 = model.predict_proba(tiny_graph.features, tiny_graph.adjacency)
        det2 = model.predict_proba(tiny_graph.features, tiny_graph.adjacency)
        np.testing.assert_allclose(det1, det2)

    def test_invalid_num_layers(self):
        with pytest.raises(ValueError):
            GCN(4, 8, 2, num_layers=0)


class TestTrainer:
    def test_training_beats_random_guessing(self, trained_gcn, tiny_graph):
        accuracy = evaluate_accuracy(trained_gcn, tiny_graph)
        assert accuracy > 1.5 / tiny_graph.num_classes

    def test_training_improves_over_init(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=1)
        before = evaluate_accuracy(model, tiny_graph)
        Trainer(model, TrainConfig(epochs=40, patience=None, track_best=False)).fit(tiny_graph)
        after = evaluate_accuracy(model, tiny_graph)
        assert after > before

    def test_history_recorded(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=2)
        result = Trainer(model, TrainConfig(epochs=5, patience=None, track_best=False)).fit(tiny_graph)
        assert len(result.history["loss"]) == 5
        assert result.epochs_run == 5

    def test_early_stopping_respects_patience(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=3)
        config = TrainConfig(epochs=200, patience=3, min_epochs=5)
        result = Trainer(model, config).fit(tiny_graph)
        assert result.epochs_run < 200

    def test_sample_weight_validation(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=4)
        trainer = Trainer(model, TrainConfig(epochs=2, patience=None))
        with pytest.raises(ValueError):
            trainer.fit(tiny_graph, sample_weights=np.ones(3))
        with pytest.raises(ValueError):
            trainer.fit(tiny_graph, sample_weights=-np.ones(int(tiny_graph.train_mask.sum())))

    def test_fine_tune_runs_exact_epochs(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=5)
        trainer = Trainer(model, TrainConfig(epochs=10, patience=None, track_best=False))
        trainer.fit(tiny_graph)
        result = trainer.fine_tune(tiny_graph, epochs=4)
        assert result.epochs_run == 4
        # The trainer's base config must be restored after fine-tuning.
        assert trainer.config.epochs == 10

    def test_fine_tune_lr_scale_validation(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=6)
        trainer = Trainer(model, TrainConfig(epochs=2, patience=None))
        trainer.fit(tiny_graph)
        with pytest.raises(ValueError):
            trainer.fine_tune(tiny_graph, epochs=1, learning_rate_scale=0.0)

    def test_regularizer_is_applied(self, tiny_graph):
        """Training with the fairness regulariser lowers the bias term vs vanilla."""
        from repro.fairness.inform import bias_from_graph

        vanilla = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=7)
        Trainer(vanilla, TrainConfig(epochs=60, patience=None, track_best=False)).fit(tiny_graph)
        fair = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=7)
        Trainer(fair, TrainConfig(epochs=60, patience=None, track_best=False)).fit(
            tiny_graph, regularizers=[inform_regularizer(weight=100.0)]
        )
        bias_vanilla = bias_from_graph(
            vanilla.predict_proba(tiny_graph.features, tiny_graph.adjacency), tiny_graph
        )
        bias_fair = bias_from_graph(
            fair.predict_proba(tiny_graph.features, tiny_graph.adjacency), tiny_graph
        )
        assert bias_fair < bias_vanilla

    def test_adjacency_override_changes_training(self, tiny_graph):
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=8)
        trainer = Trainer(model, TrainConfig(epochs=3, patience=None, track_best=False))
        result = trainer.fit(tiny_graph, adjacency_override=np.zeros_like(tiny_graph.adjacency))
        assert len(result.history["loss"]) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


class TestEvaluation:
    def test_predict_probabilities_and_labels(self, trained_gcn, tiny_graph):
        probabilities = predict_probabilities(trained_gcn, tiny_graph)
        labels = predict_labels(trained_gcn, tiny_graph)
        np.testing.assert_array_equal(labels, probabilities.argmax(axis=1))

    def test_evaluate_accuracy_custom_mask(self, trained_gcn, tiny_graph):
        mask = np.zeros(tiny_graph.num_nodes, dtype=bool)
        mask[tiny_graph.train_indices()] = True
        train_accuracy = evaluate_accuracy(trained_gcn, tiny_graph, mask=mask)
        assert 0.0 <= train_accuracy <= 1.0

    def test_evaluate_accuracy_requires_labels(self, trained_gcn, tiny_graph):
        unlabeled = tiny_graph.copy()
        unlabeled.labels = None
        with pytest.raises(ValueError):
            evaluate_accuracy(trained_gcn, unlabeled)


# --------------------------------------------------------------------------- #
# GraphSAGE's training-mode neighbour sampler, pinned against the per-row
# loops it replaced.  The three functions below are verbatim copies of the
# old dense loop, the old CSR loop and the dense mean operator.
# --------------------------------------------------------------------------- #
def _reference_sample_dense(self, adjacency):
    sampled = np.zeros_like(adjacency)
    for node in range(adjacency.shape[0]):
        neighbors = np.nonzero(adjacency[node])[0]
        if neighbors.size == 0:
            continue
        if neighbors.size > self.num_samples:
            neighbors = self._sample_rng.choice(
                neighbors, size=self.num_samples, replace=False
            )
        sampled[node, neighbors] = 1.0
    return sampled


def _reference_sample_csr(self, adjacency):
    rows: list = []
    cols: list = []
    indptr, indices = adjacency.indptr, adjacency.indices
    for node in range(adjacency.shape[0]):
        neighbors = indices[indptr[node] : indptr[node + 1]]
        if neighbors.size == 0:
            continue
        if neighbors.size > self.num_samples:
            neighbors = self._sample_rng.choice(
                neighbors, size=self.num_samples, replace=False
            )
        rows.append(np.full(neighbors.size, node, dtype=np.int64))
        cols.append(neighbors)
    if not rows:
        return CSRMatrix.from_coo(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            adjacency.shape,
        )
    row_idx = np.concatenate(rows)
    col_idx = np.concatenate(cols)
    return CSRMatrix.from_coo(
        row_idx, col_idx, np.ones(row_idx.size, dtype=np.float64), adjacency.shape
    )


def _reference_aggregation(model, adjacency):
    """The old ``GraphSAGE._aggregation``: sample, then ``build_propagation``."""
    if model.training and model.num_samples is not None:
        if isinstance(adjacency, CSRMatrix):
            adjacency = _reference_sample_csr(model, adjacency)
        else:
            adjacency = _reference_sample_dense(model, adjacency)
    return build_propagation(adjacency, kind="mean_noself")


def _sampler_graph(weighted: bool) -> np.ndarray:
    """40 nodes: rows below, at and above a fanout of 4, and isolated rows."""
    rng = np.random.default_rng(5)
    n = 40
    upper = np.triu((rng.random((n, n)) < 0.12).astype(float), k=1)
    upper[0, 1:12] = 1.0  # hub: well above the fanout
    upper[:, [38, 39]] = 0.0
    upper[[38, 39], :] = 0.0  # isolated rows
    adjacency = upper + upper.T
    if weighted:
        adjacency *= rng.uniform(0.5, 3.0, size=(n, n))
        adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
    degrees = np.count_nonzero(adjacency, axis=1)
    assert (degrees > 4).any() and (degrees == 4).any() and (degrees < 4).any()
    assert (degrees == 0).sum() == 2
    return adjacency


def _operator_bytes(operator):
    matrix = operator.matrix
    return (matrix.indptr.tobytes(), matrix.indices.tobytes(), matrix.data.tobytes())


def _twin_sage(num_samples, seed=3):
    return [
        GraphSAGE(16, 8, 3, dropout=0.5, num_samples=num_samples, rng=seed) for _ in range(2)
    ]


class TestSamplerMatchesPerRowLoops:
    @pytest.mark.parametrize("csr_input", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["binary", "weighted"])
    @pytest.mark.parametrize("num_samples", [1, 4, 60])
    def test_operator_and_rng_state_match(self, csr_input, weighted, num_samples):
        adjacency = _sampler_graph(weighted)
        if csr_input:
            adjacency = CSRMatrix.from_dense(adjacency)
        new, old = _twin_sage(num_samples)
        new.train()
        old.train()
        for _ in range(3):  # successive draws keep the streams aligned
            got = new._sampled_aggregation(adjacency)
            expected = _reference_aggregation(old, adjacency)
            assert type(got) is type(expected)
            assert _operator_bytes(got) == _operator_bytes(expected)
        assert new._sample_rng.bit_generator.state == old._sample_rng.bit_generator.state
        assert new._sample_rng.random(3).tobytes() == old._sample_rng.random(3).tobytes()

    @pytest.mark.parametrize("csr_input", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("num_samples", [4, None])
    def test_training_forward_matches_reference(self, csr_input, num_samples):
        adjacency = _sampler_graph(weighted=True)
        if csr_input:
            adjacency = CSRMatrix.from_dense(adjacency)
        features = np.random.default_rng(1).normal(size=(40, 16))
        new, old = _twin_sage(num_samples)
        new.train()
        old.train()
        for _ in range(2):
            got = new(features, adjacency).data
            aggregation = _reference_aggregation(old, adjacency)
            x = old.conv0(Tensor(features), aggregation)
            x = old.dropout(F.normalize_rows(F.relu(x)))
            expected = old.conv1(x, aggregation).data
            assert got.tobytes() == expected.tobytes()


class TestConstantWorkCache:
    """The operator cache holds GraphSAGE's neighbour lists and its eval-mode
    input mean; neither may ever change a result."""

    @staticmethod
    def _sage(graph, num_samples=2):
        return GraphSAGE(graph.num_features, 8, graph.num_classes, num_samples=num_samples, rng=4)

    @staticmethod
    def _uncached(model, features, adjacency):
        with use_operator_cache(None):
            return model.predict_logits(features, adjacency)

    def test_cached_eval_forward_is_bitwise_uncached(self, tiny_graph):
        model = self._sage(tiny_graph)
        graph = tiny_graph.copy()
        expected = self._uncached(model, graph.features, graph.adjacency)
        with use_operator_cache(OperatorCache()):
            for _ in range(3):
                got = model.predict_logits(graph.features, graph.adjacency)
                assert got.tobytes() == expected.tobytes()

    def test_repeated_eval_forwards_hit(self, tiny_graph):
        model = self._sage(tiny_graph)
        graph = tiny_graph.copy()
        cache = OperatorCache()
        with use_operator_cache(cache):
            model.predict_logits(graph.features, graph.adjacency)
            first = cache.stats
            model.predict_logits(graph.features, graph.adjacency)
            model.predict_logits(graph.features, graph.adjacency)
        assert (first.hits, first.misses) == (0, 2)  # operator and input mean
        assert (cache.stats.hits, cache.stats.misses) == (4, 2)

    def test_mutated_feature_copy_never_hits(self, tiny_graph):
        """LinkTeller's pattern: one copy of the features, perturbed in place
        between queries."""
        model = self._sage(tiny_graph)
        graph = tiny_graph.copy()
        cache = OperatorCache()
        with use_operator_cache(cache):
            model.predict_logits(graph.features, graph.adjacency)
            probe = graph.features.copy()
            for step in range(3):
                probe[step] *= 1.5
                got = model.predict_logits(probe, graph.adjacency)
                expected = self._uncached(model, probe.copy(), graph.adjacency)
                assert got.tobytes() == expected.tobytes()
        assert len(cache) == 2  # the operator and the Graph's own input mean

    def test_bump_revision_and_with_adjacency_miss(self, tiny_graph):
        model = self._sage(tiny_graph)
        graph = tiny_graph.copy()
        cache = OperatorCache()
        with use_operator_cache(cache):
            before = model.predict_logits(graph.features, graph.adjacency)
            tags = adjacency_revision(graph.adjacency), adjacency_revision(graph.features)
            graph.features[:5] *= 2.0
            graph.bump_revision()
            retagged = adjacency_revision(graph.adjacency), adjacency_revision(graph.features)
            assert None not in tags and retagged[0] != tags[0] and retagged[1] != tags[1]
            after = model.predict_logits(graph.features, graph.adjacency)
            assert cache.stats.misses == 4 and cache.stats.hits == 0
            assert after.tobytes() != before.tobytes()
            assert after.tobytes() == self._uncached(
                model, graph.features.copy(), graph.adjacency.copy()
            ).tobytes()
            adjacency = graph.adjacency.copy()
            adjacency[0, 1] = adjacency[1, 0] = 1.0 - adjacency[0, 1]
            derived = graph.with_adjacency(adjacency)
            got = model.predict_logits(derived.features, derived.adjacency)
            assert cache.stats.misses == 6 and cache.stats.hits == 0
        assert got.tobytes() == self._uncached(
            model, derived.features.copy(), derived.adjacency.copy()
        ).tobytes()

    def test_sampled_training_forward_reads_only_neighbor_lists(self, tiny_graph, monkeypatch):
        graph = tiny_graph.copy()
        cached_model, plain_model = self._sage(graph), self._sage(graph)
        cache = OperatorCache()
        keys = []
        build = cache.get_or_build
        monkeypatch.setattr(
            cache, "get_or_build", lambda key, builder: keys.append(key) or build(key, builder)
        )
        with use_operator_cache(cache):
            cached_model.predict_logits(graph.features, graph.adjacency)  # fills the input mean
            keys.clear()
            cached_model.train()
            got = [cached_model(graph.features, graph.adjacency).data for _ in range(2)]
        plain_model.train()
        with use_operator_cache(None):
            expected = [plain_model(graph.features, graph.adjacency).data for _ in range(2)]
        assert keys == [(graph.revision, "neighbors")] * 2
        assert cache.stats.hits == 1  # the second forward's neighbour lists
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
