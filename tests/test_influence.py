"""Tests for influence-function machinery: gradients, HVPs, CG and estimators."""

import numpy as np
import pytest

from repro.gnn.models import build_model
from repro.influence.correlation import influence_correlation_table, is_conforming, pearson_correlation
from repro.influence.functions import InfluenceConfig, InfluenceEstimator
from repro.influence.gradients import (
    bias_gradient,
    function_gradient,
    per_node_loss_gradients,
    risk_gradient,
    training_loss_gradient,
)
from repro.influence.hessian import (
    conjugate_gradient_solve,
    dense_hessian,
    hessian_vector_product,
    inverse_hvp,
    make_loss_gradient_function,
)
from repro.nn.losses import cross_entropy
from repro.nn.parameters import gradients_to_vector, parameters_to_vector, zero_gradients
from repro.nn.tensor import Tensor


class TestGradients:
    def test_training_loss_gradient_shape(self, trained_gcn, tiny_graph):
        gradient = training_loss_gradient(trained_gcn, tiny_graph)
        assert gradient.shape == (parameters_to_vector(trained_gcn.parameters()).shape[0],)
        assert np.all(np.isfinite(gradient))

    def test_per_node_gradients_sum_to_total(self, trained_gcn, tiny_graph):
        """Mean of per-node gradients equals the gradient of the mean loss."""
        indices = tiny_graph.train_indices()[:10]
        per_node = per_node_loss_gradients(trained_gcn, tiny_graph, indices=indices)
        total = training_loss_gradient(trained_gcn, tiny_graph, indices=indices)
        np.testing.assert_allclose(np.mean(per_node, axis=0), total, atol=1e-8)

    @pytest.mark.parametrize("name", ["gcn", "graphsage"])
    def test_per_node_gradients_match_one_forward_per_node(self, name, tiny_graph):
        """One shared forward gives bitwise the gradients of a fresh forward
        per node, and leaves every parameter gradient cleared."""
        model = build_model(
            name, tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=9
        )
        model.train()
        indices = tiny_graph.train_indices()[:12]
        params = list(model.parameters())

        def reference():
            gradients = []
            for node in indices:
                model.eval()
                logits = model(tiny_graph.features, tiny_graph.adjacency)
                model.train()
                loss = cross_entropy(logits[np.array([node])], tiny_graph.labels[np.array([node])])
                zero_gradients(params)
                loss.backward()
                gradients.append(gradients_to_vector(params))
                zero_gradients(params)
            return gradients

        expected = reference()
        got = per_node_loss_gradients(model, tiny_graph, indices=indices)
        assert len(got) == len(expected)
        for actual, wanted in zip(got, expected):
            assert actual.tobytes() == wanted.tobytes()
        assert all(param.grad is None for param in params)
        assert model.training

    def test_gradient_matches_numerical(self, trained_gcn, tiny_graph):
        """Autodiff parameter gradient agrees with finite differences of the loss."""
        indices = tiny_graph.train_indices()[:5]
        gradient = training_loss_gradient(trained_gcn, tiny_graph, indices=indices)
        gradient_function = make_loss_gradient_function(trained_gcn, tiny_graph, indices=indices)
        theta = parameters_to_vector(trained_gcn.parameters())

        def loss_at(vector):
            from repro.nn.parameters import vector_to_parameters

            vector_to_parameters(vector, trained_gcn.parameters())
            was_training = trained_gcn.training
            trained_gcn.eval()  # the analytic gradient is defined at the dropout-free forward
            try:
                logits = trained_gcn(tiny_graph.features, tiny_graph.adjacency)
                return float(cross_entropy(logits[indices], tiny_graph.labels[indices]).item())
            finally:
                vector_to_parameters(theta, trained_gcn.parameters())
                if was_training:
                    trained_gcn.train()

        rng = np.random.default_rng(0)
        for index in rng.choice(theta.size, size=5, replace=False):
            eps = 1e-5
            plus = theta.copy(); plus[index] += eps
            minus = theta.copy(); minus[index] -= eps
            numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps)
            assert gradient[index] == pytest.approx(numeric, abs=1e-4)

    def test_bias_gradient_nonzero(self, trained_gcn, tiny_graph):
        gradient = bias_gradient(trained_gcn, tiny_graph)
        assert np.linalg.norm(gradient) > 0
        assert np.all(np.isfinite(gradient))

    def test_risk_gradient_nonzero(self, trained_gcn, tiny_graph):
        gradient = risk_gradient(trained_gcn, tiny_graph, num_unconnected=100)
        assert np.linalg.norm(gradient) > 0

    def test_function_gradient_custom(self, trained_gcn, tiny_graph):
        gradient = function_gradient(
            trained_gcn, tiny_graph, lambda logits, graph: (logits * logits).sum()
        )
        assert gradient.shape == (parameters_to_vector(trained_gcn.parameters()).shape[0],)

    def test_eval_mode_is_restored(self, trained_gcn, tiny_graph):
        trained_gcn.train()
        training_loss_gradient(trained_gcn, tiny_graph)
        assert trained_gcn.training
        trained_gcn.eval()


class TestHessian:
    def test_hvp_matches_dense_hessian(self, trained_gcn, tiny_graph):
        indices = tiny_graph.train_indices()[:8]
        gradient_function = make_loss_gradient_function(trained_gcn, tiny_graph, indices=indices)
        theta = parameters_to_vector(trained_gcn.parameters())
        rng = np.random.default_rng(0)
        # Project onto a small random subspace to keep the dense Hessian cheap:
        # compare H v against finite-difference columns for a few coordinates.
        vector = rng.normal(size=theta.size)
        hvp = hessian_vector_product(gradient_function, theta, vector, eps=1e-4)
        assert hvp.shape == theta.shape
        assert np.all(np.isfinite(hvp))
        # Symmetry check: vᵀ H u == uᵀ H v.
        other = rng.normal(size=theta.size)
        hvp_other = hessian_vector_product(gradient_function, theta, other, eps=1e-4)
        assert float(other @ hvp) == pytest.approx(float(vector @ hvp_other), rel=0.05, abs=1e-4)

    def test_hvp_zero_vector(self, trained_gcn, tiny_graph):
        gradient_function = make_loss_gradient_function(trained_gcn, tiny_graph)
        theta = parameters_to_vector(trained_gcn.parameters())
        np.testing.assert_array_equal(
            hessian_vector_product(gradient_function, theta, np.zeros_like(theta)), np.zeros_like(theta)
        )

    def test_conjugate_gradient_solves_spd_system(self):
        rng = np.random.default_rng(0)
        basis = rng.normal(size=(20, 20))
        matrix = basis @ basis.T + np.eye(20)
        rhs = rng.normal(size=20)
        solution = conjugate_gradient_solve(lambda v: matrix @ v, rhs, damping=0.0, max_iterations=200)
        np.testing.assert_allclose(matrix @ solution, rhs, atol=1e-5)

    def test_conjugate_gradient_damping(self):
        matrix = np.diag([1.0, 2.0, 3.0])
        rhs = np.ones(3)
        solution = conjugate_gradient_solve(lambda v: matrix @ v, rhs, damping=0.5, max_iterations=100)
        expected = np.linalg.solve(matrix + 0.5 * np.eye(3), rhs)
        np.testing.assert_allclose(solution, expected, atol=1e-6)

    def test_conjugate_gradient_rejects_negative_damping(self):
        with pytest.raises(ValueError):
            conjugate_gradient_solve(lambda v: v, np.ones(3), damping=-1.0)

    def test_dense_hessian_symmetric_quadratic(self):
        matrix = np.array([[2.0, 0.5], [0.5, 1.0]])

        def gradient_function(theta):
            return matrix @ theta

        hessian = dense_hessian(gradient_function, np.zeros(2))
        np.testing.assert_allclose(hessian, matrix, atol=1e-6)

    def test_inverse_hvp_consistency(self, trained_gcn, tiny_graph):
        """H (H⁻¹ v) ≈ v up to damping for a well-conditioned direction."""
        vector = training_loss_gradient(trained_gcn, tiny_graph)
        solution = inverse_hvp(trained_gcn, tiny_graph, vector, damping=0.5, max_iterations=30)
        gradient_function = make_loss_gradient_function(trained_gcn, tiny_graph)
        theta = parameters_to_vector(trained_gcn.parameters())
        reconstructed = hessian_vector_product(gradient_function, theta, solution) + 0.5 * solution
        # CG is truncated, so only require a large reduction of the residual.
        assert np.linalg.norm(reconstructed - vector) < 0.7 * np.linalg.norm(vector)


class TestInfluenceEstimator:
    @pytest.fixture(scope="class")
    def estimator(self, trained_gcn, tiny_graph):
        return InfluenceEstimator(
            trained_gcn, tiny_graph, config=InfluenceConfig(damping=0.1, cg_iterations=8)
        )

    def test_scores_align_with_train_nodes(self, estimator, tiny_graph):
        scores = estimator.compute_all()
        num_train = int(tiny_graph.train_mask.sum())
        assert scores.utility.shape == (num_train,)
        assert scores.bias.shape == (num_train,)
        assert scores.risk.shape == (num_train,)
        np.testing.assert_array_equal(scores.train_indices, tiny_graph.train_indices())

    def test_influences_are_finite_and_varied(self, estimator):
        bias = estimator.bias_influence()
        assert np.all(np.isfinite(bias))
        assert bias.std() > 0

    def test_node_gradient_cache(self, estimator):
        first = estimator.node_loss_gradients()
        second = estimator.node_loss_gradients()
        assert first is second

    def test_requires_labels(self, trained_gcn, tiny_graph):
        unlabeled = tiny_graph.copy()
        unlabeled.labels = None
        with pytest.raises(ValueError):
            InfluenceEstimator(trained_gcn, unlabeled)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InfluenceConfig(damping=-1.0)
        with pytest.raises(ValueError):
            InfluenceConfig(cg_iterations=0)


class TestCorrelation:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=50), rng.normal(size=50)
        assert pearson_correlation(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1])

    def test_constant_vector_returns_zero(self):
        assert pearson_correlation(np.ones(10), np.arange(10.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(3), np.ones(4))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(1), np.ones(1))

    def test_table_structure(self):
        influences = {
            "cora": {"gcn": {"bias": np.arange(5.0), "risk": -np.arange(5.0)}},
        }
        table = influence_correlation_table(influences)
        assert table["cora"]["gcn"] == pytest.approx(-1.0)

    def test_is_conforming_threshold(self):
        assert is_conforming(0.5)
        assert not is_conforming(0.2)
        assert not is_conforming(-0.9)
