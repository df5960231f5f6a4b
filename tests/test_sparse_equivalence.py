"""CSR kernels against dense NumPy formulas.

Every graph operator runs on CSR.  These property tests check each CSR
kernel against a dense formula on random graphs — including isolated-node
and empty-graph edge cases — plus forward *and* gradient agreement of
``spmm`` with a dense matmul, and that a trained model predicts the same
from a dense adjacency as from its CSR form.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro.fairness.inform import bias_metric
from repro.gnn.normalization import gcn_norm, left_norm
from repro.graphs.khop import khop_frontier, shortest_path_hops
from repro.graphs.laplacian import laplacian, normalized_laplacian
from repro.graphs.similarity import jaccard_similarity
from repro.nn.tensor import Tensor
from repro.sparse import CSRMatrix, build_propagation, spmm
from repro.sparse.ops import INF_HOPS, mean_aggregation_csr, shortest_path_hops_csr

ATOL = 1e-10


def random_graph(rng, n, density=0.1, isolated=()):
    """Random symmetric 0/1 adjacency with selected rows forced isolated."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adjacency = (upper | upper.T).astype(np.float64)
    for node in isolated:
        adjacency[node, :] = 0.0
        adjacency[:, node] = 0.0
    return adjacency


def dense_mean(adjacency, include_self):
    """Row-stochastic neighbourhood mean; isolated rows stay zero."""
    base = adjacency + np.eye(adjacency.shape[0]) if include_self else adjacency
    degrees = base.sum(axis=1, keepdims=True)
    return np.divide(base, degrees, out=np.zeros_like(base), where=degrees > 0)


GRAPH_CASES = [
    pytest.param(dict(n=1, density=0.0), id="single-node"),
    pytest.param(dict(n=8, density=0.0), id="empty-graph"),
    pytest.param(dict(n=25, density=0.15), id="small"),
    pytest.param(dict(n=60, density=0.05, isolated=(0, 17, 59)), id="isolated-nodes"),
    pytest.param(dict(n=80, density=0.4), id="dense-ish"),
]


@pytest.fixture(params=GRAPH_CASES)
def graph_pair(request, rng):
    adjacency = random_graph(rng, **request.param)
    return adjacency, CSRMatrix.from_dense(adjacency)


class TestKernelEquivalence:
    def test_gcn_norm(self, graph_pair):
        dense, csr = graph_pair
        np.testing.assert_allclose(gcn_norm(csr).to_dense(), gcn_norm(dense), atol=ATOL)

    def test_left_norm(self, graph_pair):
        dense, csr = graph_pair
        np.testing.assert_allclose(
            left_norm(csr).to_dense(), left_norm(dense), atol=ATOL
        )

    @pytest.mark.parametrize("include_self", [True, False])
    def test_mean_aggregation(self, graph_pair, include_self):
        dense, csr = graph_pair
        np.testing.assert_allclose(
            mean_aggregation_csr(csr, include_self).to_dense(),
            dense_mean(dense, include_self),
            atol=ATOL,
        )

    def test_laplacian(self, graph_pair, rng):
        dense, _ = graph_pair
        # Laplacians apply to weighted similarity matrices; reweight the edges.
        weights = dense * (rng.random(dense.shape) + 0.5)
        weights = (weights + weights.T) / 2.0
        csr = CSRMatrix.from_dense(weights)
        np.testing.assert_allclose(
            laplacian(csr).to_dense(), laplacian(weights), atol=ATOL
        )

    def test_normalized_laplacian(self, graph_pair, rng):
        dense, _ = graph_pair
        weights = dense * (rng.random(dense.shape) + 0.5)
        weights = (weights + weights.T) / 2.0
        csr = CSRMatrix.from_dense(weights)
        np.testing.assert_allclose(
            normalized_laplacian(csr).to_dense(),
            normalized_laplacian(weights),
            atol=ATOL,
        )

    def test_shortest_path_hops(self, graph_pair):
        dense, csr = graph_pair
        distances = shortest_path(dense, unweighted=True)
        expected = np.where(np.isinf(distances), INF_HOPS, distances).astype(np.int64)
        np.testing.assert_array_equal(shortest_path_hops_csr(csr), expected)
        np.testing.assert_array_equal(shortest_path_hops(dense), expected)

    @pytest.mark.parametrize("hops", [0, 1, 2])
    def test_khop_frontier(self, graph_pair, hops):
        dense, csr = graph_pair
        n = dense.shape[0]
        seeds = np.unique([0, n // 2, n - 1])
        reachable = shortest_path(dense, unweighted=True, indices=seeds) <= hops
        expected = np.flatnonzero(reachable.any(axis=0))
        np.testing.assert_array_equal(khop_frontier(csr, seeds, hops), expected)
        np.testing.assert_array_equal(khop_frontier(dense, seeds, hops), expected)

    def test_propagation_operators(self, graph_pair):
        """``build_propagation`` gives the same CSR operator from either form."""
        dense, csr = graph_pair
        expected = {
            "gcn": gcn_norm(dense),
            "left": left_norm(dense),
            "mean": dense_mean(dense, include_self=True),
            "mean_noself": dense_mean(dense, include_self=False),
        }
        for kind, reference in expected.items():
            from_csr = build_propagation(csr, kind).to_array()
            from_dense = build_propagation(dense, kind).to_array()
            np.testing.assert_array_equal(from_dense, from_csr, err_msg=kind)
            np.testing.assert_allclose(from_csr, reference, atol=ATOL, err_msg=kind)

    def test_jaccard_similarity(self, graph_pair):
        dense, csr = graph_pair
        np.testing.assert_allclose(
            jaccard_similarity(csr).to_dense(), jaccard_similarity(dense), atol=ATOL
        )

    @pytest.mark.parametrize("normalize", [False, True])
    def test_bias_metric(self, graph_pair, rng, normalize):
        """The evaluation bias (CSR similarity) equals the dense trace form."""
        dense, csr = graph_pair
        predictions = rng.dirichlet(np.ones(3), size=dense.shape[0])
        expected = bias_metric(predictions, jaccard_similarity(dense), normalize=normalize)
        got = bias_metric(predictions, jaccard_similarity(csr), normalize=normalize)
        assert got == pytest.approx(expected, rel=1e-10, abs=ATOL)


class TestSpmmAutodiff:
    def test_forward_matches_dense(self, graph_pair, rng):
        dense, csr = graph_pair
        x = rng.normal(size=(dense.shape[0], 6))
        np.testing.assert_allclose(
            spmm(csr, Tensor(x)).data, dense @ x, atol=ATOL
        )

    def test_gradient_matches_dense(self, graph_pair, rng):
        dense, csr = graph_pair
        n = dense.shape[0]
        x_sparse = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        x_dense = Tensor(x_sparse.data.copy(), requires_grad=True)
        operator = gcn_norm(csr)
        reference = Tensor(gcn_norm(dense))

        out_sparse = spmm(operator, x_sparse)
        out_dense = reference.matmul(x_dense)
        np.testing.assert_allclose(out_sparse.data, out_dense.data, atol=ATOL)

        grad = rng.normal(size=(n, 4))
        out_sparse.backward(grad)
        out_dense.backward(grad)
        np.testing.assert_allclose(x_sparse.grad, x_dense.grad, atol=ATOL)

    def test_gradient_through_composite_loss(self, rng):
        """spmm composes with downstream tape ops (softmax + sum)."""
        adjacency = random_graph(rng, 30, density=0.2)
        csr = CSRMatrix.from_dense(adjacency)
        x_sparse = Tensor(rng.normal(size=(30, 5)), requires_grad=True)
        x_dense = Tensor(x_sparse.data.copy(), requires_grad=True)

        loss_sparse = (spmm(gcn_norm(csr), x_sparse).softmax(axis=1) ** 2).sum()
        loss_dense = (
            (Tensor(gcn_norm(adjacency)).matmul(x_dense)).softmax(axis=1) ** 2
        ).sum()
        loss_sparse.backward()
        loss_dense.backward()
        np.testing.assert_allclose(x_sparse.grad, x_dense.grad, atol=ATOL)

    def test_no_densification(self, rng):
        """The structure gradient is never materialised: P stays CSR."""
        adjacency = random_graph(rng, 20, density=0.2)
        operator = gcn_norm(CSRMatrix.from_dense(adjacency))
        x = Tensor(rng.normal(size=(20, 3)), requires_grad=True)
        out = spmm(operator, x)
        out.backward(np.ones_like(out.data))
        assert isinstance(operator, CSRMatrix)
        assert isinstance(operator.T, CSRMatrix)
        assert x.grad is not None


class TestModelEquivalence:
    @pytest.mark.parametrize("model_name", ["gcn", "graphsage"])
    def test_trained_model_dense_and_csr_adjacency(self, tiny_graph, model_name):
        from repro.gnn.models import build_model
        from repro.gnn.trainer import TrainConfig, Trainer

        model = build_model(
            model_name,
            in_features=tiny_graph.num_features,
            num_classes=tiny_graph.num_classes,
            hidden_features=8,
            rng=0,
        )
        Trainer(model, TrainConfig(epochs=20, patience=None)).fit(tiny_graph)
        from_dense = model.predict_logits(tiny_graph.features, tiny_graph.adjacency)
        from_csr = model.predict_logits(tiny_graph.features, tiny_graph.csr())
        np.testing.assert_allclose(from_dense, from_csr, atol=1e-8)
