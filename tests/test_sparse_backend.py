"""CSR propagation operators, the ``use_backend`` scope, the removed backend
selector, BLAS-thread independence and grad-mode scoping."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.sparse
from repro.core.config import ComputeConfig
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.grid import GridRunner
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.sparse import CSRMatrix, SparseOperator, build_propagation, use_backend


def ring_adjacency(n):
    adjacency = np.zeros((n, n))
    idx = np.arange(n)
    adjacency[idx, (idx + 1) % n] = 1.0
    adjacency[(idx + 1) % n, idx] = 1.0
    return adjacency


def graph_with_isolated_node(weighted=False):
    """A 9-node graph: random edges among nodes 0-7, node 8 isolated.

    ``weighted`` gives every edge a symmetric weight in [0.5, 2).
    """
    rng = np.random.default_rng(7)
    upper = np.triu(rng.random((9, 9)) < 0.4, k=1)
    adjacency = (upper | upper.T).astype(np.float64)
    adjacency[8, :] = adjacency[:, 8] = 0.0
    if weighted:
        weights = np.triu(rng.uniform(0.5, 2.0, size=(9, 9)), k=1)
        adjacency *= weights + weights.T
    return adjacency


def dense_reference(adjacency, kind):
    """The propagation matrix ``kind`` written directly in NumPy."""
    n = adjacency.shape[0]
    if kind in ("gcn", "left", "mean"):
        base = adjacency + np.eye(n)
    else:
        base = adjacency.copy()
    degrees = base.sum(axis=1)
    if kind == "gcn":
        inv_sqrt = 1.0 / np.sqrt(degrees)
        return base * inv_sqrt[:, None] * inv_sqrt[None, :]
    inverse = np.zeros(n)
    inverse[degrees > 0] = 1.0 / degrees[degrees > 0]
    return base * inverse[:, None]


KINDS = ["gcn", "left", "mean", "mean_noself"]


class TestPropagation:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("as_csr", [False, True], ids=["dense-input", "csr-input"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["binary", "weighted"])
    def test_operator_matches_dense_reference(self, kind, as_csr, weighted, rng):
        adjacency = graph_with_isolated_node(weighted)
        assert adjacency[8].sum() == 0.0
        structure = CSRMatrix.from_dense(adjacency) if as_csr else adjacency
        operator = build_propagation(structure, kind)
        assert isinstance(operator, SparseOperator)
        assert isinstance(operator.matrix, CSRMatrix)
        expected = dense_reference(adjacency, kind)
        np.testing.assert_allclose(operator.to_array(), expected, rtol=0.0, atol=1e-12)
        x = rng.normal(size=(9, 3))
        np.testing.assert_allclose(
            operator.matmul(Tensor(x)).data, expected @ x, rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_backward_matches_dense_reference(self, kind, rng):
        """The input gradient of ``operator.matmul`` is ``Pᵀ · grad``."""
        adjacency = graph_with_isolated_node(weighted=True)
        operator = build_propagation(CSRMatrix.from_dense(adjacency), kind)
        x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        grad = rng.normal(size=(9, 3))
        operator.matmul(x).backward(grad)
        expected = dense_reference(adjacency, kind).T @ grad
        np.testing.assert_allclose(x.grad, expected, rtol=0.0, atol=1e-12)

    def test_operator_api(self):
        operator = build_propagation(ring_adjacency(12), "gcn")
        assert operator.shape == (12, 12)
        assert operator.memory_bytes() < ring_adjacency(12).nbytes

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown propagation kind"):
            build_propagation(ring_adjacency(4), "chebyshev")


class TestUseBackend:
    @pytest.mark.parametrize("name", [None, "sparse", "SPARSE"])
    def test_sparse_scope_is_a_no_op(self, name):
        with use_backend(name):
            operator = build_propagation(ring_adjacency(6), "gcn")
        assert isinstance(operator, SparseOperator)

    @pytest.mark.parametrize("name", ["dense", "auto", "gpu"])
    def test_other_names_raise(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend(name):
                pass  # pragma: no cover - the scope must not be entered

    def test_selector_names_are_gone(self):
        for name in (
            "DenseOperator",
            "DenseBackend",
            "ComputeBackend",
            "AUTO_MIN_NODES",
            "available_backends",
            "get_backend",
            "get_backend_name",
            "register_backend",
            "resolve_backend",
            "set_backend",
        ):
            assert not hasattr(repro.sparse, name), name
            assert not hasattr(repro.sparse.backend, name), name

    def test_compute_config_has_no_backend(self):
        with pytest.raises(TypeError, match="backend"):
            ComputeConfig(backend="sparse")

    def test_grid_runner_has_no_backend(self):
        with pytest.raises(TypeError, match="backend"):
            GridRunner(backend="sparse")

    def test_experiments_cli_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["table3", "--preset", "smoke", "--backend", "sparse"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


_TABLE3_ROWS = (
    "from repro.experiments.tables import table3_accuracy_bias; "
    "print(repr(table3_accuracy_bias('smoke', seed=0).rows))"
)


def _table3_rows_at(threads):
    env = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = str(threads)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _TABLE3_ROWS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_results_do_not_depend_on_blas_threads():
    """Smoke Table III is bit-identical at one and at two BLAS threads."""
    single = _table3_rows_at(1)
    assert single.startswith("[{")
    assert _table3_rows_at(2) == single


class TestGradModeContextVar:
    """The autodiff mode flag is dynamically scoped per thread."""

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_does_not_leak_across_threads(self):
        """no_grad() in one thread must not disable recording in another."""
        barrier = threading.Barrier(2)
        results = {}

        def frozen_worker():
            with no_grad():
                barrier.wait()  # hold no_grad open while the peer records
                results["frozen"] = is_grad_enabled()
                barrier.wait()

        def recording_worker():
            barrier.wait()
            tensor = Tensor(np.ones(3), requires_grad=True)
            out = (tensor * 2.0).sum()
            results["recording"] = (is_grad_enabled(), out.requires_grad)
            barrier.wait()

        threads = [
            threading.Thread(target=frozen_worker),
            threading.Thread(target=recording_worker),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["frozen"] is False
        assert results["recording"] == (True, True)
