"""Scalability benchmark: sparse vs dense graph propagation on SBM graphs.

Synthetic planted-partition graphs from 1k to 50k nodes (average degree 20,
homophily 0.8 — the regime of the paper's datasets) are pushed through the
full propagation pipeline on CSR and on the dense NumPy reference:

* build the GCN operator ``D̃^{-1/2}(A+I)D̃^{-1/2}``, and
* run one autodiff forward + backward of ``P @ X`` (the inner loop of every
  training epoch).

The dense path is O(n²) in memory and time; the CSR path is O(m).  The test
asserts the headline claims: ≥5× speedup and ≥10× operator-memory reduction
at 20k nodes, with speedup growing super-linearly in n, and a 50k-node graph
(dense footprint would be 20 GB) completing on the sparse path alone.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once
from repro.datasets.synthetic import generate_scaling_graph
from repro.nn.tensor import Tensor
from repro.sparse import CSRMatrix, spmm
from repro.sparse.ops import gcn_norm_csr

NUM_FEATURES = 16
AVERAGE_DEGREE = 20.0
COMPARISON_SIZES = (1_000, 5_000, 20_000)
SPARSE_ONLY_SIZE = 50_000

# The dense leg peaks at several simultaneous (N, N) float64 arrays
# (adjacency, eye, with-loops, broadcast temp, result) — ~10 GB RSS at 20k
# nodes.  Skip dense sizes the machine cannot afford instead of OOM-ing
# constrained CI runners; the sparse leg always runs.
DENSE_PEAK_MATRICES = 5


def _available_memory_bytes() -> int:
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return 1 << 62  # unknown: assume plenty


def _dense_affordable(num_nodes: int) -> bool:
    peak = DENSE_PEAK_MATRICES * num_nodes * num_nodes * 8
    return peak <= 0.8 * _available_memory_bytes()


def _dense_pipeline(adjacency: np.ndarray, features: np.ndarray) -> float:
    """Operator build + one forward/backward on the dense path."""
    from repro.graphs.laplacian import gcn_normalization

    start = time.perf_counter()
    propagation = gcn_normalization(adjacency, mode="symmetric")
    x = Tensor(features, requires_grad=True)
    out = Tensor(propagation).matmul(x)
    out.backward(np.ones_like(out.data))
    return time.perf_counter() - start


def _sparse_pipeline(adjacency: CSRMatrix, features: np.ndarray) -> float:
    """Operator build + one forward/backward on the CSR path."""
    start = time.perf_counter()
    propagation = gcn_norm_csr(adjacency)
    x = Tensor(features, requires_grad=True)
    out = spmm(propagation, x)
    out.backward(np.ones_like(out.data))
    return time.perf_counter() - start


def _scaling_report():
    rows = []
    for num_nodes in COMPARISON_SIZES:
        if not _dense_affordable(num_nodes):
            print(f"[skipped dense comparison at {num_nodes} nodes: not enough memory]")
            continue
        csr, features, _labels = generate_scaling_graph(
            num_nodes,
            average_degree=AVERAGE_DEGREE,
            num_features=NUM_FEATURES,
            seed=0,
        )
        dense_adjacency = csr.to_dense()
        dense_seconds = _dense_pipeline(dense_adjacency, features)
        sparse_seconds = _sparse_pipeline(csr, features)
        operator_dense = gcn_norm_csr(csr)  # nnz of the propagation matrix
        rows.append(
            {
                "num_nodes": num_nodes,
                "nnz": csr.nnz,
                "dense_seconds": dense_seconds,
                "sparse_seconds": sparse_seconds,
                "speedup": dense_seconds / max(sparse_seconds, 1e-12),
                "dense_bytes": dense_adjacency.nbytes,
                "sparse_bytes": operator_dense.memory_bytes(),
            }
        )
        del dense_adjacency
    return rows


def test_scaling_sparse_vs_dense(benchmark):
    rows = run_once(benchmark, _scaling_report)
    assert rows, "machine too small for any dense comparison size"
    print()
    header = (
        f"{'nodes':>8} {'nnz':>10} {'dense_s':>9} {'sparse_s':>9} "
        f"{'speedup':>8} {'mem_ratio':>9}"
    )
    print(header)
    for row in rows:
        memory_ratio = row["dense_bytes"] / row["sparse_bytes"]
        print(
            f"{row['num_nodes']:>8} {row['nnz']:>10} {row['dense_seconds']:>9.3f} "
            f"{row['sparse_seconds']:>9.3f} {row['speedup']:>8.1f} {memory_ratio:>9.1f}"
        )

    by_nodes = {row["num_nodes"]: row for row in rows}
    largest = rows[-1]
    if 20_000 in by_nodes:
        at_20k = by_nodes[20_000]
        # Headline acceptance: ≥5× faster and ≥10× smaller at 20k nodes.
        assert at_20k["speedup"] >= 5.0, f"speedup at 20k was only {at_20k['speedup']:.1f}×"
        assert at_20k["dense_bytes"] >= 10 * at_20k["sparse_bytes"]
    # Super-linear scaling: the advantage grows with graph size.
    if largest["num_nodes"] > rows[0]["num_nodes"]:
        assert largest["speedup"] > rows[0]["speedup"]


def test_sparse_only_50k(benchmark):
    """A 50k-node graph — dense would need ~20 GB per operator — runs sparse-only."""

    def pipeline():
        csr, features, labels = generate_scaling_graph(
            SPARSE_ONLY_SIZE,
            average_degree=AVERAGE_DEGREE,
            num_features=NUM_FEATURES,
            seed=1,
        )
        propagation = gcn_norm_csr(csr)
        x = Tensor(features, requires_grad=True)
        out = spmm(propagation, x)
        out.backward(np.ones_like(out.data))
        return csr, propagation, labels, x

    csr, propagation, labels, x = run_once(benchmark, pipeline)
    assert csr.shape == (SPARSE_ONLY_SIZE, SPARSE_ONLY_SIZE)
    assert labels.shape == (SPARSE_ONLY_SIZE,)
    # Average degree lands near the target without ever densifying.
    average_degree = csr.nnz / SPARSE_ONLY_SIZE
    assert 0.8 * AVERAGE_DEGREE <= average_degree <= 1.2 * AVERAGE_DEGREE
    # Every row of D̃^{-1/2}(A+I)D̃^{-1/2} has positive mass (self-loops make
    # isolated rows impossible), and the backward pass reached the features.
    assert propagation.row_sums().min() > 0.0
    assert x.grad is not None and x.grad.shape == (SPARSE_ONLY_SIZE, NUM_FEATURES)
