"""Scalability benchmark: neighbour-sampled mini-batch vs full-batch training.

SBM graphs of 5k and 20k nodes (average degree 20, the regime of the paper's
datasets) with a *fixed* labelled set are trained one epoch each way:

* **mini-batch** — seed-node batches on CSR with per-layer fanouts; the work
  per epoch is bounded by ``num_train · Π fanouts``, independent of N;
* **full-batch** — one whole-graph forward/backward per epoch; even the
  sparse path is Θ(N + m), and the dense reference path is Θ(N²).

The acceptance claims: mini-batch per-epoch time (best of
``MINI_REPEATS`` epochs, so one noisy epoch on a shared host cannot fail
it) grows ≤ 1.5× from 5k→20k nodes while the full-batch epoch grows ≥ 4×,
and exhaustive sampling reproduces the full-batch forward logits to 1e-8
at 5k-node scale.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once
from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.layers import GCNConv
from repro.gnn.sampling import NeighborSampler
from repro.nn import functional as F
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.sparse import SparseOperator
from repro.sparse.ops import gcn_norm_csr
from repro.utils.rng import ensure_rng, spawn_children

NUM_FEATURES = 16
NUM_CLASSES = 4
HIDDEN = 16
AVERAGE_DEGREE = 20.0
SIZES = (5_000, 20_000)
NUM_TRAIN = 1_024  # fixed labelled set: per-epoch batch count stays constant
BATCH_SIZE = 256
FANOUTS = (5, 5)
MINI_REPEATS = 3

# The dense full-batch leg peaks at several simultaneous (N, N) float64
# arrays; skip it (never the sparse/mini legs) on machines that cannot
# afford it, mirroring benchmarks/test_scaling_sparse.py.
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


class _TwoLayerGCN:
    """Minimal two-layer GCN over explicit propagation operators.

    The benchmark drives the layers directly (no dropout, explicit operators)
    so the full-batch and mini-batch legs time exactly the propagation and
    parameter math, not model bookkeeping.
    """

    def __init__(self, rng) -> None:
        rng0, rng1 = spawn_children(ensure_rng(rng), 2)
        self.conv0 = GCNConv(NUM_FEATURES, HIDDEN, rng=rng0)
        self.conv1 = GCNConv(HIDDEN, NUM_CLASSES, rng=rng1)

    def parameters(self):
        return self.conv0.parameters() + self.conv1.parameters()

    def forward(self, x, op0, op1):
        hidden = F.relu(self.conv0(x, op0))
        return self.conv1(hidden, op1)


def _setup(num_nodes: int):
    csr, features, labels = generate_scaling_graph(
        num_nodes,
        num_classes=NUM_CLASSES,
        average_degree=AVERAGE_DEGREE,
        num_features=NUM_FEATURES,
        seed=0,
    )
    train_idx = np.random.default_rng(1).choice(num_nodes, NUM_TRAIN, replace=False)
    train_idx = np.sort(train_idx).astype(np.int64)
    return csr, features, labels, train_idx


def _minibatch_epoch_seconds(csr, features, labels, train_idx) -> float:
    model = _TwoLayerGCN(rng=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    sampler = NeighborSampler(csr, seed=0)
    start = time.perf_counter()
    batches = sampler.epoch_schedule(train_idx, BATCH_SIZE, epoch=0)
    for batch_index, seeds in enumerate(batches):
        optimizer.zero_grad()
        blocks = sampler.sample_blocks(seeds, FANOUTS, epoch=0, batch_index=batch_index)
        x = Tensor(features[blocks[0].src_nodes])
        logits = model.forward(x, blocks[0].operator("gcn"), blocks[1].operator("gcn"))
        loss = cross_entropy(logits, labels[seeds])
        loss.backward()
        optimizer.step()
    return time.perf_counter() - start


def _fullbatch_sparse_epoch_seconds(csr, features, labels, train_idx) -> float:
    model = _TwoLayerGCN(rng=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    start = time.perf_counter()
    operator = SparseOperator(gcn_norm_csr(csr))
    optimizer.zero_grad()
    logits = model.forward(Tensor(features), operator, operator)
    loss = cross_entropy(logits[train_idx], labels[train_idx])
    loss.backward()
    optimizer.step()
    return time.perf_counter() - start


def _fullbatch_dense_epoch_seconds(csr, features, labels, train_idx) -> float:
    from repro.graphs.laplacian import gcn_normalization

    model = _TwoLayerGCN(rng=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    dense = csr.to_dense()
    start = time.perf_counter()
    propagation = Tensor(gcn_normalization(dense, mode="symmetric"))
    optimizer.zero_grad()
    logits = model.forward(Tensor(features), propagation, propagation)
    loss = cross_entropy(logits[train_idx], labels[train_idx])
    loss.backward()
    optimizer.step()
    return time.perf_counter() - start


def _equivalence_check(csr, features, train_idx) -> float:
    """Exhaustive-sampling forward vs full-batch forward at 1e-8 (returned max diff)."""
    model = _TwoLayerGCN(rng=0)
    sampler = NeighborSampler(csr, seed=0)
    seeds = train_idx[:BATCH_SIZE]
    blocks = sampler.sample_blocks(seeds, (None, None))
    operator = SparseOperator(gcn_norm_csr(csr))
    with no_grad():
        full = model.forward(Tensor(features), operator, operator).data
        mini = model.forward(
            Tensor(features[blocks[0].src_nodes]),
            blocks[0].operator("gcn"),
            blocks[1].operator("gcn"),
        ).data
    return float(np.abs(mini - full[seeds]).max())


def _scaling_report():
    rows = []
    for num_nodes in SIZES:
        csr, features, labels, train_idx = _setup(num_nodes)
        row = {
            "num_nodes": num_nodes,
            "nnz": csr.nnz,
            "mini_seconds": min(
                _minibatch_epoch_seconds(csr, features, labels, train_idx)
                for _ in range(MINI_REPEATS)
            ),
            "sparse_seconds": _fullbatch_sparse_epoch_seconds(
                csr, features, labels, train_idx
            ),
            "dense_seconds": (
                _fullbatch_dense_epoch_seconds(csr, features, labels, train_idx)
                if _dense_affordable(num_nodes)
                else None
            ),
        }
        if num_nodes == SIZES[0]:
            row["equivalence_max_diff"] = _equivalence_check(csr, features, train_idx)
        rows.append(row)
    return rows


def test_minibatch_training_scales_flat(benchmark):
    rows = run_once(benchmark, _scaling_report)
    print()
    print(f"{'nodes':>8} {'nnz':>10} {'mini_s':>8} {'full_sparse_s':>14} {'full_dense_s':>13}")
    for row in rows:
        dense = "skipped" if row["dense_seconds"] is None else f"{row['dense_seconds']:.3f}"
        print(
            f"{row['num_nodes']:>8} {row['nnz']:>10} {row['mini_seconds']:>8.3f} "
            f"{row['sparse_seconds']:>14.3f} {dense:>13}"
        )

    small, large = rows[0], rows[-1]
    # Exhaustive sampling reproduces the full forward to 1e-8.
    assert small["equivalence_max_diff"] < 1e-8

    # Mini-batch per-epoch time is flat in N at fixed batch size/fanouts.
    mini_growth = large["mini_seconds"] / max(small["mini_seconds"], 1e-12)
    print(f"mini-batch epoch growth 5k->20k: {mini_growth:.2f}x")
    assert mini_growth <= 1.5, f"mini-batch epoch grew {mini_growth:.2f}x"

    # Full-batch training pays the whole graph every epoch: the dense
    # reference path is Θ(N²) and must grow at least 4× over a 4× node range.
    if small["dense_seconds"] is not None and large["dense_seconds"] is not None:
        dense_growth = large["dense_seconds"] / max(small["dense_seconds"], 1e-12)
        print(f"full-batch (dense) epoch growth 5k->20k: {dense_growth:.2f}x")
        assert dense_growth >= 4.0, f"full-batch epoch grew only {dense_growth:.2f}x"
    else:  # pragma: no cover - constrained machines
        print("[dense full-batch leg skipped: not enough memory]")

    # At 20k nodes a sampled epoch beats even the sparse full-batch epoch.
    assert large["mini_seconds"] < large["sparse_seconds"]
