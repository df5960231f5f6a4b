"""repro — reproduction of "Unraveling Privacy Risks of Individual Fairness
in Graph Neural Networks" (Zhang, Yuan, Pan — IEEE ICDE 2024).

The package is organised as:

* :mod:`repro.nn`          — NumPy autodiff substrate (tensors, layers, optimisers),
* :mod:`repro.sparse`      — CSR matrices, sparse kernels and propagation operators,
* :mod:`repro.graphs`      — graph container, similarity, Laplacians, generators,
* :mod:`repro.datasets`    — calibrated surrogate datasets (Cora, Citeseer, ...),
* :mod:`repro.gnn`         — GCN / GAT / GraphSAGE victim models and trainer,
* :mod:`repro.fairness`    — InFoRM individual-fairness metric and regulariser,
* :mod:`repro.privacy`     — link-stealing attacks, risk metrics, edge DP,
* :mod:`repro.influence`   — influence functions on training nodes,
* :mod:`repro.optimization`— the QCLP solver used by fairness reweighting,
* :mod:`repro.core`        — the PPFR method, baselines and the Δ metric,
* :mod:`repro.experiments` — harness regenerating every table and figure,
* :mod:`repro.serve`       — online inference serving (registry, engine,
  mutable graph sessions, request batching),
* :mod:`repro.cluster`     — sharded multi-process serving (partitioner,
  shard workers, shard router).

Quickstart
----------
>>> from repro.datasets import load_dataset
>>> from repro.core import MethodSettings, run_all_methods
>>> from repro.gnn import TrainConfig
>>> graph = load_dataset("cora", seed=0, scale=0.5)
>>> settings = MethodSettings(train=TrainConfig(epochs=50, patience=None))
>>> outcome = run_all_methods(graph, "gcn", settings, methods=["reg", "ppfr"])
>>> sorted(outcome["deltas"])
['ppfr', 'reg']
"""

from repro import (
    core,
    datasets,
    experiments,
    fairness,
    gnn,
    graphs,
    influence,
    nn,
    optimization,
    privacy,
    serve,
    sparse,
    utils,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "datasets",
    "experiments",
    "fairness",
    "gnn",
    "graphs",
    "influence",
    "nn",
    "optimization",
    "privacy",
    "serve",
    "sparse",
    "utils",
    "__version__",
]
