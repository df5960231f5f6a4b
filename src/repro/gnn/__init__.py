"""Graph neural network models (GCN, GAT, GraphSAGE) and the trainer.

These are the victim models of the paper's experiments.  They are built on
the :mod:`repro.nn` autodiff substrate and accept dense or CSR adjacency;
GCN and GraphSAGE propagate with :mod:`repro.sparse`'s CSR operators.
"""

from repro.gnn.layers import GCNConv, GATConv, SAGEConv
from repro.gnn.models import GCN, GAT, GraphSAGE, build_model, MODEL_REGISTRY
from repro.gnn.normalization import (
    build_propagation,
    gcn_norm,
    left_norm,
    row_normalize_features,
)
from repro.gnn.sampling import BatchSpec, NeighborSampler, SampledBlock, block_propagation
from repro.gnn.plan import (
    BufferPool,
    InferencePlan,
    PackedBatch,
    PackedLayer,
    PlanCache,
    PlanRecorder,
    PlanUnsupported,
    pack_blocks,
    plan_params_hash,
    record_plan,
    shared_plan_cache,
)
from repro.gnn.inference import ego_logits, resolve_fanouts, sampler_for
from repro.gnn.trainer import Trainer, TrainConfig, TrainResult
from repro.gnn.evaluation import evaluate_accuracy, predict_probabilities, predict_labels

__all__ = [
    "GCNConv",
    "GATConv",
    "SAGEConv",
    "GCN",
    "GAT",
    "GraphSAGE",
    "build_model",
    "MODEL_REGISTRY",
    "build_propagation",
    "gcn_norm",
    "left_norm",
    "row_normalize_features",
    "Trainer",
    "TrainConfig",
    "TrainResult",
    "evaluate_accuracy",
    "predict_probabilities",
    "predict_labels",
    "BatchSpec",
    "NeighborSampler",
    "SampledBlock",
    "block_propagation",
    "BufferPool",
    "InferencePlan",
    "PackedBatch",
    "PackedLayer",
    "PlanCache",
    "PlanRecorder",
    "PlanUnsupported",
    "pack_blocks",
    "plan_params_hash",
    "record_plan",
    "shared_plan_cache",
    "ego_logits",
    "resolve_fanouts",
    "sampler_for",
]
