"""Method evaluation: accuracy, individual-fairness bias and edge-leakage risk.

Every method (Vanilla, Reg, DPReg, DPFR, PPFR, ...) produces a trained model
plus the adjacency matrix it serves predictions with.  Evaluation is always
performed against the *original* graph's ground truth:

* accuracy — test-mask accuracy of the served predictions,
* bias — InFoRM bias w.r.t. the Jaccard similarity of the original structure,
* risk — link-stealing AUC against the original (confidential) edge set,
  averaged over the eight posterior distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.fairness.inform import bias_metric
from repro.gnn.models import GNNModel
from repro.gnn.trainer import TrainResult
from repro.graphs.graph import Graph
from repro.graphs.similarity import graph_similarity
from repro.nn.losses import accuracy as accuracy_score
from repro.privacy.attacks.link_stealing import AttackResult, LinkStealingAttack
from repro.privacy.risk import edge_privacy_risk


@dataclass
class MethodEvaluation:
    """Trustworthiness scorecard of one trained model."""

    method: str
    dataset: str
    model: str
    accuracy: float
    bias: float
    risk_auc: float
    risk_distance: float
    attack: Optional[AttackResult] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, float]:
        row = {
            "method": self.method,
            "dataset": self.dataset,
            "model": self.model,
            "accuracy": self.accuracy,
            "bias": self.bias,
            "risk_auc": self.risk_auc,
            "risk_distance": self.risk_distance,
        }
        row.update(self.extras)
        return row


@dataclass
class MethodRun:
    """A trained method: model, serving structure and training bookkeeping."""

    method: str
    model: GNNModel
    graph: Graph
    serving_adjacency: np.ndarray
    train_result: Optional[TrainResult] = None
    fine_tune_result: Optional[TrainResult] = None
    extras: Dict[str, object] = field(default_factory=dict)

    def posteriors(self) -> np.ndarray:
        """Posteriors the deployed system would return to a querying client."""
        return self.model.predict_proba(self.graph.features, self.serving_adjacency)


def evaluate_method(
    run: MethodRun,
    model_name: str = "",
    similarity: Optional[object] = None,
    attack: Optional[LinkStealingAttack] = None,
    num_unconnected_risk_pairs: Optional[int] = 2000,
) -> MethodEvaluation:
    """Score a :class:`MethodRun` on accuracy, bias and edge-leakage risk.

    Parameters
    ----------
    run:
        The trained method.
    model_name:
        Architecture label for reporting (``"gcn"``, ``"gat"``, ...).
    similarity:
        Pre-computed Jaccard similarity of the original graph, dense or CSR
        (recomputed in CSR form when omitted; pass it when evaluating many
        methods on the same graph).
    attack:
        Configured link-stealing attack (defaults to the paper's eight
        distances with balanced negative sampling).
    num_unconnected_risk_pairs:
        Subsample size for the ``f_risk`` distance statistic.
    """
    graph = run.graph
    if graph.labels is None or graph.test_mask is None:
        raise ValueError("evaluation requires labels and a test mask")

    posteriors = run.posteriors()
    test_accuracy = accuracy_score(posteriors[graph.test_mask], graph.labels[graph.test_mask])

    sim = graph_similarity(graph) if similarity is None else similarity
    bias = bias_metric(posteriors, sim)

    attacker = attack or LinkStealingAttack()
    pairs, labels = _attack_pairs(graph, attacker)
    attack_result = attacker.evaluate_posteriors(posteriors, pairs, labels)

    risk_distance = edge_privacy_risk(
        posteriors, graph, metric="euclidean", num_unconnected=num_unconnected_risk_pairs
    )

    return MethodEvaluation(
        method=run.method,
        dataset=graph.name,
        model=model_name,
        accuracy=test_accuracy,
        bias=bias,
        risk_auc=attack_result.mean_auc,
        risk_distance=risk_distance,
        attack=attack_result,
    )


def _attack_pairs(graph: Graph, attacker: LinkStealingAttack):
    from repro.privacy.attacks.link_stealing import sample_attack_pairs
    from repro.utils.rng import ensure_rng

    return sample_attack_pairs(
        graph, num_negative=attacker.num_negative, rng=ensure_rng(attacker.seed)
    )
