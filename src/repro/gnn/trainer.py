"""Training loop for the victim GNNs.

The trainer supports the three training regimes required by the paper:

* **vanilla training** — cross-entropy on the labelled nodes (phase one of
  PPFR and the ``Vanilla`` baseline),
* **regularised training** — cross-entropy plus any number of differentiable
  regularisers such as the InFoRM fairness term (the ``Reg`` / ``DPReg``
  baselines),
* **fine-tuning** — continued training with per-sample loss weights
  ``(1 + w_v)`` and/or a perturbed adjacency matrix (PPFR, DPFR).

Each regime runs either **full-batch** (the default: one whole-graph
forward/backward per epoch, unchanged from the original trainer) or
**mini-batch** when ``batch_size`` is set: seed-node batches with per-layer
neighbour sampling (:mod:`repro.gnn.sampling`), so the per-step cost is
bounded by the batch's receptive field instead of the full graph.
Evaluation always runs full-graph (every ``eval_interval`` epochs).
Mini-batching falls back to the full-batch path when the loss needs
full-graph logits (regularised training — the InFoRM penalty is a global
quadratic form) or the model has no sampled forward path (GAT).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gnn.models import GNNModel
from repro.gnn.sampling import BatchSpec, NeighborSampler
from repro.graphs.graph import Graph
from repro.graphs.revision import ensure_revision
from repro.nn.losses import accuracy, cross_entropy, weighted_cross_entropy
from repro.nn.optim import Adam, Optimizer, SGD
from repro.nn.tensor import Tensor
from repro.sparse.csr import CSRMatrix

Regularizer = Callable[[Tensor, Graph], Tensor]
"""A differentiable penalty taking (logits, graph) and returning a scalar tensor."""


@dataclass
class TrainConfig:
    """Hyper-parameters of a training run.

    ``batch_size`` switches training to neighbour-sampled mini-batches;
    ``fanouts`` is the per-layer neighbour budget (input layer first, one
    entry per message-passing layer; ``None`` entries — or ``fanouts=None``
    — sample exhaustively), ``batch_seed`` seeds the deterministic batch
    schedule and block sampling, and ``eval_interval`` spaces out the
    full-graph evaluation epochs (early stopping only ticks on evaluated
    epochs).  With ``batch_size=None`` (the default) the original
    full-batch path runs unchanged.

    ``sampled_eval`` routes the periodic train/val evaluation through the
    serving engine's ego-block path (:mod:`repro.gnn.inference`): instead of
    a Θ(N + m) full-graph forward, only the exhaustive receptive field of
    the labelled train/val nodes is computed, making the whole epoch loop
    independent of the unlabelled graph size.  Exhaustive ego blocks equal
    the full-graph forward to 1e-8, so accuracies (and therefore early
    stopping) are unchanged up to round-off; models without a sampled
    forward path (GAT) fall back to full-graph evaluation transparently.
    """

    epochs: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    optimizer: str = "adam"
    patience: Optional[int] = 30
    min_epochs: int = 20
    track_best: bool = True
    verbose: bool = False
    batch_size: Optional[int] = None
    fanouts: Optional[Tuple[Optional[int], ...]] = None
    batch_seed: int = 0
    eval_interval: int = 1
    sampled_eval: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.patience is not None and self.patience <= 0:
            raise ValueError("patience must be positive or None")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive or None")
        if self.fanouts is not None:
            if self.batch_size is None:
                raise ValueError("fanouts require batch_size to be set")
            self.fanouts = tuple(self.fanouts)
            for fanout in self.fanouts:
                if fanout is not None and fanout <= 0:
                    raise ValueError("fanouts must be positive or None (exhaustive)")
        if self.eval_interval <= 0:
            raise ValueError("eval_interval must be positive")

    def batch_spec(self) -> Optional[BatchSpec]:
        """The :class:`~repro.gnn.sampling.BatchSpec` this config describes."""
        if self.batch_size is None:
            return None
        return BatchSpec(
            batch_size=self.batch_size, fanouts=self.fanouts, seed=self.batch_seed
        )


@dataclass
class TrainResult:
    """Outcome of a training run."""

    history: Dict[str, List[float]] = field(default_factory=dict)
    best_val_accuracy: float = float("nan")
    best_epoch: int = -1
    final_train_accuracy: float = float("nan")
    final_val_accuracy: float = float("nan")
    epochs_run: int = 0


class Trainer:
    """Runs (re-)training of a GNN on a graph.

    ``batch_spec`` (or the equivalent ``TrainConfig`` batch fields) switches
    the training step to neighbour-sampled mini-batches; evaluation and
    early stopping stay full-graph.
    """

    def __init__(
        self,
        model: GNNModel,
        config: Optional[TrainConfig] = None,
        batch_spec: Optional[BatchSpec] = None,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.batch_spec = batch_spec

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(
        self,
        graph: Graph,
        regularizers: Optional[Sequence[Regularizer]] = None,
        sample_weights: Optional[np.ndarray] = None,
        adjacency_override: Optional[np.ndarray] = None,
        epochs: Optional[int] = None,
    ) -> TrainResult:
        """Train ``self.model`` on ``graph``.

        Parameters
        ----------
        graph:
            The attributed graph with at least a train mask and labels.
        regularizers:
            Optional differentiable penalties added to the loss (e.g. the
            InFoRM fairness regulariser).
        sample_weights:
            Optional per-training-node multiplier ``(1 + w_v)`` in the order
            of ``graph.train_indices()``; ``None`` means uniform weighting.
        adjacency_override:
            Optional replacement structure used for *training only* (the
            perturbed graph of PPFR / DP baselines).  Evaluation metrics keep
            using the structure passed here as well, since that is the model
            the developer deploys.
        epochs:
            Optional override of ``config.epochs`` (used for fine-tuning where
            the epoch budget is a fraction of vanilla training).
        """
        if graph.labels is None or graph.train_mask is None:
            raise ValueError("training requires labels and a train mask")
        config = self.config
        total_epochs = epochs if epochs is not None else config.epochs
        if total_epochs <= 0:
            raise ValueError("epochs must be positive")
        regularizers = list(regularizers or [])

        train_idx = graph.train_indices()
        if sample_weights is not None:
            sample_weights = np.asarray(sample_weights, dtype=np.float64)
            if sample_weights.shape != (train_idx.size,):
                raise ValueError(
                    f"sample_weights must have shape ({train_idx.size},), "
                    f"got {sample_weights.shape}"
                )
            if np.any(sample_weights < 0):
                raise ValueError("sample_weights must be non-negative")

        adjacency = graph.adjacency if adjacency_override is None else np.asarray(
            adjacency_override, dtype=np.float64
        )
        # Scope the structure for the operator cache: owned tags (Graph /
        # perturbation producers) are reused, anything else gets a fresh
        # revision so every epoch of this run shares one normalisation while
        # a mutated caller-owned array can never hit a stale entry.
        ensure_revision(adjacency)

        batch_spec = self.batch_spec if self.batch_spec is not None else config.batch_spec()
        sampler: Optional[NeighborSampler] = None
        fanouts: Optional[Tuple[Optional[int], ...]] = None
        weight_lookup: Optional[np.ndarray] = None
        layers = self.model.message_passing_layers
        # Regularised losses need full-graph logits (InFoRM is a global
        # quadratic form) and GAT has no sampled forward path: both fall back
        # to the full-batch step so every method keeps running under a
        # batched configuration.
        if batch_spec is not None and not regularizers and layers is not None:
            fanouts = batch_spec.layer_fanouts(layers)
            structure = (
                graph.csr()
                if adjacency_override is None
                else CSRMatrix.from_dense(adjacency)
            )
            sampler = NeighborSampler(structure, seed=batch_spec.seed)
            if sample_weights is not None:
                weight_lookup = np.zeros(graph.num_nodes, dtype=np.float64)
                weight_lookup[train_idx] = sample_weights

        # Lazily-built ego-block evaluation state (sampled_eval): one sampler
        # per fit() call over the evaluation structure, shared across epochs.
        eval_state: Dict[str, object] = {}
        if config.sampled_eval and self.model.message_passing_layers is not None:
            eval_structure = (
                graph.csr()
                if adjacency_override is None
                else CSRMatrix.from_dense(adjacency)
            )
            eval_state["sampler"] = NeighborSampler(eval_structure, seed=0)

        optimizer = self._build_optimizer()
        history: Dict[str, List[float]] = {
            "loss": [],
            "train_accuracy": [],
            "val_accuracy": [],
        }
        best_val = -np.inf
        best_epoch = -1
        best_state = None
        epochs_without_improvement = 0
        result = TrainResult(history=history)

        for epoch in range(total_epochs):
            if sampler is not None:
                loss_value = self._train_step_batched(
                    graph,
                    sampler,
                    batch_spec,
                    fanouts,
                    train_idx,
                    optimizer,
                    weight_lookup,
                    epoch,
                )
            else:
                loss_value = self._train_step(
                    graph, adjacency, train_idx, optimizer, regularizers, sample_weights
                )
            evaluated = (
                config.eval_interval == 1
                or epoch % config.eval_interval == 0
                or epoch == total_epochs - 1
            )
            if evaluated:
                train_acc, val_acc = self._evaluate_epoch(graph, adjacency, eval_state)
            else:
                train_acc = val_acc = float("nan")
            history["loss"].append(loss_value)
            history["train_accuracy"].append(train_acc)
            history["val_accuracy"].append(val_acc)
            result.epochs_run = epoch + 1

            if config.verbose and (epoch % 20 == 0 or epoch == total_epochs - 1):
                print(
                    f"[{graph.name}] epoch {epoch:4d} loss {loss_value:.4f} "
                    f"train {train_acc:.3f} val {val_acc:.3f}"
                )

            improved = np.isfinite(val_acc) and val_acc > best_val
            if improved:
                best_val = val_acc
                best_epoch = epoch
                epochs_without_improvement = 0
                if config.track_best:
                    best_state = self.model.state_dict()
            elif evaluated:
                # Early stopping only ticks on evaluated epochs, so spacing
                # evaluations out (eval_interval > 1) keeps patience counted
                # in comparable units.
                epochs_without_improvement += 1

            # Break only on evaluated epochs: with eval_interval > 1 the
            # patience counter goes stale in between, and stopping on a
            # skipped epoch would leave NaN final accuracies for a model
            # state nobody measured.  (Default eval_interval=1 evaluates
            # every epoch, preserving the original behaviour exactly.)
            stop_allowed = (
                config.patience is not None
                and epoch + 1 >= config.min_epochs
                and evaluated
            )
            if stop_allowed and epochs_without_improvement >= config.patience:
                break

        if config.track_best and best_state is not None:
            self.model.load_state_dict(best_state)

        result.best_val_accuracy = float(best_val) if np.isfinite(best_val) else float("nan")
        result.best_epoch = best_epoch
        result.final_train_accuracy = history["train_accuracy"][-1]
        result.final_val_accuracy = history["val_accuracy"][-1]
        return result

    def fine_tune(
        self,
        graph: Graph,
        epochs: int,
        sample_weights: Optional[np.ndarray] = None,
        adjacency_override: Optional[np.ndarray] = None,
        regularizers: Optional[Sequence[Regularizer]] = None,
        learning_rate_scale: float = 1.0,
    ) -> TrainResult:
        """Continue training an already-trained model for ``epochs`` epochs.

        Early stopping and best-state tracking are disabled: fine-tuning runs
        for exactly the requested number of epochs, as in the paper where the
        fine-tuning budget is ``e_re = s · e_va``.  ``learning_rate_scale``
        multiplies the base learning rate; fine-tuning from a trained optimum
        typically uses a smaller step size than vanilla training.
        """
        if learning_rate_scale <= 0:
            raise ValueError("learning_rate_scale must be positive")
        original_config = self.config
        self.config = replace(
            original_config,
            epochs=epochs,
            learning_rate=original_config.learning_rate * learning_rate_scale,
            patience=None,
            min_epochs=0,
            track_best=False,
        )
        try:
            return self.fit(
                graph,
                regularizers=regularizers,
                sample_weights=sample_weights,
                adjacency_override=adjacency_override,
                epochs=epochs,
            )
        finally:
            self.config = original_config

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _build_optimizer(self) -> Optimizer:
        params = self.model.parameters()
        if self.config.optimizer == "adam":
            return Adam(
                params,
                lr=self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            )
        return SGD(
            params,
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
            momentum=0.9,
        )

    def _train_step(
        self,
        graph: Graph,
        adjacency: np.ndarray,
        train_idx: np.ndarray,
        optimizer: Optimizer,
        regularizers: Sequence[Regularizer],
        sample_weights: Optional[np.ndarray],
    ) -> float:
        self.model.train()
        optimizer.zero_grad()
        logits = self.model(graph.features, adjacency)
        train_logits = logits[train_idx]
        train_labels = graph.labels[train_idx]
        if sample_weights is None:
            loss = cross_entropy(train_logits, train_labels)
        else:
            loss = weighted_cross_entropy(train_logits, train_labels, sample_weights)
        for regularizer in regularizers:
            loss = loss + regularizer(logits, graph)
        loss.backward()
        optimizer.step()
        return float(loss.item())

    def _train_step_batched(
        self,
        graph: Graph,
        sampler: NeighborSampler,
        batch_spec: BatchSpec,
        fanouts: Tuple[Optional[int], ...],
        train_idx: np.ndarray,
        optimizer: Optimizer,
        weight_lookup: Optional[np.ndarray],
        epoch: int,
    ) -> float:
        """One epoch of neighbour-sampled mini-batch training.

        Returns the node-weighted mean loss over the epoch's batches, the
        mini-batch analogue of the full-batch epoch loss.
        """
        self.model.train()
        batches = sampler.epoch_schedule(
            train_idx,
            batch_spec.batch_size,
            epoch=epoch,
            shuffle=batch_spec.shuffle,
            drop_last=batch_spec.drop_last,
        )
        total_loss = 0.0
        total_nodes = 0
        for batch_index, seeds in enumerate(batches):
            optimizer.zero_grad()
            blocks = sampler.sample_blocks(
                seeds, fanouts, epoch=epoch, batch_index=batch_index
            )
            logits = self.model.forward_blocks(graph.features, blocks)
            labels = graph.labels[seeds]
            if weight_lookup is None:
                loss = cross_entropy(logits, labels)
            else:
                loss = weighted_cross_entropy(logits, labels, weight_lookup[seeds])
            loss.backward()
            optimizer.step()
            total_loss += float(loss.item()) * seeds.size
            total_nodes += int(seeds.size)
        return total_loss / max(total_nodes, 1)

    def _evaluate_epoch(
        self,
        graph: Graph,
        adjacency: np.ndarray,
        eval_state: Optional[Dict[str, object]] = None,
    ) -> tuple[float, float]:
        sampler = (eval_state or {}).get("sampler")
        if sampler is not None:
            return self._evaluate_sampled(graph, sampler)
        logits = self.model.predict_logits(graph.features, adjacency)
        train_acc = accuracy(logits[graph.train_mask], graph.labels[graph.train_mask])
        if graph.val_mask is not None and graph.val_mask.any():
            val_acc = accuracy(logits[graph.val_mask], graph.labels[graph.val_mask])
        else:
            val_acc = float("nan")
        return train_acc, val_acc

    def _evaluate_sampled(self, graph: Graph, sampler) -> tuple[float, float]:
        """Ego-block evaluation: exhaustive receptive field of train/val only.

        Train and validation nodes share one block stack (they are disjoint
        by the split construction), so the evaluation costs one sampled
        forward over their union's receptive field instead of Θ(N).
        """
        from repro.gnn.inference import ego_logits

        train_idx = graph.train_indices()
        val_idx = (
            graph.val_indices()
            if graph.val_mask is not None and graph.val_mask.any()
            else np.empty(0, dtype=np.int64)
        )
        nodes = np.concatenate([train_idx, val_idx])
        logits = ego_logits(self.model, graph.features, sampler, nodes)
        train_acc = accuracy(logits[: train_idx.size], graph.labels[train_idx])
        if val_idx.size:
            val_acc = accuracy(logits[train_idx.size :], graph.labels[val_idx])
        else:
            val_acc = float("nan")
        return train_acc, val_acc
