"""Baseline training schemes: Vanilla, Reg, DPReg, DPFR and single-module ablations.

Every runner shares the same signature: it takes a freshly constructed model,
the training graph and a :class:`MethodSettings`, trains according to the
method's recipe and returns a :class:`MethodRun` whose ``serving_adjacency``
is the structure the deployed GNN answers queries with (the original graph
for Vanilla / Reg / FR, the perturbed graph for the DP and PP methods).

The two-phase methods — DPFR, PPFR (:mod:`repro.core.ppfr`) and the FR / PP
ablations — share one recipe: a :class:`VanillaPhase` (vanilla training plus
the FR weights derived from it), then :func:`fine_tune_method` on a deep copy
of the vanilla model with an optional DP or PP structure and optional FR
weights.  Their runners take ``vanilla=`` to reuse a phase one trained
elsewhere in the same (dataset, model, seed) cell; without it they train
their own.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from repro.core.config import MethodSettings
from repro.core.perturbation import privacy_aware_perturbation
from repro.core.results import MethodRun
from repro.fairness.inform import inform_regularizer
from repro.fairness.reweighting import FairnessWeights, compute_fairness_weights
from repro.gnn.models import GNNModel
from repro.gnn.trainer import Trainer
from repro.graphs.graph import Graph
from repro.privacy.dp import edge_rand, lap_graph
from repro.utils.rng import ensure_rng


def _dp_perturb(graph: Graph, settings: MethodSettings, seed: int) -> np.ndarray:
    """Apply the configured edge-DP mechanism to the training structure."""
    rng = ensure_rng(seed)
    if settings.dp_mechanism == "edge_rand":
        return edge_rand(graph.adjacency, settings.dp_epsilon, rng=rng)
    return lap_graph(graph.adjacency, settings.dp_epsilon, rng=rng)


def run_vanilla(model: GNNModel, graph: Graph, settings: MethodSettings) -> MethodRun:
    """Plain cross-entropy training (the reference point of every Δ metric)."""
    trainer = Trainer(model, settings.train)
    result = trainer.fit(graph)
    return MethodRun(
        method="vanilla",
        model=model,
        graph=graph,
        serving_adjacency=graph.adjacency.copy(),
        train_result=result,
    )


def run_reg(model: GNNModel, graph: Graph, settings: MethodSettings) -> MethodRun:
    """``Reg``: vanilla loss + InFoRM fairness regulariser from scratch."""
    regularizer = inform_regularizer(weight=settings.fairness_weight)
    trainer = Trainer(model, settings.train)
    result = trainer.fit(graph, regularizers=[regularizer])
    return MethodRun(
        method="reg",
        model=model,
        graph=graph,
        serving_adjacency=graph.adjacency.copy(),
        train_result=result,
    )


def run_dp_reg(model: GNNModel, graph: Graph, settings: MethodSettings) -> MethodRun:
    """``DPReg``: edge-DP perturbed graph + fairness regulariser, trained from scratch.

    This is the "directly combine existing methods" baseline the paper argues
    against: the DP noise participates in the whole training run and costs a
    large amount of accuracy.
    """
    perturbed = _dp_perturb(graph, settings, seed=settings.ppfr.seed)
    regularizer = inform_regularizer(weight=settings.fairness_weight)
    trainer = Trainer(model, settings.train)
    result = trainer.fit(graph, regularizers=[regularizer], adjacency_override=perturbed)
    return MethodRun(
        method="dpreg",
        model=model,
        graph=graph,
        serving_adjacency=perturbed,
        train_result=result,
        extras={"dp_epsilon": settings.dp_epsilon, "dp_mechanism": settings.dp_mechanism},
    )


class VanillaPhase:
    """Phase one of the two-phase methods, shared within one cell.

    ``run`` is the vanilla run.  Its model is a read-only snapshot of the
    state the vanilla ``fit`` left: :func:`fine_tune_method` fine-tunes deep
    copies of it, which carry the parameters *and* the Dropout and
    GraphSAGE-sampler RNG state, so every fine-tune starts from the same
    state whatever ran before it.  :meth:`fairness_weights` derives the FR
    weights once and hands the same object to every later caller.
    """

    def __init__(self, run: MethodRun, settings: MethodSettings) -> None:
        self.run = run
        self.settings = settings
        self._weights: Optional[FairnessWeights] = None

    def fairness_weights(self) -> FairnessWeights:
        """The FR weights of the vanilla model (computed on first call)."""
        if self._weights is None:
            # Influence estimation moves θ while it evaluates Hessian-vector
            # products, so it runs on a private copy of the snapshot.
            self._weights = compute_fairness_weights(
                copy.deepcopy(self.run.model),
                self.run.graph,
                config=self.settings.ppfr.reweighting,
            )
        return self._weights


def vanilla_phase(
    model: Optional[GNNModel],
    graph: Graph,
    settings: MethodSettings,
    vanilla: Optional[VanillaPhase] = None,
) -> VanillaPhase:
    """``vanilla`` when given, else a new phase one that vanilla-trains ``model``."""
    if vanilla is not None:
        return vanilla
    return VanillaPhase(run_vanilla(model, graph, settings), settings)


def fine_tune_method(
    method: str,
    vanilla: VanillaPhase,
    structure: Optional[np.ndarray] = None,
    weights: Optional[FairnessWeights] = None,
    epochs: Optional[int] = None,
    **extras,
) -> MethodRun:
    """Phase two: fine-tune a deep copy of the vanilla snapshot.

    ``structure`` is the adjacency fine-tuned on and served with — ``None``
    keeps the original graph, otherwise a DP or PP perturbation.
    ``weights`` reweights the loss by ``1 + w`` (``None``: uniform).
    ``epochs`` defaults to the PPFR budget ``e_re = s · e_va``.  The returned
    run records the vanilla ``TrainResult`` and ``extras`` (plus ``weights``
    under ``"fairness_weights"``).
    """
    settings = vanilla.settings
    graph = vanilla.run.graph
    model = copy.deepcopy(vanilla.run.model)
    if epochs is None:
        epochs = settings.ppfr.fine_tune_epochs(settings.train.epochs)
    fine_tune_result = Trainer(model, settings.train).fine_tune(
        graph,
        epochs=epochs,
        sample_weights=None if weights is None else weights.loss_multipliers,
        adjacency_override=structure,
        learning_rate_scale=settings.ppfr.fine_tune_lr_scale,
    )
    if weights is not None:
        extras["fairness_weights"] = weights
    return MethodRun(
        method=method,
        model=model,
        graph=graph,
        serving_adjacency=graph.adjacency.copy() if structure is None else structure,
        train_result=vanilla.run.train_result,
        fine_tune_result=fine_tune_result,
        extras=extras,
    )


def run_dp_fr(
    model: Optional[GNNModel],
    graph: Graph,
    settings: MethodSettings,
    vanilla: Optional[VanillaPhase] = None,
) -> MethodRun:
    """``DPFR``: vanilla training, then fine-tuning on a DP graph with FR weights.

    Identical to PPFR except that the fine-tuning structure comes from the
    edge-DP mechanism instead of the heterophilic perturbation — the ablation
    the paper uses to show PP beats DP noise at the same budget.
    """
    vanilla = vanilla_phase(model, graph, settings, vanilla)
    perturbed = _dp_perturb(graph, settings, seed=settings.ppfr.seed)
    return fine_tune_method(
        "dpfr", vanilla, perturbed, vanilla.fairness_weights(), dp_epsilon=settings.dp_epsilon
    )


def run_fr_only(
    model: Optional[GNNModel],
    graph: Graph,
    settings: MethodSettings,
    vanilla: Optional[VanillaPhase] = None,
) -> MethodRun:
    """Ablation: fairness-aware reweighting fine-tuning with *no* perturbation.

    Used by Figure 6 (left) to show that fairness alone increases privacy
    risk.
    """
    vanilla = vanilla_phase(model, graph, settings, vanilla)
    return fine_tune_method("fr", vanilla, weights=vanilla.fairness_weights())


def run_pp_only(
    model: Optional[GNNModel],
    graph: Graph,
    settings: MethodSettings,
    vanilla: Optional[VanillaPhase] = None,
) -> MethodRun:
    """Ablation: privacy-aware perturbation fine-tuning with uniform loss weights.

    Used by Figure 6 (middle) to sweep the perturbation ratio γ.
    """
    vanilla = vanilla_phase(model, graph, settings, vanilla)
    perturbation = privacy_aware_perturbation(
        vanilla.run.model, graph, gamma=settings.ppfr.gamma, rng=settings.ppfr.seed
    )
    return fine_tune_method(
        "pp", vanilla, perturbation.perturbed_adjacency, perturbation=perturbation
    )
