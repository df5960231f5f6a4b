"""Cell-kind implementations of the experiment grid engine.

A *cell* is the unit of work every table and figure of the paper is
assembled from.  Each kind maps a :class:`repro.experiments.grid.CellSpec`
to a plain-data payload (nested dicts of floats/strings only), which keeps
cells executable in worker *processes* and cacheable by content key:

* ``methods``     — train the spec's methods on one (dataset, model) cell via
  :func:`repro.core.pipeline.run_all_methods` and report evaluations + Δs
  (Tables III/IV/V, Figures 4/5/7);
* ``influence``   — vanilla-train and correlate the bias/risk influences
  (Table II);
* ``diagnostics`` — SBM statistics + vanilla bias behind Lemma V.1 /
  Proposition V.2;
* ``ablation``    — the three PPFR ablation panels of Figure 6.

Every kind is deterministic in its spec: the same spec produces bitwise
identical payloads regardless of executor (serial / thread / process) or
cache state, which the grid determinism tests assert.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.baselines import VanillaPhase, fine_tune_method
from repro.core.perturbation import privacy_aware_perturbation
from repro.core.pipeline import run_all_methods, run_method
from repro.core.results import MethodRun, evaluate_method
from repro.datasets import load_dataset
from repro.experiments.presets import ExperimentPreset
from repro.fairness.inform import bias_from_graph
from repro.graphs.homophily import class_linking_probabilities, edge_homophily
from repro.graphs.khop import two_hop_ratio_empirical, two_hop_ratio_theoretical
from repro.graphs.similarity import graph_similarity
from repro.influence.correlation import pearson_correlation
from repro.influence.functions import InfluenceConfig, InfluenceEstimator
from repro.privacy.attacks.link_stealing import LinkStealingAttack
from repro.utils.cache import ArtifactCache, stable_hash

CellFunction = Callable[[object, Optional[ArtifactCache]], Dict]

__all__ = ["CELL_KINDS", "execute_cell", "method_scope_key"]


def method_scope_key(spec) -> str:
    """Key prefix under which a cell's trained methods are cached.

    Deliberately excludes ``kind`` and ``methods``: a Table III cell
    (vanilla + reg) and a Table IV cell (vanilla + four methods) on the same
    (dataset, model, seed, preset) share each method's training.
    """
    return stable_hash(("method-scope", spec.dataset, spec.model, spec.seed, spec.preset))


def _evaluation_payload(evaluation) -> Dict:
    """Flatten a :class:`MethodEvaluation` (plus attack AUCs) to plain data."""
    payload = evaluation.to_dict()
    if evaluation.attack is not None:
        payload.update(evaluation.attack.to_dict())
    return payload


def methods_cell(spec, artifact_cache: Optional[ArtifactCache] = None) -> Dict:
    """Train ``spec.methods`` on one (dataset, model, seed) cell."""
    preset: ExperimentPreset = spec.preset
    if not spec.methods:
        raise ValueError("a 'methods' cell needs a non-empty methods tuple")
    graph = load_dataset(spec.dataset, seed=spec.seed, scale=preset.dataset_scale)
    settings = preset.method_settings(spec.dataset, seed=spec.seed)
    outcome = run_all_methods(
        graph,
        spec.model,
        settings,
        methods=[method for method in spec.methods if method != "vanilla"],
        hidden_features=preset.hidden_features,
        artifact_cache=artifact_cache,
        cache_key=method_scope_key(spec),
    )
    return {
        "evaluations": {
            method: _evaluation_payload(evaluation)
            for method, evaluation in outcome["evaluations"].items()
        },
        "deltas": {
            method: delta.to_dict() for method, delta in outcome["deltas"].items()
        },
    }


def _vanilla_run(spec, graph, settings, artifact_cache: Optional[ArtifactCache]) -> MethodRun:
    """The cell's vanilla run, reusing the methods-cell artifact.

    With a cache, the trained vanilla ``MethodRun`` is shared with any
    ``methods`` cell on the same (dataset, model, seed, preset) — Table II's
    victim *is* Table IV's vanilla baseline, and Figure 6's arms fine-tune
    copies of it.  Only the *training* artifact is touched (the evaluation
    lives under a separate ``eval:`` key), so influence/diagnostics cells
    never pay for an attack evaluation they discard.  Both paths train
    identically, so cache state never changes results.  Cached models are
    read-only by contract: callers must not continue training them.
    """
    preset: ExperimentPreset = spec.preset

    def train():
        return run_method(
            "vanilla", spec.model, graph, settings, hidden_features=preset.hidden_features
        )

    if artifact_cache is None:
        return train()
    return artifact_cache.get_or_create(f"train:{method_scope_key(spec)}:vanilla", train)


def influence_cell(spec, artifact_cache: Optional[ArtifactCache] = None) -> Dict:
    """Table II cell: Pearson r between ``I_fbias`` and ``I_frisk``."""
    preset: ExperimentPreset = spec.preset
    graph = load_dataset(spec.dataset, seed=spec.seed, scale=preset.dataset_scale)
    settings = preset.method_settings(spec.dataset, seed=spec.seed)
    model = _vanilla_run(spec, graph, settings, artifact_cache).model
    estimator = InfluenceEstimator(
        model, graph, config=InfluenceConfig(cg_iterations=preset.cg_iterations)
    )
    bias_influence = estimator.bias_influence()
    risk_influence = estimator.risk_influence()
    return {
        "pearson_r": pearson_correlation(bias_influence, risk_influence),
        "num_train_nodes": int(bias_influence.shape[0]),
    }


def diagnostics_cell(spec, artifact_cache: Optional[ArtifactCache] = None) -> Dict:
    """Proposition V.2 cell: SBM statistics plus the vanilla-model bias."""
    preset: ExperimentPreset = spec.preset
    graph = load_dataset(spec.dataset, seed=spec.seed, scale=preset.dataset_scale)
    settings = preset.method_settings(spec.dataset, seed=spec.seed)
    p, q = class_linking_probabilities(graph.adjacency, graph.labels)
    model = _vanilla_run(spec, graph, settings, artifact_cache).model
    posteriors = model.predict_proba(graph.features, graph.adjacency)
    return {
        "edge_homophily": edge_homophily(graph.adjacency, graph.labels),
        "p_intra": p,
        "q_inter": q,
        "two_hop_ratio_theory": two_hop_ratio_theoretical(p, q),
        "two_hop_ratio_empirical": two_hop_ratio_empirical(graph.adjacency),
        "vanilla_bias": bias_from_graph(posteriors, graph),
    }


def ablation_cell(spec, artifact_cache: Optional[ArtifactCache] = None) -> Dict:
    """Figure 6 cell: the three PPFR ablation panels on one (dataset, model).

    Every arm is :func:`fine_tune_method` over one vanilla phase, so each
    fine-tunes its own copy of the vanilla snapshot (RNG state included)
    and no arm depends on the arms run before it.
    """
    preset: ExperimentPreset = spec.preset
    overrides = dict(spec.overrides)
    epoch_fractions = overrides.get("epoch_fractions", (0.05, 0.1, 0.2, 0.3))
    gammas = overrides.get("gammas", (0.0, 0.1, 0.2, 0.4))

    graph = load_dataset(spec.dataset, seed=spec.seed, scale=preset.dataset_scale)
    settings = preset.method_settings(spec.dataset, seed=spec.seed)
    similarity = graph_similarity(graph)
    attack = LinkStealingAttack(seed=settings.attack_seed)

    vanilla = VanillaPhase(_vanilla_run(spec, graph, settings, artifact_cache), settings)
    weights = vanilla.fairness_weights()

    def perturb(gamma: float):
        return privacy_aware_perturbation(
            vanilla.run.model, graph, gamma=gamma, rng=settings.ppfr.seed
        )

    def evaluate(run: MethodRun, sweep_value: float) -> Dict:
        evaluation = evaluate_method(
            run, model_name=spec.model, similarity=similarity, attack=attack
        )
        return {
            "panel": run.method,
            "accuracy": evaluation.accuracy,
            "bias": evaluation.bias,
            "risk_auc": evaluation.risk_auc,
            "sweep_value": sweep_value,
        }

    def epochs_of(fraction: float) -> int:
        return max(1, int(round(fraction * settings.train.epochs)))

    rows = [evaluate(vanilla.run, 0.0)]
    # Panel 1: FR only, sweep the number of fine-tuning epochs.
    for fraction in epoch_fractions:
        epochs = epochs_of(fraction)
        run = fine_tune_method("fr_epochs", vanilla, weights=weights, epochs=epochs)
        rows.append(evaluate(run, float(epochs)))
    # Panel 2: PP + fixed FR, sweep the perturbation ratio γ.
    for gamma in gammas:
        run = fine_tune_method("pp_gamma", vanilla, perturb(gamma).perturbed_adjacency, weights)
        rows.append(evaluate(run, float(gamma)))
    # Panel 3: fixed PP + FR, sweep the number of fine-tuning epochs.
    fixed_structure = perturb(settings.ppfr.gamma).perturbed_adjacency
    for fraction in epoch_fractions:
        epochs = epochs_of(fraction)
        run = fine_tune_method("ppfr_epochs", vanilla, fixed_structure, weights, epochs=epochs)
        rows.append(evaluate(run, float(epochs)))
    return {"rows": rows, "model": spec.model}


CELL_KINDS: Dict[str, CellFunction] = {
    "methods": methods_cell,
    "influence": influence_cell,
    "diagnostics": diagnostics_cell,
    "ablation": ablation_cell,
}
"""Cell kind → implementation, the work vocabulary of the grid engine."""


def execute_cell(spec, artifact_cache: Optional[ArtifactCache] = None) -> Dict:
    """Execute one cell spec and return its plain-data payload."""
    if spec.kind not in CELL_KINDS:
        raise KeyError(
            f"unknown cell kind {spec.kind!r}; available: {', '.join(sorted(CELL_KINDS))}"
        )
    return CELL_KINDS[spec.kind](spec, artifact_cache)
