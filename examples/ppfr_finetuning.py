"""Apply PPFR as a plug-and-play fine-tuning step on an existing trained model.

This mirrors the deployment story of the paper: a developer already has a
vanilla-trained production GNN; PPFR fine-tunes a copy of it (perturbed graph
+ reweighted loss) to improve individual fairness while keeping edge-leakage
risk in check.

Run with::

    python examples/ppfr_finetuning.py
"""

from repro.core import MethodSettings, PPFRConfig, evaluate_method, run_ppfr
from repro.core.results import MethodRun
from repro.datasets import load_dataset
from repro.gnn import TrainConfig, Trainer, build_model
from repro.graphs.similarity import jaccard_similarity
from repro.privacy import LinkStealingAttack


def main() -> None:
    graph = load_dataset("citeseer", seed=1, scale=0.6)
    similarity = jaccard_similarity(graph.adjacency)
    attack = LinkStealingAttack(seed=0)

    # An existing production model: plain GCN trained for accuracy only.
    model = build_model("gcn", graph.num_features, graph.num_classes, rng=1)
    settings = MethodSettings(
        train=TrainConfig(epochs=80, patience=None),
        ppfr=PPFRConfig(gamma=0.2, fine_tune_fraction=0.15),
    )
    Trainer(model, settings.train).fit(graph)

    before = evaluate_method(
        MethodRun(method="vanilla", model=model, graph=graph, serving_adjacency=graph.adjacency),
        model_name="gcn", similarity=similarity, attack=attack,
    )
    print("before PPFR:", f"acc={before.accuracy:.3f}", f"bias={before.bias:.4f}",
          f"attack AUC={before.risk_auc:.3f}")

    # PPFR fine-tuning on the already-trained model (skip_vanilla=True).
    run = run_ppfr(model, graph, settings, skip_vanilla=True)
    after = evaluate_method(run, model_name="gcn", similarity=similarity, attack=attack)
    print("after  PPFR:", f"acc={after.accuracy:.3f}", f"bias={after.bias:.4f}",
          f"attack AUC={after.risk_auc:.3f}")

    perturbation = run.extras["perturbation"]
    weights = run.extras["fairness_weights"]
    print(f"\ninjected heterophilic edges: {perturbation.num_added_edges} "
          f"(γ={perturbation.gamma})")
    print(f"fine-tuning epochs: {run.extras['fine_tune_epochs']}")
    print(f"QCLP weights: min={weights.raw_weights.min():+.2f}, "
          f"max={weights.raw_weights.max():+.2f}, "
          f"predicted Δbias={weights.qclp.objective:+.4f}")
    print(
        "\nExpected shape: bias drops noticeably, the attack AUC does not increase, "
        "and accuracy stays within a few points of the original model."
    )


if __name__ == "__main__":
    main()
