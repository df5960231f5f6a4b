"""Reproduction of the paper's figures (4, 5, 6, 7) as numeric series.

Figures are reproduced as the data series that back them (no plotting
dependency is available offline); each experiment returns the rows that would
be plotted, which the benchmark harness prints.  Like the tables, every
figure declares its grid as :class:`~repro.experiments.grid.CellSpec` lists
executed through a :class:`~repro.experiments.grid.GridRunner` — Figure 4
shares its (gcn, vanilla/reg) cells with Table III through the runner's
artifact cache, and Figures 5/7 are projections of the Table IV grid.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.experiments.grid import CellSpec, GridRunner, run_grid
from repro.experiments.presets import ExperimentPreset
from repro.experiments.reporting import ExperimentResult
from repro.experiments.tables import table4_ppfr_effectiveness

PresetLike = Union[str, ExperimentPreset]


def _resolve(preset: PresetLike) -> ExperimentPreset:
    return CellSpec.resolve_preset(preset)


def figure4_attack_auc(
    preset: PresetLike = "quick",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    runner: Optional[GridRunner] = None,
) -> ExperimentResult:
    """Figure 4: per-distance attack AUC before and after fairness regularisation.

    Expected shape: for most distances and every dataset, the AUC of the
    regularised (fairer) model is at least that of the vanilla model.
    """
    preset = _resolve(preset)
    datasets = list(datasets or preset.strong_homophily_datasets)
    specs = [
        CellSpec(
            kind="methods",
            dataset=dataset,
            preset=preset,
            model="gcn",
            methods=("vanilla", "reg"),
            seed=seed,
        )
        for dataset in datasets
    ]
    rows: List[dict] = []
    for cell in run_grid(specs, runner):
        for method in ("vanilla", "reg"):
            evaluation = cell.payload["evaluations"][method]
            row = {"dataset": cell.spec.dataset, "method": method}
            row.update(
                {
                    key: value
                    for key, value in evaluation.items()
                    if key.startswith("auc_")
                }
            )
            row["auc_mean"] = evaluation["mean_auc"]
            rows.append(row)
    return ExperimentResult("figure4_attack_auc", rows, {"preset": preset.name})


def _accuracy_cost_rows(result, models: Sequence[str]) -> list:
    rows = []
    for row in result.rows:
        if row["model"] in models:
            rows.append(
                {
                    "dataset": row["dataset"],
                    "model": row["model"],
                    "method": row["method"],
                    "delta_accuracy_percent": row["delta_accuracy_percent"],
                }
            )
    return rows


def figure5_accuracy_cost(
    preset: PresetLike = "quick",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    runner: Optional[GridRunner] = None,
) -> ExperimentResult:
    """Figure 5: accuracy cost (ΔAcc %) of each method on GCN and GAT.

    Expected shape: DPReg pays the largest accuracy cost; Reg and PPFR stay
    within a few percent of vanilla accuracy.
    """
    preset = _resolve(preset)
    models = [m for m in ("gcn", "gat") if m in preset.models] or ["gcn"]
    table4 = table4_ppfr_effectiveness(
        preset, seed=seed, datasets=datasets, models=models, runner=runner
    )
    rows = _accuracy_cost_rows(table4, models)
    return ExperimentResult("figure5_accuracy_cost", rows, {"preset": preset.name})


def figure7_graphsage_cost(
    preset: PresetLike = "quick",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    runner: Optional[GridRunner] = None,
) -> ExperimentResult:
    """Figure 7: accuracy cost of each method on GraphSAGE.

    Expected shape: the sampling aggregation makes edge DP both less harmful
    to accuracy and less effective at reducing risk than on GCN/GAT.
    """
    preset = _resolve(preset)
    table4 = table4_ppfr_effectiveness(
        preset, seed=seed, datasets=datasets, models=["graphsage"], runner=runner
    )
    rows = _accuracy_cost_rows(table4, ["graphsage"])
    return ExperimentResult("figure7_graphsage_cost", rows, {"preset": preset.name})


def figure6_ablation(
    preset: PresetLike = "quick",
    seed: int = 0,
    dataset: str = "cora",
    model_name: Optional[str] = None,
    epoch_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.3),
    gammas: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
    runner: Optional[GridRunner] = None,
) -> ExperimentResult:
    """Figure 6: PPFR ablations on one (dataset, model) cell.

    Three panels, reproduced as three row groups (the ``panel`` column):

    * ``fr_epochs``  — FR-only fine-tuning with zero perturbation, sweeping the
      fine-tuning epoch budget (left panel: fairness improves, risk creeps up).
    * ``pp_gamma``   — PP + fixed FR, sweeping the perturbation ratio γ
      (middle panel: risk and accuracy both fall as γ grows).
    * ``ppfr_epochs`` — fixed PP + FR, sweeping the epoch budget (right panel:
      risk stays near the vanilla level while bias falls).

    The sweep is one ``ablation`` cell: every arm fine-tunes its own copy of
    one vanilla snapshot (parameters and RNG state) with the FR weights
    derived from it once, so the arms share phase one and nothing else.
    """
    preset = _resolve(preset)
    model_name = model_name or ("gat" if "gat" in preset.models else preset.models[0])
    spec = CellSpec(
        kind="ablation",
        dataset=dataset,
        preset=preset,
        model=model_name,
        seed=seed,
        overrides=(
            ("epoch_fractions", tuple(float(f) for f in epoch_fractions)),
            ("gammas", tuple(float(g) for g in gammas)),
        ),
    )
    (cell,) = run_grid([spec], runner)
    return ExperimentResult(
        "figure6_ablation",
        cell.payload["rows"],
        {"preset": preset.name, "dataset": dataset, "model": model_name},
    )
