"""The PPFR method (Privacy-aware Perturbations + Fairness-aware Reweighting).

Algorithm (Fig. 3 of the paper):

1. **Vanilla training** of the victim GNN for accuracy.
2. **Privacy-aware perturbation** — query the trained model for predicted
   labels and inject heterophilic noisy edges, ``A' = A + ΔA`` with per-node
   budget ``γ·|N(i)|``.
3. **Fairness-aware reweighting** — estimate per-node influences on bias and
   utility with influence functions and solve the QCLP of Eq. (13) for
   weights ``w ∈ [−1, 1]``.
4. **Fine-tuning** — continue training for ``e_re = s·e_va`` epochs on the
   perturbed structure with the weighted loss ``Σ (1 + w_v)·L_v``.

Steps 1 and 3 form the :class:`~repro.core.baselines.VanillaPhase` shared
with DPFR and the FR ablation of the same cell; step 4 is the shared
:func:`~repro.core.baselines.fine_tune_method`, which fine-tunes a deep copy
of the vanilla model.  The procedure is model-agnostic: it only needs the
trained model's prediction interface and gradients, so it applies unchanged
to GCN, GAT and GraphSAGE.
"""

from __future__ import annotations

from typing import Optional

from repro.core.baselines import VanillaPhase, fine_tune_method, vanilla_phase
from repro.core.config import MethodSettings
from repro.core.perturbation import privacy_aware_perturbation
from repro.core.results import MethodRun
from repro.gnn.models import GNNModel
from repro.graphs.graph import Graph


def run_ppfr(
    model: Optional[GNNModel],
    graph: Graph,
    settings: MethodSettings,
    skip_vanilla: bool = False,
    vanilla: Optional[VanillaPhase] = None,
) -> MethodRun:
    """Train with the full PPFR pipeline; the returned run holds the fine-tuned copy.

    Parameters
    ----------
    model:
        A freshly initialised (or, with ``skip_vanilla=True``, already
        vanilla-trained) victim model.  It ends vanilla-trained: phase two
        fine-tunes a deep copy, ``run.model``.  Unused when ``vanilla`` is
        given.
    graph:
        Training graph with labels and split masks.
    settings:
        Shared method settings; ``settings.ppfr`` carries γ, s, α and β.
    skip_vanilla:
        When True the vanilla-training phase is skipped and the model is
        assumed to be already trained — this is the "plug-and-play" usage on
        an existing production model highlighted by the paper.
    vanilla:
        A phase one already trained in this cell (shared with DPFR and FR).
    """
    if vanilla is None and skip_vanilla:
        vanilla = VanillaPhase(MethodRun("vanilla", model, graph, graph.adjacency), settings)
    vanilla = vanilla_phase(model, graph, settings, vanilla)
    ppfr = settings.ppfr

    # Phase 2a: privacy-aware perturbation guided by the trained model.
    perturbation = privacy_aware_perturbation(
        vanilla.run.model, graph, gamma=ppfr.gamma, rng=ppfr.seed
    )
    # Phases 2b and 2c: FR weights (influence functions + QCLP), then
    # fine-tuning on the perturbed structure with the weighted loss.
    epochs = ppfr.fine_tune_epochs(settings.train.epochs)
    return fine_tune_method(
        "ppfr",
        vanilla,
        perturbation.perturbed_adjacency,
        vanilla.fairness_weights(),
        epochs=epochs,
        perturbation=perturbation,
        fine_tune_epochs=epochs,
    )
