"""Configuration objects shared by PPFR and the baseline methods."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.fairness.reweighting import FairnessReweightingConfig
from repro.gnn.trainer import TrainConfig


GRID_EXECUTORS = ("serial", "thread", "process")
"""Executor names accepted by :class:`ComputeConfig` (and the grid engine)."""


@dataclass
class ComputeConfig:
    """Compute selection: grid-cell execution and serving shards.

    Attributes
    ----------
    executor:
        Grid-cell executor (``"serial"`` / ``"thread"`` / ``"process"``) used
        when a :class:`repro.experiments.grid.GridRunner` is built from this
        config; ``None`` infers ``"thread"`` when ``jobs > 1``.
    jobs:
        Worker count for parallel cell execution (the CLI's ``--jobs``).
    cache:
        Enables the artifact/operator caches of the grid engine; caching is
        deterministic and trades memory for wall-clock only.
    cache_dir:
        Optional directory (the CLI's ``--cache-dir``, conventionally
        ``results/cache``) enabling the persistent artifact tier: trained
        cells are spilled to disk and reused across CLI invocations and
        process-pool workers.
    shards:
        Serving-side shard count (the serve CLI's ``--shards``): ``None``
        serves from one in-process engine, ``N >= 1`` routes through a
        :class:`repro.cluster.router.ShardRouter` over ``N`` worker
        processes.
    """

    executor: Optional[str] = None
    jobs: Optional[int] = None
    cache: bool = True
    cache_dir: Optional[str] = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.executor is not None and self.executor not in GRID_EXECUTORS:
            raise ValueError(
                f"executor must be one of {GRID_EXECUTORS} or None, got {self.executor!r}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be at least 1")


@dataclass
class PPFRConfig:
    """Hyper-parameters of the PPFR fine-tuning scheme.

    Attributes
    ----------
    gamma:
        Ratio of injected heterophilic edges per node, ``|N(i)_Δ| = γ|N(i)|``.
    fine_tune_fraction:
        ``s`` in ``e_re = s · e_va`` — the fine-tuning epoch budget as a
        fraction of the vanilla-training epochs (paper: s ∈ [0.1, 0.25]).
    fine_tune_lr_scale:
        Learning-rate multiplier of the fine-tuning phase relative to vanilla
        training.  Fine-tuning starts at the vanilla optimum, so a reduced
        step size keeps the update within the region where the influence
        approximation holds (0.1 by default).
    reweighting:
        QCLP / influence settings (α = 0.9, β = 0.1 in the paper).
    seed:
        Seed for the perturbation sampling.
    """

    gamma: float = 0.2
    fine_tune_fraction: float = 0.15
    fine_tune_lr_scale: float = 0.1
    reweighting: FairnessReweightingConfig = field(
        default_factory=FairnessReweightingConfig
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not 0 < self.fine_tune_fraction <= 1:
            raise ValueError("fine_tune_fraction must lie in (0, 1]")
        if self.fine_tune_lr_scale <= 0:
            raise ValueError("fine_tune_lr_scale must be positive")

    def fine_tune_epochs(self, vanilla_epochs: int) -> int:
        """Epoch budget of the fine-tuning phase, ``e_re = s · e_va`` (≥ 1)."""
        return max(1, int(round(self.fine_tune_fraction * vanilla_epochs)))


@dataclass
class MethodSettings:
    """Everything needed to run one method on one (dataset, model) cell.

    Attributes
    ----------
    train:
        Vanilla-training hyper-parameters shared by every method.  Its
        ``batch_size`` / ``fanouts`` fields switch the shared trainer to
        neighbour-sampled mini-batches (see :meth:`with_batching`); methods
        whose loss needs full-graph logits fall back transparently.
    fairness_weight:
        λ of the InFoRM regulariser used by the ``Reg`` / ``DPReg`` baselines.
    dp_epsilon:
        Privacy budget of the edge-DP baselines.
    dp_mechanism:
        ``"edge_rand"`` (Cora / Citeseer in the paper) or ``"lap_graph"``
        (Pubmed, more scalable).
    ppfr:
        PPFR-specific settings.
    attack_seed:
        Seed of the link-stealing evaluation (negative-pair sampling).
    """

    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=150, patience=None))
    fairness_weight: float = 100.0
    dp_epsilon: float = 4.0
    dp_mechanism: str = "edge_rand"
    ppfr: PPFRConfig = field(default_factory=PPFRConfig)
    attack_seed: int = 0
    model_seed: int = 0

    def __post_init__(self) -> None:
        if self.fairness_weight <= 0:
            raise ValueError("fairness_weight must be positive")
        if self.dp_epsilon <= 0:
            raise ValueError("dp_epsilon must be positive")
        if self.dp_mechanism not in ("edge_rand", "lap_graph"):
            raise ValueError("dp_mechanism must be 'edge_rand' or 'lap_graph'")

    def with_batching(
        self,
        batch_size: Optional[int],
        fanouts: Optional[Tuple[Optional[int], ...]] = None,
        batch_seed: int = 0,
        eval_interval: int = 1,
    ) -> "MethodSettings":
        """A copy of these settings with mini-batch training fields applied.

        ``batch_size=None`` returns to full-batch training.  The copy shares
        everything else, so a full-batch and a mini-batch run differ only in
        the training execution model.
        """
        train = replace(
            self.train,
            batch_size=batch_size,
            fanouts=fanouts,
            batch_seed=batch_seed,
            eval_interval=eval_interval,
        )
        return replace(self, train=train)
