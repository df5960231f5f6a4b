"""PPFR — Privacy-aware Perturbations and Fairness-aware Reweighting.

This is the paper's primary contribution: a model-agnostic two-phase
training scheme.  Phase one is vanilla training for accuracy; phase two
fine-tunes the model with

* a **privacy-aware perturbed graph** (heterophilic noisy edges that shrink
  the unconnected-pair distance gap exploited by link-stealing attacks), and
* a **fairness-aware reweighted loss** (per-node weights from an
  influence-function-driven QCLP).

The subpackage also implements the paper's baselines (Vanilla, Reg, DPReg,
DPFR), the combined effectiveness metric Δ (Eq. 22) and the evaluation
harness shared by all experiments.
"""

from repro.core.config import ComputeConfig, PPFRConfig, MethodSettings
from repro.core.perturbation import privacy_aware_perturbation, PerturbationResult
from repro.core.results import MethodEvaluation, MethodRun, evaluate_method
from repro.core.delta import delta_report, DeltaReport
from repro.core.baselines import (
    VanillaPhase,
    fine_tune_method,
    run_vanilla,
    run_reg,
    run_dp_reg,
    run_dp_fr,
    run_fr_only,
    run_pp_only,
)
from repro.core.ppfr import run_ppfr
from repro.core.pipeline import METHOD_RUNNERS, run_method, run_all_methods

__all__ = [
    "ComputeConfig",
    "PPFRConfig",
    "MethodSettings",
    "privacy_aware_perturbation",
    "PerturbationResult",
    "MethodEvaluation",
    "MethodRun",
    "evaluate_method",
    "delta_report",
    "DeltaReport",
    "VanillaPhase",
    "fine_tune_method",
    "run_vanilla",
    "run_reg",
    "run_dp_reg",
    "run_dp_fr",
    "run_fr_only",
    "run_pp_only",
    "run_ppfr",
    "METHOD_RUNNERS",
    "run_method",
    "run_all_methods",
]
