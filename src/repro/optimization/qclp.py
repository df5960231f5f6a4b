"""Quadratically Constrained Linear Programming (Eq. 13 of the paper).

The fairness-aware reweighting solves

    minimise    cᵀ w                      (total bias influence)
    subject to  ‖w‖² ≤ α·|V_l|            (re-weighting budget)
                uᵀ w ≤ β·Σ max(u, 0)      (limited utility cost)
                −1 ≤ w_v ≤ 1              (box)

where ``c = I_fbias`` and ``u = I_futil`` are the per-node influence vectors.
The paper uses Gurobi; :func:`solve_qclp` solves the problem exactly through
its Lagrangian dual.  For multipliers λ ≥ 0 (ball) and μ ≥ 0 (half-space)
the Lagrangian separates over coordinates, and its minimiser over the box is

    w(λ, μ) = clip(−(c + μu) / (2λ), −1, 1)        for λ > 0,

or, for λ = 0, the box-LP vertex (−1 where c + μu > 0, +1 where it is < 0,
0 where it is 0).  ``‖w‖²`` falls as λ grows and ``uᵀw`` falls as μ grows,
so nested bisection finds the optimal multipliers:

* for each μ, λ = 0 if the vertex lies in the ball, otherwise the λ at
  which ``‖w‖² = α·|V_l|``;
* μ = 0 if the utility constraint is slack there, otherwise the μ at which
  ``uᵀw`` crosses the budget.  The two ends of the final μ bracket both
  minimise the Lagrangian at the optimal μ, so the solution is the convex
  combination of their primals with ``uᵀw`` exactly on the budget; this
  also covers a whole face of optima when λ = 0.

Each bisection runs until its midpoint equals an endpoint, i.e. to
floating-point precision, so there is no iteration budget or tolerance to
choose.  The method assumes finite influence vectors, finite α > 0 and
β ≥ 0, and ``lower ≤ 0 ≤ upper`` so that w = 0 is feasible;
:class:`QCLPProblem` rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


@dataclass
class QCLPProblem:
    """Problem data for the fairness-aware reweighting QCLP."""

    bias_influence: np.ndarray
    utility_influence: np.ndarray
    alpha: float = 0.9
    beta: float = 0.1
    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        self.bias_influence = np.asarray(self.bias_influence, dtype=np.float64)
        self.utility_influence = np.asarray(self.utility_influence, dtype=np.float64)
        if self.bias_influence.ndim != 1:
            raise ValueError("bias_influence must be a vector")
        if self.bias_influence.shape != self.utility_influence.shape:
            raise ValueError("bias and utility influence vectors must align")
        if not (
            np.isfinite(self.bias_influence).all()
            and np.isfinite(self.utility_influence).all()
        ):
            raise ValueError("influence vectors must be finite")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError("the box must contain w = 0 (lower <= 0 <= upper)")

    @property
    def size(self) -> int:
        return int(self.bias_influence.shape[0])

    @property
    def ball_radius_squared(self) -> float:
        """Right-hand side of the quadratic constraint, ``α·|V_l|``."""
        return float(self.alpha * self.size)

    @property
    def utility_budget(self) -> float:
        """Right-hand side of the utility constraint, ``β·Σ max(u, 0)``."""
        positive = np.maximum(self.utility_influence, 0.0)
        return float(self.beta * positive.sum())


@dataclass
class QCLPSolution:
    """Result of a QCLP solve, with the KKT multipliers that certify it."""

    weights: np.ndarray
    objective: float
    feasible: bool
    ball_multiplier: float
    utility_multiplier: float

    def summary(self) -> dict:
        return {
            "objective": self.objective,
            "feasible": self.feasible,
            "weight_norm": float(np.linalg.norm(self.weights)),
            "min_weight": float(self.weights.min()) if self.weights.size else 0.0,
            "max_weight": float(self.weights.max()) if self.weights.size else 0.0,
        }


def _is_feasible(problem: QCLPProblem, weights: np.ndarray, tol: float = 1e-6) -> bool:
    ball_ok = float(weights @ weights) <= problem.ball_radius_squared * (1 + tol) + tol
    utility_ok = float(problem.utility_influence @ weights) <= problem.utility_budget + tol
    box_ok = bool(
        np.all(weights >= problem.lower - tol) and np.all(weights <= problem.upper + tol)
    )
    return ball_ok and utility_ok and box_ok


def _bisect(below: Callable[[float], bool], lo: float, hi: float) -> Tuple[float, float]:
    """Shrink ``[lo, hi]`` to adjacent floats, keeping ``below(lo)`` and ``not below(hi)``."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _ball_primal(
    gradient: np.ndarray, lower: float, upper: float, radius_squared: float
) -> Tuple[np.ndarray, float]:
    """Minimise ``gradientᵀw`` over the box and ball; return ``(w, λ)``."""
    vertex = np.where(gradient > 0, lower, np.where(gradient < 0, upper, 0.0))
    if vertex @ vertex <= radius_squared:
        return vertex, 0.0

    def primal(lam: float) -> np.ndarray:
        return np.clip(-gradient / (2.0 * lam), lower, upper)

    def outside(lam: float) -> bool:
        weights = primal(lam)
        return weights @ weights > radius_squared

    # Unclipped, ‖w(λ)‖ = ‖gradient‖ / (2λ); at twice the λ where that meets
    # the radius, w(λ) lies safely inside the ball.
    _, lam = _bisect(outside, 0.0, np.linalg.norm(gradient) / np.sqrt(radius_squared))
    return primal(lam), lam


def solve_qclp(problem: QCLPProblem) -> QCLPSolution:
    """Solve the fairness-aware reweighting QCLP exactly (see the module doc)."""
    c = problem.bias_influence
    u = problem.utility_influence
    budget = problem.utility_budget
    radius_squared = problem.ball_radius_squared

    def primal(mu: float) -> Tuple[np.ndarray, float]:
        return _ball_primal(c + mu * u, problem.lower, problem.upper, radius_squared)

    def over_budget(mu: float) -> bool:
        return u @ primal(mu)[0] > budget

    mu = 0.0
    weights, lam = primal(mu)
    if u @ weights > budget:
        hi = 1.0
        while over_budget(hi):
            hi *= 2.0
        lo, mu = _bisect(over_budget, 0.0, hi)
        (w_lo, _), (w_hi, lam) = primal(lo), primal(mu)
        # uᵀw_lo > budget ≥ uᵀw_hi: meet the budget exactly between them.
        spent_lo, spent_hi = u @ w_lo, u @ w_hi
        weights = w_hi + (budget - spent_hi) / (spent_lo - spent_hi) * (w_lo - w_hi)
    return QCLPSolution(
        weights=weights,
        objective=float(c @ weights),
        feasible=_is_feasible(problem, weights),
        ball_multiplier=float(lam),
        utility_multiplier=float(mu),
    )
