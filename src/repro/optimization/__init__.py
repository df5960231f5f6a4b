"""Constrained optimisation: the exact QCLP solver of fairness reweighting.

:func:`solve_qclp` solves Eq. 13 (a linear objective under a ball, a
half-space and a box) to floating-point precision by nested bisection on
its two Lagrange multipliers, in place of the paper's Gurobi.  It assumes
finite data and a box containing w = 0, which :class:`QCLPProblem` checks.
"""

from repro.optimization.qclp import QCLPProblem, QCLPSolution, solve_qclp

__all__ = ["QCLPProblem", "QCLPSolution", "solve_qclp"]
