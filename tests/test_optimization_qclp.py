"""Tests for the exact QCLP solver of Eq. 13."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from repro.optimization.qclp import QCLPProblem, solve_qclp

REGIMES = ("ball", "halfspace", "both", "neither", "beta0")


def _regime_problem(regime, seed, size=40):
    """A random instance whose active constraints are set by ``regime``.

    The box caps ‖w‖² at ``size``, so α ≥ 1 leaves the ball slack; β = 3
    exceeds the largest possible ``uᵀw / Σ max(u, 0)`` on these draws, so
    the half-space is slack; ``u`` anti-correlated with ``c`` makes the
    box-LP vertex overspend a β = 0.1 budget.
    """
    rng = np.random.default_rng(seed)
    c = rng.normal(size=size)
    noise = rng.normal(size=size)
    alpha, beta, u = {
        "ball": (0.2, 3.0, noise),
        "halfspace": (1.5, 0.1, -c + 0.3 * noise),
        "both": (0.3, 0.1, -c + 0.3 * noise),
        "neither": (1.5, 3.0, noise),
        "beta0": (0.5, 0.0, -c + 0.3 * noise),
    }[regime]
    return QCLPProblem(c, 0.1 * u, alpha=alpha, beta=beta)


def _slsqp_reference(problem):
    """SciPy SLSQP on the same problem, as an independent reference."""
    c, u = problem.bias_influence, problem.utility_influence
    result = optimize.minimize(
        fun=lambda w: float(c @ w),
        x0=np.zeros(problem.size),
        jac=lambda w: c,
        bounds=[(problem.lower, problem.upper)] * problem.size,
        constraints=[
            {
                "type": "ineq",
                "fun": lambda w: problem.ball_radius_squared - float(w @ w),
                "jac": lambda w: -2.0 * w,
            },
            {
                "type": "ineq",
                "fun": lambda w: problem.utility_budget - float(u @ w),
                "jac": lambda w: -u,
            },
        ],
        method="SLSQP",
        options={"maxiter": 1000, "ftol": 1e-12},
    )
    return float(c @ result.x)


def _assert_feasible(problem, weights, tol=1e-12):
    radius_squared = problem.ball_radius_squared
    assert float(weights @ weights) <= radius_squared + tol * max(1.0, radius_squared)
    assert float(problem.utility_influence @ weights) <= problem.utility_budget + tol
    assert np.all(weights >= problem.lower) and np.all(weights <= problem.upper)


class TestQCLPProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            QCLPProblem(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            QCLPProblem(np.ones(3), np.ones(3), alpha=0.0)
        with pytest.raises(ValueError):
            QCLPProblem(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bias_influence": [1.0, np.nan, -1.0]},
            {"utility_influence": [0.1, np.inf, 0.3]},
            {"alpha": np.inf},
            {"beta": np.nan},
            {"lower": 0.5},
            {"upper": -0.5},
        ],
    )
    def test_rejects_inputs_without_a_meaningful_answer(self, kwargs):
        """Non-finite data, or a box that excludes w = 0, has no usable optimum."""
        arguments = {"bias_influence": [1.0, 0.0, -1.0], "utility_influence": [0.1, 0.2, 0.3]}
        arguments.update(kwargs)
        with pytest.raises(ValueError):
            QCLPProblem(**arguments)

    def test_budgets(self):
        problem = QCLPProblem(np.ones(4), np.array([1.0, -1.0, 2.0, 0.0]), alpha=0.5, beta=0.2)
        assert problem.ball_radius_squared == pytest.approx(2.0)
        assert problem.utility_budget == pytest.approx(0.2 * 3.0)


class TestSolveQCLP:
    def _random_problem(self, seed, size=30):
        rng = np.random.default_rng(seed)
        return QCLPProblem(
            bias_influence=rng.normal(size=size),
            utility_influence=rng.normal(size=size) * 0.1,
            alpha=0.9,
            beta=0.1,
        )

    def test_solution_is_feasible(self):
        problem = self._random_problem(0)
        solution = solve_qclp(problem)
        weights = solution.weights
        assert solution.feasible
        assert np.all(weights >= -1.0 - 1e-6) and np.all(weights <= 1.0 + 1e-6)
        assert float(weights @ weights) <= problem.ball_radius_squared * 1.001
        assert float(problem.utility_influence @ weights) <= problem.utility_budget + 1e-6

    def test_objective_not_worse_than_zero(self):
        """w = 0 is always feasible, so the optimum must be ≤ 0."""
        for seed in range(5):
            solution = solve_qclp(self._random_problem(seed))
            assert solution.objective <= 1e-9

    def test_empty_problem(self):
        solution = solve_qclp(QCLPProblem(np.zeros(0), np.zeros(0)))
        assert solution.weights.size == 0 and solution.feasible

    def test_matches_brute_force_on_tiny_problem(self):
        """With a loose utility constraint the optimum is the box/ball LP solution."""
        c = np.array([1.0, -2.0, 0.5])
        u = np.zeros(3)
        problem = QCLPProblem(c, u, alpha=10.0, beta=1.0)  # ball constraint inactive
        solution = solve_qclp(problem)
        expected = np.array([-1.0, 1.0, -1.0])  # sign pattern minimising c·w in the box
        np.testing.assert_allclose(solution.weights, expected, atol=1e-4)

    def test_ball_constraint_binds(self):
        c = -np.ones(100)
        u = np.zeros(100)
        problem = QCLPProblem(c, u, alpha=0.25, beta=1.0)  # ‖w‖² ≤ 25 < 100
        solution = solve_qclp(problem)
        assert float(solution.weights @ solution.weights) <= 25.0 * 1.01
        assert float(solution.weights @ solution.weights) >= 20.0  # constraint is active

    def test_utility_constraint_binds(self):
        """c = −1, u = 1 has a whole face of optima {Σw = budget}, all with objective −1."""
        c = -np.ones(10)
        u = np.ones(10)  # any positive weight costs utility
        problem = QCLPProblem(c, u, alpha=10.0, beta=0.1)
        solution = solve_qclp(problem)
        assert float(u @ solution.weights) == pytest.approx(problem.utility_budget, abs=1e-12)
        assert solution.objective == pytest.approx(-1.0, abs=1e-12)

    def test_summary_keys(self):
        solution = solve_qclp(self._random_problem(1))
        summary = solution.summary()
        assert {"objective", "feasible", "weight_norm"} <= set(summary)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_property_feasibility_random_problems(self, seed):
        problem = self._random_problem(seed, size=15)
        solution = solve_qclp(problem)
        assert solution.feasible


class TestExactness:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_not_worse_than_slsqp(self, regime, seed):
        """Feasible to 1e-12 and never beaten by SLSQP.

        The bound is one-sided: SLSQP may end slightly outside the ball, so
        it can only come out ahead by being infeasible.
        """
        problem = _regime_problem(regime, seed)
        solution = solve_qclp(problem)
        _assert_feasible(problem, solution.weights)
        reference = _slsqp_reference(problem)
        assert solution.objective <= reference + 1e-7 * (1.0 + abs(reference))

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_kkt_certificate(self, regime, seed):
        """λ, μ ≥ 0, complementary slackness and box-stationarity to 1e-9."""
        problem = _regime_problem(regime, seed)
        solution = solve_qclp(problem)
        w = solution.weights
        c, u = problem.bias_influence, problem.utility_influence
        lam, mu = solution.ball_multiplier, solution.utility_multiplier
        assert lam >= 0.0 and mu >= 0.0
        ball_active = regime in ("ball", "both", "beta0")
        utility_active = regime in ("halfspace", "both", "beta0")
        assert (lam > 0.0) == ball_active
        assert (mu > 0.0) == utility_active
        assert abs(lam * (float(w @ w) - problem.ball_radius_squared)) <= 1e-9
        assert abs(mu * (float(u @ w) - problem.utility_budget)) <= 1e-9
        # ∇ of the Lagrangian: zero inside the box, pointing outward at a bound.
        gradient = c + mu * u + 2.0 * lam * w
        tol = 1e-9 * (1.0 + np.abs(c).max() + mu * np.abs(u).max())
        at_lower = w <= problem.lower
        at_upper = w >= problem.upper
        inside = ~(at_lower | at_upper)
        assert np.all(np.abs(gradient[inside]) <= tol)
        assert np.all(gradient[at_lower] >= -tol)
        assert np.all(gradient[at_upper] <= tol)
