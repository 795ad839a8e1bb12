"""allocation.solve_ilp on general integer programs against exhaustive enumeration.

``build_ilp`` only produces nonnegative head-count and budget rows; these
programs also have negative coefficients and several equality rows, so they
check the HiGHS call itself: integrality, bounds, the equality constraint and
the mapping of its status to a solution or to ``AllocationInfeasibleError``.
"""

import numpy as np
import pytest

from hybriddet.allocation import AllocationInfeasibleError, IlpProblem, solve_ilp

from oracles import enumerate_ilp


def _problem(cost, eq_matrix, eq_rhs, lower, upper):
    as_float = lambda v: np.asarray(v, dtype=float)
    return IlpProblem(
        as_float(cost), as_float(eq_matrix), as_float(eq_rhs), as_float(lower), as_float(upper)
    )


class TestSolveIlp:
    def test_integral_relaxation_single_node(self):
        # The relaxation's optimum is integral, so no branching is needed:
        # HiGHS counts 0 nodes when presolve settles it, 1 for the root alone.
        sol = solve_ilp(_problem([-1.0], [[1.0]], [3.0], [0.0], [5.0]))
        assert sol.nodes_explored <= 1
        assert sol.x[0] == 3
        assert sol.objective == -3.0

    def test_fractional_only_rhs_infeasible(self):
        with pytest.raises(AllocationInfeasibleError):
            solve_ilp(_problem([1.0], [[2.0]], [3.0], [0.0], [np.inf]))

    def test_solution_is_integral_and_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            A = rng.integers(-3, 4, (m, n)).astype(float)
            ub = rng.integers(1, 6, n).astype(float)
            xstar = np.array([rng.integers(0, int(u) + 1) for u in ub], dtype=float)
            b = A @ xstar
            c = np.round(rng.normal(0, 2, n), 3)
            sol = solve_ilp(_problem(c, A, b, np.zeros(n), ub))
            assert sol.x.dtype == np.int64
            assert np.max(np.abs(A @ sol.x.astype(float) - b)) <= 1e-7
            assert np.all(sol.x >= 0)
            assert np.all(sol.x <= ub)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(33)
        for trial in range(100):
            if trial % 10 == 9:
                # A few wider instances; tight ranges keep enumeration cheap.
                n = int(rng.integers(8, 13))
                ub = rng.integers(1, 3, n).astype(float)
            else:
                n = int(rng.integers(2, 5))
                ub = rng.integers(1, 6, n).astype(float)
            m = int(rng.integers(1, 3))
            A = rng.integers(-3, 4, (m, n)).astype(float)
            xstar = np.array([rng.integers(0, int(u) + 1) for u in ub], dtype=float)
            b = A @ xstar
            c = np.round(rng.normal(0, 2, n), 3)
            sol = solve_ilp(_problem(c, A, b, np.zeros(n), ub))
            _, best = enumerate_ilp(c, A, b, np.zeros(n), ub)
            assert sol.objective == pytest.approx(best, abs=1e-9)

    def test_infeasible_detection_randomized(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            A = rng.integers(0, 4, (1, n)).astype(float)
            ub = rng.integers(1, 4, n).astype(float)
            b = np.array([float((A @ ub)[0]) + 1.5])
            with pytest.raises(AllocationInfeasibleError):
                solve_ilp(_problem(np.ones(n), A, b, np.zeros(n), ub))
