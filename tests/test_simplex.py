import numpy as np
import pytest

from storesched import LpProblem, LpStatus, solve_bounded_lp
from storesched.simplex import BASIC

scipy_opt = pytest.importorskip("scipy.optimize")


def random_problem(rng, n, m):
    a = rng.normal(size=(m, n))
    x_feas = rng.uniform(-1, 1, n)
    lower = x_feas - rng.uniform(0.1, 2.0, n)
    upper = x_feas + rng.uniform(0.1, 2.0, n)
    # some variables without an upper bound
    upper[rng.random(n) < 0.2] = np.inf
    return LpProblem(
        c=rng.normal(size=n),
        lower=lower,
        upper=upper,
        a=a,
        rhs=a @ x_feas,
    )


class TestAgainstScipy:
    def test_random_problems(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n + 1))
            problem = random_problem(rng, n, m)
            mine = solve_bounded_lp(problem)
            a = problem.a
            ref = scipy_opt.linprog(
                -problem.c,
                A_eq=a,
                b_eq=problem.rhs,
                bounds=list(zip(problem.lower, problem.upper)),
                method="highs",
            )
            if mine.status is LpStatus.UNBOUNDED:
                # scipy/HiGHS reports unbounded problems with status 3
                assert ref.status == 3
                continue
            assert mine.status is LpStatus.OPTIMAL
            assert ref.status == 0
            assert mine.objective == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
            np.testing.assert_allclose(a @ mine.x, problem.rhs, atol=1e-8)
            assert np.all(mine.x >= problem.lower - 1e-9)
            assert np.all(mine.x <= problem.upper + 1e-9)


class TestStatuses:
    def test_infeasible(self):
        problem = LpProblem(
            c=[1.0],
            lower=[0.0],
            upper=[1.0],
            a=[[1.0]],
            rhs=[5.0],
        )
        assert solve_bounded_lp(problem).status is LpStatus.INFEASIBLE
        # the dual simplex finds no entering column for the violated row
        assert solve_bounded_lp(problem, start=[BASIC]).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        problem = LpProblem(
            c=[1.0, 1.0],
            lower=[0.0, 0.0],
            upper=[np.inf, np.inf],
            a=[[1.0, -1.0]],
            rhs=[0.0],
        )
        assert solve_bounded_lp(problem).status is LpStatus.UNBOUNDED

    def test_no_rows(self):
        problem = LpProblem(
            c=[2.0, -3.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a=np.zeros((0, 2)), rhs=[]
        )
        sol = solve_bounded_lp(problem)
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], lower=[2.0], upper=[1.0], a=np.zeros((0, 1)), rhs=[])
        # a must have one row per right-hand side and one column per variable
        for a in ([[1.0, 2.0]], [[1.0], [2.0]], [1.0]):
            with pytest.raises(ValueError, match="shape"):
                LpProblem(c=[1.0], lower=[0.0], upper=[1.0], a=a, rhs=[0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["c", "a", "rhs", "lower"])
    def test_nonfinite_data_rejected(self, field, value):
        data = dict(c=[1.0], lower=[0.0], upper=[1.0], a=[[1.0]], rhs=[0.5])
        data[field] = [[value]] if field == "a" else [value]
        with pytest.raises(ValueError, match="finite"):
            LpProblem(**data)

    def test_upper_bound_may_be_inf_but_not_nan(self):
        LpProblem(c=[-1.0], lower=[0.0], upper=[np.inf], a=[[1.0]], rhs=[0.5])
        with pytest.raises(ValueError, match="lower <= upper"):
            LpProblem(c=[1.0], lower=[0.0], upper=[np.nan], a=[[1.0]], rhs=[0.5])


class TestDuals:
    def test_reduced_cost_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            problem = random_problem(rng, int(rng.integers(3, 10)), 2)
            sol = solve_bounded_lp(problem)
            np.testing.assert_allclose(
                sol.reduced_costs, problem.c - sol.y @ problem.a, atol=1e-9
            )

    def test_strong_duality(self):
        # max c'x = y'b + d+ 'u + d- 'l with the bound multipliers read
        # off the signs of the reduced costs
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            problem = random_problem(rng, n, int(rng.integers(1, n + 1)))
            problem.upper[~np.isfinite(problem.upper)] = 10.0
            sol = solve_bounded_lp(problem)
            d = sol.reduced_costs
            dual_obj = (
                sol.y @ problem.rhs
                + np.maximum(d, 0) @ problem.upper
                + np.minimum(d, 0) @ problem.lower
            )
            assert dual_obj == pytest.approx(sol.objective, rel=1e-8, abs=1e-8)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 8, 4)
        a = solve_bounded_lp(problem)
        b = solve_bounded_lp(problem)
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
