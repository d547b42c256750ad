import itertools
import math

import numpy as np
import pytest

from _instances import (
    assert_lp_certificate,
    criterion_4_draws,
    fast_params,
    level_start,
    mixed_sign_prices,
    random_params,
    slow_params,
)
from storesched import (
    LpProblem,
    LpStatus,
    Recommendation,
    advise,
    lp,
    partition,
    simplex,
    solve_bounded_lp,
    solve_storage_lp,
    solve_storage_milp,
)
from storesched.simplex import AT_LOWER, AT_UPPER, BASIC, SimplexFailure
from storesched.storage import require_compatible

scipy_opt = pytest.importorskip("scipy.optimize")


def random_problem(rng, n, m, integer=False, infeasible=False):
    """A random boxed LP, feasible unless infeasible is set (then it mostly
    is not).  Integer data give ties in the ratio tests, fixed variables and
    degenerate vertices."""
    if integer:
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        x_feas = rng.integers(-1, 2, n).astype(float)
        lower = x_feas - rng.integers(0, 2, n)
        upper = x_feas + rng.integers(0, 2, n)
    else:
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(-1, 1, n)
        lower = x_feas - rng.uniform(0.1, 2.0, n)
        upper = x_feas + rng.uniform(0.1, 2.0, n)
    rhs = a @ x_feas
    if infeasible:
        rhs += rng.integers(1, 4, m) * rng.choice([-1.0, 1.0], m)
    c = rng.integers(-2, 3, n).astype(float) if integer else rng.normal(size=n)
    return LpProblem(c=c, lower=lower, upper=upper, a=a, rhs=rhs)


def scipy_draws():
    """The 600 random LPs checked against HiGHS."""
    rng = np.random.default_rng(3)
    for k in range(600):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n + 1))
        if k < 120:
            yield random_problem(rng, n, m)
        else:
            # degenerate integer data, infeasible right-hand sides and no rows
            yield random_problem(
                rng,
                n,
                0 if rng.random() < 0.1 else m,
                integer=bool(rng.random() < 0.5),
                infeasible=bool(rng.random() < 0.3),
            )


class TestAgainstScipy:
    def test_random_problems(self):
        highs_status = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 2}
        flipped = 0
        for problem in scipy_draws():
            mine = solve_bounded_lp(problem)
            flipped += mine.flips > 0
            a = problem.a
            ref = scipy_opt.linprog(
                -problem.c,
                A_eq=a if problem.m else None,
                b_eq=problem.rhs if problem.m else None,
                bounds=list(zip(problem.lower, problem.upper)),
                method="highs",
            )
            assert ref.status == highs_status[mine.status]
            if mine.status is not LpStatus.OPTIMAL:
                continue
            assert mine.objective == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
            assert_lp_certificate(problem, mine)
        # so the comparison covers the bound-flipping ratio test (345 draws flip)
        assert flipped >= 300


class TestUpdates:
    def test_updates_match_a_recompute(self, monkeypatch):
        # a recompute after every pivot takes x, y and d from the factor
        # each time instead of updating them
        problems = list(scipy_draws())
        updated = [solve_bounded_lp(p) for p in problems]
        monkeypatch.setattr(simplex, "RECOMPUTE_EVERY", 1)
        other_pivots = 0
        for problem, sol in zip(problems, updated):
            fresh = solve_bounded_lp(problem)
            assert fresh.status is sol.status
            if sol.status is LpStatus.OPTIMAL:
                assert fresh.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
            other_pivots += fresh.iterations != sol.iterations
        # the updated reduced costs steer the ratio test as recomputed ones
        # do, so the pivots differ only where rounding breaks a near tie
        # (on 1 draw; 90 when d is not updated at all)
        assert other_pivots <= 6


class TestBoundFlips:
    def test_one_row_flips_past_breakpoints(self):
        # x0 is basic at 3.5, above its upper bound 1, so the row must move
        # 2.5 onto x1..x4, each boxed in [0, 1] at rising cost.  Up to the
        # ratios 1, 2 and 3 the flips repair 1, 2 and 3 of the 2.5: x1 and
        # x2 flip to their upper bounds and x3 enters, in one pivot
        problem = LpProblem(c=[0.0, -1.0, -2.0, -3.0, -4.0], lower=np.zeros(5),
                            upper=np.ones(5), a=[[1.0, 1.0, 1.0, 1.0, 1.0]], rhs=[3.5])
        sol = solve_bounded_lp(problem, start=[BASIC, AT_LOWER, AT_LOWER, AT_LOWER, AT_LOWER])
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == -4.5
        np.testing.assert_array_equal(sol.x, [1.0, 1.0, 1.0, 0.5, 0.0])
        np.testing.assert_array_equal(sol.basis, [AT_UPPER, AT_UPPER, AT_UPPER, BASIC, AT_LOWER])
        assert sol.iterations == 1
        assert sol.flips == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_slow_storage_week_in_few_pivots(self, seed, monkeypatch):
        # the LP that the advisor clears: slow storage against an hourly
        # week of mixed prices (13-20 pivots; 117-188 when the ratio test
        # passed one breakpoint a pivot)
        rng = np.random.default_rng(seed)
        prices = mixed_sign_prices(rng, 168)
        part = partition(prices)
        params = slow_params(rng, part.n_bar)
        assert advise(params, part).recommendation is Recommendation.SOLVE_LP
        solutions = []

        def recorded(*args, **kwargs):
            solutions.append(solve_bounded_lp(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(lp, "solve_bounded_lp", recorded)
        problem = lp.build_lp(params, prices)
        sol = lp.solve_lp(problem)
        assert_lp_certificate(problem, sol)
        units = require_compatible(params, prices)
        assert math.ldexp(sol.objective, units.e + units.p) == pytest.approx(
            solve_storage_lp(params, prices).objective, rel=1e-9)
        assert len(solutions) == 1 and solutions[0].iterations <= 40


def inf_norm(matrix):
    return np.abs(matrix).sum(axis=1).max(initial=0.0)


def factor_bases(case, monkeypatch):
    """(a, basis) pairs to factorize: one built for the case, or every basis
    that a solve refactors."""
    rng = np.random.default_rng(5)
    if case == "no_singletons":
        return [(rng.normal(size=(6, 10)), rng.permutation(10)[:6])]
    if case == "all_artificial":  # a 0 x 0 kernel
        return [(np.hstack([rng.normal(size=(4, 7)), np.eye(4)]), np.arange(7, 11))]
    if case == "no_rows":
        return [(np.zeros((0, 3)), np.zeros(0, dtype=int))]
    seen = []
    real = simplex._Factor.refactor

    def recorded(f):
        seen.append((f.a, f.basis.copy()))
        real(f)

    monkeypatch.setattr(simplex._Factor, "refactor", recorded)
    if case == "criterion_4":
        for draw in criterion_4_draws(5):
            for refined in (False, True):
                solve_storage_milp(*draw, refined=refined)
    else:  # hourly fast-storage weeks and fortnights, which close at the root node
        for seed, T in {"fast_T168_root": [(168, 168)], "fast_T336_roots": [(0, 336), (1, 336)]}[case]:
            rng = np.random.default_rng(seed)
            params = fast_params(rng)
            prices = mixed_sign_prices(rng, T)
            solve_storage_milp(params, prices, partition(prices), refined=True)
    monkeypatch.undo()
    return seen


class TestFactor:
    @pytest.mark.parametrize(
        "case",
        ["no_singletons", "all_artificial", "no_rows", "criterion_4", "fast_T168_root",
         "fast_T336_roots"],
    )
    def test_block_inverse(self, case, monkeypatch):
        bases = factor_bases(case, monkeypatch)
        assert bases
        for a, basis in bases:
            f = simplex._Factor(a, basis)
            singles = f.singleton_row[basis] >= 0
            if case == "no_singletons":
                assert not singles.any()
            if case == "all_artificial":
                assert singles.all()
            matrix = a[:, basis]
            eye = np.eye(len(basis))
            reference = np.linalg.inv(matrix)
            assert inf_norm(f.inv @ matrix - eye) <= 1e-12
            assert inf_norm(reference @ matrix - eye) <= 1e-12
            assert inf_norm(f.inv - reference) <= 1e-12 * max(1.0, inf_norm(reference))

    def test_fast_week_root_needs_no_lapack(self, monkeypatch):
        # the fast week's start basis, its only factorization, is a permuted
        # triangle: three singleton levels take every column (168, then 72 of
        # the 144 left, then the last 72), so no bump is left for LAPACK
        (a, basis), = factor_bases("fast_T168_root", monkeypatch)
        chains = factor_bases("criterion_4", monkeypatch)
        calls = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda matrix: calls.append(matrix) or real_inv(matrix))
        f = simplex._Factor(a, basis)
        assert calls == []
        assert inf_norm(f.inv @ a[:, basis] - np.eye(len(basis))) <= 1e-12
        # a criterion-4 basis peels one level and leaves a chain for LAPACK
        for a, basis in chains:
            simplex._Factor(a, basis)
        assert len(calls) == len(chains)

    @pytest.mark.parametrize("case", ["criterion_4", "fast_T168_root"])
    def test_products_through_nonzeros(self, case, monkeypatch):
        # the pivot row and the entering column skip only products with an
        # exact zero, so they match the dense products up to summation order
        for a, basis in factor_bases(case, monkeypatch):
            f = simplex._Factor(a, basis)
            scale = np.abs(f.inv) @ np.abs(a)  # what the rounding error scales with
            rows = np.array([f.row(r) for r in range(len(basis))])
            assert np.all(np.abs(rows - f.inv @ a) <= 1e-14 * scale)
            columns = np.array([f.column(q) for q in range(a.shape[1])]).T
            assert np.all(np.abs(columns - f.inv @ a) <= 1e-14 * scale)

    def test_refactors_at_the_fast_T168_root(self, monkeypatch):
        # the hourly fast-storage week closes at its root: one solve over
        # several rounds, each on an aged factor whose residuals pass, so
        # the start basis is the only factorization.  The root starts from
        # the charge-duration basis and takes 27 pivots, so shorter rounds
        # keep more than four of them on the one factor
        monkeypatch.setattr(simplex, "RECOMPUTE_EVERY", 5)
        solutions = []
        real_solve = lp.solve_bounded_lp

        def solve(*args, **kwargs):
            solutions.append(real_solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(lp, "solve_bounded_lp", solve)
        rng = np.random.default_rng(168)
        params = fast_params(rng)
        prices = mixed_sign_prices(rng, 168)
        _, stats = solve_storage_milp(params, prices, partition(prices), refined=True)
        assert stats.nodes == 1 and len(solutions) == 1
        assert solutions[0].iterations > 4 * simplex.RECOMPUTE_EVERY  # 27
        assert solutions[0].factorizations == 1


class TestTightUpdate:
    def test_a_cancelled_entry_is_stored_as_zero(self):
        # column 2 replaces column 1: the new basis [[0.6, 0.1], [0.6, 0]]
        # has inverse [[0, 1/0.6], [10, -10]], and the update computes its
        # zero as 1/0.6 - (0.1/0.6) * 10, which rounds to -2.2e-16
        a = np.array([[0.6, 0.0, 0.1], [0.6, 0.2, 0.0]])
        f = simplex._Factor(a, [0, 1])
        w = f.column(2)
        assert f.inv[0, 0] - w[0] * (f.inv[1, 0] / w[1]) != 0.0
        f.pivot(1, 2, w)
        assert f.inv[0, 0] == 0.0
        np.testing.assert_allclose(f.inv, [[0.0, 1 / 0.6], [10.0, -10.0]], rtol=1e-15)
        # an entry of 1e-10 is no residue: it survives the update
        f = simplex._Factor(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1e-10]]), [0, 1])
        f.pivot(0, 2, f.column(2))
        np.testing.assert_array_equal(f.inv, [[1.0, 0.0], [-1e-10, 1.0]])


class TestHourlyMonth:
    @pytest.mark.parametrize("generator, legs", [(random_params, False), (fast_params, True)])
    def test_one_factorization(self, generator, legs):
        # an hourly month (T = 720) solves on the start basis's factor alone,
        # and the updated inverse ends as sparse as a fresh one
        rng = np.random.default_rng(0)
        params = generator(rng)
        prices = mixed_sign_prices(rng, 720)
        problem = lp.build_lp(params, prices, partition(prices).t_neg if legs else ())
        sol = solve_bounded_lp(problem, start=level_start(problem, len(prices)))
        ref = scipy_opt.linprog(-problem.c, A_eq=problem.a, b_eq=problem.rhs,
                                bounds=list(zip(problem.lower, problem.upper)), method="highs")
        assert sol.objective == pytest.approx(-ref.fun, rel=1e-9)
        assert sol.factorizations == 1
        fresh = simplex._Factor(problem.a, sol.factor.basis)
        assert np.abs(sol.factor.inv - fresh.inv).max() <= 1e-12
        assert np.count_nonzero(sol.factor.inv) <= np.count_nonzero(fresh.inv)


class TestCheckedFinish:
    def test_a_corrupted_factor_is_refactored(self, monkeypatch):
        # scaling the inverse after the last pivot breaks the residuals of
        # the round on the aged factor: the solve refactors and answers as
        # the uncorrupted solve does.  The first 120 HiGHS draws have
        # continuous data, so no reduced cost sits near zero at the optimum
        real_pivot = simplex._Factor.pivot
        checked = 0
        for problem in itertools.islice(scipy_draws(), 120):
            sol = solve_bounded_lp(problem)
            if sol.status is not LpStatus.OPTIMAL or sol.iterations == 0:
                continue
            pivots = []

            def pivot(f, r, q, w):
                real_pivot(f, r, q, w)
                pivots.append(q)
                if len(pivots) == sol.iterations:  # the last pivot
                    f.inv *= 1.0 + 1e-6

            monkeypatch.setattr(simplex._Factor, "pivot", pivot)
            corrupted = solve_bounded_lp(problem)
            monkeypatch.setattr(simplex._Factor, "pivot", real_pivot)
            assert corrupted.factorizations == sol.factorizations + 1
            assert corrupted.iterations == sol.iterations
            assert corrupted.objective == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(corrupted.basis, sol.basis)
            checked += 1
        assert checked >= 100  # all 120


class TestSingularStart:
    # columns 0 and 1 are singletons on row 0, column 2 is zero, columns 3
    # and 4 are parallel, and column 5 is a singleton on row 1
    A = np.array([[1.0, 2.0, 0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0, 2.0, 1.0]])
    # singular only below level 1: columns 0 and 1 are singletons on rows 0
    # and 1; once those rows are peeled, columns 2 and 3 are singletons on row
    # 2, column 4 is empty and column 5 is a singleton on row 3
    B = np.array([[1.0, 0.0, 1.0, 2.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0, 1.0],
                  [0.0, 0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    STARTS = {"singletons_share_a_row": (A, [0, 1]), "zero_column": (A, [2, 5]),
              "singular_kernel": (A, [3, 4]),
              "second_level_shares_a_row": (B, [0, 1, 2, 3]),
              "empty_below_level_1": (B, [0, 1, 4, 5])}
    # per matrix, a feasible and an infeasible right-hand side
    RHS = {2: [[2.0, 1.5], [10.0, 1.0]], 4: [[2.5, 1.5, 1.0, 0.5], [2.5, 1.5, 1.0, 3.0]]}

    @pytest.mark.parametrize("name", STARTS)
    def test_factor_rejects_the_basis(self, name):
        # a shared row is caught by the peel, before LAPACK sees a bump; an
        # empty column is left in the bump, and LAPACK finds it singular
        message = "share a row" if "share" in name else "singular basis"
        a, basis = self.STARTS[name]
        with pytest.raises(SimplexFailure, match=message):
            simplex._Factor(a, basis)

    @pytest.mark.parametrize("rhs", [0, 1], ids=["rhs0", "rhs1"])  # the second is infeasible
    @pytest.mark.parametrize("name", STARTS)
    def test_solve_falls_back_to_artificial_basis(self, name, rhs, monkeypatch):
        a, basis = self.STARTS[name]
        rhs = self.RHS[len(a)][rhs]
        built = []  # column count of each factor's matrix

        class Recorded(simplex._Factor):
            def __init__(self, a, basis):
                built.append(a.shape[1])
                super().__init__(a, basis)

        monkeypatch.setattr(simplex, "_Factor", Recorded)
        problem = LpProblem(c=[1.0, -1.0, 0.5, 2.0, -0.5, 1.0], lower=np.zeros(6),
                            upper=np.ones(6), a=a, rhs=rhs)
        start = np.full(6, AT_LOWER)
        start[basis] = BASIC
        sol = solve_bounded_lp(problem, start=start)
        assert built == [6, 6 + len(a)]  # the start basis, then one artificial column per row
        ref = scipy_opt.linprog(-problem.c, A_eq=a, b_eq=problem.rhs,
                                bounds=list(zip(problem.lower, problem.upper)), method="highs")
        assert ref.status == {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 2}[sol.status]
        if sol.status is LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)


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

    def test_fixed_column_stays_put(self):
        # column 2 is fixed with a reduced cost of 1: no bound it could move
        # to changes the point, so it stays at lower and costs no iteration
        problem = LpProblem(c=[1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, 0.0], a=[[1.0, 0.0]],
                            rhs=[0.5])
        sol = solve_bounded_lp(problem)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == 0.5
        assert sol.iterations == 1
        assert sol.basis[1] == AT_LOWER

    def test_wrong_sign_after_a_dual_pass_is_placed_again(self, monkeypatch):
        # the first recompute of y and d after a pivot finds a nonbasic
        # variable at the bound its reduced cost does not prefer, as rounding
        # might leave it: the placement rule of that round moves it back
        real_primal, real_dual = simplex._Factor.primal, simplex._Factor.dual
        states, flipped = [], []  # the state each round's primal saw; flipped variables

        def primal(f, b, lower, upper, state):
            states.append(state)
            return real_primal(f, b, lower, upper, state)

        def dual(f, c):
            if f.age > 0 and not flipped:
                state = states[-1]
                j = int(np.flatnonzero(state != BASIC)[0])
                state[j] = AT_UPPER - state[j]
                flipped.append(j)
            return real_dual(f, c)

        problem = LpProblem(c=[1.0, 2.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a=[[1.0, 1.0]],
                            rhs=[1.0])
        expected = solve_bounded_lp(problem)
        monkeypatch.setattr(simplex._Factor, "primal", primal)
        monkeypatch.setattr(simplex._Factor, "dual", dual)
        sol = solve_bounded_lp(problem)
        assert flipped == [1] and len(states) == 2  # a second round ran
        assert sol.objective == expected.objective == 2.0
        np.testing.assert_array_equal(sol.basis, expected.basis)

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(simplex, "ITERS_PER_DIM", 0)
        # needs one pivot: the artificial basis starts at -1 after placement
        problem = LpProblem(c=[1.0, 2.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a=[[1.0, 1.0]],
                            rhs=[1.0])
        with pytest.raises(SimplexFailure, match="iteration limit 0 exceeded"):
            solve_bounded_lp(problem)
        # placement alone solves this one, which takes no pivot
        problem = LpProblem(c=[1.0, 2.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a=[[1.0, 1.0]],
                            rhs=[2.0])
        assert solve_bounded_lp(problem).objective == 3.0

    def test_no_rows(self):
        problem = LpProblem(
            c=[2.0, -3.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a=np.zeros((0, 2)), rhs=[]
        )
        for start in (None, [AT_UPPER, AT_LOWER]):
            sol = solve_bounded_lp(problem, start=start)
            assert sol.status is LpStatus.OPTIMAL
            np.testing.assert_allclose(sol.x, [1.0, 0.0])

    def test_unknown_start_code_rejected(self):
        problem = LpProblem(c=[1.0], lower=[0.0], upper=[1.0], a=[[1.0]], rhs=[0.5])
        with pytest.raises(ValueError, match="start codes"):
            solve_bounded_lp(problem, start=[3])
        with pytest.raises(ValueError, match="one basis code per variable"):
            solve_bounded_lp(problem, start=[AT_LOWER, AT_LOWER])

    def test_factor_of_another_basis_rejected(self):
        problem = LpProblem(c=[1.0, 2.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a=[[1.0, 1.0]],
                            rhs=[1.0])
        sol = solve_bounded_lp(problem, start=[AT_LOWER, BASIC])
        assert sol.factor is not None
        other = np.where(sol.basis == BASIC, AT_LOWER, BASIC)
        with pytest.raises(ValueError, match="factor"):
            solve_bounded_lp(problem, start=other, factor=sol.factor)

    def test_validation(self):
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], lower=[2.0], upper=[1.0], a=np.zeros((0, 1)), rhs=[])
        for lower, upper in (([0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0])):
            with pytest.raises(ValueError, match="bound vectors"):
                LpProblem(c=[1.0, 1.0], lower=lower, upper=upper, a=np.zeros((0, 2)), rhs=[])
        # a must have one row per right-hand side and one column per variable
        for a in ([[1.0, 2.0]], [[1.0], [2.0]], [1.0]):
            with pytest.raises(ValueError, match="shape"):
                LpProblem(c=[1.0], lower=[0.0], upper=[1.0], a=a, rhs=[0.0])
        # strings, booleans and None are no numbers here, as everywhere in the package
        with pytest.raises(ValueError, match="^c must be real numbers$"):
            LpProblem(c=["1", True], lower=[0, 0], upper=[1, 1], a=[[True, 1]], rhs=["1"])
        for field, value in (("a", [[True, 1]]), ("rhs", ["1"]), ("upper", [1, None])):
            data = dict(c=[1, 2], lower=[0, 0], upper=[1, 1], a=[[1, 1]], rhs=[1])
            data[field] = value
            with pytest.raises(ValueError, match=f"^{field} must be real numbers$"):
                LpProblem(**data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["c", "a", "rhs", "lower", "upper"])
    def test_nonfinite_data_rejected(self, field, value):
        data = dict(c=[1.0], lower=[0.0], upper=[1.0], a=[[1.0]], rhs=[0.5])
        data[field] = [[value]] if field == "a" else [value]
        with pytest.raises(ValueError, match="finite"):
            LpProblem(**data)


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
