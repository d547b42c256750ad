import copy
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _instances import (
    assert_lp_certificate,
    criterion_4_draws,
    fast_params,
    inexact_instance,
    leaky_instance,
    lp_safe_instance,
    mixed_sign_prices,
    random_params,
)
from storesched import (
    DpConfig,
    InfeasibleStorage,
    LpSolution,
    LpStatus,
    PriceSeries,
    Schedule,
    StorageParams,
    build_lp,
    build_milp,
    detect_scd,
    feasibility_check,
    partition,
    solve_dp,
    solve_milp,
    solve_bounded_lp,
    solve_storage_lp,
    solve_storage_milp,
)
from storesched import lp, milp, simplex
from storesched.storage import require_compatible


def unit_storage(**overrides):
    base = dict(
        s_min=0.0, s_max=1.0, s_init=0.0,
        p_chg_max=2.0, p_dis_max=2.0,
        eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0,
    )
    base.update(overrides)
    return StorageParams(**base)


class TestBuild:
    def test_refined_binary_count(self):
        values = np.full(24, 20.0)
        values[5:9] = -1.0
        prices = PriceSeries(values, 1.0)
        problem = build_milp(unit_storage(), prices, True, partition(prices))
        assert problem.num_binaries == 8
        np.testing.assert_array_equal(problem.binary_mask.nonzero()[0] + 1, [6, 7, 8, 9])

    def test_full_binary_count(self):
        prices = PriceSeries(np.full(24, 20.0), 1.0)
        problem = build_milp(unit_storage(), prices, False, partition(prices))
        assert problem.num_binaries == 48

    def test_no_negative_prices_refined_is_plain_lp(self):
        prices = PriceSeries([5.0, 8.0, 3.0], 1.0)
        problem = build_milp(unit_storage(), prices, True, partition(prices))
        assert problem.num_binaries == 0
        report, stats = solve_milp(problem)
        lp = solve_storage_lp(unit_storage(), prices)
        assert stats.nodes == 1
        assert report.objective == pytest.approx(lp.objective, rel=1e-9, abs=1e-12)

    def test_variants_share_one_relaxation(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(1, 30)))
            part = partition(prices)
            full = build_milp(params, prices, False, part).base
            refined = build_milp(params, prices, True, part).base
            for name in ("c", "lower", "upper", "a", "rhs"):
                np.testing.assert_array_equal(getattr(full, name), getattr(refined, name))
            assert full.n - full.m == 2 * len(prices)  # the horizon solve_lp reads

    def test_exact_big_m(self):
        params = unit_storage(p_chg_max=1.7, p_dis_max=2.3)
        prices = PriceSeries([-1.0], 1.0)
        problem = build_milp(params, prices, True, partition(prices))
        # the big-Ms of the links p <= u * p_max are the power limits
        assert problem.params.p_chg_max == 1.7
        assert problem.params.p_dis_max == 2.3


class TestSolve:
    def test_full_equals_refined(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(4, 24)))
            part = partition(prices)
            full, full_stats = solve_storage_milp(params, prices, part, refined=False)
            ref, ref_stats = solve_storage_milp(params, prices, part, refined=True)
            scale = max(1.0, abs(full.objective))
            assert abs(full.objective - ref.objective) <= 1e-9 * scale

    def test_milp_below_lp_and_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(4, 24)))
            part = partition(prices)
            lp = solve_storage_lp(params, prices)
            milp, stats = solve_storage_milp(params, prices, part)
            assert milp.objective <= lp.objective + 1e-9 * max(1.0, abs(lp.objective))
            assert detect_scd(milp.schedule) == []
            assert feasibility_check(params, milp.schedule).feasible
            assert stats.gap == 0.0
            assert milp.duals is None

    def test_exact_instances_close_no_gap(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            params, prices, part, _ = lp_safe_instance(rng)
            lp = solve_storage_lp(params, prices)
            milp, _ = solve_storage_milp(params, prices, part)
            assert milp.objective == pytest.approx(lp.objective, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("params, values", [
        (StorageParams(s_min=0, s_max=4, s_init=0, p_chg_max=4, p_dis_max=3,
                       eta_c=0.5879731590314048, eta_d=1, rho=0.99),
         [1.401298464324817e-45, 0, 3, 3]),
        (StorageParams(s_min=0.1, s_max=1, s_init=1, p_chg_max=2, p_dis_max=1, eta_c=0.5625,
                       eta_d=0.5, rho=0.95),
         [48, 2.2445147436566056e-260, 1e-7]),
    ])
    def test_scd_at_a_tiny_positive_price_is_netted(self, params, values):
        # the simplex may leave SCD at a price whose netting gain lies below its
        # dual tolerance; the refined MILP nets it there and answers
        prices = PriceSeries(values, 1.0)
        part = partition(prices)
        refined, _ = solve_storage_milp(params, prices, part)
        full, _ = solve_storage_milp(params, prices, part, refined=False)
        assert refined.objective == pytest.approx(full.objective, rel=1e-12)
        assert detect_scd(refined.schedule) == []
        assert feasibility_check(params, refined.schedule).feasible

    def test_inexact_instance_strictly_below_lp(self):
        params = unit_storage()
        values = np.full(24, 25.0)
        values[3] = -40.0
        prices = PriceSeries(values, 1.0)
        part = partition(prices)
        lp = solve_storage_lp(params, prices)
        milp, _ = solve_storage_milp(params, prices, part)
        assert lp.scd_events
        assert milp.objective < lp.objective - 1e-6
        # the exclusivity-enforcing grid oracle confirms the MILP value
        dp = solve_dp(params, prices, DpConfig(2001))
        assert dp.objective <= milp.objective + 1e-9
        assert dp.objective == pytest.approx(milp.objective, rel=5e-3)

    def test_inexact_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            params, prices, part = inexact_instance(rng)
            lp = solve_storage_lp(params, prices)
            milp, _ = solve_storage_milp(params, prices, part)
            assert lp.scd_events
            assert lp.objective > milp.objective + 1e-9

    def test_determinism(self, monkeypatch):
        pivots = []

        def counted(*args, **kwargs):
            sol = solve_bounded_lp(*args, **kwargs)
            pivots[-1] += sol.iterations
            return sol

        monkeypatch.setattr(lp, "solve_bounded_lp", counted)
        # an instance whose refined MILP still branches (4 nodes) despite
        # the leg rows, so that there is a tree to walk
        rng = np.random.default_rng(27)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 18)
        part = partition(prices)
        pivots.append(0)
        a, sa = solve_storage_milp(params, prices, part)
        pivots.append(0)
        b, sb = solve_storage_milp(params, prices, part)
        assert a.objective == b.objective
        assert sa.nodes == sb.nodes > 1
        assert pivots[0] == pivots[1] > 0
        np.testing.assert_array_equal(a.schedule.p_chg, b.schedule.p_chg)
        np.testing.assert_array_equal(a.schedule.p_dis, b.schedule.p_dis)
        np.testing.assert_array_equal(a.schedule.soe, b.schedule.soe)

    def test_node_lp_certificates(self, monkeypatch):
        optimal = []

        def certified(problem, start=None, factor=None):
            sol = solve_bounded_lp(problem, start=start, factor=factor)
            if sol.status is LpStatus.OPTIMAL:
                assert_lp_certificate(problem, sol)
                optimal.append(sol)
            return sol

        monkeypatch.setattr(lp, "solve_bounded_lp", certified)
        rng = np.random.default_rng(2026)  # the criterion-4 stream
        for _ in range(8):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(6, 49)))
            part = partition(prices)
            for refined in (False, True):
                solve_storage_milp(params, prices, part, refined=refined)
        assert len(optimal) > 16  # more than one per solve: some draws branch


def node_lps(monkeypatch):
    """The LpSolution of every node LP solved from now on, in order."""
    sols = []

    def recorded(*args, **kwargs):
        sols.append(solve_bounded_lp(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(lp, "solve_bounded_lp", recorded)
    return sols


class TestFactorHandOff:
    def test_taken_over_factor_matches_a_fresh_solve(self, monkeypatch):
        # every node LP after the root takes over the factor the previous
        # node LP ended on; each is solved a second time from its basis codes
        # alone, which factorizes afresh.  At a degenerate vertex the two may
        # end on different bases, so only the answers are compared
        handed = []

        def compared(problem, start=None, factor=None):
            if factor is None:
                return solve_bounded_lp(problem, start=start)
            codes = solve_bounded_lp(problem, start=start)
            sol = solve_bounded_lp(problem, start=start, factor=factor)
            assert sol.status is codes.status
            if sol.status is LpStatus.OPTIMAL:
                assert_lp_certificate(problem, sol)
                assert sol.objective == pytest.approx(codes.objective, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(sol.x, codes.x, rtol=0, atol=1e-12)
            handed.append(sol.status)
            return sol

        monkeypatch.setattr(lp, "solve_bounded_lp", compared)
        nodes = trees = 0
        for params, prices, part in criterion_4_draws(250):
            for refined in (False, True):
                nodes += solve_storage_milp(params, prices, part, refined=refined)[1].nodes
                trees += 1
        assert len(handed) == nodes - trees > 800  # every node LP but each root: 866

    def test_no_report_keeps_a_factor(self, monkeypatch):
        # a node LP is an LpSolution that hands its factor to the next one,
        # so a tree keeps its root's factor; no answer holds simplex state
        sols = []

        def recorded(*args, **kwargs):
            sols.append(lp.solve_lp(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(milp, "solve_lp", recorded)
        trees = 0
        for params, prices, part in criterion_4_draws(8):
            reports = [solve_storage_lp(params, prices)]
            for refined in (False, True):
                sols.clear()
                reports.append(solve_storage_milp(params, prices, part, refined=refined)[0])
                assert sols[0].factor is not None
                assert all(isinstance(s, LpSolution) and s.factor is sols[0].factor for s in sols)
                trees += len(sols) > 1
            for report in reports:
                assert not any(isinstance(v, (LpSolution, simplex._Factor))
                               for v in vars(report).values())
        assert trees > 0

    def test_updates_match_a_recompute(self, monkeypatch):
        # a recompute after every pivot takes x, y and d from the factor
        # each time instead of updating them
        draws = list(criterion_4_draws(100))
        updated = [solve_storage_milp(*draw, refined=refined)[0].objective
                   for draw in draws for refined in (False, True)]
        monkeypatch.setattr(simplex, "RECOMPUTE_EVERY", 1)
        fresh = [solve_storage_milp(*draw, refined=refined)[0].objective
                 for draw in draws for refined in (False, True)]
        np.testing.assert_allclose(fresh, updated, rtol=1e-9, atol=0)


class TestOneFactorPerTree:
    """Each node LP continues from the basis and factor the previous one
    ended on, so a tree without an infeasible node factorizes once, at its
    root."""

    def test_criterion_4_draws(self, monkeypatch):
        sols = node_lps(monkeypatch)
        for params, prices, part in criterion_4_draws(100):
            for refined in (False, True):
                sols.clear()
                solve_storage_milp(params, prices, part, refined=refined)
                assert sum(s.factorizations for s in sols) == 1

    def test_branching_instance(self, monkeypatch):
        # the 4-node instance of TestSolve.test_determinism
        sols = node_lps(monkeypatch)
        rng = np.random.default_rng(27)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 18)
        _, stats = solve_storage_milp(params, prices, partition(prices))
        assert stats.nodes == len(sols) == 4
        assert sum(s.factorizations for s in sols) == 1

    def test_lossy_ten_days(self, monkeypatch):
        # lossy storage (rho = 0.999, s_min = 0.2) over 240 hours: 71 nodes
        sols = node_lps(monkeypatch)
        rng = np.random.default_rng(0)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 240)
        part = partition(prices)
        report, stats = solve_storage_milp(params, prices, part, refined=True)
        assert stats.nodes == len(sols) == 71
        assert sum(s.factorizations for s in sols) == 1
        assert report.objective == pytest.approx(5513.500216505903, rel=1e-9)
        ref = highs_objective(params, prices, part.t_neg)
        assert report.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_infeasible_node_hands_over(self, monkeypatch):
        # a child LP that takes over its parent's factor and is infeasible
        # (forbidding charge at t=1 leaves rho*s_init < s_min) is declared so
        # from a fresh factor, which its sibling's LP then takes over as it is
        params = StorageParams(s_min=0.2, s_max=1.0, s_init=0.201, p_chg_max=1.4,
                               p_dis_max=0.45, eta_c=0.9, eta_d=0.9, rho=0.9, dt=1.0)
        prices = PriceSeries([-20.0, 33.0, -64.0], 1.0)
        base = build_milp(params, prices, True, partition(prices)).base
        sols = node_lps(monkeypatch)
        parent = lp.solve_lp(base)
        factor = parent.factor
        chg_off, dis_off = copy.copy(base), copy.copy(base)
        chg_off.upper, dis_off.upper = base.upper.copy(), base.upper.copy()
        chg_off.upper[0] = dis_off.upper[3] = 0.0
        child = lp.solve_lp(chg_off, parent)
        assert child.status is LpStatus.INFEASIBLE
        assert child.factor is factor
        assert child.factor.age == 0
        assert sols[-1].factorizations >= 1
        sibling = lp.solve_lp(dis_off, child)
        assert sibling.status is LpStatus.OPTIMAL and sols[-1].factorizations == 0
        assert sibling.objective == pytest.approx(lp.solve_lp(dis_off).objective, rel=1e-12)


class TestSearchOrder:
    """The search branches at the SCD event that earns the LP the most and
    first solves the child that keeps the mode the LP nets there."""

    def test_branches_where_scd_earns_most(self):
        prices = PriceSeries([-1.0, -10.0, -10.0], 1.0)
        problem = build_milp(unit_storage(), prices, True, partition(prices))
        x = np.zeros(problem.base.n)
        x[:3] = 1.0, 0.2, 0.2  # p_chg
        x[3:6] = 1.0, 0.5, 0.5  # p_dis
        # t=1: charge binary 0.5, the most fractional; t=2: |C_t|*b_t =
        # 10 * 0.18, the most; t=3: a tie, and the earlier t wins
        sol = LpSolution(LpStatus.OPTIMAL, x=x)
        assert milp._branch_period(problem, sol) == 1

    def test_branch_period_matches_the_event_loop(self, monkeypatch):
        # the masked argmax picks what a loop over the SCD events of the node
        # LP's binary periods picks: the largest |C_t|*b_t, earliest on ties
        def reference(problem, sol):
            T, mask = len(problem.prices), problem.binary_mask
            sch = Schedule(sol.x[:T] * mask, sol.x[T : 2 * T] * mask, sol.x[2 * T : 3 * T])
            eta_c, eta_d = problem.params.eta_c, problem.params.eta_d
            events = [ev for ev in detect_scd(sch) if problem.binary_mask[ev.t - 1]]
            if not events:
                return None
            return min(events, key=lambda ev: (-abs(problem.prices.prices[ev.t - 1])
                                               * min(eta_c * ev.p_chg_t, ev.p_dis_t / eta_d),
                                               ev.t)).t - 1

        picks = []

        def compared(problem, sol):
            k = real(problem, sol)
            assert k == reference(problem, sol)
            picks.append(k)
            return k

        real = milp._branch_period
        monkeypatch.setattr(milp, "_branch_period", compared)
        for params, prices, part in criterion_4_draws(100):
            for refined in (False, True):
                solve_storage_milp(params, prices, part, refined=refined)
        assert sum(k is not None for k in picks) > 200

    def test_first_child_keeps_the_netted_mode(self, monkeypatch):
        nodes = []

        def recorded(node, warm=None):
            sol = lp.solve_lp(node, warm)
            nodes.append((node.upper.copy(), sol))
            return sol

        monkeypatch.setattr(milp, "solve_lp", recorded)
        branched = 0
        for params, prices, part in criterion_4_draws(100):
            T = len(prices)
            for refined in (False, True):
                nodes.clear()
                solve_storage_milp(params, prices, part, refined=refined)
                for (upper, sol), (child, _) in zip(nodes, nodes[1:]):
                    cut = np.flatnonzero(child != upper)
                    if len(cut) != 1 or child[cut[0]] != 0.0:
                        continue  # the next node LP is not a child of this one
                    branched += 1
                    t = cut[0] % T
                    net = params.eta_c * sol.x[t] - sol.x[T + t] / params.eta_d
                    assert cut[0] == (T + t if net > 0 else t)
        assert branched > 200  # 282

    def test_criterion_4_node_count(self):
        nodes = sum(solve_storage_milp(*draw, refined=refined)[1].nodes
                    for draw in criterion_4_draws(100) for refined in (False, True))
        # 520; 764 without the one-step child bounds, 1,100 when ranked by
        # fractionality, charge-off first
        assert nodes <= 600

    def test_lossy_two_weeks(self):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 336)
        part = partition(prices)
        report, stats = solve_storage_milp(params, prices, part, refined=True)
        assert report.objective == pytest.approx(7869.520149909437, rel=1e-9)
        ref = highs_objective(params, prices, part.t_neg)
        assert report.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)
        # 105; 177 without the one-step child bounds, 931 when ranked by
        # fractionality, charge-off first
        assert stats.nodes <= 130


class TestChildBound:
    """Each child carries a bound from one dual step on its parent's final
    factor, and a child whose bound cannot beat the incumbent is dropped
    without an LP."""

    def test_bounds_hold(self, monkeypatch):
        # every child bound the search computes is at least the optimum of
        # that child's LP, solved from scratch, unless that LP is infeasible
        children = []

        def recorded(problem, sol, j):
            bound = simplex.child_bound(problem, sol, j)
            child = copy.copy(problem)
            child.upper = problem.upper.copy()
            child.upper[j] = 0.0
            children.append((child, bound, bound < sol.objective))
            return bound

        monkeypatch.setattr(milp, "child_bound", recorded)
        rng = np.random.default_rng(5)
        draws = list(criterion_4_draws(100)) + [leaky_instance(rng) for _ in range(200)]
        for params, prices, part in draws:
            for refined in (False, True):
                try:
                    solve_storage_milp(params, prices, part, refined=refined)
                except InfeasibleStorage:
                    pass
        infeasible = 0
        for child, bound, _ in children:
            report = lp.solve_lp(child)
            if report.status is LpStatus.INFEASIBLE:
                infeasible += 1
            else:
                assert report.objective <= bound + 1e-9 * max(1.0, abs(bound))
        # 748 bounds, each below its parent's optimum; 2 children infeasible
        assert sum(cut for *_, cut in children) > 700
        assert infeasible > 0


class TestInfeasibleStorage:
    def test_leakage_beyond_charge_limit(self):
        # at s_min = 0.5 the level leaks 0.25 per period, and a full charge
        # adds only 0.09: no schedule stays within the limits
        params = unit_storage(s_min=0.5, s_init=0.5, p_chg_max=0.1, rho=0.5)
        prices = PriceSeries([35.0, -5.0, 40.0], 1.0)
        part = partition(prices)
        with pytest.raises(InfeasibleStorage):
            solve_storage_lp(params, prices)
        for refined in (False, True):
            with pytest.raises(InfeasibleStorage):
                solve_storage_milp(params, prices, part, refined=refined)

    def test_empty_tree_is_an_invariant_breach(self):
        # build_milp admits only a storage that some schedule fits, so a
        # tree that ends with no incumbent is the solver's fault (exit 3)
        params = unit_storage(s_min=0.5, s_init=0.5, p_chg_max=0.6, rho=0.5)
        prices = PriceSeries([35.0, -5.0, 40.0], 1.0)
        problem = build_milp(params, prices, True, partition(prices))
        problem.base.upper[:3] = 0.0  # no charge: the level leaks below s_min
        with pytest.raises(simplex.SimplexFailure, match="found no schedule"):
            solve_milp(problem)


class TestOverflow:
    def test_infinite_objective_refused(self):
        # storage of 1e300 MWh and MW at +-1e10 EUR/MWh earns more than a
        # double holds: both entry points refuse the objective by name
        params = unit_storage(s_max=1e300, s_init=1e300, p_chg_max=1e300, p_dis_max=1e300)
        prices = PriceSeries([1e10, -1e10, 1e10], 1.0)
        with pytest.raises(ValueError, match="^lp objective is inf, beyond double precision$"):
            solve_storage_lp(params, prices)
        for refined, name in ((False, "milp"), (True, "refined")):
            with pytest.raises(ValueError, match=f"^{name} objective is inf, beyond double"):
                solve_storage_milp(params, prices, partition(prices), refined=refined)


class TestNodeCounts:
    def test_refined_no_more_nodes_in_aggregate(self):
        rng = np.random.default_rng(15)
        full_total = ref_total = 0
        for _ in range(20):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(4, 20)))
            part = partition(prices)
            _, full_stats = solve_storage_milp(params, prices, part, refined=False)
            _, ref_stats = solve_storage_milp(params, prices, part, refined=True)
            full_total += full_stats.nodes
            ref_total += ref_stats.nodes
        assert ref_total <= full_total


def random_exclusive_schedule(rng, params, T):
    """A feasible schedule that never charges and discharges in one period:
    each period idles, charges or discharges by a random feasible amount."""
    dt, rho = params.dt, params.rho
    p_chg, p_dis, soe = np.zeros(T), np.zeros(T), np.zeros(T)
    s = params.s_init
    for k in range(T):
        lo = max(0.0, (params.s_min - rho * s) / (dt * params.eta_c))
        hi = min(params.p_chg_max, (params.s_max - rho * s) / (dt * params.eta_c))
        mode = int(rng.integers(3)) if lo == 0.0 else 1
        if mode == 1:
            p_chg[k] = rng.uniform(lo, hi)
        elif mode == 2:
            p_dis[k] = rng.uniform(0.0, min(params.p_dis_max,
                                            (rho * s - params.s_min) * params.eta_d / dt))
        s = rho * s + dt * (params.eta_c * p_chg[k] - p_dis[k] / params.eta_d)
        soe[k] = min(max(s, params.s_min), params.s_max)  # clip rounding
        s = soe[k]
    return p_chg, p_dis, soe


class TestLegRows:
    def test_exclusive_schedules_satisfy_leg_rows(self):
        rng = np.random.default_rng(16)
        lossy = 0
        for _ in range(40):
            params = random_params(rng)
            lossy += params.rho < 1.0 and params.s_min > 0.0
            T = int(rng.integers(4, 30))
            prices = mixed_sign_prices(rng, T)
            part = partition(prices)
            problem = build_milp(params, prices, False, part)
            legs = np.asarray(part.t_neg, dtype=int) - 1
            for _ in range(10):
                p_chg, p_dis, soe = random_exclusive_schedule(rng, params, T)
                assert feasibility_check(params, Schedule(p_chg, p_dis, soe)).feasible
                prev = np.concatenate([[params.s_init], soe[:-1]])
                m_chg = params.rho * prev + params.dt * params.eta_c * p_chg
                m_dis = params.rho * prev - params.dt * p_dis / params.eta_d
                x = np.ldexp(np.concatenate([p_chg, p_dis, soe, m_chg[legs], m_dis[legs]]),
                             -require_compatible(params, prices).e)
                base = problem.base
                np.testing.assert_allclose(base.a @ x, base.rhs, rtol=0, atol=1e-12)
                assert np.all(x >= base.lower - 1e-12)
                assert np.all(x <= base.upper + 1e-12)
        assert lossy > 0  # rho < 1 together with s_min > 0 was drawn

    def test_leg_bounds(self):
        params = unit_storage(s_min=0.2, s_max=1.5, s_init=0.5, rho=0.99)
        prices = PriceSeries([10.0, -3.0, 4.0, -1.0], 1.0)
        base = build_milp(params, prices, True, partition(prices)).base
        assert (base.m, base.n) == (4 + 4, 12 + 4)
        e = require_compatible(params, prices).e
        np.testing.assert_allclose(np.ldexp(base.lower[12:], e), 0.99 * 0.2)
        np.testing.assert_allclose(np.ldexp(base.upper[12:], e), [1.5, 1.5, 0.99 * 1.5, 0.99 * 1.5])


def highs_objective(params, prices, periods):
    """MILP optimum from HiGHS with explicit binaries u_c, u_d at the given
    periods: u_c + u_d <= 1, p_chg <= u_c * P_c, p_dis <= u_d * P_d, with the
    powers P_c, P_d that build_lp bounds them by (the reaches' powers)."""
    opt = pytest.importorskip("scipy.optimize")
    lp_part = build_lp(params, prices)
    units = require_compatible(params, prices)
    e, p = units.e, units.p  # HiGHS gets the LP in MW, MWh and EUR
    c, lower, upper, rhs = np.ldexp(lp_part.c, p), *(np.ldexp(v, e) for v in (
        lp_part.lower, lp_part.upper, lp_part.rhs))
    T, K = len(prices), len(periods)
    t = np.asarray(periods, dtype=int) - 1
    k = np.arange(K)
    n = 3 * T + 2 * K
    excl = np.zeros((3 * K, n))
    excl[k, 3 * T + k] = excl[k, 3 * T + K + k] = 1.0
    excl[K + k, t] = 1.0
    excl[K + k, 3 * T + k] = -upper[t]
    excl[2 * K + k, T + t] = 1.0
    excl[2 * K + k, 3 * T + K + k] = -upper[T + t]
    rows = np.hstack([lp_part.a, np.zeros((T, 2 * K))])
    res = opt.milp(
        -np.concatenate([c, np.zeros(2 * K)]),
        constraints=[
            opt.LinearConstraint(rows, rhs, rhs),
            opt.LinearConstraint(excl, -np.inf, np.concatenate([np.ones(K), np.zeros(2 * K)])),
        ],
        integrality=np.concatenate([np.zeros(3 * T), np.ones(2 * K)]),
        bounds=opt.Bounds(
            np.concatenate([lower, np.zeros(2 * K)]),
            np.concatenate([upper, np.ones(2 * K)]),
        ),
        options={"mip_rel_gap": 0.0},
    )
    assert res.success, res.message
    return -res.fun


class TestHighsCrossCheck:
    """An exact check that shares no code with the package's branching."""

    def test_criterion_4_draws(self):
        rng = np.random.default_rng(2026)  # the criterion-4 stream
        for _ in range(30):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(6, 49)))
            part = partition(prices)
            ref = highs_objective(params, prices, part.t_neg)
            for refined in (False, True):
                report, _ = solve_storage_milp(params, prices, part, refined=refined)
                assert report.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_infeasible_child_is_pruned(self):
        # forbidding charge at t=1 leaves rho*s_init < s_min: that child has
        # no schedule, and its one-step bound prunes it before any LP; the
        # other child has one
        params = StorageParams(s_min=0.2, s_max=1.0, s_init=0.201, p_chg_max=1.4,
                               p_dis_max=0.45, eta_c=0.9, eta_d=0.9, rho=0.9, dt=1.0)
        prices = PriceSeries([-20.0, 33.0, -64.0], 1.0)
        part = partition(prices)
        ref = highs_objective(params, prices, part.t_neg)
        assert ref == pytest.approx(86.42506172839505, rel=1e-12)
        for refined in (False, True):
            report, stats = solve_storage_milp(params, prices, part, refined=refined)
            assert report.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)
            assert stats.nodes > 1
            assert feasibility_check(params, report.schedule).feasible

    @pytest.mark.parametrize("T", [24, 48, 96, 168, 336])
    def test_fast_storage_horizons(self, T):
        rng = np.random.default_rng(T)
        params = fast_params(rng)
        prices = mixed_sign_prices(rng, T)
        part = partition(prices)
        report, stats = solve_storage_milp(params, prices, part, refined=True)
        ref = highs_objective(params, prices, part.t_neg)
        assert report.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert stats.root_bound >= report.objective - 1e-9 * abs(report.objective)
        if T == 168:
            assert stats.nodes == 1


# Outreaching storages: a 1e-4 to 1e-2 MWh level range, a charge power
# of 1e2 to 1e3 MW that dwarfs it, a discharge power of 1e-3 to 1e-2 MW, and
# prices of both signs from 1e-3 to 1e3 in magnitude
REACH_PRICES = [1000.0, -1000.0, 35.0, -35.0, 0.001, -0.001, 0.0]


def outreaching_draw(rng):
    """One outreaching storage and 20 prices, drawn in a fixed order."""
    s_max = 10 ** rng.uniform(-4, -2)
    s_min = s_max * rng.uniform(0, 0.5)
    s_init = rng.uniform(s_min, s_max)
    p_chg_max, p_dis_max = 10 ** rng.uniform(2, 3), 10 ** rng.uniform(-3, -2)
    eta_c, eta_d = rng.choice([1.0, 0.9]), rng.choice([1.0, 0.95])
    rho, dt = rng.choice([1.0, 0.999, 0.9]), rng.choice([0.25, 1.0])
    params = StorageParams(s_min=s_min, s_max=s_max, s_init=s_init, p_chg_max=p_chg_max,
                           p_dis_max=p_dis_max, eta_c=eta_c, eta_d=eta_d, rho=rho, dt=dt)
    return params, PriceSeries(rng.choice(REACH_PRICES, 20), float(dt))


def assert_outreaching_answers(params, prices, level_tol):
    """Both MILPs on one storage whose power outreaches its level range:
    refined equals full and is at most the LP, within 1e-9 of the LP
    objective or, where that is near 0, of max|C_t| * energy_scale; every
    schedule is feasible and within level_tol of [s_min, s_max]; and a tree
    over K binary periods takes at most 2^(K+1) - 1 node LPs.  Returns the
    refined answer."""
    part = partition(prices)
    lp_objective = solve_storage_lp(params, prices).objective
    tol = 1e-9 * max(abs(lp_objective), np.abs(prices.prices).max() * params.energy_scale)
    answers = {}
    for refined, k in ((True, len(part.t_neg)), (False, len(prices))):
        report, stats = solve_storage_milp(params, prices, part, refined=refined)
        assert stats.nodes <= 2 ** (k + 1) - 1
        assert report.objective <= lp_objective + tol
        assert feasibility_check(params, report.schedule).feasible
        soe = report.schedule.soe
        assert soe.min() >= params.s_min - level_tol
        assert soe.max() <= params.s_max + level_tol
        answers[refined] = report
    assert answers[True].objective == pytest.approx(answers[False].objective, abs=tol)
    return answers[True]


def highs_in_unit_range(params, prices, periods):
    """highs_objective on the same storage in the energy unit that makes
    s_max = 1.  HiGHS's tolerances are absolute: in MWh, on the 300 draws of
    test_seeded_batch_against_highs its optimum fell short of the exact one
    (each negative-price period's mode enumerated) by up to 7e-7 relative on
    26 draws, and by none in this unit.  Profit scales with the unit."""
    k = 1 / params.s_max
    scaled = dataclasses.replace(
        params, s_min=params.s_min * k, s_max=1.0, s_init=min(params.s_init * k, 1.0),
        p_chg_max=params.p_chg_max * k, p_dis_max=params.p_dis_max * k)
    return highs_objective(scaled, prices, periods) / k


class TestOutreachingPower:
    """A power limit far above what one period can move through the level
    range.  build_lp bounds each power by its reach, so the simplex's primal
    tolerance follows the storage's scale, and a period where a power is
    fixed at 0 is never branched again."""

    # draw 87 (0-based) of test_seeded_batch_against_highs
    DRAW_87 = (StorageParams(s_min=5.8700944653188745e-05, s_max=0.0012717828379403193,
                             s_init=0.0001802977464978047, p_chg_max=674.4533020876379,
                             p_dis_max=0.0057198503083879335, eta_c=0.9, eta_d=1.0, rho=0.999,
                             dt=1.0),
               PriceSeries([0, -1000, 35, 0, 1000, 35, -1000, 0.001, -1000, -35, 0.001, -0.001,
                            0.001, 35, 1000, -1000, -0.001, -1000, 35, -35], 1.0))

    def test_draw_87_tree_ends(self):
        # 176,896 node LPs in 30 s without the reach, branching again and
        # again where a charge fixed at 0 kept 6.5e-8 MW; 9 negative-price
        # periods allow at most 1,023 nodes
        params, prices = self.DRAW_87
        assert params.charge_reach < params.charge_step
        start = time.perf_counter()
        report, stats = solve_storage_milp(params, prices, partition(prices))
        assert time.perf_counter() - start < 1.0
        assert stats.nodes <= 1023
        assert report.objective == pytest.approx(9.29529486, rel=1e-8)  # HiGHS
        assert_outreaching_answers(params, prices, 1e-9 * params.s_max)

    def test_seeded_batch_against_highs(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            params, prices = outreaching_draw(rng)
            start = time.perf_counter()
            report = assert_outreaching_answers(params, prices, 1e-9 * params.s_max)
            assert time.perf_counter() - start < 10.0
            ref = highs_in_unit_range(params, prices, partition(prices).t_neg)
            assert report.objective == pytest.approx(ref, rel=1e-9)

    def test_node_lp_vertex_is_snapped_to_its_bounds(self):
        # the node LP ends on p_dis = -5.55e-17 at t=2; the answer keeps the
        # node LP's objective, with each power on [0, its limit] exactly
        params = StorageParams(s_min=1.5, s_max=5.0, s_init=1.5, p_chg_max=0.05, p_dis_max=0.05,
                               eta_c=0.95, eta_d=0.9365064861026619, rho=1.0, dt=1.0)
        prices = PriceSeries([87.73, 87.73], 1.0)
        node = lp.solve_lp(build_lp(params, prices))
        assert node.x[3] < 0
        units = require_compatible(params, prices)
        node_objective = math.ldexp(node.objective, units.e + units.p)
        for refined in (False, True):
            report, _ = solve_storage_milp(params, prices, partition(prices), refined=refined)
            assert report.objective == node_objective
            for power, limit in ((report.schedule.p_chg, 0.05), (report.schedule.p_dis, 0.05)):
                assert power.min() >= 0.0 and power.max() <= limit


@st.composite
def outreaching_storages(draw):
    """outreaching_draw's shape, with 1 to 20 prices from its seven values."""
    s_max = 10 ** draw(st.floats(-4, -2))
    s_min = s_max * draw(st.floats(0, 0.5))
    s_init = min(s_min + (s_max - s_min) * draw(st.floats(0, 1)), s_max)
    params = StorageParams(
        s_min=s_min, s_max=s_max, s_init=s_init,
        p_chg_max=10 ** draw(st.floats(2, 3)), p_dis_max=10 ** draw(st.floats(-3, -2)),
        eta_c=draw(st.sampled_from([1.0, 0.9])), eta_d=draw(st.sampled_from([1.0, 0.95])),
        rho=draw(st.sampled_from([1.0, 0.999, 0.9])), dt=draw(st.sampled_from([0.25, 1.0])))
    prices = draw(st.lists(st.sampled_from(REACH_PRICES), min_size=1, max_size=20))
    return params, PriceSeries(prices, params.dt)


# A level may end outside [s_min, s_max] by the simplex's primal tolerance,
# 1e-9 of the node LP's largest bound.  The seeded batch stays within 1e-9 *
# s_max; LEAK_BELOW_FLOOR ends 1e-11 (1e-8 * s_max) below s_min, where the
# value function charges 4e-11 MW to hold s_min and the simplex stops within
# its 1.4e-11 tolerance of the 0.014 MW charge bound.
LEAK_BELOW_FLOOR = (StorageParams(s_min=1e-10, s_max=0.001, s_init=1e-10, p_chg_max=100.0,
                                  p_dis_max=0.01, eta_c=1.0, eta_d=1.0, rho=0.9, dt=0.25),
                    PriceSeries([0.0], 0.25))


# the default profile's examples in tier 1; CI's counterexample hunt runs the
# hunt profile too
@example(draw=LEAK_BELOW_FLOOR)
@given(draw=outreaching_storages())
@settings(deadline=None)
def test_hunt_outreaching_power(draw):
    params, prices = draw
    level_tol = math.ldexp(build_lp(params, prices).tols[0], require_compatible(params, prices).e)
    assert_outreaching_answers(params, prices, level_tol)
