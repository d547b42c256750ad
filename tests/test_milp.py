import numpy as np
import pytest

from _instances import (
    inexact_instance,
    lp_safe_instance,
    mixed_sign_prices,
    random_params,
)
from storesched import (
    DpConfig,
    PriceSeries,
    StorageParams,
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
from storesched import lp


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
        assert problem.binary_periods == (6, 7, 8, 9)

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
        rng = np.random.default_rng(14)
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
