import numpy as np
import pytest

from _instances import mixed_sign_prices, random_params
from storesched import (
    DpConfig,
    GridTooCoarse,
    HorizonTooLong,
    InfeasibleStorage,
    PriceSeries,
    StorageParams,
    exhaustive_micro_oracle,
    feasibility_check,
    partition,
    solve_dp,
    solve_storage_lp,
    solve_storage_milp,
)
from storesched.dp import _action_table


def unit_storage(**overrides):
    base = dict(
        s_min=0.0, s_max=1.0, s_init=0.0,
        p_chg_max=0.4, p_dis_max=0.4,
        eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0,
    )
    base.update(overrides)
    return StorageParams(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DpConfig(grid_points=1)

    def test_grid_too_coarse(self):
        params = unit_storage(p_chg_max=0.001)
        with pytest.raises(GridTooCoarse):
            solve_dp(params, PriceSeries([1.0], 1.0), DpConfig(grid_points=11))

    @pytest.mark.parametrize("grid_points", [801, 8001])
    def test_infeasible_storage_is_not_blamed_on_the_grid(self, grid_points):
        # at s_min = 0.5 the level leaks 0.25 per period, and a full charge
        # adds only 0.09: no grid can help
        params = unit_storage(s_min=0.5, s_init=0.5, p_chg_max=0.1, rho=0.5)
        with pytest.raises(InfeasibleStorage, match="storage level"):
            solve_dp(params, PriceSeries([35.0, -5.0, 40.0], 1.0), DpConfig(grid_points))

    def test_price_dt_must_match_params(self):
        with pytest.raises(ValueError, match="dt"):
            solve_dp(unit_storage(), PriceSeries([-10.0, 50.0], 0.25), DpConfig(101))


class TestSolve:
    def test_one_period_closed_form(self):
        params = unit_storage(s_init=1.0, p_dis_max=5.0)
        report = solve_dp(params, PriceSeries([30.0], 1.0), DpConfig(801))
        lp = solve_storage_lp(params, PriceSeries([30.0], 1.0))
        assert report.objective == pytest.approx(lp.objective, rel=1e-9)
        assert report.schedule.p_dis[0] == pytest.approx(0.9, rel=1e-9)

    def test_schedule_is_exclusive_and_feasible(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 12)))
            report = solve_dp(params, prices, DpConfig(401))
            sch = report.schedule
            assert not np.any((sch.p_chg > 0) & (sch.p_dis > 0))
            assert feasibility_check(params, report.schedule).feasible

    def test_sandwich(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 12)))
            part = partition(prices)
            lp = solve_storage_lp(params, prices)
            milp, _ = solve_storage_milp(params, prices, part)
            dp = solve_dp(params, prices, DpConfig(801))
            assert dp.objective <= milp.objective + 1e-9
            assert milp.objective <= lp.objective + 1e-9

    def test_monotone_grid_refinement(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 12)))
            values = [
                solve_dp(params, prices, DpConfig(n)).objective
                for n in (101, 201, 401, 801)
            ]
            for coarse, fine in zip(values, values[1:]):
                assert fine >= coarse - 1e-12

    def test_cannot_represent_scd(self):
        # all-negative prices with a one-period full-cycle storage: the
        # relaxation burns energy via SCD, the oracle cannot
        params = unit_storage(p_chg_max=2.0, p_dis_max=2.0)
        prices = PriceSeries([-10.0, -20.0, -15.0], 1.0)
        lp = solve_storage_lp(params, prices)
        dp = solve_dp(params, prices, DpConfig(801))
        assert lp.scd_events
        assert dp.objective < lp.objective - 1e-6

    def test_determinism(self):
        rng = np.random.default_rng(23)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 10)
        a = solve_dp(params, prices, DpConfig(401))
        b = solve_dp(params, prices, DpConfig(401))
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.schedule.p_chg, b.schedule.p_chg)


def action_table_by_offset(params, grid, s):
    """Reference for dp._action_table: one charge, then one discharge
    row per grid offset, built in a loop."""
    dt, eta_c, eta_d = params.dt, params.eta_c, params.eta_d
    h, n = grid[1] - grid[0], len(grid)
    base = params.rho * s
    fidx = (base - params.s_min) / h
    reach_chg = int(np.floor(dt * eta_c * params.p_chg_max / h + 1e-9)) + 1
    reach_dis = int(np.floor(dt * params.p_dis_max / (eta_d * h) + 1e-9)) + 1
    rows = []
    for j in range(min(reach_chg + 1, n)):
        k = np.ceil(fidx - 1e-9).astype(int) + j
        ok = k <= n - 1
        k = np.clip(k, 0, n - 1)
        p = np.maximum((grid[k] - base) / (dt * eta_c), 0.0)
        ok &= p <= params.p_chg_max + 1e-12
        rows.append((np.minimum(p, params.p_chg_max), np.zeros_like(p), k, ok))
    for j in range(min(reach_dis + 1, n)):
        k = np.floor(fidx + 1e-9).astype(int) - j
        ok = k >= 0
        k = np.clip(k, 0, n - 1)
        p = np.maximum((base - grid[k]) * eta_d / dt, 0.0)
        ok &= p <= params.p_dis_max + 1e-12
        rows.append((np.zeros_like(p), np.minimum(p, params.p_dis_max), k, ok))
    return tuple(np.stack(col) for col in zip(*rows))


class TestActionTable:
    def test_matches_offset_loop(self):
        # same arithmetic per entry, so the tables must be equal bit for bit
        rng = np.random.default_rng(25)
        for _ in range(20):
            params = random_params(rng)
            grid = np.linspace(params.s_min, params.s_max, int(rng.integers(11, 402)))
            for s in (grid, np.array([params.s_init]), rng.uniform(params.s_min, params.s_max, 7)):
                for got, want in zip(_action_table(params, grid, s),
                                     action_table_by_offset(params, grid, s)):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)


class TestMicroOracle:
    def test_horizon_guard(self):
        params = unit_storage()
        with pytest.raises(HorizonTooLong):
            exhaustive_micro_oracle(params, PriceSeries([1.0] * 5, 1.0))
        with pytest.raises(ValueError):
            exhaustive_micro_oracle(params, PriceSeries([1.0], 1.0), levels=8)

    def test_t1_agrees_with_solvers(self):
        params = unit_storage(s_init=1.0, p_dis_max=5.0)
        prices = PriceSeries([30.0], 1.0)
        micro = exhaustive_micro_oracle(params, prices)
        lp = solve_storage_lp(params, prices)
        dp = solve_dp(params, prices, DpConfig(801))
        assert micro == pytest.approx(lp.objective, rel=1e-9)
        assert micro == pytest.approx(dp.objective, rel=1e-9)

    def test_zero_prices(self):
        params = unit_storage(s_init=0.5)
        assert exhaustive_micro_oracle(params, PriceSeries([0.0, 0.0, 0.0], 1.0)) == 0.0

    def test_t2_close_to_milp(self):
        params = unit_storage(p_chg_max=0.2, p_dis_max=0.2)
        prices = PriceSeries([-1.0, 5.0], 1.0)
        part = partition(prices)
        milp, _ = solve_storage_milp(params, prices, part)
        micro = exhaustive_micro_oracle(params, prices, levels=7)
        assert micro <= milp.objective + 1e-9
        assert micro == pytest.approx(milp.objective, rel=0.05, abs=0.05)

    def test_lower_bounds_milp_on_random_micros(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(1, 5)))
            part = partition(prices)
            milp, _ = solve_storage_milp(params, prices, part)
            micro = exhaustive_micro_oracle(params, prices, levels=5)
            assert micro <= milp.objective + 1e-9
