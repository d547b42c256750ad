import numpy as np
import pytest

from _instances import fast_params, mixed_sign_prices, random_params
from storesched import (
    DpConfig,
    GridTooCoarse,
    HorizonTooLong,
    InfeasibleStorage,
    PriceSeries,
    StorageParams,
    dp_value_error_bound,
    exhaustive_micro_oracle,
    feasibility_check,
    partition,
    solve_dp,
    solve_storage_lp,
    solve_storage_milp,
)
from storesched.dp import _values, _windows


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
        for grid_points in (1, 801.0, 2.5, True, "801"):
            with pytest.raises(ValueError, match="grid_points"):
                DpConfig(grid_points=grid_points)
        assert DpConfig(np.int64(101)).grid_points == 101

    def test_grid_too_coarse(self):
        params = unit_storage(p_chg_max=0.001)
        with pytest.raises(GridTooCoarse, match="charge"):
            solve_dp(params, PriceSeries([1.0], 1.0), DpConfig(grid_points=11))

    def test_grid_too_coarse_for_discharge(self):
        # a full-rate discharge moves 0.0011 of a 0.01 spacing: the DP
        # could never discharge, while the LP earns 0.26
        params = unit_storage(s_init=1.0, p_dis_max=0.001)
        prices = PriceSeries([50.0, 60.0, 70.0, 80.0], 1.0)
        assert solve_storage_lp(params, prices).objective == pytest.approx(0.26, rel=1e-9)
        with pytest.raises(GridTooCoarse, match="discharge"):
            solve_dp(params, prices, DpConfig(grid_points=101))

    def test_grid_too_coarse_for_a_level(self):
        # the level halves each period and a full charge adds 0.19, so staying
        # at or above s_min = 0.5 for three periods takes charging nearly every
        # period: feasible (the LP solves it), but no path of levels on an
        # 11- or 21-point grid does it, so the first level has no transition
        params = unit_storage(s_min=0.5, s_max=1.5, s_init=1.5, p_chg_max=0.19, p_dis_max=1.0,
                              eta_c=1.0, eta_d=1.0, rho=0.5)
        prices = PriceSeries([10.0, 20.0, 30.0], 1.0)
        for grid_points in (11, 21):
            with pytest.raises(GridTooCoarse, match="no feasible grid transition from level 1.5"):
                solve_dp(params, prices, DpConfig(grid_points))
        lp = solve_storage_lp(params, prices).objective
        assert lp == pytest.approx(-10.6, rel=1e-12)
        assert solve_dp(params, prices, DpConfig(101)).objective == pytest.approx(lp, rel=1e-12)

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

    def test_overflow_is_named(self):
        # 1,000 hours at +-1e306 EUR/MWh: the value table overflows to inf and
        # NaN, which is refused by name and without a warning, not taken for
        # a level with no grid transition
        params = unit_storage(p_chg_max=2.0, p_dis_max=2.0)
        prices = PriceSeries(np.tile([1e306, -1e306], 500), 1.0)
        with pytest.raises(ValueError, match="^dp value table is inf, beyond double precision$"):
            solve_dp(params, prices, DpConfig())

    def test_error_bound_overflow_is_named(self):
        # two hours at 1e308 EUR/MWh: the DP answers, but its discretization
        # bound is beyond double precision and is refused by name
        params = unit_storage(p_chg_max=2.0, p_dis_max=2.0)
        prices = PriceSeries([1e308, 1e308], 1.0)
        assert solve_dp(params, prices, DpConfig()).objective == 0.0
        with pytest.raises(ValueError, match="dp discretization_bound is inf"):
            dp_value_error_bound(params, prices, DpConfig())

    def test_determinism(self):
        rng = np.random.default_rng(23)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 10)
        a = solve_dp(params, prices, DpConfig(401))
        b = solve_dp(params, prices, DpConfig(401))
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.schedule.p_chg, b.schedule.p_chg)


def offset_counts(params, grid):
    """Charge and discharge offsets that action_table_by_offset tries: one
    past a full-rate step, so the power bound decides the last target.
    Not capped at the grid size, since a leaked level may lie below s_min."""
    h = grid[1] - grid[0]
    reach_chg = int(np.floor(params.dt * params.eta_c * params.p_chg_max / h + 1e-9)) + 1
    reach_dis = int(np.floor(params.dt * params.p_dis_max / (params.eta_d * h) + 1e-9)) + 1
    return reach_chg + 1, reach_dis + 1


def action_table_by_offset(params, grid, s):
    """Reference for the DP's transitions: candidate (p_chg, p_dis,
    target_idx, valid) per action and level, one charge row per grid offset
    upward from rho*s (offset 0 at an on-grid level is the idle action),
    then one discharge row per offset downward, built in a loop; the power
    bounds mark the rest invalid."""
    dt, eta_c, eta_d = params.dt, params.eta_c, params.eta_d
    h, n = grid[1] - grid[0], len(grid)
    base = params.rho * s
    fidx = (base - params.s_min) / h
    n_chg, n_dis = offset_counts(params, grid)
    rows = []
    for j in range(n_chg):
        k = np.ceil(fidx - 1e-9).astype(int) + j
        ok = k <= n - 1
        k = np.clip(k, 0, n - 1)
        p = np.maximum((grid[k] - base) / (dt * eta_c), 0.0)
        ok &= grid[k] - base <= params.charge_step + 1e-9 * h  # within 1e-9 of a spacing
        rows.append((np.minimum(p, params.p_chg_max), np.zeros_like(p), k, ok))
    for j in range(n_dis):
        k = np.floor(fidx + 1e-9).astype(int) - j
        ok = k >= 0
        k = np.clip(k, 0, n - 1)
        p = np.maximum((base - grid[k]) * eta_d / dt, 0.0)
        ok &= base - grid[k] <= params.discharge_step + 1e-9 * h
        rows.append((np.zeros_like(p), np.minimum(p, params.p_dis_max), k, ok))
    return tuple(np.stack(col) for col in zip(*rows))


def values_by_table(params, prices, grid):
    """Reference for dp._values: gather every (action, state) cell of
    action_table_by_offset each period and take the maximum."""
    pc, pd, idx, ok = action_table_by_offset(params, grid, grid)
    values = np.zeros((len(prices) + 1, len(grid)))
    for t in range(len(prices) - 1, -1, -1):
        reward = params.dt * prices.prices[t] * (pd - pc)
        values[t] = np.where(ok, reward + values[t + 1][idx], -np.inf).max(axis=0)
    return values


def leaky_store():
    """Loses half its level each period, so its low levels cannot be kept
    above s_min: their values are -inf."""
    return unit_storage(s_min=0.5, s_max=1.5, s_init=1.5, p_chg_max=0.2, rho=0.5)


def refilling_leaky_store():
    """The leaky store with a charge rate that crosses the whole range in one
    period: from s_min its leaked level lies 2.5 spacings of an 11-point
    grid below s_min, and every grid point is in reach."""
    return unit_storage(s_min=0.5, s_max=1.5, s_init=0.5, p_chg_max=3.0, p_dis_max=3.0, rho=0.5)


def backward_draws(seed, count, dt=1.0):
    """random_params draws at dt (rho < 1 and s_min > 0 among them) and,
    at dt 1, the leaky store, on grids of 11 to 801 points."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        params = leaky_store() if i % 5 == 4 and dt == 1.0 else random_params(rng, dt=dt)
        n = 801 if i % 10 == 0 else int(rng.integers(11, 402))
        grid = np.linspace(params.s_min, params.s_max, n)
        if params.dt * params.eta_c * params.p_chg_max < grid[1] - grid[0]:
            continue
        yield params, mixed_sign_prices(rng, int(rng.integers(2, 25)), dt), grid


def aligned_params(rng, n):
    """Power limits that make a full-rate step exactly j spacings of an
    n-point grid, so rounding decides whether its last target is valid."""
    eta = float(rng.choice([1.0, 0.9, 0.5]))
    s_min = float(rng.choice([0.0, 0.2]))
    s_max = s_min + float(rng.uniform(0.5, 2.0))
    h = (s_max - s_min) / (n - 1)
    j_chg, j_dis = rng.integers(1, n, size=2)
    return StorageParams(s_min=s_min, s_max=s_max, s_init=float(rng.uniform(s_min, s_max)),
                         p_chg_max=j_chg * h / eta, p_dis_max=j_dis * h * eta,
                         eta_c=eta, eta_d=eta, rho=float(rng.choice([1.0, 0.999, 0.995])))


def forward_by_table(params, prices, values):
    """Reference for solve_dp's forward pass: from s_init, the first best
    row of action_table_by_offset each period, in offset order.  Returns
    p_chg, p_dis, soe and the number of periods with more than one best
    row."""
    grid = np.linspace(params.s_min, params.s_max, values.shape[1])
    p_chg, p_dis, soe = np.empty((3, len(prices)))
    s, tied = params.s_init, 0
    for t in range(len(prices)):
        pc, pd, idx, ok = action_table_by_offset(params, grid, s)
        cand = np.where(ok, params.dt * prices.prices[t] * (pd - pc) + values[t + 1][idx], -np.inf)
        a = int(np.argmax(cand))
        assert np.isfinite(cand[a])
        tied += np.count_nonzero(cand == cand[a]) > 1
        p_chg[t], p_dis[t] = pc[a], pd[a]
        s = params.rho * s + params.dt * (params.eta_c * pc[a] - pd[a] / params.eta_d)
        soe[t] = s
    return p_chg, p_dis, soe, tied


class TestBackwardPass:
    def test_values_match_table(self):
        # the range maximum adds the reward's terms in another order, and
        # the table clips powers within _IDX_SLACK of a grid spacing
        some_inf = False
        for params, prices, grid in backward_draws(27, 30):
            got, want = _values(params, prices, grid), values_by_table(params, prices, grid)
            np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
            finite = np.isfinite(want)
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12,
                                       atol=1e-12 * np.abs(want[finite]).max())
            some_inf |= not finite.all()
        assert some_inf

    def test_windows_are_the_valid_targets(self):
        # on the grid, on the levels the forward pass visits (s_init, and
        # grid points off by rounding) and anywhere in between; at dt != 1,
        # and with full-rate steps that end exactly on a grid point
        rng = np.random.default_rng(28)
        cases = [(leaky_store() if i % 5 == 4 else random_params(rng), int(rng.integers(11, 202)))
                 for i in range(400)]
        draw = np.random.default_rng(30)
        for _ in range(100):
            dt = float(draw.choice([1 / 3, 0.25, 0.5, 2.0]))
            cases.append((random_params(draw, dt=dt), int(draw.integers(11, 202))))
            n = int(draw.integers(11, 202))
            cases.append((aligned_params(draw, n), n))
        cases.append((refilling_leaky_store(), 11))
        for params, n in cases:
            grid = np.linspace(params.s_min, params.s_max, n)
            s = np.concatenate([grid, grid * (1 + 1e-15), grid * (1 - 1e-15), [params.s_init],
                                draw.uniform(params.s_min, params.s_max, 7)])
            _, _, k, ok = action_table_by_offset(params, grid, s)
            n_chg, _ = offset_counts(params, grid)
            (lo_c, lo_d), (hi_c, hi_d) = _windows(params, grid, s)
            state = np.broadcast_to(np.arange(len(s)), k.shape)
            targets = np.arange(n)
            for rows, lo, hi in ((slice(None, n_chg), lo_c, hi_c), (slice(n_chg, None), lo_d, hi_d)):
                valid = np.zeros((len(s), n), bool)  # [level, target]
                valid[state[rows][ok[rows]], k[rows][ok[rows]]] = True
                in_window = (lo[:, None] <= targets) & (targets <= hi[:, None])
                np.testing.assert_array_equal(valid, in_window)

    def test_full_charge_from_below_s_min(self):
        # the leaked level of s_min lies below the grid and a full charge
        # reaches s_max, so every target is in reach, the top one more than
        # n - 1 grid offsets above the leaked level
        params = refilling_leaky_store()
        prices = PriceSeries([-10.0, 50.0, -20.0, 40.0], 1.0)
        milp, _ = solve_storage_milp(params, prices, partition(prices), refined=True)
        dp = solve_dp(params, prices, DpConfig(11))
        assert dp.objective == pytest.approx(milp.objective, rel=1e-12)
        np.testing.assert_allclose(dp.schedule.soe, [1.5, 0.5, 1.5, 0.5], rtol=1e-12)

    def test_schedules_match_table(self):
        # both sides take the first maximizer, so values that agree only
        # to rounding could move it on a tie; on these draws none does.
        # The leaky store (rho 0.5) is left out: it runs dry within four
        # periods, and solve_dp then raises InfeasibleStorage.
        draws = [*backward_draws(29, 30), *backward_draws(31, 8, dt=0.25),
                 *backward_draws(32, 8, dt=2.0)]
        for params, prices, grid in draws:
            if params.rho <= 0.5:
                continue
            got = solve_dp(params, prices, DpConfig(len(grid)))
            *want, _ = forward_by_table(params, prices, values_by_table(params, prices, grid))
            for name, column in zip(("p_chg", "p_dis", "soe"), want):
                np.testing.assert_array_equal(getattr(got.schedule, name), column)

    def test_ties_take_the_first_maximizer(self):
        # draws with ties: zero-price periods, where a level's idle target is
        # reached both as a charge and as a discharge; lossless storage
        # (eta = 1, rho = 1); and a flat values[t + 1] after a zero-price
        # tail.  On the DP's own values table the reference's offset order
        # (charge upward, then discharge downward) picks the same target
        rng = np.random.default_rng(34)
        tied = 0
        for i in range(36):
            dt = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            params = random_params(rng, eta_one=i % 3 == 0, dt=dt)
            if i % 3 == 0:
                params = StorageParams(**{**vars(params), "rho": 1.0})
            prices = mixed_sign_prices(rng, int(rng.integers(2, 16)), dt).prices
            prices[rng.random(len(prices)) < 0.3] = 0.0
            if i % 4 == 1:
                prices[int(rng.integers(1, len(prices))):] = 0.0  # flat values[t + 1]
            prices = PriceSeries(prices, dt)
            grid = np.linspace(params.s_min, params.s_max, int(rng.choice([101, 201])))
            got = solve_dp(params, prices, DpConfig(len(grid)))
            *want, ties = forward_by_table(params, prices, _values(params, prices, grid))
            for name, column in zip(("p_chg", "p_dis", "soe"), want):
                assert np.array_equal(getattr(got.schedule, name), column), name
            tied += ties
        assert tied >= 36

    def test_finer_grid_on_a_week(self):
        # 8,001 levels: about 1e9 cells a period for the table, which
        # could not run this
        rng = np.random.default_rng(168)
        params = fast_params(rng)
        prices = mixed_sign_prices(rng, 168)
        milp, _ = solve_storage_milp(params, prices, partition(prices), refined=True)
        fine = solve_dp(params, prices, DpConfig(8001)).objective
        assert fine <= milp.objective + 1e-9
        assert fine >= solve_dp(params, prices, DpConfig(801)).objective - 1e-12


class TestMicroOracle:
    def test_horizon_guard(self):
        params = unit_storage()
        with pytest.raises(HorizonTooLong):
            exhaustive_micro_oracle(params, PriceSeries([1.0] * 5, 1.0))
        for levels in (8, 0, -1, 2.5, True):
            with pytest.raises(ValueError, match="levels"):
                exhaustive_micro_oracle(params, PriceSeries([1.0], 1.0), levels=levels)

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
