import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import (
    assert_lp_certificate,
    edge_draw,
    fast_params,
    level_start,
    lp_answer,
    lp_safe_instance,
    mixed_sign_prices,
    random_params,
)
from storesched import (
    DpConfig,
    InfeasibleStorage,
    MissingDuals,
    PriceSeries,
    SolveReport,
    StorageParams,
    build_lp,
    detect_scd,
    feasibility_check,
    kkt_verify,
    lp,
    objective,
    partition,
    solve_dp,
    solve_lp,
    solve_bounded_lp,
    solve_storage_lp,
    solve_storage_milp,
)
from storesched.simplex import AT_LOWER, AT_UPPER, BASIC, LpStatus
from storesched.storage import require_compatible


def unit_storage(**overrides):
    base = dict(
        s_min=0.0, s_max=1.0, s_init=0.0,
        p_chg_max=2.0, p_dis_max=2.0,
        eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0,
    )
    base.update(overrides)
    return StorageParams(**base)


def bounded_kkt_residual(problem, sol):
    """Largest violation of the optimality conditions of max c'x subject
    to a x = rhs and lower <= x <= upper, all bounds finite."""
    x, d = sol.x, sol.reduced_costs
    return max(
        np.max(np.abs(problem.a @ x - problem.rhs)),
        np.max(np.abs(d - (problem.c - sol.y @ problem.a))),
        np.max(np.maximum(problem.lower - x, 0.0)),
        np.max(np.maximum(x - problem.upper, 0.0)),
        np.max(np.maximum(d, 0.0) * (problem.upper - x)),
        np.max(np.maximum(-d, 0.0) * (x - problem.lower)),
    )


class TestBuild:
    def test_structural_counts_t1(self):
        problem = build_lp(unit_storage(), PriceSeries([10.0], 1.0))
        assert problem.n == 3
        assert problem.m == 1
        assert (problem.n - problem.m) // 2 == 1  # the horizon solve_lp reads off the shape

    def test_structural_counts_t24(self):
        params, prices = unit_storage(), PriceSeries(np.arange(24.0), 1.0)
        problem = build_lp(params, prices)
        assert problem.n == 72
        assert problem.m == 24
        e = require_compatible(params, prices).e  # 2^2 MWh
        np.testing.assert_allclose(problem.upper[:24], params.charge_reach / 2**e)
        np.testing.assert_allclose(problem.upper[24:48], params.discharge_reach / 2**e)
        np.testing.assert_allclose(problem.lower[48:], params.s_min / 2**e)
        np.testing.assert_allclose(problem.upper[48:], params.s_max / 2**e)

    def test_objective_coefficients(self):
        prices = PriceSeries([7.0, -3.0], 0.5)
        problem = build_lp(unit_storage(dt=0.5), prices)
        p = require_compatible(unit_storage(dt=0.5), prices).p  # 8 EUR/MWh
        # per MWh into the store a charge costs C_t/eta_c, and per MWh out of it
        # a discharge earns eta_d*C_t
        np.testing.assert_allclose(problem.c[:2], np.array([-7 / 0.9, 3 / 0.9]) / 2**p)
        np.testing.assert_allclose(problem.c[2:4], np.array([7 * 0.9, -3 * 0.9]) / 2**p)
        np.testing.assert_allclose(problem.c[4:], 0.0)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1.7e308])
    def test_units_are_exact(self, scale):
        # bounds, right-hand side and costs are the storage's and the prices'
        # own numbers times a power of two, each near 1, bit for bit: the
        # costs the value function's slopes, the energy bounds the reaches
        params = StorageParams(s_min=scale / 8, s_max=scale, s_init=scale / 2, p_chg_max=scale,
                               p_dis_max=scale / 2, eta_c=0.9, eta_d=0.8, rho=0.97, dt=0.25)
        prices = PriceSeries([35.0, -1e300, 0.0, 1e-3], 0.25)
        problem, T = build_lp(params, prices, (2,)), len(prices)
        units = require_compatible(params, prices)
        e, p = units.e, units.p
        assert 0.5 <= math.ldexp(params.energy_scale, -e) < 1 and p == 997  # 2^996 < 1e300
        np.testing.assert_array_equal(np.ldexp(problem.c[:T], p), -prices.prices / 0.9)
        np.testing.assert_array_equal(np.ldexp(problem.c[T : 2 * T], p), prices.prices * 0.8)
        reach_c, reach_d = np.ldexp(problem.upper[[0, T]], e)
        assert (reach_c, reach_d) == (params.charge_reach, params.discharge_reach)
        assert set(np.unique(problem.a)) == {0.0, 1.0, -1.0, -0.97}
        np.testing.assert_array_equal(np.ldexp(problem.upper[2 * T :], e),
                                      [params.s_max] * (T + 1) + [0.97 * params.s_max])
        np.testing.assert_array_equal(np.ldexp(problem.lower[2 * T :], e),
                                      [params.s_min] * T + [0.97 * params.s_min] * 2)
        assert math.ldexp(problem.rhs[0], e) == 0.97 * params.s_init

    def test_balance_rows(self):
        # soe_t - rho*soe_{t-1} - e^c_t + e^d_t = rhs_t, dt and eta aside
        params = unit_storage(s_init=0.3, eta_c=0.95, eta_d=0.8, rho=0.97, dt=0.5)
        T = 4
        problem = build_lp(params, PriceSeries(np.arange(float(T)), 0.5))
        expected = np.zeros((T, 3 * T))
        for t in range(T):
            expected[t, t] = -1.0
            expected[t, T + t] = 1.0
            expected[t, 2 * T + t] = 1.0
            if t > 0:
                expected[t, 2 * T + t - 1] = -0.97
        np.testing.assert_array_equal(problem.a, expected)
        e = require_compatible(params, PriceSeries(np.arange(float(T)), 0.5)).e
        np.testing.assert_array_equal(np.ldexp(problem.rhs, e), [0.97 * 0.3, 0.0, 0.0, 0.0])

    def test_price_dt_must_match_params(self):
        # the LP reads params.dt alone, so a quarter-hour series would be
        # priced as hourly
        with pytest.raises(ValueError, match="dt"):
            solve_storage_lp(unit_storage(), PriceSeries([-10.0, 50.0], 0.25))


class TestSolve:
    def test_zero_prices_zero_schedule(self):
        report = solve_storage_lp(unit_storage(s_init=0.5), PriceSeries([0.0, 0.0], 1.0))
        assert report.objective == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(report.schedule.p_chg, 0.0, atol=1e-9)
        np.testing.assert_allclose(report.schedule.p_dis, 0.0, atol=1e-9)

    def test_one_period_discharge_closed_form(self):
        params = unit_storage(s_init=1.0, p_dis_max=5.0)
        report = solve_storage_lp(params, PriceSeries([30.0], 1.0))
        expected_power = min(5.0, 0.9 * 1.0)
        assert report.objective == pytest.approx(30.0 * expected_power, rel=1e-9)
        assert report.schedule.p_dis[0] == pytest.approx(expected_power, rel=1e-9)

    def test_fast_storage_scd_at_negative_price(self):
        params = unit_storage()
        prices = PriceSeries([-10.0, 20.0], 1.0)
        report = solve_storage_lp(params, prices)
        assert [ev.t for ev in report.scd_events] == [1]
        # cross-check the value against the exclusivity-enforcing oracle:
        # the relaxation must beat it by the negative-price SCD burn-off
        dp = solve_dp(params, prices, DpConfig(2001))
        assert report.objective > dp.objective + 1e-6

    def test_costless_scd_is_netted(self):
        # lossless storage that the advisor clears can end at an LP vertex
        # with SCD that costs nothing: the answer charges or discharges
        # alone there, at the vertex's objective.  SCD at a negative price
        # with eta < 1 has a cost, and it stays as the vertex has it
        rng = np.random.default_rng(11)
        netted = 0
        for _ in range(200):
            params, prices, _, _ = lp_safe_instance(rng)
            vertex = lp_answer(solve_lp(build_lp(params, prices)), params, prices)
            if not vertex.scd_events:
                continue
            report = solve_storage_lp(params, prices)
            assert report.scd_events == [] and not detect_scd(report.schedule)
            assert feasibility_check(params, report.schedule).feasible
            assert report.objective == pytest.approx(vertex.objective, rel=1e-12)
            z = objective(prices, report.schedule, params.dt)
            assert z == pytest.approx(vertex.objective, rel=1e-12)
            assert report.kkt_max_residual <= 1e-7
            netted += 1
        assert netted >= 30
        params, prices = unit_storage(), PriceSeries([-10.0, 20.0], 1.0)
        vertex = lp_answer(solve_lp(build_lp(params, prices)), params, prices)
        report = solve_storage_lp(params, prices)
        assert [ev.t for ev in report.scd_events] == [ev.t for ev in vertex.scd_events] == [1]
        np.testing.assert_allclose(report.schedule.p_chg, vertex.schedule.p_chg, rtol=1e-12)
        np.testing.assert_allclose(report.schedule.p_dis, vertex.schedule.p_dis, rtol=1e-12)

    def test_objective_matches_schedule(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 20)))
            report = solve_storage_lp(params, prices)
            z = objective(prices, report.schedule, params.dt)
            assert z == pytest.approx(report.objective, rel=1e-9, abs=1e-9)
            assert feasibility_check(params, report.schedule).feasible

    def test_scaling_covariance(self):
        rng = np.random.default_rng(1)
        params = random_params(rng)
        values = rng.normal(5, 40, 12)
        base = solve_storage_lp(params, PriceSeries(values, 1.0))
        for alpha in (0.5, 3.0):
            scaled = solve_storage_lp(params, PriceSeries(alpha * values, 1.0))
            assert scaled.objective == pytest.approx(alpha * base.objective, rel=1e-9)
            # the unscaled optimum stays optimal for the scaled problem
            z = objective(PriceSeries(alpha * values, 1.0), base.schedule, 1.0)
            assert z == pytest.approx(scaled.objective, rel=1e-9, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        params = random_params(rng)
        prices = mixed_sign_prices(rng, 16)
        a = solve_storage_lp(params, prices)
        b = solve_storage_lp(params, prices)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.schedule.p_chg, b.schedule.p_chg)
        np.testing.assert_array_equal(a.schedule.soe, b.schedule.soe)
        np.testing.assert_array_equal(a.duals.lam, b.duals.lam)


class TestKkt:
    def test_residual_small_at_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 25)))
            report = solve_storage_lp(params, prices)
            assert report.kkt_max_residual <= 1e-7

    def test_perturbed_dual_detected(self):
        params = unit_storage(p_chg_max=0.3, p_dis_max=0.3)
        prices = PriceSeries([12.0, -4.0, 30.0], 1.0)
        report = solve_storage_lp(params, prices)
        report.duals.lam[1] += 1e-3 * 30.0  # 1e-3 of the largest price
        assert kkt_verify(params, prices, report) >= 1e-3 - 1e-7

    def test_missing_duals(self):
        from storesched import Schedule

        schedule = Schedule(p_chg=[0.0], p_dis=[0.0], soe=[0.0])
        report = SolveReport(objective=0.0, schedule=schedule, scd_events=[])
        with pytest.raises(MissingDuals):
            kkt_verify(unit_storage(), PriceSeries([1.0], 1.0), report)

    def test_scd_dual_identity(self):
        # at an SCD period of a relaxed optimum with C_t < 0, the charge
        # and discharge bound multipliers balance the lossy price term
        params = unit_storage()
        prices = PriceSeries([-10.0, 20.0], 1.0)
        report = solve_storage_lp(params, prices)
        assert report.scd_events
        for ev in report.scd_events:
            k = ev.t - 1
            identity = (
                1.0 * prices.prices[k] * (1 - params.eta)
                + params.eta * report.duals.delta_hi[k]
                + report.duals.gamma_hi[k]
            )
            assert identity == pytest.approx(0.0, abs=1e-7)


class TestStrongDuality:
    def test_primal_equals_dual(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 20)))
            problem = build_lp(params, prices)
            report = solve_storage_lp(params, prices)
            du = report.duals
            T, units = len(prices), require_compatible(params, prices)
            rhs, lower, upper = (np.ldexp(v, units.e)
                                 for v in (problem.rhs, problem.lower, problem.upper))
            # the multipliers are the power model's, whose box is units.powers
            dual_obj = (
                du.lam @ rhs
                + du.gamma_hi.sum() * units.powers[0]
                + du.delta_hi.sum() * units.powers[1]
                + du.sigma_hi @ upper[2 * T :]
                - du.sigma_lo @ lower[2 * T :]
            )
            assert dual_obj == pytest.approx(
                report.objective, rel=1e-8, abs=1e-8
            )


class TestWarmStart:
    def test_child_from_parent_basis_matches_cold_solve(self):
        # a branch-and-bound child: one charge or discharge bound set to 0
        rng = np.random.default_rng(21)
        warm_total = cold_total = 0
        for _ in range(30):
            params = random_params(rng)
            prices = mixed_sign_prices(rng, int(rng.integers(4, 30)))
            parent = solve_lp(build_lp(params, prices))
            child = build_lp(params, prices)
            child.upper[int(rng.integers(2 * len(prices)))] = 0.0
            warm = solve_bounded_lp(child, start=parent.basis)
            cold = solve_bounded_lp(child)
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            assert bounded_kkt_residual(child, warm) <= 1e-7
            warm_total += warm.iterations
            cold_total += cold.iterations
        # the dual simplex ran instead of a cold restart
        assert 5 * warm_total < cold_total

    def test_any_start_reaches_the_optimum(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            T = 12
            problem = build_lp(random_params(rng), mixed_sign_prices(rng, T))
            # each power at the bound its price does not prefer
            wrong_bounds = np.where(problem.c > 0, AT_LOWER, AT_UPPER)
            wrong_bounds[2 * T :] = BASIC
            no_basis = np.full(3 * T, AT_LOWER)
            want = solve_lp(problem).objective
            for start in (wrong_bounds, no_basis, None):
                sol = solve_bounded_lp(problem, start=start)
                assert sol.objective == pytest.approx(want, rel=1e-9)
                assert bounded_kkt_residual(problem, sol) <= 1e-7


@pytest.fixture
def pivots(monkeypatch):
    """The pivots of each simplex solve that lp makes, in call order."""
    counts = []
    real = lp.solve_bounded_lp

    def recorded(*args, **kwargs):
        sol = real(*args, **kwargs)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp, "solve_bounded_lp", recorded)
    return counts


@st.composite
def duration_instances(draw):
    """Storage fast both ways, fast to charge only, fast to discharge only or
    slow, lossless or lossy, with or without leakage, and prices that mix
    zero, negative and positive periods.  A fast power at full rate crosses
    the whole level range."""
    kind = draw(st.sampled_from(["both", "charge", "discharge", "slow"]))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    s_min = draw(st.sampled_from([0.0, 0.2]))
    cap = draw(st.floats(0.5, 2.0))
    eta_c, eta_d = draw(st.one_of(st.just((1.0, 1.0)),
                                  st.tuples(st.floats(0.8, 1.0), st.floats(0.8, 1.0))))
    fast, slow = st.floats(1.0, 2.0), st.floats(0.1, 0.9)
    chg = draw(fast if kind in ("both", "charge") else slow)
    dis = draw(fast if kind in ("both", "discharge") else slow)
    rho = draw(st.one_of(st.just(1.0), st.floats(0.95, 0.9999)))
    params = StorageParams(
        s_min=s_min, s_max=s_min + cap, s_init=s_min + cap * draw(st.floats(0.0, 1.0)),
        p_chg_max=chg * cap / (dt * eta_c), p_dis_max=dis * cap * eta_d / dt,
        eta_c=eta_c, eta_d=eta_d, rho=rho, dt=dt,
    )
    price = st.one_of(st.just(0.0), st.floats(-80.0, -1.0), st.floats(1.0, 80.0))
    prices = draw(st.lists(price, min_size=1, max_size=24))
    return params, PriceSeries(np.array(prices), dt)


class TestDurationStart:
    @given(instance=duration_instances(), legs=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_start_is_kept_and_exact(self, instance, legs):
        # the charge-duration start factors (no artificial fallback) and
        # ends at the objective of the level-basis start, with a certificate
        params, prices = instance
        problem = build_lp(params, prices, partition(prices).t_neg if legs else ())
        T = len(prices)
        solutions = []

        def recorded(*args, **kwargs):
            solutions.append(solve_bounded_lp(*args, **kwargs))
            return solutions[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "solve_bounded_lp", recorded)
            report = solve_lp(problem)
        assert report.factor is not None
        want = solve_bounded_lp(problem, start=level_start(problem, T))
        assert report.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
        assert_lp_certificate(problem, solutions[0])

    def test_one_period_leg_starts_at_the_scd_vertex(self):
        # at a negative price the charge at full rate overfills the store:
        # the start keeps the charge basic against its leg's row, which
        # holds the charge leg at s_max, and the discharge basic.  With the
        # legs there is no surplus to burn, and the start is optimal
        params = unit_storage(s_init=0.5)
        problem = build_lp(params, PriceSeries([-10.0], 1.0), legs=(1,))
        start = lp._duration_start(problem)
        # [p_chg, p_dis, soe, m^c, m^d]
        np.testing.assert_array_equal(start, [BASIC, BASIC, AT_LOWER, AT_LOWER, BASIC])
        sol = solve_bounded_lp(problem, start=start)
        assert sol.factorizations == 1 and sol.factor is not None
        want = solve_bounded_lp(problem, start=level_start(problem, 1))
        assert sol.objective == pytest.approx(want.objective, rel=1e-9)
        assert_lp_certificate(problem, sol)
        e = require_compatible(params, PriceSeries([-10.0], 1.0)).e
        assert sol.iterations == 0 and math.ldexp(sol.x[3], e) == pytest.approx(params.s_max)

    def test_fewer_pivots_at_the_fast_T168_root(self):
        rng = np.random.default_rng(168)
        params = fast_params(rng)
        prices = mixed_sign_prices(rng, 168)
        problem = build_lp(params, prices, partition(prices).t_neg)
        level = solve_bounded_lp(problem, start=level_start(problem, 168))
        duration = solve_bounded_lp(problem, start=lp._duration_start(problem))
        assert duration.objective == pytest.approx(level.objective, rel=1e-9)
        assert duration.iterations < 0.7 * level.iterations  # 27 against 223

    def test_fast_T720_lp_starts_near_its_optimum(self, pivots):
        # an hourly month of fast storage: 356 pivots when the charge, not
        # the discharge, starts basic at negative prices
        rng = np.random.default_rng(0)
        params = fast_params(rng)
        problem = build_lp(params, mixed_sign_prices(rng, 720))
        assert_lp_certificate(problem, solve_lp(problem))
        assert len(pivots) == 1 and pivots[0] <= 150  # 69

    def test_fast_T720_milp_closes_in_few_pivots(self, pivots):
        # the refined MILP of an hourly month of fast storage: 991 pivots
        # from the level-basis start, 381 when the charge, not the
        # discharge, starts basic at negative prices
        rng = np.random.default_rng(0)
        params = fast_params(rng)
        prices = mixed_sign_prices(rng, 720)
        _, stats = solve_storage_milp(params, prices, partition(prices), refined=True)
        assert stats.nodes == 1
        assert sum(pivots) <= 200  # 115


def simplex_answer(params, prices):
    """The storage LP at the simplex's vertex, or None when it is infeasible."""
    sol = solve_lp(build_lp(params, prices))
    return lp_answer(sol, params, prices) if sol.status is LpStatus.OPTIMAL else None


class TestValueFunction:
    """solve_storage_lp answers from the value function; the simplex, which
    shares no code with it, and HiGHS check it."""

    def test_agrees_with_the_simplex(self):
        rng = np.random.default_rng(0)
        for i in range(300):
            dt = float(rng.choice([0.25, 0.5, 1.0]))
            params = fast_params(rng, dt) if i % 3 == 0 else random_params(rng, dt=dt)
            prices = mixed_sign_prices(rng, int(rng.integers(3, 60)), dt)
            report, vertex = solve_storage_lp(params, prices), simplex_answer(params, prices)
            assert report.objective == pytest.approx(vertex.objective, rel=1e-9)
            np.testing.assert_allclose(report.schedule.soe, vertex.schedule.soe, rtol=0, atol=1e-9)
            costly = (prices.prices != 0) & (params.eta < 1)
            assert [e.t for e in report.scd_events if costly[e.t - 1]] == [
                e.t for e in vertex.scd_events if costly[e.t - 1]]
            assert report.kkt_max_residual <= 1e-7
            assert feasibility_check(params, report.schedule).feasible

    def test_edges_agree_with_the_simplex(self):
        # where the optimum is not unique (zero prices, eta = 1) only the
        # objective is compared; the two refuse the same storages
        rng = np.random.default_rng(11)
        refused = 0
        for _ in range(400):
            params, prices = edge_draw(rng)
            vertex = simplex_answer(params, prices)
            if vertex is None:
                with pytest.raises(InfeasibleStorage, match="storage level"):
                    solve_storage_lp(params, prices)
                refused += 1
                continue
            report = solve_storage_lp(params, prices)
            assert report.objective == pytest.approx(vertex.objective, rel=1e-9, abs=1e-9)
            assert report.kkt_max_residual <= 1e-7
            assert feasibility_check(params, report.schedule).feasible
            zero = (prices.prices == 0) | (params.eta == 1)
            assert not any(zero[e.t - 1] for e in report.scd_events)
        assert refused > 0

    @pytest.mark.parametrize("prices", [[0.0, 0.0], [0.0, -35.0, 0.0]])
    def test_tiny_rho_matches_the_refined_milp(self, prices):
        # at rho = 1e-20 the level range rescaled to [rho*s_min, rho*s_max]
        # is 1e-23 wide, far below the rounding of the merged lists' far
        # ends: the backward pass keeps it by its own width, and a level at a
        # bound keeps its multiplier instead of scaling it by 1/rho
        params = StorageParams(s_min=0.0, s_max=1e-3, s_init=2.5e-4, p_chg_max=1e-3,
                               p_dis_max=1e-3, eta_c=0.5, eta_d=0.9, rho=1e-20, dt=1 / 6)
        prices = PriceSeries(prices, 1 / 6)
        report = solve_storage_lp(params, prices)
        refined, _ = solve_storage_milp(params, prices, partition(prices), refined=True)
        assert report.objective == pytest.approx(refined.objective, rel=1e-12, abs=1e-15)
        assert report.kkt_max_residual <= 1e-7
        assert feasibility_check(params, report.schedule).feasible

    def test_near_the_top_of_the_double_range(self):
        # differences of levels near 1.7e308 overflow unless the energies run
        # in a power-of-two unit
        params = StorageParams(s_min=0.0, s_max=1.7e308, s_init=8.5e307, p_chg_max=1.7e308,
                               p_dis_max=1e300, eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0)
        report = solve_storage_lp(params, PriceSeries([35.0, -1e-3], 1.0))
        assert feasibility_check(params, report.schedule).feasible
        assert report.kkt_max_residual <= 1e-7
        assert report.schedule.p_dis[0] == params.p_dis_max  # discharges at 35, then fills
        assert report.schedule.soe[-1] == params.s_max

    def test_costless_scd_next_to_costly_scd(self):
        # SCD at a zero price costs nothing, so it is not reported even
        # when SCD at a negative price elsewhere has a cost (the simplex
        # vertex has both, at t = 2 and t = 3)
        params, prices = unit_storage(), PriceSeries([20.0, 0.0, -10.0, 20.0], 1.0)
        report, vertex = solve_storage_lp(params, prices), simplex_answer(params, prices)
        assert [e.t for e in vertex.scd_events] == [2, 3]
        assert [e.t for e in report.scd_events] == [3]
        assert report.objective == pytest.approx(vertex.objective, rel=1e-12)
        assert report.kkt_max_residual <= 1e-7

    @pytest.mark.parametrize("storage", [random_params, fast_params])
    def test_hourly_month_matches_highs(self, storage):
        opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(0)
        params = storage(rng)
        prices = mixed_sign_prices(rng, 720)
        problem = build_lp(params, prices)
        ref = opt.linprog(-problem.c, A_eq=problem.a, b_eq=problem.rhs,
                          bounds=np.column_stack([problem.lower, problem.upper]), method="highs")
        assert ref.status == 0
        report = solve_storage_lp(params, prices)
        units = require_compatible(params, prices)
        assert report.objective == pytest.approx(math.ldexp(-ref.fun, units.e + units.p), rel=1e-9)
        assert report.kkt_max_residual <= 1e-7

    def test_hourly_year(self):
        # the dense simplex would allocate 1.84 GB for this LP's matrix
        answers = {}
        for storage in (random_params, fast_params):
            rng = np.random.default_rng(0)
            params = storage(rng)
            prices = mixed_sign_prices(rng, 8760)
            first, second = solve_storage_lp(params, prices), solve_storage_lp(params, prices)
            assert first.kkt_max_residual <= 1e-7
            assert feasibility_check(params, first.schedule).feasible
            assert first.objective == second.objective
            for a, b in ((first.schedule, second.schedule), (first.duals, second.duals)):
                for name in vars(a):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            answers[storage] = params, prices, first
        params, prices, report = answers[random_params]
        assert report.objective >= solve_dp(params, prices, DpConfig(801)).objective
