import itertools
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _instances import edge_draw, leaky_instance, milp_inputs
from storesched import (
    DpConfig,
    InfeasibleStorage,
    PriceSeries,
    RepairNotApplicable,
    Schedule,
    StorageParams,
    check_assumption_leakage,
    detect_scd,
    duration_of_charge,
    duration_of_discharge,
    feasibility_check,
    objective,
    propagate_soe,
    build_lp,
    build_milp,
    partition,
    repair_scd,
    require_compatible,
    require_schedulable,
    schedule_from_dict,
    schedule_to_dict,
    solve_dp,
    solve_lp,
    solve_storage_lp,
    solve_storage_milp,
)
from storesched.simplex import LpStatus
from storesched.storage import EPS, flow, net_exchange, powers_of
from test_robustness import SCALES


def make_params(**overrides):
    base = dict(
        s_min=0.0, s_max=1.0, s_init=0.5,
        p_chg_max=0.4, p_dis_max=0.4,
        eta_c=0.9, eta_d=0.9, rho=0.99, dt=1.0,
    )
    base.update(overrides)
    return StorageParams(**base)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(s_min=1.0, s_max=1.0)
        with pytest.raises(ValueError):
            make_params(s_init=2.0)
        with pytest.raises(ValueError):
            make_params(p_chg_max=0.0)
        with pytest.raises(ValueError):
            make_params(eta_c=1.2)
        with pytest.raises(ValueError):
            make_params(rho=0.0)
        with pytest.raises(ValueError):
            make_params(dt=-1.0)

    @pytest.mark.parametrize("name", ["s_min", "s_max", "s_init", "p_chg_max",
                                      "p_dis_max", "eta_c", "eta_d", "rho", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_params(**{name: value})

    @pytest.mark.parametrize("value", [None, 1 + 0j, "abc", "1", 10**400],
                             ids=["None", "complex", "abc", "str-1", "10**400"])
    def test_non_real_rejected_by_name(self, value):
        # as in PriceSeries; an integer beyond double precision reads as inf
        for name in ("s_min", "s_max", "s_init", "p_chg_max", "p_dis_max", "eta_c", "eta_d",
                     "rho", "dt"):
            message = (f"parameters must be finite: {name}" if isinstance(value, int)
                       else f"{name} must be a real number")
            with pytest.raises(ValueError, match=f"^{message}$"):
                make_params(**{name: value})

    def test_derived(self):
        params = make_params()
        assert params.eta == pytest.approx(0.81)
        assert params.capacity == pytest.approx(1.0)

    @pytest.mark.parametrize("name, overrides", [
        ("charge_step", dict(p_chg_max=1e308, dt=10.0)),
        ("discharge_step", dict(s_max=100.0, s_init=100.0, p_chg_max=1.0, p_dis_max=1e308,
                                rho=1.0, dt=10.0)),
    ])
    def test_overflowing_step_rejected(self, name, overrides):
        # ten hours at 1e308 MW move more energy than a double holds
        with pytest.raises(ValueError, match=f"{name} is inf"):
            make_params(**overrides)

    @pytest.mark.parametrize("name, overrides", [
        ("charge_step", dict(p_chg_max=5e-324, dt=1 / 6)),
        ("discharge_step", dict(p_dis_max=5e-324, dt=1 / 6)),
    ])
    def test_underflowing_step_rejected(self, name, overrides):
        # ten minutes at the smallest subnormal power move no energy in double
        # precision, so no grid or level could resolve a period's exchange
        with pytest.raises(ValueError, match=f"{name} is 0.0, below double precision"):
            make_params(**overrides)
        params = make_params(p_chg_max=1e-310, p_dis_max=1e-310)  # a subnormal step is > 0
        assert 0 < params.charge_step < params.discharge_step < np.finfo(float).tiny

    def test_energy_scale_below_the_normal_range_rejected(self):
        # no relative tolerance holds where every energy of the storage is subnormal
        with pytest.raises(ValueError, match=r"energy_scale is \S+, below the normal double range"):
            make_params(s_max=1e-310, s_init=0.0, p_chg_max=1e-310, p_dis_max=1e-310)
        params = make_params(s_max=1e-310, s_init=0.0)  # a normal reach is scale enough
        # the discharge reach, what the 1e-310 MWh level range and a full
        # charge let one period discharge, is below the discharge step
        assert params.energy_scale == params.discharge_reach < params.discharge_step


    def test_numpy_scalars_become_floats(self):
        # numpy scalar arithmetic warns on overflow, where a float's goes to
        # inf quietly and the step is refused by name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="charge_step is inf"):
                make_params(p_chg_max=np.float64(1e308), dt=10)
        params = make_params(s_max=np.float64(2.0), rho=np.float32(0.5), dt=np.int64(1))
        assert all(type(getattr(params, f.name)) is float for f in fields(params))
        assert params == make_params(s_max=2.0, rho=0.5, dt=1.0)


def full_charge_fits(params, T):
    """The reference for require_schedulable: a full charge every period,
    capped at s_max, from s_init.  Every reachable level lies at or below
    it, and it is itself a schedule while it stays at or above s_min."""
    top = params.s_init
    for _ in range(T):
        top = min(params.rho * top + params.charge_step, params.s_max)
        if top < params.s_min:
            return False
    return True


def one_verdict(params, prices):
    """require_schedulable's verdict, after checking that the full-charge
    loop and the simplex on build_lp, which does not apply the rule, agree."""
    T = len(prices)
    try:
        require_schedulable(params, T)
        fits = True
    except InfeasibleStorage as exc:
        assert str(exc) == "no schedule keeps the storage level within [s_min, s_max]"
        fits = False
    assert fits == full_charge_fits(params, T)
    assert fits == (solve_lp(build_lp(params, prices)).status is LpStatus.OPTIMAL)
    return fits


class TestSchedulable:
    def test_leaky_and_edge_draws(self):
        rng = np.random.default_rng(35)
        verdicts = [one_verdict(*leaky_instance(rng)[:2]) for _ in range(300)]
        verdicts += [one_verdict(*edge_draw(rng)) for _ in range(300)]
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(inputs=milp_inputs())
    def test_milp_inputs(self, inputs):
        one_verdict(*inputs)

    def test_closed_form_in_the_horizon(self):
        # no loop over the periods: a billion of them cost nothing
        require_schedulable(make_params(s_min=0.9, s_init=0.9, p_chg_max=1e-9, rho=1.0), 10**9)
        leaky = make_params(s_min=0.5, s_init=1.0, p_chg_max=1e-3, rho=0.99)  # f = 0.09
        require_schedulable(leaky, 79)  # its full charge ends at 0.5014
        for T in (80, 10**9):  # 0.4972, then 0.09
            with pytest.raises(InfeasibleStorage):
                require_schedulable(leaky, T)

    def test_every_solver_refuses_before_it_solves(self):
        # at s_min = 0.5 the level leaks 0.25 per period, and a full charge
        # adds only 0.09.  A two-point grid is too coarse for a 0.09 step,
        # and the prices' dt is not the storage's: the rule comes first
        params = make_params(s_min=0.5, s_init=0.5, p_chg_max=0.1, rho=0.5)
        prices = PriceSeries([35.0, -5.0, 40.0], 1.0)
        for call in (lambda: solve_storage_lp(params, prices),
                     lambda: build_milp(params, prices, True, partition(prices)),
                     lambda: solve_dp(params, prices, DpConfig(2)),
                     lambda: solve_dp(params, PriceSeries(prices.prices, 0.5), DpConfig(101))):
            with pytest.raises(InfeasibleStorage, match="storage level"):
                call()


class TestCompatible:
    def test_dt_and_the_edge_of_double_precision(self):
        params = make_params(dt=10.0)
        require_compatible(params, PriceSeries([35.0, -1.7e307], 10.0))  # dt * C_t: -1.7e308
        with pytest.raises(ValueError, match=r"^prices dt 1.0 differs from params dt 10.0$"):
            require_compatible(params, PriceSeries([35.0], 1.0))
        with pytest.raises(ValueError, match=r"^dt \* price is inf, beyond double precision$"):
            require_compatible(params, PriceSeries([35.0, -1.8e307], 10.0))

    def test_every_solver_refuses_before_it_solves(self, monkeypatch):
        # ten-hour periods at up to 1e308 EUR/MWh: dt * C_t overflows, and
        # every formulation refuses it with one message before its first
        # step (the value function, the simplex's problem, the DP's backward
        # pass) can run
        from storesched import dp, lp, value

        def unreachable(*args, **kwargs):
            raise AssertionError("a solver step ran")

        for module, name in ((value, "lp_optimum"), (lp, "lp_optimum"), (lp, "LpProblem"),
                             (dp, "_values")):
            monkeypatch.setattr(module, name, unreachable)
        params = make_params(dt=10.0)
        prices = PriceSeries([35.0, -5.0, 1e308], 10.0)
        part = partition(prices)
        for call in (lambda: solve_storage_lp(params, prices),
                     lambda: solve_storage_milp(params, prices, part, refined=False),
                     lambda: solve_storage_milp(params, prices, part, refined=True),
                     lambda: solve_dp(params, prices, DpConfig())):
            with pytest.raises(ValueError, match=r"^dt \* price is inf, beyond double precision$"):
                call()


params_strategy = st.builds(
    make_params,
    s_init=st.floats(0.0, 1.0),
    eta_c=st.floats(0.5, 1.0),
    eta_d=st.floats(0.5, 1.0),
    rho=st.floats(0.5, 1.0),
    dt=st.sampled_from([0.25, 1.0, 2.0]),
)


class TestPropagation:
    def test_single_step(self):
        params = make_params()
        soe = propagate_soe(params, [0.4], [0.0])
        assert soe[0] == pytest.approx(0.99 * 0.5 + 0.9 * 0.4)
        for p_chg, p_dis in (([0.4, 0.1], [0.0]), ([[0.4]], [[0.0]]), ([], [])):
            with pytest.raises(ValueError, match="1-D sequences of equal length"):
                propagate_soe(params, p_chg, p_dis)
        with pytest.raises(ValueError, match="nonnegative"):
            propagate_soe(params, [0.4], [-0.1])

    @given(
        params=params_strategy,
        powers=st.lists(
            st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.4)),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form(self, params, powers):
        # s_t = rho^t s_init + sum_k rho^(t-k) dt (eta_c pC_k - pD_k / eta_d)
        p_chg = np.array([p for p, _ in powers])
        p_dis = np.array([p for _, p in powers])
        soe = propagate_soe(params, p_chg, p_dis)
        net = params.dt * (params.eta_c * p_chg - p_dis / params.eta_d)
        for t in range(1, len(powers) + 1):
            closed = params.rho**t * params.s_init + sum(
                params.rho ** (t - k) * net[k - 1] for k in range(1, t + 1)
            )
            assert soe[t - 1] == pytest.approx(closed, rel=1e-10, abs=1e-12)
        # the net exchange s_t - rho*s_{t-1} recovers each period's energy flow
        np.testing.assert_allclose(net_exchange(params, soe), net, rtol=1e-9, atol=1e-12)
        # a period at full charge, then one at full discharge, moves the level
        # by the reach of each
        full = propagate_soe(params, [params.p_chg_max, 0.0], [0.0, params.p_dis_max])
        np.testing.assert_allclose(net_exchange(params, full),
                                   [params.charge_step, -params.discharge_step],
                                   rtol=1e-9, atol=1e-12)

    def test_powers_of_inverts_each_mode_of_flow(self):
        # the powers that charge x and burn y MWh in one period move x - y MWh again,
        # within the roundings of the two conversions and the difference (7 half-ulps
        # of the larger energy), for power limits across SCALES wherever a period's
        # energies are normal doubles; a zero energy stays a zero power
        rng, eps, checked = np.random.default_rng(5), np.finfo(float).eps, 0
        for p_chg_max, p_dis_max in itertools.product(SCALES, SCALES):
            for dt, eta_c, eta_d in ((1 / 6, 0.9, 0.8), (0.25, 0.97, 0.61), (10.0, 0.5, 1.0)):
                try:
                    params = make_params(p_chg_max=p_chg_max, p_dis_max=p_dis_max,
                                         eta_c=eta_c, eta_d=eta_d, dt=dt)
                except ValueError:  # a step below double precision
                    continue
                steps = params.charge_step, params.discharge_step
                if min(steps) < np.finfo(float).tiny:
                    continue
                x, y = (step * rng.random(100) * (rng.random(100) < 0.8) for step in steps)
                p_chg, p_dis = powers_of(params, x, y)
                assert np.all(p_chg[x == 0] == 0) and np.all(p_dis[y == 0] == 0)
                back = flow(params, p_chg, p_dis)
                assert np.all(np.abs(back - (x - y)) <= 3.5 * eps * np.maximum(x, y))
                checked += 1
        assert checked >= 100


class TestObjective:
    def test_value(self):
        sch = Schedule(p_chg=[0.2, 0.0], p_dis=[0.0, 0.3], soe=[0.1, 0.2])
        prices = PriceSeries([10.0, -5.0], 2.0)
        assert objective(prices, sch, 2.0) == pytest.approx(2 * 10 * -0.2 + 2 * -5 * 0.3)

    def test_length_mismatch(self):
        sch = Schedule(p_chg=[0.1], p_dis=[0.0], soe=[0.1])
        with pytest.raises(ValueError):
            objective(PriceSeries([1.0, 2.0], 1.0), sch, 1.0)


def reference_feasibility(params, schedule):
    """The per-period loop feasibility_check replaced: the same tags in the
    same order, the recursion residual computed as s_t - expected, within
    EPS of the energy scale (over dt for a power)."""
    e_tol = EPS * max(params.s_max, params.charge_step, params.discharge_step)
    violations = []
    prev = params.s_init
    with np.errstate(all="ignore"):  # inf - inf in the residual is NaN, not a violation
        for k in range(len(schedule)):
            t = k + 1
            pc, pd, s = schedule.p_chg[k], schedule.p_dis[k], schedule.soe[k]
            for tag, v, lo, hi, tol in (("pc", pc, 0.0, params.p_chg_max, e_tol / params.dt),
                                        ("pd", pd, 0.0, params.p_dis_max, e_tol / params.dt),
                                        ("soe", s, params.s_min, params.s_max, e_tol)):
                if not np.isfinite(v):
                    violations.append((t, f"nonfinite_{tag}", abs(v)))
                elif v < lo - tol:
                    violations.append((t, f"bound_{tag}", lo - v))
                elif v > hi + tol:
                    violations.append((t, f"bound_{tag}", v - hi))
            expected = params.rho * prev + params.dt * (params.eta_c * pc - pd / params.eta_d)
            if abs(s - expected) > e_tol:
                violations.append((t, "soe_recursion", abs(s - expected)))
            prev = s
    return violations


def bits(violations):
    """Violations with each magnitude as its bytes, so that NaN equals NaN."""
    return [(t, tag, np.float64(m).tobytes()) for t, tag, m in violations]


class TestFeasibility:
    def test_consistent_schedule_passes(self):
        params = make_params()
        p_chg = np.array([0.4, 0.0, 0.1])
        p_dis = np.array([0.0, 0.3, 0.0])
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=propagate_soe(params, p_chg, p_dis))
        report = feasibility_check(params, sch)
        assert report.feasible and not report.violations

    def test_violation_tags(self):
        params = make_params()
        sch = Schedule(p_chg=[0.9], p_dis=[0.0], soe=[0.5])
        report = feasibility_check(params, sch)
        tags = {tag for _, tag, _ in report.violations}
        assert "bound_pc" in tags
        assert "soe_recursion" in tags
        # the bounds the first schedule leaves: p_chg < 0, p_dis > p_dis_max, soe < s_min
        sch = Schedule(p_chg=[-0.1], p_dis=[0.5], soe=[-0.2])
        report = feasibility_check(params, sch)
        assert [tag for _, tag, _ in report.violations] == [
            "bound_pc", "bound_pd", "bound_soe", "soe_recursion"
        ]
        np.testing.assert_allclose([m for _, _, m in report.violations[:3]], [0.1, 0.1, 0.2])

    def test_soe_bound_violation(self):
        params = make_params(s_init=1.0, rho=1.0)
        sch = Schedule(p_chg=[0.4], p_dis=[0.0], soe=[1.36])
        report = feasibility_check(params, sch)
        assert [(t, tag) for t, tag, _ in report.violations] == [(1, "bound_soe")]

    def test_nonfinite_entries_reported(self):
        params = make_params()
        # period 4 charges at inf to an infinite level from a finite one: its
        # recursion residual inf - inf is NaN, which is no violation and no warning
        sch = Schedule(p_chg=[np.nan, 0.0, 0.0, np.inf], p_dis=[0.0, np.inf, 0.0, 0.0],
                       soe=[np.nan, np.nan, 0.5, np.inf])
        report = feasibility_check(params, sch)
        assert not report.feasible
        nonfinite = [(t, tag) for t, tag, _ in report.violations if tag.startswith("nonfinite")]
        assert nonfinite == [
            (1, "nonfinite_pc"), (1, "nonfinite_soe"), (2, "nonfinite_pd"), (2, "nonfinite_soe"),
            (4, "nonfinite_pc"), (4, "nonfinite_soe"),
        ]
        assert bits(report.violations) == bits(reference_feasibility(params, sch))

    def test_matches_the_reference_loop(self):
        # consistent schedules with NaN, +-inf, bound and recursion faults
        # injected: the same periods and tags in the same order, bit-identical
        # bound and nonfinite magnitudes, and recursion magnitudes within the
        # rounding of s_t - rho*s_{t-1} - flow against s_t - (rho*s_{t-1} + flow)
        rng = np.random.default_rng(5)
        reported = 0
        for _ in range(300):
            T = int(rng.integers(1, 25))
            params = make_params(s_init=float(rng.uniform(0, 1)), rho=float(rng.choice([1.0, 0.99])))
            p_chg, p_dis = rng.uniform(0, 0.4, (2, T)) * (rng.random((2, T)) < 0.6)
            arrays = [p_chg, p_dis, propagate_soe(params, p_chg, p_dis)]
            for _ in range(int(rng.integers(0, 5))):
                a, k = int(rng.integers(3)), int(rng.integers(T))
                if rng.random() < 0.5:  # a nonfinite or out-of-bounds entry
                    arrays[a][k] = rng.choice([np.nan, np.inf, -np.inf, -0.3, 1.5])
                else:  # a recursion fault, below or above the tolerance
                    arrays[a][k] += rng.choice([1e-8, 1e-6, 0.2])
            sch = Schedule(*arrays)
            report = feasibility_check(params, sch)
            expected = reference_feasibility(params, sch)
            assert [v[:2] for v in report.violations] == [v[:2] for v in expected]
            for got, want in zip(report.violations, expected):
                if got[1] == "soe_recursion" and np.isfinite(want[2]):
                    assert got[2] == pytest.approx(want[2], rel=1e-8)
                else:
                    assert bits([got]) == bits([want])
            assert report.feasible == (not expected)
            reported += len(expected)
        assert reported > 300

    def test_one_based_periods(self):
        params = make_params(rho=1.0)
        p_chg = np.array([0.0, 0.0, 0.0])
        sch = Schedule(p_chg=p_chg, p_dis=[0.0, 0.0, -0.2], soe=[0.5, 0.5, 0.5])
        report = feasibility_check(params, sch)
        assert report.violations[0][0] == 3


class TestScd:
    def test_detect(self):
        sch = Schedule(p_chg=[0.2, 0.2, 0.0], p_dis=[0.1, 0.0, 0.1], soe=[0.5] * 3)
        events = detect_scd(sch)
        assert [ev.t for ev in events] == [1]
        assert events[0].p_chg_t == 0.2 and events[0].p_dis_t == 0.1

    def test_tolerance(self):
        sch = Schedule(p_chg=[1e-9], p_dis=[0.5], soe=[0.5])
        assert detect_scd(sch) == []

    def test_detect_matches_a_per_period_loop(self):
        rng = np.random.default_rng(3)
        # 3e-8 and just above it straddle EPS times the largest power 0.3
        values = np.array([0.0, 3e-8, 3.0000001e-8, 0.3, np.nan, np.inf, -0.2])
        for _ in range(50):
            T = int(rng.integers(1, 40))
            sch = Schedule(p_chg=rng.choice(values, T), p_dis=rng.choice(values, T),
                           soe=np.zeros(T))
            finite = [v for v in (*sch.p_chg, *sch.p_dis) if np.isfinite(v)]
            tol = EPS * max([*finite, 0.0])
            expected = [
                (k + 1, float(sch.p_chg[k]), float(sch.p_dis[k])) for k in range(T)
                if sch.p_chg[k] > tol and sch.p_dis[k] > tol
            ]
            events = detect_scd(sch)
            assert [(ev.t, ev.p_chg_t, ev.p_dis_t) for ev in events] == expected
            assert all(type(ev.t) is int and type(ev.p_chg_t) is float for ev in events)

    def test_repair_zero_price(self):
        params = make_params(rho=1.0, s_init=0.0, p_chg_max=1.0, p_dis_max=1.0)
        p_chg, p_dis = np.array([0.5]), np.array([0.2])
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=propagate_soe(params, p_chg, p_dis))
        fixed = repair_scd(params, PriceSeries([0.0], 1.0), sch)
        assert detect_scd(fixed) == []
        np.testing.assert_allclose(fixed.soe, sch.soe)
        assert feasibility_check(params, fixed).feasible
        with pytest.raises(ValueError, match="lengths differ"):
            repair_scd(params, PriceSeries([0.0, 0.0], 1.0), sch)

    def test_repair_keeps_objective_at_zero_price(self):
        params = make_params(rho=1.0, s_init=0.2, p_chg_max=1.0, p_dis_max=1.0)
        prices = PriceSeries([0.0, 25.0], 1.0)
        p_chg, p_dis = np.array([0.4, 0.0]), np.array([0.6, 0.1])
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=propagate_soe(params, p_chg, p_dis))
        fixed = repair_scd(params, prices, sch)
        assert objective(prices, fixed, 1.0) == pytest.approx(objective(prices, sch, 1.0))

    def test_repair_perfect_efficiency_any_price(self):
        params = make_params(eta_c=1.0, eta_d=1.0, rho=1.0, p_chg_max=1.0, p_dis_max=1.0)
        prices = PriceSeries([-10.0], 1.0)
        p_chg, p_dis = np.array([0.3]), np.array([0.1])
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=propagate_soe(params, p_chg, p_dis))
        fixed = repair_scd(params, prices, sch)
        assert detect_scd(fixed) == []
        assert objective(prices, fixed, 1.0) == pytest.approx(objective(prices, sch, 1.0))

    def test_repair_refuses_lossy_negative_price(self):
        params = make_params(p_chg_max=1.0, p_dis_max=1.0)
        p_chg, p_dis = np.array([0.3]), np.array([0.1])
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=propagate_soe(params, p_chg, p_dis))
        with pytest.raises(RepairNotApplicable):
            repair_scd(params, PriceSeries([-10.0], 1.0), sch)

    @given(
        s_init=st.floats(0.2, 0.8),
        pc=st.floats(0.01, 0.3),
        pd=st.floats(0.01, 0.3),
        eta_c=st.floats(0.7, 1.0),
        eta_d=st.floats(0.7, 1.0),
        rho=st.floats(0.9, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_repair_invariants(self, s_init, pc, pd, eta_c, eta_d, rho):
        params = make_params(
            s_init=s_init, eta_c=eta_c, eta_d=eta_d, rho=rho,
            p_chg_max=1.0, p_dis_max=1.0,
        )
        prices = PriceSeries([0.0], 1.0)
        p_chg, p_dis = np.array([pc]), np.array([pd])
        soe = propagate_soe(params, p_chg, p_dis)
        assume(params.s_min <= soe[0] <= params.s_max)
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=soe)
        fixed = repair_scd(params, prices, sch)
        assert detect_scd(fixed) == []
        np.testing.assert_allclose(fixed.soe, sch.soe)
        assert feasibility_check(params, fixed).feasible
        # single-mode powers never exceed those of the repaired solution
        assert fixed.p_chg[0] <= p_chg[0] + 1e-12
        assert fixed.p_dis[0] <= p_dis[0] + 1e-12


class TestDurations:
    def test_reference_values(self):
        fast = make_params(p_chg_max=2.0, p_dis_max=2.0, rho=1.0, s_init=0.0)
        assert duration_of_charge(fast) == pytest.approx(1 / 1.8)
        assert duration_of_discharge(fast) == pytest.approx(0.45)

    def test_dt_independent(self):
        a = make_params(dt=1.0)
        b = make_params(dt=0.25)
        assert duration_of_charge(a) == duration_of_charge(b)


class TestLeakageAssumption:
    def test_holds_without_leakage(self):
        assert check_assumption_leakage(make_params(rho=1.0))

    def test_fails_with_heavy_leakage(self):
        assert not check_assumption_leakage(
            make_params(rho=0.5, p_chg_max=0.1, eta_c=0.9)
        )

    def test_boundary_counts_as_holding(self):
        params = make_params(rho=0.9, p_chg_max=0.1 / 0.9, eta_c=1.0, s_max=1.0)
        assert check_assumption_leakage(params)


class TestScheduleJson:
    def test_round_trip(self):
        sch = Schedule(p_chg=[0.1, 0.0], p_dis=[0.0, 0.2], soe=[0.6, 0.35])
        doc = schedule_to_dict(sch, 0.5)
        assert set(doc) == {"dt_hours", "p_chg", "p_dis", "soe"}
        back, dt = schedule_from_dict(doc)
        assert dt == 0.5
        np.testing.assert_array_equal(back.p_chg, sch.p_chg)
        np.testing.assert_array_equal(back.soe, sch.soe)

    def test_missing_key(self):
        with pytest.raises(ValueError):
            schedule_from_dict({"dt_hours": 1.0, "p_chg": [0.1], "p_dis": [0.0]})

    def test_arrays_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            Schedule(p_chg=[[0.0, 0.0]], p_dis=[[0.0, 0.0]], soe=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="1-D"):
            Schedule(p_chg=0.0, p_dis=0.0, soe=0.0)
        with pytest.raises(ValueError, match="one length"):
            Schedule(p_chg=[0.0, 0.0], p_dis=[0.0], soe=[0.0, 0.0])
        with pytest.raises(ValueError, match="at least one period"):
            Schedule(p_chg=[], p_dis=[], soe=[])
