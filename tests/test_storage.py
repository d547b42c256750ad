import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from storesched import (
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
    repair_scd,
    schedule_from_dict,
    schedule_to_dict,
)


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

    def test_derived(self):
        params = make_params()
        assert params.eta == pytest.approx(0.81)
        assert params.capacity == pytest.approx(1.0)


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


class TestObjective:
    def test_value(self):
        sch = Schedule(p_chg=[0.2, 0.0], p_dis=[0.0, 0.3], soe=[0.1, 0.2])
        prices = PriceSeries([10.0, -5.0], 2.0)
        assert objective(prices, sch, 2.0) == pytest.approx(2 * 10 * -0.2 + 2 * -5 * 0.3)

    def test_length_mismatch(self):
        sch = Schedule(p_chg=[0.1], p_dis=[0.0], soe=[0.1])
        with pytest.raises(ValueError):
            objective(PriceSeries([1.0, 2.0], 1.0), sch, 1.0)


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

    def test_soe_bound_violation(self):
        params = make_params(s_init=1.0, rho=1.0)
        sch = Schedule(p_chg=[0.4], p_dis=[0.0], soe=[1.36])
        report = feasibility_check(params, sch)
        assert [(t, tag) for t, tag, _ in report.violations] == [(1, "bound_soe")]

    def test_nonfinite_entries_reported(self):
        params = make_params()
        sch = Schedule(p_chg=[np.nan, 0.0], p_dis=[0.0, np.inf], soe=[np.nan, np.nan])
        report = feasibility_check(params, sch)
        assert not report.feasible
        nonfinite = [(t, tag) for t, tag, _ in report.violations if tag.startswith("nonfinite")]
        assert nonfinite == [
            (1, "nonfinite_pc"), (1, "nonfinite_soe"), (2, "nonfinite_pd"), (2, "nonfinite_soe")
        ]

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

    def test_repair_zero_price(self):
        params = make_params(rho=1.0, s_init=0.0, p_chg_max=1.0, p_dis_max=1.0)
        p_chg, p_dis = np.array([0.5]), np.array([0.2])
        sch = Schedule(p_chg=p_chg, p_dis=p_dis, soe=propagate_soe(params, p_chg, p_dis))
        fixed = repair_scd(params, PriceSeries([0.0], 1.0), sch)
        assert detect_scd(fixed) == []
        np.testing.assert_allclose(fixed.soe, sch.soe)
        assert feasibility_check(params, fixed).feasible

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
