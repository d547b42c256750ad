from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, event, example, given, reject, settings, target
from hypothesis import strategies as st

from _instances import fast_params, mixed_sign_prices, random_params
from storesched import (
    AssumptionViolated,
    InfeasibleStorage,
    Lemma1Class,
    NoNegativePrices,
    NotNegativePrice,
    PriceSeries,
    Prop1Case,
    Recommendation,
    Schedule,
    StorageParams,
    advise,
    check_assumption_leakage,
    corollary2_inexact,
    lemma1_classify,
    partition,
    propagate_soe,
    prop1_classify,
    require_schedulable,
    solve_storage_lp,
    solve_storage_milp,
    theorem1_condition1,
    theorem2_check,
    theorem3_shat,
)
from storesched.conditions import _full_rate, _geo_sum
from storesched.storage import EPS


def unit_storage(p_chg, p_dis, eta=0.9, rho=1.0, s_init=0.0):
    return StorageParams(
        s_min=0.0, s_max=1.0, s_init=s_init,
        p_chg_max=p_chg, p_dis_max=p_dis,
        eta_c=eta, eta_d=eta, rho=rho, dt=1.0,
    )


def series(values):
    return PriceSeries(np.asarray(values, dtype=float), 1.0)


def run_series(n_pos_before, n_neg, n_pos_after):
    values = [10.0] * n_pos_before + [-10.0] * n_neg + [10.0] * n_pos_after
    return series(values)


class TestProp1:
    def test_all_positive_lossy(self):
        verdict = prop1_classify(unit_storage(0.2, 0.2), partition(series([5, 1])))
        assert verdict is Prop1Case.EXACT_ALL_OPTIMA
        assert verdict.exact

    def test_perfect_efficiency(self):
        verdict = prop1_classify(
            unit_storage(0.2, 0.2, eta=1.0), partition(series([-5, 1]))
        )
        assert verdict is Prop1Case.EXACT_SOME_OPTIMUM_PERFECT_ETA

    def test_no_negative_prices_with_zero(self):
        verdict = prop1_classify(unit_storage(0.2, 0.2), partition(series([0, 1])))
        assert verdict is Prop1Case.EXACT_SOME_OPTIMUM_NO_NEG_PRICES

    def test_inconclusive(self):
        verdict = prop1_classify(unit_storage(0.2, 0.2), partition(series([-5, 1])))
        assert verdict is Prop1Case.INCONCLUSIVE
        assert not verdict.exact


class TestCorollary2:
    def test_one_period_full_cycle(self):
        assert corollary2_inexact(unit_storage(2.0, 2.0))

    def test_slow_storage(self):
        assert not corollary2_inexact(unit_storage(0.2, 0.2))

    def test_strict_boundary(self):
        # exactly reaching the bounds does not fire the strict inequalities
        params = unit_storage(1 / 0.9, 0.9)
        assert not corollary2_inexact(params)

    def test_one_sided_is_not_enough(self):
        assert not corollary2_inexact(unit_storage(2.0, 0.2))
        assert not corollary2_inexact(unit_storage(0.2, 2.0))


class TestTheorem1Cond1:
    def test_critical_power_threshold(self):
        # flips at p_chg = 1 / (32 * 0.9) for a 32-period run without leakage
        prices = run_series(2, 32, 2)
        part = partition(prices)
        critical = 1 / (32 * 0.9)
        assert theorem1_condition1(unit_storage(critical + 1e-4, 0.1), part)
        assert not theorem1_condition1(unit_storage(critical - 1e-4, 0.1), part)

    def test_boundary_is_not_inexact(self):
        part = partition(run_series(1, 4, 1))
        assert not theorem1_condition1(unit_storage(1 / (4 * 0.9), 0.1), part)

    def test_requires_negative_prices(self):
        with pytest.raises(NoNegativePrices):
            theorem1_condition1(unit_storage(0.2, 0.2), partition(series([1, 2])))

    def test_leakage_raises_the_bar(self):
        part = partition(run_series(1, 4, 1))
        p = 1 / (4 * 0.9) + 1e-4
        assert theorem1_condition1(unit_storage(p, 0.1), part)
        assert not theorem1_condition1(unit_storage(p, 0.1, rho=0.95), part)


@st.composite
def leaky_storage(draw):
    """A storage whose full charge makes up one period's leakage at s_max."""
    s_max = draw(st.floats(1e-3, 1e3))
    params = StorageParams(
        s_min=s_max * draw(st.floats(0.0, 0.9)), s_max=s_max, s_init=s_max,
        p_chg_max=draw(st.floats(1e-4, 1e4)), p_dis_max=1.0, eta_c=draw(st.floats(0.5, 1.0)),
        rho=draw(st.floats(0.0, 1.0, exclude_min=True)), dt=draw(st.sampled_from([0.25, 1.0])),
    )
    assume(check_assumption_leakage(params))
    return params


@given(params=leaky_storage(), n=st.integers(1, 500))
@example(params=StorageParams(s_min=0, s_max=1, s_init=1, p_chg_max=0.5, p_dis_max=1, rho=0.5),
         n=40)  # (1 - rho) * s_max == charge_step: a full charge from s_max stays on it
@settings(deadline=None)
def test_theorem1_cond2_always_has_a_witness(params, n):
    """Theorem 1's condition 2 asks for a start level in [s_min, s_max] from
    which full-rate charge and discharge over the longest negative run (n
    periods) lands exactly on s_max.  advise reads theorem 1 only under the
    leakage assumption (1 - rho) * s_max <= charge_step, which is the same
    as rho^n * s_max + charge_step * sum_{i<n} rho^i >= s_max for every n:
    a full charge from s_max ends at or above s_max.  Where condition 1 is
    false, a full charge from s_min ends at or below s_max, so by continuity
    a full charge from some level between them ends on s_max: the condition
    always holds there, and advise needs no search for it."""
    level = _full_rate(params, params.s_max, n, params.charge_step)
    assert level >= params.s_max - EPS * params.energy_scale


class TestTheorem2:
    def test_critical_power_threshold(self):
        # tau1=11, tau2=14, s_init=0, rho=1: flips at 1 / (4 * 0.9)
        prices = run_series(10, 4, 10)
        part = partition(prices)
        critical = 1 / (4 * 0.9)
        assert theorem2_check(unit_storage(critical - 1e-4, 0.27), part)
        assert not theorem2_check(unit_storage(critical + 1e-4, 0.27), part)

    def test_boundary_is_exact(self):
        part = partition(run_series(10, 4, 10))
        assert theorem2_check(unit_storage(1 / (4 * 0.9), 0.27), part)

    def test_initial_level_discharged_first(self):
        part = partition(run_series(10, 4, 10))
        # full start, but 10 periods of max discharge reach the floor
        params = unit_storage(0.27, 0.27, s_init=1.0)
        assert theorem2_check(params, part)
        # too little discharge power to make room in time
        params = unit_storage(0.27, 0.008, s_init=1.0)
        assert not theorem2_check(params, part)

    def test_multiple_blocks_fail_the_precondition(self):
        part = partition(series([-1, 5, -1]))
        assert not theorem2_check(unit_storage(0.01, 0.5), part)


class TestTheorem3:
    BLOCKS = [(13, 2), (19, 8), (16, 8), (6, 0)]

    def _prices(self):
        chunks = []
        for p, n in self.BLOCKS:
            chunks.extend([10.0] * p)
            chunks.extend([-10.0] * n)
        return series(chunks)

    def test_fast_storage_violates_at_second_block(self):
        part = partition(self._prices())
        shat = theorem3_shat(unit_storage(0.2, 0.2), part)
        assert shat.values[0] == pytest.approx(0.36, abs=0.01)
        assert shat.values[1] == pytest.approx(1.44, abs=0.01)
        assert shat.first_violation == 2
        assert not shat.exact

    def test_slow_storage_stays_within_capacity(self):
        part = partition(self._prices())
        shat = theorem3_shat(unit_storage(0.1, 0.1), part)
        expected = [0.18, 0.72, 0.72, 0.0533]
        assert shat.first_violation is None
        assert shat.exact
        for got, want in zip(shat.values, expected):
            assert got == pytest.approx(want, abs=0.01)

    def test_assumption_guard(self):
        part = partition(self._prices())
        with pytest.raises(AssumptionViolated):
            theorem3_shat(unit_storage(0.01, 0.2, rho=0.5), part)

    def test_specializes_to_theorem2_without_leakage(self):
        # with a single negative block and rho = 1 the block recurrence
        # reduces to the single-run capacity check
        rng = np.random.default_rng(5)
        for _ in range(200):
            pre = int(rng.integers(0, 8))
            n = int(rng.integers(1, 7))
            post = int(rng.integers(1, 6))
            params = unit_storage(
                float(rng.uniform(0.02, 0.6)),
                float(rng.uniform(0.02, 0.6)),
                eta=float(rng.uniform(0.8, 1.0)),
                s_init=float(rng.uniform(0.0, 1.0)),
            )
            part = partition(run_series(pre, n, post))
            shat = theorem3_shat(params, part)
            # the single negative run always falls in the first block
            violated = shat.first_violation == 1
            assert theorem2_check(params, part) == (not violated)

    def test_theorem2_is_stricter_with_leakage(self):
        # on one negative block, theorem2_check scales the depleted level by
        # rho^(tau2 - tau1) and the block recurrence by rho^n, n = tau2 - tau1 + 1,
        # so with rho < 1 theorem 2 certifies the LP only where theorem 3 does
        rng = np.random.default_rng(0)
        only_theorem3 = 0
        for _ in range(2000):
            pre, n, post = (int(rng.integers(lo, hi)) for lo, hi in ((0, 8), (1, 9), (0, 6)))
            s_min = float(rng.uniform(0.0, 0.3))
            params = StorageParams(
                s_min=s_min, s_max=1.0, s_init=float(rng.uniform(s_min, 1.0)),
                p_chg_max=float(rng.uniform(0.02, 0.6)), p_dis_max=float(rng.uniform(0.02, 0.6)),
                eta_c=float(rng.uniform(0.8, 1.0)), eta_d=float(rng.uniform(0.8, 1.0)),
                rho=float(rng.uniform(0.8, 1.0)),
            )
            if not check_assumption_leakage(params):
                continue
            part = partition(run_series(pre, n, post))
            exact = theorem3_shat(params, part).exact
            if theorem2_check(params, part):
                assert exact
            else:
                only_theorem3 += exact
        assert only_theorem3 > 0

    @given(
        p_chg=st.floats(0.02, 0.5),
        scale=st.floats(1.1, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_shat_monotone_in_charge_power(self, p_chg, scale):
        part = partition(run_series(3, 4, 3))
        small = theorem3_shat(unit_storage(p_chg, 0.2), part)
        big = theorem3_shat(unit_storage(min(p_chg * scale, 1.0), 0.2), part)
        for a, b in zip(small.values, big.values):
            assert b >= a - 1e-12


def reference_corollary2(params):
    """Reference for corollary2_inexact: its one-period closed forms."""
    full_charge = params.rho * params.s_min + params.dt * params.eta_c * params.p_chg_max
    full_discharge = params.rho * params.s_max - params.dt * params.p_dis_max / params.eta_d
    return full_charge > params.s_max and full_discharge < params.s_min


def reference_condition1(params, part):
    """Reference for theorem1_condition1: its closed form."""
    n = part.n_bar
    lhs = params.rho**n * params.s_min + params.dt * params.eta_c * params.p_chg_max * _geo_sum(
        params.rho, n
    )
    return lhs > params.s_max


def reference_theorem2(params, part):
    """Reference for theorem2_check: its closed forms, with the depleted
    level's reach rounded as dt * (Pd / eta_d)."""
    if part.num_negative_blocks != 1:
        return False
    tau1, tau2 = part.longest_neg
    dt = params.dt
    depleted = max(
        params.rho ** (tau1 - 1) * params.s_init
        - dt * (params.p_dis_max / params.eta_d) * _geo_sum(params.rho, tau1 - 1),
        params.s_min,
    )
    lhs = params.rho ** (tau2 - tau1) * depleted + dt * params.eta_c * params.p_chg_max * _geo_sum(
        params.rho, tau2 - tau1 + 1
    )
    return lhs <= params.s_max


def reference_theorem3(params, part):
    """Reference for theorem3_shat: the block recurrence with its closed
    forms, as (values, first_violation)."""
    dis = params.dt * params.p_dis_max / params.eta_d
    chg = params.dt * params.eta_c * params.p_chg_max
    values = []
    first_violation = None
    prev = params.s_init
    for j, (p, n) in enumerate(part.blocks, start=1):
        depleted = max(params.rho**p * prev - dis * _geo_sum(params.rho, p), params.s_min)
        shat = params.rho**n * depleted + chg * _geo_sum(params.rho, n)
        values.append(shat)
        if first_violation is None and shat > params.s_max:
            first_violation = j
        prev = shat
    return tuple(values), first_violation


class TestFullRateReferences:
    def test_conditions_match_their_closed_forms(self):
        # bit for bit at dt a power of two; elsewhere theorem 2's reference
        # rounds its discharge reach as dt * (Pd / eta_d), not (dt * Pd) / eta_d
        rng = np.random.default_rng(11)
        outcomes = Counter()
        for i in range(400):
            dt = float(rng.choice([0.25, 0.5, 1.0]))
            params = fast_params(rng, dt) if i % 3 == 0 else random_params(rng, dt=dt)
            pre, n, post = (int(k) for k in rng.integers([0, 1, 0], [12, 10, 6]))
            single = PriceSeries([5.0] * pre + [-5.0] * n + [5.0] * post, dt)
            assert corollary2_inexact(params) == reference_corollary2(params)
            for prices in (mixed_sign_prices(rng, int(rng.integers(2, 60)), dt), single):
                part = partition(prices)
                fired = theorem1_condition1(params, part)
                assert fired == reference_condition1(params, part)
                certified = theorem2_check(params, part)
                assert certified == reference_theorem2(params, part)
                outcomes["cond1", fired] += 1
                outcomes["theorem2", certified] += part.num_negative_blocks == 1
                if check_assumption_leakage(params):
                    shat = theorem3_shat(params, part)
                    # repr pins the bits of every block level
                    assert repr((shat.values, shat.first_violation)) == repr(
                        reference_theorem3(params, part))
                    outcomes["theorem3", shat.exact] += 1
        # each condition came out both ways
        assert all(outcomes[rule, verdict] >= 10 for rule in ("cond1", "theorem2", "theorem3")
                   for verdict in (True, False)), outcomes

    def test_theorem2_rounds_its_reach_once(self):
        # dt = 0.1 is no power of two: the two roundings of the discharge
        # reach differ in the last bit, and so does the depleted level
        params = StorageParams(s_min=0.0, s_max=10.0, s_init=10.0, p_chg_max=0.3,
                               p_dis_max=0.7, eta_c=0.9, eta_d=0.9, dt=0.1)
        assert params.discharge_step == (0.1 * 0.7) / 0.9 != 0.1 * (0.7 / 0.9)
        part = partition(PriceSeries([5.0, 5.0, -5.0, 5.0], 0.1))
        assert theorem2_check(params, part) == reference_theorem2(params, part)


class TestLemma1:
    def _optimum_like(self, params, p_chg, p_dis):
        soe = propagate_soe(params, p_chg, p_dis)
        return Schedule(p_chg=np.asarray(p_chg, float), p_dis=np.asarray(p_dis, float), soe=soe)

    def test_net_charge_max(self):
        params = unit_storage(0.2, 0.2)
        sch = self._optimum_like(params, [0.2], [0.0])
        verdict = lemma1_classify(params, series([-5.0]), sch, 1)
        assert verdict.classification is Lemma1Class.NET_CHARGE_MAX
        assert verdict.beta_t == pytest.approx(0.18)

    def test_net_discharge_max(self):
        params = unit_storage(0.2, 0.2, s_init=1.0)
        sch = self._optimum_like(params, [0.0], [0.2])
        verdict = lemma1_classify(params, series([-5.0]), sch, 1)
        assert verdict.classification is Lemma1Class.NET_DISCHARGE_MAX

    def test_interior_means_scd_optimal(self):
        params = unit_storage(0.2, 0.2, s_init=0.5)
        sch = self._optimum_like(params, [0.1], [0.0])
        verdict = lemma1_classify(params, series([-5.0]), sch, 1)
        assert verdict.classification is Lemma1Class.SCD_OPTIMAL

    def test_rejects_nonnegative_price(self):
        params = unit_storage(0.2, 0.2)
        sch = self._optimum_like(params, [0.2], [0.0])
        with pytest.raises(NotNegativePrice):
            lemma1_classify(params, series([5.0]), sch, 1)

    def test_period_out_of_range(self):
        params = unit_storage(0.2, 0.2)
        sch = self._optimum_like(params, [0.2], [0.0])
        for t in (2, 0, 1.5, True):  # a period is an integer in [1, T]
            with pytest.raises(ValueError, match=r"^t must be an integer in \[1, 1\]"):
                lemma1_classify(params, series([-5.0]), sch, t)

    def test_lengths_differ(self):
        # prices shorter than the schedule, then longer: each is refused, as
        # storage.objective refuses them, before any period is read
        params = unit_storage(0.2, 0.2)
        for p_chg, prices in (([0.2, 0.0], [-5.0]), ([0.2], [-5.0, -5.0])):
            sch = self._optimum_like(params, p_chg, [0.0] * len(p_chg))
            with pytest.raises(ValueError, match="^price and schedule lengths differ$"):
                lemma1_classify(params, series(prices), sch, 1)
            with pytest.raises(ValueError, match="^price and schedule lengths differ$"):
                lemma1_classify(params, series(prices), sch, len(p_chg))

    def test_infinite_levels(self):
        # beta = inf - rho * inf is NaN, an interior exchange, and computing
        # it warns about nothing (a warning is an error here)
        sch = Schedule([0.0, 0.0], [0.0, 0.0], [np.inf, np.inf])
        verdict = lemma1_classify(unit_storage(0.2, 0.2), series([-5.0, -5.0]), sch, 2)
        assert np.isnan(verdict.beta_t)
        assert verdict.classification is Lemma1Class.SCD_OPTIMAL


class TestAdvise:
    def test_prop1_short_circuit(self):
        advice = advise(unit_storage(2.0, 2.0, eta=1.0), partition(series([-5, 5])))
        assert advice.recommendation is Recommendation.SOLVE_LP
        assert advice.rationale[0][0] == "prop1" and advice.rationale[0][1]

    def test_corollary2_route(self):
        advice = advise(unit_storage(2.0, 2.0), partition(series([-5, 5])))
        assert advice.recommendation is Recommendation.SOLVE_REFINED_MILP
        assert [r for r, fired, _ in advice.rationale if fired] == ["corollary2"]

    def test_final_level_branch(self):
        params = unit_storage(0.1, 0.1)
        part = partition(run_series(10, 4, 10))
        assert advise(params, part).recommendation is Recommendation.SOLVE_LP
        constrained = advise(params, part, final_level_constrained=True)
        assert constrained.recommendation is Recommendation.SOLVE_REFINED_MILP
        assert any(r == "final_level" and fired for r, fired, _ in constrained.rationale)

    def test_theorem1_route(self):
        params = unit_storage(0.5, 0.5)
        advice = advise(params, partition(run_series(2, 4, 2)))
        assert advice.recommendation is Recommendation.SOLVE_REFINED_MILP
        assert advice.rationale[-1][0] == "theorem1_cond1"

    def test_theorem2_leaf(self):
        # a single negative run is decided by theorem 3's recurrence, as several are
        for params, fired in ((unit_storage(0.1, 0.2), True),
                              (unit_storage(0.27, 0.008, s_init=1.0), False)):
            advice = advise(params, partition(run_series(10, 4, 10)))
            assert advice.recommendation is (Recommendation.SOLVE_LP if fired
                                             else Recommendation.SOLVE_REFINED_MILP)
            assert advice.rationale[-1][:2] == ("theorem3", fired)

    def test_theorem3_leaf(self):
        prices = series([10] * 5 + [-10] * 2 + [10] * 5 + [-10] * 2 + [10] * 3)
        for params, fired in ((unit_storage(0.05, 0.2), True),
                              (unit_storage(0.3, 0.02, s_init=0.5), False)):
            advice = advise(params, partition(prices))
            assert advice.recommendation is (Recommendation.SOLVE_LP if fired
                                             else Recommendation.SOLVE_REFINED_MILP)
            assert advice.rationale[-1][:2] == ("theorem3", fired)
        assert advice.rationale[-1][2].endswith("at block 2")

    def test_leakage_assumption_routes_to_lp(self):
        # no period can end at s_max, so no LP optimum discharges at a negative price
        params = unit_storage(0.01, 0.2, rho=0.5)
        advice = advise(params, partition(run_series(10, 4, 10)))
        assert advice.recommendation is Recommendation.SOLVE_LP
        assert advice.rationale[-1][:2] == ("leakage_assumption", True)

    def test_serialization_schema(self):
        doc = advise(unit_storage(2.0, 2.0), partition(series([-5, 5]))).to_dict()
        assert doc["recommendation"] == "solve_refined_milp"
        for entry in doc["rationale"]:
            assert set(entry) == {"rule", "fired", "detail"}
            assert isinstance(entry["fired"], bool)


@st.composite
def hunt_draws(draw, recommendation):
    """A storage and 1 to 12 hourly prices that advise sends to the LP or
    the MILP (recommendation): s_max 0.05-5 MWh, s_min 0, 10% or 30% of it,
    powers 0.05-5 MW, efficiencies 0.5-1, five retention factors, prices
    -100 to 100 EUR/MWh.  Some schedule fits each storage."""
    s_max = draw(st.floats(0.05, 5.0))
    s_min = s_max * draw(st.sampled_from([0.0, 0.1, 0.3]))
    s_init = min(s_min + (s_max - s_min) * draw(st.floats(0.0, 1.0)), s_max)
    params = StorageParams(
        s_min=s_min, s_max=s_max, s_init=s_init,
        p_chg_max=draw(st.floats(0.05, 5.0)), p_dis_max=draw(st.floats(0.05, 5.0)),
        eta_c=draw(st.floats(0.5, 1.0)), eta_d=draw(st.floats(0.5, 1.0)),
        rho=draw(st.sampled_from([1.0, 0.999, 0.99, 0.95, 0.8])),
    )
    prices = PriceSeries(draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=12)), 1.0)
    assume(advise(params, partition(prices)).recommendation is recommendation)
    try:
        require_schedulable(params, len(prices))
    except InfeasibleStorage:  # prop1 sends it to the LP, which no schedule meets
        reject()
    return params, prices


def lead_over_refined(params, prices, lp_objective):
    """(LP - refined MILP) in units of max|C_t| times the energy scale,
    divided by one and then the other, so a subnormal max|C_t| gives no 0/0."""
    refined = solve_storage_milp(params, prices, partition(prices))[0].objective
    return (lp_objective - refined) / params.energy_scale / (np.abs(prices.prices).max() or 1.0)


@given(draw=hunt_draws(Recommendation.SOLVE_LP))
# a subnormal price, whose profit unit max|C_t| * energy_scale rounds to 0
@example(draw=(StorageParams(s_min=0, s_max=0.125, s_init=0, p_chg_max=0.3, p_dis_max=1,
                             eta_c=0.8, eta_d=1, rho=0.5, dt=1), PriceSeries([5e-324], 1)))
@settings(deadline=None)
def test_hunt_for_an_lp_the_advisor_clears_wrongly(draw):
    """Targeted property-based testing (Loscher & Sagonas 2017): Hypothesis
    drives the LP's lead over the refined MILP, in units of max|C_t| times
    the energy scale, upward over the instances advise sends to the LP.  The
    simplex stops within its dual tolerance, 1e-9 * dt * max|C_t|, over up
    to T * (Pc + Pd) of power, so only a lead above 1e-8 * T is a hit: a
    failure of the paper's conditions.  The default profile runs a slice;
    the hunt profile (conftest.py) runs 12,000 examples."""
    params, prices = draw
    lead = lead_over_refined(params, prices, solve_storage_lp(params, prices).objective)
    target(lead, label="(LP - refined) / (max|C_t| * energy_scale)")
    assert lead <= 1e-8 * len(prices)


def deciding_margin(params, part, rule):
    """How far the rule that sent advise to the MILP is from letting it
    through, in units of s_max: the smaller overshoot of corollary 2's
    one-period full charge and full discharge, theorem 1's full charge over
    the longest negative run, or the highest level of theorem 3's recurrence."""
    if rule == "corollary2":
        gap = min(_full_rate(params, params.s_min, 1, params.charge_step) - params.s_max,
                  params.s_min - _full_rate(params, params.s_max, 1, -params.discharge_step))
    elif rule == "theorem1_cond1":
        gap = _full_rate(params, params.s_min, part.n_bar, params.charge_step) - params.s_max
    else:
        assert rule == "theorem3"
        gap = max(theorem3_shat(params, part).values) - params.s_max
    return gap / params.s_max


@given(draw=hunt_draws(Recommendation.SOLVE_REFINED_MILP))
@settings(deadline=None)
def test_hunt_for_slack_in_a_milp_verdict(draw):
    """The necessity hunt, a measurement and not a gate.  The paper's
    conditions are sufficient only, so a MILP verdict on an exact LP (the
    soundness hunt's lead_over_refined at most 1e-8 * T) is slack, not a
    fault.  Targeted property-based testing (Loscher & Sagonas 2017):
    Hypothesis drives the deciding rule's margin toward 0, where slack is
    likeliest.  event() counts exact and inexact LPs by leaf, by a margin
    below 1e-6, where the rule fires by a rounding error, and by a negative
    price within 1e-3 * max|C_t| of 0, where the gain of simultaneous
    charge and discharge may fall below the hunt's tolerance (pytest
    --hypothesis-show-statistics).  It asserts what holds either
    way: the rule overshoots by a positive margin, and the LP bounds the
    refined MILP.  The default profile runs a slice; the hunt profile
    (conftest.py) runs 12,000 examples."""
    params, prices = draw
    part = partition(prices)
    rule = advise(params, part).rationale[-1][0]
    margin = deciding_margin(params, part, rule)
    assert margin > 0
    target(-margin, label=f"minus the {rule} margin")
    lead = lead_over_refined(params, prices, solve_storage_lp(params, prices).objective)
    assert lead >= -1e-8 * len(prices)
    near_zero = np.abs(prices.prices[prices.prices < 0]).min() < 1e-3 * np.abs(prices.prices).max()
    event(f"{rule}: {'exact' if lead <= 1e-8 * len(prices) else 'inexact'} LP"
          f"{', margin below 1e-6' if margin < 1e-6 else ''}"
          f"{', a negative price near 0' if near_zero else ''}")


@st.composite
def single_run_draws(draw):
    """A lossy storage that keeps the leakage assumption, in the soundness
    hunt's ranges, and hourly prices of one negative run between nonnegative ones."""
    s_max = draw(st.floats(0.05, 5.0))
    s_min = s_max * draw(st.sampled_from([0.0, 0.1, 0.3]))
    s_init = min(s_min + (s_max - s_min) * draw(st.floats(0.0, 1.0)), s_max)
    params = StorageParams(
        s_min=s_min, s_max=s_max, s_init=s_init,
        p_chg_max=draw(st.floats(0.05, 5.0)), p_dis_max=draw(st.floats(0.05, 5.0)),
        eta_c=draw(st.floats(0.5, 0.99)), eta_d=draw(st.floats(0.5, 0.99)),
        rho=draw(st.sampled_from([1.0, 0.999, 0.99, 0.95, 0.8])),
    )
    assume(check_assumption_leakage(params))
    return params, run_series(draw(st.integers(0, 8)), draw(st.integers(1, 8)),
                              draw(st.integers(0, 6)))


# a rho < 1 run of test_theorem2_is_stricter_with_leakage that theorem 3 certifies and
# theorem 2 refuses
@example(draw=(StorageParams(
    s_min=0.13810659866019742, s_max=1.0, s_init=0.5754915228423552,
    p_chg_max=0.4780061248267248, p_dis_max=0.07379237580356084,
    eta_c=0.9157517006647006, eta_d=0.8394469894591737, rho=0.9616273503627136,
), run_series(0, 1, 4)))
@given(draw=single_run_draws())
@settings(deadline=None)
def test_theorem3_decides_a_single_run(draw):
    """advise reads one negative run through theorem 3's recurrence, as it
    reads several.  At one block its level rho^n * depleted + charge_step *
    sum_{i<n} rho^i is at most theorem 2's, which scales depleted by
    rho^(n-1), so wherever theorem 2 certifies the LP, advise does too."""
    params, prices = draw
    part = partition(prices)
    advice = advise(params, part)
    rule, fired, _ = advice.rationale[-1]
    assert rule in ("corollary2", "theorem1_cond1", "theorem3")
    if rule == "theorem3":
        assert fired == theorem3_shat(params, part).exact
        assert fired == (advice.recommendation is Recommendation.SOLVE_LP)
    if theorem2_check(params, part):
        assert (advice.recommendation, rule) == (Recommendation.SOLVE_LP, "theorem3")


@st.composite
def leaky_lp_draws(draw):
    """A storage that fails the leakage assumption, (1 - rho) * s_max >
    charge_step, with s_max 0.05-5 MWh, rho 0.2-0.999, dt 1/4 or 1 h and a
    charge power up to the one at which the assumption would hold, and 1 to
    12 prices of -100 to 100 EUR/MWh."""
    s_max = draw(st.floats(0.05, 5.0))
    s_min = s_max * draw(st.sampled_from([0.0, 0.1, 0.3]))
    s_init = min(s_min + (s_max - s_min) * draw(st.floats(0.0, 1.0)), s_max)
    rho, dt = draw(st.floats(0.2, 0.999)), draw(st.sampled_from([0.25, 1.0]))
    eta_c = draw(st.floats(0.5, 1.0))
    params = StorageParams(
        s_min=s_min, s_max=s_max, s_init=s_init,
        p_chg_max=(1 - rho) * s_max / (dt * eta_c) * draw(st.floats(0.01, 1.0)),
        p_dis_max=draw(st.floats(0.05, 5.0)),
        eta_c=eta_c, eta_d=draw(st.floats(0.5, 1.0)), rho=rho, dt=dt,
    )
    assume(not check_assumption_leakage(params))
    prices = PriceSeries(draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=12)), dt)
    try:
        require_schedulable(params, len(prices))
    except InfeasibleStorage:  # the leakage outruns the charge above s_min
        reject()
    return params, prices


# subnormal prices: the LP's slopes must not round to 0, where a full-rate charge that
# burns its surplus ties with one that does not, nor may the profit unit give 0/0
@example(draw=(StorageParams(
    s_min=0.0, s_max=0.12490736390018263, s_init=0.0, p_chg_max=0.3142632448004595,
    p_dis_max=1.0, eta_c=0.794921875, eta_d=0.5, rho=0.5, dt=0.25), PriceSeries([-5e-324], 0.25)))
@example(draw=(StorageParams(
    s_min=0.0, s_max=0.12490736390018263, s_init=0.0, p_chg_max=0.3142632448004595,
    p_dis_max=1.0, eta_c=0.794921875, eta_d=1.0, rho=0.5, dt=0.25), PriceSeries([5e-324], 0.25)))
@given(draw=leaky_lp_draws())
@settings(deadline=None)
def test_hunt_for_a_leaky_lp_that_discharges_at_a_negative_price(draw):
    """Where the leakage assumption fails, no period can end at s_max, so
    dropping a discharge at a negative price only gains (the proof beside
    _flowchart's leakage leaf).  advise sends such a storage to the LP, whose
    schedule discharges at no negative price and whose lead over the refined
    MILP stays within the soundness hunt's bound.  The default profile runs a
    slice; the hunt profile (conftest.py) runs 12,000 examples."""
    params, prices = draw
    part = partition(prices)
    assert advise(params, part).recommendation is Recommendation.SOLVE_LP
    lp = solve_storage_lp(params, prices)
    assert not lp.schedule.p_dis[prices.prices < 0].any()
    lead = lead_over_refined(params, prices, lp.objective)
    target(lead, label="(LP - refined) / (max|C_t| * energy_scale)")
    assert lead <= 1e-8 * len(prices)
