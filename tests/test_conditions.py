from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import fast_params, mixed_sign_prices, random_params
from storesched import (
    AssumptionViolated,
    Lemma1Class,
    NoNegativePrices,
    NotNegativePrice,
    PriceSeries,
    Prop1Case,
    Recommendation,
    Schedule,
    StorageParams,
    SubsetSearchInconclusive,
    Thm1Cond2Witness,
    advise,
    check_assumption_leakage,
    corollary2_inexact,
    lemma1_classify,
    partition,
    propagate_soe,
    prop1_classify,
    theorem1_condition1,
    theorem1_condition2,
    theorem2_check,
    theorem3_shat,
)
from storesched.conditions import _geo_sum
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
        with pytest.raises(NoNegativePrices):
            theorem1_condition2(unit_storage(0.2, 0.2), partition(series([1, 2])))

    def test_leakage_raises_the_bar(self):
        part = partition(run_series(1, 4, 1))
        p = 1 / (4 * 0.9) + 1e-4
        assert theorem1_condition1(unit_storage(p, 0.1), part)
        assert not theorem1_condition1(unit_storage(p, 0.1, rho=0.95), part)


class TestTheorem1Cond2:
    def test_balanced_split_witness(self):
        # 32-period run; 31 charge periods and 1 discharge period land
        # exactly on the capacity: 0.9*0.036*31 - 0.00396/0.9 = 1.0
        part = partition(run_series(2, 32, 2))
        params = unit_storage(0.036, 0.00396)
        witness = theorem1_condition2(params, part, s_fixed=0.0)
        assert witness is not None
        assert len(witness.charge_set) == 31
        assert len(witness.discharge_set) == 1
        assert witness.s == 0.0

    def test_no_witness_at_fixed_level(self):
        part = partition(run_series(2, 32, 2))
        params = unit_storage(0.036, 0.036)
        assert theorem1_condition2(params, part, s_fixed=0.0) is None

    def test_free_level_widens_the_search(self):
        part = partition(run_series(2, 32, 2))
        params = unit_storage(0.034, 0.028)
        assert theorem1_condition2(params, part, s_fixed=0.0) is None
        witness = theorem1_condition2(params, part)
        assert witness is not None
        assert 0.0 <= witness.s <= 1.0

    def test_leakage_enumeration(self):
        part = partition(run_series(1, 3, 1))
        params = unit_storage(0.3, 0.3, rho=0.99)
        witness = theorem1_condition2(params, part)
        if witness is not None:
            assert set(witness.charge_set) | set(witness.discharge_set) == {2, 3, 4}
        # no split of the three periods lands on s_max from an empty store
        assert theorem1_condition2(params, part, s_fixed=0.0) is None

    def test_enumeration_cap(self):
        part = partition(run_series(1, 23, 1))
        with pytest.raises(SubsetSearchInconclusive):
            theorem1_condition2(unit_storage(0.2, 0.2, rho=0.99), part)

    def test_cap_does_not_apply_without_leakage(self):
        part = partition(run_series(1, 23, 1))
        theorem1_condition2(unit_storage(0.2, 0.2, rho=1.0), part)


def reference_condition2(params, part, s_fixed=None):
    """Scalar reference for theorem1_condition2: a loop over the charge
    count without leakage, a loop over every charge set with it."""
    n = part.n_bar
    tau1, tau2 = part.longest_neg
    run = tuple(range(tau1, tau2 + 1))
    dt = params.dt
    chg = dt * params.eta_c * params.p_chg_max
    dis = dt * params.p_dis_max / params.eta_d

    tol = EPS * max(params.s_max, chg, dis)

    def check_level(s_required):
        if s_fixed is not None:
            return s_fixed if abs(s_required - s_fixed) <= tol else None
        if params.s_min - tol <= s_required <= params.s_max + tol:
            return min(max(s_required, params.s_min), params.s_max)
        return None

    if params.rho == 1.0:
        for k in range(n + 1):
            s = check_level(params.s_max - (chg * k - dis * (n - k)))
            if s is not None:
                return Thm1Cond2Witness(s=s, charge_set=run[:k], discharge_set=run[k:])
        return None
    weights = [params.rho ** (tau2 - t) for t in run]
    rho_n = params.rho**n
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            total += chg * weights[i] if mask >> i & 1 else -dis * weights[i]
        s = check_level((params.s_max - total) / rho_n)
        if s is not None:
            charge = tuple(run[i] for i in range(n) if mask >> i & 1)
            discharge = tuple(run[i] for i in range(n) if not mask >> i & 1)
            return Thm1Cond2Witness(s=s, charge_set=charge, discharge_set=discharge)
    return None


class TestTheorem1Cond2Search:
    @staticmethod
    def _draws(rng, count, n_max):
        """Random storage and one negative run; on half of the draws powers
        and levels lie on a 0.1 grid, so that splits land exactly."""
        for _ in range(count):
            n = int(rng.integers(1, n_max + 1))
            rho = float(rng.choice([1.0, 0.999, 0.99, 0.95, 0.9]))
            dt, eta = float(rng.choice([0.5, 1.0])), float(rng.choice([0.9, 1.0]))
            if rng.random() < 0.5:
                p_chg, p_dis = rng.integers(1, 11, 2) / 10
                s_min = rng.integers(0, 5) / 10
                s_max = s_min + rng.integers(1, 11) / 10
            else:
                p_chg, p_dis = rng.uniform(0.01, 1.0, 2)
                s_min = rng.uniform(0.0, 0.5)
                s_max = s_min + rng.uniform(0.1, 1.0)
            params = StorageParams(
                s_min=float(s_min), s_max=float(s_max), s_init=float(s_min),
                p_chg_max=float(p_chg), p_dis_max=float(p_dis),
                eta_c=eta, eta_d=eta, rho=rho, dt=dt,
            )
            before, after = rng.integers(0, 3, 2)
            prices = [5.0] * before + [-5.0] * n + [5.0] * after
            yield params, partition(PriceSeries(prices, dt))

    def test_witnesses_match_the_scalar_search(self):
        found = Counter()
        rng = np.random.default_rng(7)
        for params, part in self._draws(rng, 300, 10):
            drawn = float(rng.uniform(params.s_min, params.s_max))
            levels = [None, params.s_min, params.s_max, drawn]
            free = reference_condition2(params, part)
            if free is not None:
                levels.append(free.s)  # a level some split lands from, also with leakage
            for s_fixed in levels:
                witness = theorem1_condition2(params, part, s_fixed=s_fixed)
                # repr pins the level's bits, not only its value
                assert repr(witness) == repr(reference_condition2(params, part, s_fixed))
                if witness is not None:
                    found[params.rho == 1.0, s_fixed is None] += 1
        # witnesses at both kinds of rho, in both modes
        assert len(found) == 4 and min(found.values()) >= 5, found

    def test_cap_boundary_with_leakage(self):
        part = partition(run_series(1, 22, 1))
        params = unit_storage(0.2, 0.2, rho=0.99)
        # no split lands on s_max from an empty store: every candidate is scanned
        assert theorem1_condition2(params, part, s_fixed=0.0) is None
        witness = theorem1_condition2(params, part)
        assert witness == reference_condition2(params, part)
        assert witness.charge_set == tuple(range(2, 16))
        assert witness.discharge_set == tuple(range(16, 24))
        assert witness.s == 0.6695486515520064

    @pytest.mark.parametrize("rho, charge_set", [(1e-16, (20, 21)), (1e-20, (21,))])
    def test_rho_n_below_the_normal_floats(self, rho, charge_set):
        # rho^20 is subnormal (1e-320) or rounds to 0: the split whose total
        # rounds to s_max needs s = 0, every other an infinite level, and the
        # search answers without a divide or overflow warning (an error here)
        part = partition(run_series(1, 20, 1))
        params = StorageParams(s_min=0, s_max=1, s_init=0, p_chg_max=1, p_dis_max=1, rho=rho)
        witness = theorem1_condition2(params, part)
        assert witness.s == 0.0 and witness.charge_set == charge_set
        assert theorem1_condition2(params, part, s_fixed=0.0) == witness
        assert theorem1_condition2(params, part, s_fixed=0.5) is None
        short = StorageParams(s_min=0, s_max=1, s_init=0, p_chg_max=0.7, p_dis_max=1, rho=rho)
        assert theorem1_condition2(short, part) is None

    @pytest.mark.parametrize("s_fixed", [2.0, float("nan"), float("inf")])
    def test_rejects_a_start_level_outside_the_range(self, s_fixed):
        params = StorageParams(s_min=0, s_max=1, s_init=0, p_chg_max=0.5, p_dis_max=0.5)
        part = partition(PriceSeries([1, -1, -1, 1], 1.0))
        with pytest.raises(ValueError, match="s_fixed"):
            theorem1_condition2(params, part, s_fixed=s_fixed)


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
        with pytest.raises(ValueError):
            lemma1_classify(params, series([-5.0]), sch, 2)

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
        for params, fired in ((unit_storage(0.1, 0.2), True),
                              (unit_storage(0.27, 0.008, s_init=1.0), False)):
            advice = advise(params, partition(run_series(10, 4, 10)))
            assert advice.recommendation is (Recommendation.SOLVE_LP if fired
                                             else Recommendation.SOLVE_REFINED_MILP)
            assert advice.rationale[-1][:2] == ("theorem2", fired)

    def test_theorem3_leaf(self):
        prices = series([10] * 5 + [-10] * 2 + [10] * 5 + [-10] * 2 + [10] * 3)
        for params, fired in ((unit_storage(0.05, 0.2), True),
                              (unit_storage(0.3, 0.02, s_init=0.5), False)):
            advice = advise(params, partition(prices))
            assert advice.recommendation is (Recommendation.SOLVE_LP if fired
                                             else Recommendation.SOLVE_REFINED_MILP)
            assert advice.rationale[-1][:2] == ("theorem3", fired)
        assert advice.rationale[-1][2].endswith("at block 2")

    def test_leakage_assumption_routes_to_milp(self):
        params = unit_storage(0.01, 0.2, rho=0.5)
        advice = advise(params, partition(run_series(10, 4, 10)))
        assert advice.recommendation is Recommendation.SOLVE_REFINED_MILP
        assert any(r == "leakage_assumption" and fired for r, fired, _ in advice.rationale)

    def test_serialization_schema(self):
        doc = advise(unit_storage(2.0, 2.0), partition(series([-5, 5]))).to_dict()
        assert doc["recommendation"] == "solve_refined_milp"
        for entry in doc["rationale"]:
            assert set(entry) == {"rule", "fired", "detail"}
            assert isinstance(entry["fired"], bool)
