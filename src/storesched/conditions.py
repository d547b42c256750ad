"""A-priori and a-posteriori exactness conditions for the complementarity
relaxation, and the flowchart advisor that routes a problem to the LP or
to the refined MILP.
"""

import enum
from dataclasses import dataclass

from .prices import PricePartition, PriceSeries
from .storage import (
    DEFAULT_TOL,
    Schedule,
    StorageParams,
    check_assumption_leakage,
)

#: Subset enumeration cap for the capacity-balance subset system with
#: leakage (about 4M subsets); beyond it the search reports inconclusive
#: and the advisor routes to the refined MILP.
SUBSET_ENUMERATION_CAP = 22

#: Tolerance (MWh) within which theorem1_condition2 accepts a required
#: start level as equal to s_fixed or inside [s_min, s_max].
LEVEL_TOL = 1e-9


class NotNegativePrice(ValueError):
    """The period under classification does not have a strictly negative price."""


class NoNegativePrices(ValueError):
    """The condition requires at least one strictly negative price."""


class AssumptionViolated(ValueError):
    """Leakage cannot be recovered at full charge rate (one-period recovery
    assumption fails)."""


class SubsetSearchInconclusive(Exception):
    """Subset enumeration infeasible (longest negative run too long with
    leakage); distinct from 'no witness exists'."""


class Prop1Case(enum.Enum):
    EXACT_ALL_OPTIMA = "exact_all_optima"
    EXACT_SOME_OPTIMUM_PERFECT_ETA = "exact_some_optimum_perfect_eta"
    EXACT_SOME_OPTIMUM_NO_NEG_PRICES = "exact_some_optimum_no_neg_prices"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Prop1Verdict:
    case: Prop1Case

    @property
    def exact(self) -> bool:
        return self.case is not Prop1Case.INCONCLUSIVE


class Lemma1Class(enum.Enum):
    NET_CHARGE_MAX = "net_charge_max"
    NET_DISCHARGE_MAX = "net_discharge_max"
    SCD_OPTIMAL = "scd_optimal"


@dataclass(frozen=True)
class Lemma1Verdict:
    t: int
    beta_t: float
    classification: Lemma1Class


@dataclass(frozen=True)
class ShatSequence:
    """Worst-case reachable level after each price block (maximal discharge
    over the nonnegative run, then maximal charge over the negative run).
    first_violation is the 1-based block index where the level first
    exceeds s_max, or None."""

    values: tuple
    first_violation: int | None

    @property
    def exact(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class Thm1Cond2Witness:
    """A start level s and a charge/discharge split of the longest negative
    run that lands exactly on the capacity bound."""

    s: float
    charge_set: tuple
    discharge_set: tuple


class Recommendation(enum.Enum):
    SOLVE_LP = "solve_lp"
    SOLVE_REFINED_MILP = "solve_refined_milp"


@dataclass(frozen=True)
class Advice:
    recommendation: Recommendation
    rationale: tuple  # ordered (rule id, fired, detail) triples

    def to_dict(self) -> dict:
        return {
            "recommendation": self.recommendation.value,
            "rationale": [
                {"rule": rule, "fired": bool(fired), "detail": detail}
                for rule, fired, detail in self.rationale
            ],
        }


def _geo_sum(rho: float, n: int) -> float:
    # sum_{i=0}^{n-1} rho^i by stable accumulation (no 0/0 at rho=1)
    acc = 0.0
    term = 1.0
    for _ in range(n):
        acc += term
        term *= rho
    return acc


def prop1_classify(params: StorageParams, part: PricePartition) -> Prop1Verdict:
    """Special cases in which the relaxation is exact regardless of the
    storage characteristics, checked in order: all prices strictly
    positive with losses, perfect round-trip efficiency, no strictly
    negative prices."""
    if not part.t_neg and not part.t_zero and params.eta < 1:
        return Prop1Verdict(Prop1Case.EXACT_ALL_OPTIMA)
    if params.eta == 1:
        return Prop1Verdict(Prop1Case.EXACT_SOME_OPTIMUM_PERFECT_ETA)
    if not part.t_neg:
        return Prop1Verdict(Prop1Case.EXACT_SOME_OPTIMUM_NO_NEG_PRICES)
    return Prop1Verdict(Prop1Case.INCONCLUSIVE)


def lemma1_classify(
    params: StorageParams, prices: PriceSeries, schedule: Schedule, t: int
) -> Lemma1Verdict:
    """Classify a negative-price period of an LP optimum by its net energy
    exchange beta_t = s_t - rho * s_{t-1}: at the maximum net charge or the
    maximum net discharge, SCD is not optimal at t; anywhere in between,
    every LP optimum exhibits SCD at t."""
    if not 1 <= t <= len(schedule):
        raise ValueError(f"period {t} outside horizon")
    if prices.prices[t - 1] >= 0:
        raise NotNegativePrice(f"C_{t} = {prices.prices[t - 1]} is not strictly negative")
    prev = schedule.soe[t - 2] if t > 1 else params.s_init
    beta = float(schedule.soe[t - 1] - params.rho * prev)
    max_charge = params.dt * params.eta_c * params.p_chg_max
    max_discharge = params.dt * params.p_dis_max / params.eta_d
    if abs(beta - max_charge) <= DEFAULT_TOL:
        cls = Lemma1Class.NET_CHARGE_MAX
    elif abs(beta + max_discharge) <= DEFAULT_TOL:
        cls = Lemma1Class.NET_DISCHARGE_MAX
    else:
        cls = Lemma1Class.SCD_OPTIMAL
    return Lemma1Verdict(t=t, beta_t=beta, classification=cls)


def corollary2_inexact(params: StorageParams) -> bool:
    """Inexactness from a one-period full charge and full discharge: with
    any strictly negative price and losses, the relaxation is inexact if
    the storage can fully charge and fully discharge within one period."""
    full_charge = params.rho * params.s_min + params.dt * params.eta_c * params.p_chg_max
    full_discharge = params.rho * params.s_max - params.dt * params.p_dis_max / params.eta_d
    return full_charge > params.s_max and full_discharge < params.s_min


def theorem1_condition1(params: StorageParams, part: PricePartition) -> bool:
    """Whether charging at full rate over the whole longest negative run,
    starting from the minimum level, overshoots the capacity:
    rho^n * s_min + dt * eta_c * Pc * sum(rho^(n-t)) > s_max (strict)."""
    n = part.n_bar
    if n == 0:
        raise NoNegativePrices("no strictly negative prices in the series")
    lhs = params.rho**n * params.s_min + params.dt * params.eta_c * params.p_chg_max * _geo_sum(
        params.rho, n
    )
    return lhs > params.s_max


def theorem1_condition2(
    params: StorageParams, part: PricePartition, s_fixed: float | None = None
) -> Thm1Cond2Witness | None:
    """Search for a start level s in [s_min, s_max] (or exactly s_fixed)
    and a split of the longest negative run [tau1, tau2] into full-rate
    net-charge and net-discharge periods that lands exactly on s_max:

        rho^n * s + dt * (eta_c*Pc * sum_{t in C} rho^(tau2-t)
                          - Pd/eta_d * sum_{t in D} rho^(tau2-t)) = s_max.

    Returns the first witness (smallest charge-set size without leakage,
    lexicographic subset order with leakage) or None if no witness exists.
    Raises SubsetSearchInconclusive when rho < 1 and the run is longer than
    SUBSET_ENUMERATION_CAP.
    """
    n = part.n_bar
    if n == 0:
        raise NoNegativePrices("no strictly negative prices in the series")
    tau1, tau2 = part.longest_neg
    run = tuple(range(tau1, tau2 + 1))
    dt = params.dt
    chg = dt * params.eta_c * params.p_chg_max
    dis = dt * params.p_dis_max / params.eta_d

    def check_level(s_required: float) -> float | None:
        if s_fixed is not None:
            return s_fixed if abs(s_required - s_fixed) <= LEVEL_TOL else None
        if params.s_min - LEVEL_TOL <= s_required <= params.s_max + LEVEL_TOL:
            return min(max(s_required, params.s_min), params.s_max)
        return None

    if params.rho == 1.0:
        # weights collapse: only the count k = |charge set| matters
        for k in range(n + 1):
            s_required = params.s_max - (chg * k - dis * (n - k))
            s = check_level(s_required)
            if s is not None:
                return Thm1Cond2Witness(
                    s=s, charge_set=run[:k], discharge_set=run[k:]
                )
        return None

    if n > SUBSET_ENUMERATION_CAP:
        raise SubsetSearchInconclusive(
            f"longest negative run of {n} periods exceeds the enumeration cap"
        )
    weights = [params.rho ** (tau2 - t) for t in run]
    rho_n = params.rho**n
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            total += chg * weights[i] if mask >> i & 1 else -dis * weights[i]
        s_required = (params.s_max - total) / rho_n
        s = check_level(s_required)
        if s is not None:
            charge = tuple(run[i] for i in range(n) if mask >> i & 1)
            discharge = tuple(run[i] for i in range(n) if not mask >> i & 1)
            return Thm1Cond2Witness(s=s, charge_set=charge, discharge_set=discharge)
    return None


def theorem2_check(params: StorageParams, part: PricePartition) -> bool:
    """Exactness for a single negative run [tau1, tau2]: discharging at
    full rate (or hitting the floor) before the run and then charging at
    full rate through it must not exceed the capacity."""
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


def theorem3_shat(params: StorageParams, part: PricePartition) -> ShatSequence:
    """Run the worst-case level recurrence block by block: within each
    (p_j, n_j) block, discharge at full rate over the p_j nonnegative
    periods (clamped at the floor), then charge at full rate over the n_j
    negative periods.  Exact iff no block level exceeds s_max."""
    if not check_assumption_leakage(params):
        raise AssumptionViolated(
            "one-period leakage recovery fails: (1-rho)*s_max > dt*eta_c*p_chg_max"
        )
    dt = params.dt
    dis = dt * params.p_dis_max / params.eta_d
    chg = dt * params.eta_c * params.p_chg_max
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
    return ShatSequence(values=tuple(values), first_violation=first_violation)


def advise(
    params: StorageParams,
    part: PricePartition,
    final_level_constrained: bool = False,
) -> Advice:
    """Walk the decision flowchart and recommend solving the LP relaxation
    or the refined MILP.  The rationale records every rule evaluated on
    the single root-to-leaf path taken."""
    rationale = []

    verdict = prop1_classify(params, part)
    if verdict.exact:
        rationale.append(("prop1", True, f"special case: {verdict.case.value}"))
        return Advice(Recommendation.SOLVE_LP, tuple(rationale))
    rationale.append(("prop1", False, "losses with strictly negative prices"))

    if corollary2_inexact(params):
        rationale.append(
            ("corollary2", True, "full charge and full discharge fit in one period")
        )
        return Advice(Recommendation.SOLVE_REFINED_MILP, tuple(rationale))
    rationale.append(("corollary2", False, "one-period full cycle not possible"))

    if final_level_constrained:
        rationale.append(("final_level", True, "terminal level constraint requested"))
        return Advice(Recommendation.SOLVE_REFINED_MILP, tuple(rationale))
    rationale.append(("final_level", False, "final level free"))

    if not check_assumption_leakage(params):
        rationale.append(
            ("leakage_assumption", True, "one-period leakage recovery fails; "
             "run-length conditions not applicable")
        )
        return Advice(Recommendation.SOLVE_REFINED_MILP, tuple(rationale))

    if theorem1_condition1(params, part):
        rationale.append(
            ("theorem1_cond1", True,
             f"full charge fits within the longest negative run (n_bar={part.n_bar})")
        )
        return Advice(Recommendation.SOLVE_REFINED_MILP, tuple(rationale))
    rationale.append(
        ("theorem1_cond1", False,
         f"cannot fully charge within the longest negative run (n_bar={part.n_bar})")
    )

    if part.num_negative_blocks == 1:
        if theorem2_check(params, part):
            rationale.append(("theorem2", True, "single negative run, capacity not exceeded"))
            return Advice(Recommendation.SOLVE_LP, tuple(rationale))
        rationale.append(("theorem2", False, "single negative run, capacity exceeded"))
        return Advice(Recommendation.SOLVE_REFINED_MILP, tuple(rationale))

    shat = theorem3_shat(params, part)
    if shat.exact:
        rationale.append(("theorem3", True, "worst-case level stays within capacity"))
        return Advice(Recommendation.SOLVE_LP, tuple(rationale))
    rationale.append(
        ("theorem3", False, f"worst-case level exceeds capacity at block {shat.first_violation}")
    )
    return Advice(Recommendation.SOLVE_REFINED_MILP, tuple(rationale))
