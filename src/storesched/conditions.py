"""A-priori and a-posteriori exactness conditions for the complementarity
relaxation, and the flowchart advisor that routes a problem to the LP or
to the refined MILP.
"""

import enum
from dataclasses import dataclass

from .prices import PricePartition, PriceSeries, require_int
from .storage import EPS, Schedule, StorageParams, check_assumption_leakage


class NotNegativePrice(ValueError):
    """The period under classification does not have a strictly negative price."""


class NoNegativePrices(ValueError):
    """The condition requires at least one strictly negative price."""


class AssumptionViolated(ValueError):
    """Leakage cannot be recovered at full charge rate (one-period recovery
    assumption fails)."""


class Prop1Case(enum.Enum):
    EXACT_ALL_OPTIMA = "exact_all_optima"
    EXACT_SOME_OPTIMUM_PERFECT_ETA = "exact_some_optimum_perfect_eta"
    EXACT_SOME_OPTIMUM_NO_NEG_PRICES = "exact_some_optimum_no_neg_prices"
    INCONCLUSIVE = "inconclusive"

    @property
    def exact(self) -> bool:
        return self is not Prop1Case.INCONCLUSIVE


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


def _full_rate(params: StorageParams, level: float, n: int, step: float) -> float:
    """The level after n periods that each exchange step (MWh, negative for
    a discharge) from level: rho^n * level + step * sum_{i<n} rho^i."""
    return params.rho**n * level + step * _geo_sum(params.rho, n)


def prop1_classify(params: StorageParams, part: PricePartition) -> Prop1Case:
    """Special cases in which the relaxation is exact regardless of the
    storage characteristics, checked in order: all prices strictly
    positive with losses, perfect round-trip efficiency, no strictly
    negative prices."""
    if not part.t_neg and not part.t_zero and params.eta < 1:
        return Prop1Case.EXACT_ALL_OPTIMA
    if params.eta == 1:
        return Prop1Case.EXACT_SOME_OPTIMUM_PERFECT_ETA
    if not part.t_neg:
        return Prop1Case.EXACT_SOME_OPTIMUM_NO_NEG_PRICES
    return Prop1Case.INCONCLUSIVE


def lemma1_classify(
    params: StorageParams, prices: PriceSeries, schedule: Schedule, t: int
) -> Lemma1Verdict:
    """Classify a negative-price period of an LP optimum by its net energy
    exchange beta_t = s_t - rho * s_{t-1}: at the maximum net charge or the
    maximum net discharge, SCD is not optimal at t; anywhere in between,
    every LP optimum exhibits SCD at t."""
    if len(prices) != len(schedule):
        raise ValueError("price and schedule lengths differ")
    require_int("t", t, 1, len(schedule))
    if prices.prices[t - 1] >= 0:
        raise NotNegativePrice(f"C_{t} = {prices.prices[t - 1]} is not strictly negative")
    prev = schedule.soe[t - 2] if t > 1 else params.s_init
    # on Python floats, where an infinite level gives beta = NaN without a warning
    beta = float(schedule.soe[t - 1]) - params.rho * float(prev)
    if abs(beta - params.charge_step) <= EPS * params.energy_scale:
        cls = Lemma1Class.NET_CHARGE_MAX
    elif abs(beta + params.discharge_step) <= EPS * params.energy_scale:
        cls = Lemma1Class.NET_DISCHARGE_MAX
    else:
        cls = Lemma1Class.SCD_OPTIMAL
    return Lemma1Verdict(t=t, beta_t=beta, classification=cls)


def corollary2_inexact(params: StorageParams) -> bool:
    """Inexactness from a one-period full charge and full discharge: with
    any strictly negative price and losses, the relaxation is inexact if
    the storage can fully charge and fully discharge within one period."""
    return (_full_rate(params, params.s_min, 1, params.charge_step) > params.s_max
            and _full_rate(params, params.s_max, 1, -params.discharge_step) < params.s_min)


def theorem1_condition1(params: StorageParams, part: PricePartition) -> bool:
    """Whether charging at full rate over the whole longest negative run,
    starting from the minimum level, overshoots the capacity:
    rho^n * s_min + charge_step * sum(rho^(n-t)) > s_max (strict)."""
    n = part.n_bar
    if n == 0:
        raise NoNegativePrices("no strictly negative prices in the series")
    return _full_rate(params, params.s_min, n, params.charge_step) > params.s_max


def theorem2_check(params: StorageParams, part: PricePartition) -> bool:
    """Exactness for a single negative run [tau1, tau2], the paper's
    statement that criterion 3 pins; advise no longer reads it.  Discharging
    at full rate (or to the floor) over the tau1 - 1 periods before the run
    and then charging at full rate through it must not exceed the capacity.
    The charge term scales the depleted level by rho^(tau2 - tau1), where
    theorem3_shat and the level dynamics use rho^n, n = tau2 - tau1 + 1, so
    with rho < 1 it certifies a subset, at times a strict one, of the
    single-block inputs that theorem 3 certifies and advise reads."""
    if part.num_negative_blocks != 1:
        return False
    tau1, tau2 = part.longest_neg
    depleted = max(_full_rate(params, params.s_init, tau1 - 1, -params.discharge_step),
                   params.s_min)
    lhs = params.rho ** (tau2 - tau1) * depleted + params.charge_step * _geo_sum(
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
    values = []
    first_violation = None
    prev = params.s_init
    for j, (p, n) in enumerate(part.blocks, start=1):
        depleted = max(_full_rate(params, prev, p, -params.discharge_step), params.s_min)
        shat = _full_rate(params, depleted, n, params.charge_step)
        values.append(shat)
        if first_violation is None and shat > params.s_max:
            first_violation = j
        prev = shat
    return ShatSequence(values=tuple(values), first_violation=first_violation)


def _flowchart(params: StorageParams, part: PricePartition, final_level_constrained: bool):
    """The rules of advise's flowchart in order, each as (rule id, fired,
    detail, leaf): leaf is the recommendation the walk ends at, None where
    it goes on.  advise stops at the first leaf, so the statements after a
    yielded leaf never run, and a rule is evaluated only when reached."""
    lp, milp = Recommendation.SOLVE_LP, Recommendation.SOLVE_REFINED_MILP
    case = prop1_classify(params, part)
    if case.exact:
        yield "prop1", True, f"special case: {case.value}", lp
    yield "prop1", False, "losses with strictly negative prices", None
    if corollary2_inexact(params):
        yield "corollary2", True, "full charge and full discharge fit in one period", milp
    yield "corollary2", False, "one-period full cycle not possible", None
    if final_level_constrained:
        yield "final_level", True, "terminal level constraint requested", milp
    yield "final_level", False, "final level free", None
    # Without the leakage assumption, (1 - rho) * s_max > charge_step, so rho * s + charge_step
    # < s_max from every level s: no period ends at s_max.  Dropping a discharge p_dis at a
    # price C_t < 0 raises the profit by -C_t * dt * p_dis, and each level from t on,
    # rho * s_{k-1} + beta_k <= rho * s_max + charge_step, still stays below s_max; no level
    # falls.  So no LP optimum discharges at a negative price, the SCD left at C_t >= 0 nets
    # at no loss, and with the final level free (the leaf above) the LP is exact.
    if not check_assumption_leakage(params):
        yield ("leakage_assumption", True, "one-period leakage recovery fails: no period ends "
               "at s_max, so no LP optimum discharges at a negative price", lp)
    # theorem 1's condition 2 needs no test: with the leakage assumption and cond 1 false, a full
    # charge ends at or above s_max from s_max and at or below it from s_min, so some start hits it
    if theorem1_condition1(params, part):
        yield ("theorem1_cond1", True,
               f"full charge fits within the longest negative run (n_bar={part.n_bar})", milp)
    yield ("theorem1_cond1", False,
           f"cannot fully charge within the longest negative run (n_bar={part.n_bar})", None)
    shat = theorem3_shat(params, part)
    if shat.exact:
        yield "theorem3", True, "worst-case level stays within capacity", lp
    yield ("theorem3", False,
           f"worst-case level exceeds capacity at block {shat.first_violation}", milp)


def advise(
    params: StorageParams,
    part: PricePartition,
    final_level_constrained: bool = False,
) -> Advice:
    """Walk the decision flowchart and recommend solving the LP relaxation
    or the refined MILP.  The rationale records every rule evaluated on
    the single root-to-leaf path taken."""
    rationale = []
    for rule, fired, detail, leaf in _flowchart(params, part, final_level_constrained):
        rationale.append((rule, fired, detail))
        if leaf is not None:
            return Advice(leaf, tuple(rationale))
