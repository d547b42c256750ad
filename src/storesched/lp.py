"""Storage scheduling LP: the LP answer from its value function
(value.py), the matrix model that the simplex solves for the MILPs' node
LPs, and verification of the stationarity / complementarity system at a
reported optimum.

Variable layout of the storage LP: [p_chg (T), p_dis (T), soe (T)], with
one state-of-energy balance row per period; the MILPs append "each leg
fits" columns, each with its defining row (see build_lp).
"""

from dataclasses import dataclass

import numpy as np

from .prices import PriceSeries
from .simplex import AT_LOWER, BASIC, LpProblem, LpSolution, solve_bounded_lp
from .storage import (Schedule, StorageParams, detect_scd, net_exchange, objective,
                      require_schedulable, scd_mask)
from .value import lp_optimum


class MissingDuals(ValueError):
    """The report carries no dual vector (MILP or DP result)."""


@dataclass
class DualVector:
    """Multipliers of the storage LP in the maximization convention:
    lam for the balance rows, the rest for the variable bounds (all bound
    multipliers nonnegative)."""

    lam: np.ndarray
    sigma_lo: np.ndarray
    sigma_hi: np.ndarray
    gamma_lo: np.ndarray
    gamma_hi: np.ndarray
    delta_lo: np.ndarray
    delta_hi: np.ndarray


@dataclass
class SolveReport:
    """One optimal answer of the LP, a MILP or the DP; every solver raises
    instead of answering infeasible.  It holds no simplex state."""

    objective: float
    schedule: Schedule
    scd_events: list
    duals: DualVector | None = None  # from solve_storage_lp only
    kkt_max_residual: float | None = None  # from solve_storage_lp only


def _require_same_dt(params: StorageParams, prices: PriceSeries) -> None:
    if prices.dt != params.dt:
        raise ValueError(f"prices dt {prices.dt} differs from params dt {params.dt}")


def build_lp(params: StorageParams, prices: PriceSeries, legs: tuple = ()) -> LpProblem:
    """Storage LP over [p_chg (T), p_dis (T), soe (T), m^c (K), m^d (K)],
    K = len(legs), maximizing sum_t dt*C_t*(p_dis_t - p_chg_t).  Row r is
    the equality that defines column 2T + r, with soe_0 = s_init:
    soe_t = rho*soe_{t-1} + dt*eta_c*p_chg_t - dt*p_dis_t/eta_d in [s_min, s_max]
    and, at each 1-based period t in legs, the level after the charge alone,
    m^c_t = rho*soe_{t-1} + dt*eta_c*p_chg_t in [rho*s_min, s_max], and after
    the discharge alone, m^d_t = rho*soe_{t-1} - dt*p_dis_t/eta_d in
    [rho*s_min, rho*s_max].  A ValueError names a dt * price that overflows."""
    _require_same_dt(params, prices)
    with np.errstate(over="ignore"):  # an overflow is refused by name
        profit = params.dt * prices.prices
    largest = np.maximum.reduce(np.abs(profit))
    if not largest < np.inf:
        raise ValueError(f"lp dt * price holds {largest}: the profit overflows double precision")
    T, K = len(prices), len(legs)
    dt, rho = params.dt, params.rho
    t_leg = np.asarray(legs, dtype=int) - 1
    period = np.concatenate([np.arange(T), t_leg, t_leg])  # 0-based, one per row
    r = np.arange(T + 2 * K)
    chg, dis = r < T + K, (r < T) | (r >= T + K)  # rows with a charge / discharge term
    prev = period > 0
    a = np.zeros((T + 2 * K, 3 * T + 2 * K))
    a[r, 2 * T + r] = 1.0
    a[r[chg], period[chg]] = -dt * params.eta_c
    a[r[dis], T + period[dis]] = dt / params.eta_d
    a[r[prev], 2 * T + period[prev] - 1] = -rho
    c = np.concatenate([-profit, profit, np.zeros(T + 2 * K)])
    lower = np.array([0.0, params.s_min, rho * params.s_min]).repeat([2 * T, T, 2 * K])
    upper = np.array([params.p_chg_max, params.p_dis_max, params.s_max, rho * params.s_max]).repeat(
        [T, T, T + K, K])
    rhs = np.where(prev, 0.0, rho * params.s_init)
    return LpProblem(c=c, lower=lower, upper=upper, a=a, rhs=rhs)


def _duration_start(problem: LpProblem, T: int) -> np.ndarray:
    """Start basis codes that follow the charge duration.  Where a period's
    price pays for a power (charge at a negative price, discharge at a
    positive one) and that power at full rate crosses the period's whole
    level range, the level starts nonbasic, at the bound its reduced cost
    prefers, and the discharge starts basic.  At a negative price that is
    the LP's simultaneous charge and discharge (SCD) vertex: the charge
    runs at full rate, nonbasic, and the discharge burns what the level
    cannot hold; at a leg period the charge stays basic and the charge leg
    m^c starts nonbasic instead.  Every other period (zero price, slow
    storage) keeps its level basic, and the other leg columns stay basic.
    The basic columns are block lower triangular in period order, each
    block nonsingular (at a negative-price leg period, {p_chg, p_dis, m^d}
    on the rows {balance, charge leg, discharge leg} has determinant
    dt^2 eta_c / eta_d), so the start always factors; with every bound
    finite any basis is dual feasible once the simplex places each
    nonbasic variable."""
    t = np.arange(T)
    a, c, lower, upper = problem.a, problem.c, problem.lower, problem.upper
    span = upper[2 * T : 3 * T] - lower[2 * T : 3 * T]
    chg = (c[:T] > 0) & (-a[t, t] * upper[:T] >= span)
    dis = (c[T : 2 * T] > 0) & (a[t, T + t] * upper[T : 2 * T] >= span)
    t_leg = a[T : (problem.m + T) // 2, :T].nonzero()[1]  # the period of each charge-leg row
    burn = chg[t_leg]  # leg periods that start at the SCD vertex
    start = np.full(problem.n, AT_LOWER)
    start[2 * T :] = BASIC
    start[T : 2 * T][chg | dis] = BASIC
    start[2 * T : 3 * T][chg | dis] = AT_LOWER
    start[t_leg[burn]] = BASIC
    start[3 * T : 3 * T + len(t_leg)][burn] = AT_LOWER
    return start


def solve_lp(problem: LpProblem, warm: LpSolution | None = None) -> LpSolution:
    """Solve a node LP, a problem from build_lp possibly with tightened
    bounds, and return the simplex's LpSolution, optimal or infeasible; no
    duals.  It starts from _duration_start, or from warm's basis and
    factor: warm is the LpSolution of an LP that differs only in its
    bounds, and the solve changes its factor."""
    if warm is not None:
        return solve_bounded_lp(problem, start=warm.basis, factor=warm.factor)
    T = (problem.n - problem.m) // 2  # n = 3T + 2K columns, m = T + 2K rows
    return solve_bounded_lp(problem, start=_duration_start(problem, T))


def lp_answer(sol: LpSolution, T: int) -> SolveReport:
    """The answer at an optimal LpSolution over T periods: its objective,
    a copy of its schedule and that schedule's SCD events."""
    schedule = Schedule(*sol.x[: 3 * T].reshape(3, T).copy())  # p_chg, p_dis, soe
    return SolveReport(sol.objective, schedule, detect_scd(schedule))


def require_finite(name: str, value: float) -> None:
    """Refuse, by name, a result that overflowed double precision."""
    if not np.isfinite(value):
        raise ValueError(f"{name} is {value}, beyond double precision")


def solve_storage_lp(params: StorageParams, prices: PriceSeries) -> SolveReport:
    """The LP answer from its value function (value.py), not the simplex: a
    schedule with no costless SCD (at a zero price or eta = 1), its SCD
    events, duals from its bound statuses and their KKT residual.  Raises
    InfeasibleStorage before any solve, or a ValueError naming an overflowing objective."""
    require_schedulable(params, len(prices))
    _require_same_dt(params, prices)
    p_chg, p_dis, soe, lam = lp_optimum(params, prices)
    schedule, dt, c, lam = Schedule(p_chg, p_dis, soe), params.dt, prices.prices, np.array(lam)
    with np.errstate(all="ignore"):  # an overflow shows as a nonfinite objective or residual
        report = SolveReport(objective(prices, schedule, dt), schedule, detect_scd(schedule))
        require_finite("lp objective", report.objective)
        # the reduced costs of soe, p_chg and p_dis from the stationarity rows;
        # each bound multiplier is the part of one sign (lower, then upper)
        reduced = np.stack([params.rho * np.append(lam[1:], 0.0) - lam,
                            lam * dt * params.eta_c - dt * c, dt * c - lam * dt / params.eta_d])
        lo, hi = np.maximum(np.array([-1.0, 1.0]).reshape(2, 1, 1) * reduced, 0.0)
        report.duals = DualVector(lam, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
        report.kkt_max_residual = kkt_verify(params, prices, report)
    return report


def kkt_verify(params: StorageParams, prices: PriceSeries, report: SolveReport) -> float:
    """Maximum residual, relative to the instance's energy scale e and
    largest price q, over the first-order optimality system: stationarity
    in p_dis / p_chg / soe, the balance equalities, dual nonnegativity,
    every complementarity pair, and the identity that at any SCD period
    dt*C_t*(1 - eta) + eta*delta_hi_t + gamma_hi_t = 0."""
    if report.duals is None:
        raise MissingDuals("report carries no duals")
    du, sch, dt, c = report.duals, report.schedule, params.dt, prices.prices
    e, q = params.energy_scale, np.abs(c).max() or 1.0  # with every price 0, any q will do
    lam_next = np.append(du.lam[1:], 0.0)  # free terminal level: lam_{T+1} = 0

    # stationarity in p_dis, p_chg and soe, in units of q*dt, q*dt and q, and
    # the primal balance rows, in e
    flow = dt * (params.eta_c * sch.p_chg - sch.p_dis / params.eta_d)
    rows = np.stack([-dt * c + du.lam * dt / params.eta_d + du.delta_hi - du.delta_lo,
                     dt * c - du.lam * dt * params.eta_c + du.gamma_hi - du.gamma_lo,
                     du.lam - params.rho * lam_next + du.sigma_hi - du.sigma_lo,
                     net_exchange(params, sch.soe) - flow])
    # per bound: dual nonnegativity, primal feasibility (e for soe, e/dt for a
    # power), complementary slackness
    mult = np.stack([du.sigma_lo, du.sigma_hi, du.gamma_lo, du.gamma_hi, du.delta_lo, du.delta_hi])
    slack = np.stack([sch.soe - params.s_min, params.s_max - sch.soe, sch.p_chg,
                      params.p_chg_max - sch.p_chg, sch.p_dis, params.p_dis_max - sch.p_dis])
    unit = np.array([q, q, q * dt, q * dt, q * dt, q * dt])
    scd = scd_mask(sch.p_chg, sch.p_dis)  # the SCD dual identity at the SCD periods
    identity = dt * c[scd] * (1 - params.eta) + params.eta * du.delta_hi[scd] + du.gamma_hi[scd]
    res = [(rows, np.array([q * dt, q * dt, q, e])), (np.minimum(mult, 0.0), unit),
           (np.minimum(slack, 0.0), e * (q / unit)), (mult * slack, q * e), (identity, q * dt)]
    # each residual's largest |r| over its unit: division rounds monotonically,
    # so that is its largest |r|/unit
    worst = [np.maximum.reduce(np.abs(r), axis=-1, initial=0.0) / u for r, u in res]
    return max(np.hstack(worst).tolist())
