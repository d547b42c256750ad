"""Storage scheduling LP: model construction, solving with dual
extraction, and verification of the stationarity / complementarity
system at the reported optimum.

Variable layout of the storage LP: [p_chg (T), p_dis (T), soe (T)], with
one state-of-energy balance row per period; the MILPs append "each leg
fits" columns, each with its defining row (see build_lp).
"""

from dataclasses import dataclass

import numpy as np

from .prices import PriceSeries
from .simplex import AT_LOWER, BASIC, LpProblem, LpSolution, LpStatus, solve_bounded_lp
from .storage import RepairNotApplicable, Schedule, StorageParams, detect_scd, repair_scd, scd_mask


class InfeasibleStorage(ValueError):
    """No schedule keeps the level within [s_min, s_max] over the horizon,
    for example when leakage at s_min outruns the charge limit."""


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
    """One answer of the LP, a MILP or the DP."""

    status: LpStatus
    objective: float | None = None
    schedule: Schedule | None = None
    duals: DualVector | None = None  # from solve_storage_lp only
    scd_events: list | None = None
    kkt_max_residual: float | None = None  # from solve_storage_lp only
    solution: LpSolution | None = None  # solve_lp's simplex record; solve_milp takes it over


def build_lp(params: StorageParams, prices: PriceSeries, legs: tuple = ()) -> LpProblem:
    """Storage LP over [p_chg (T), p_dis (T), soe (T), m^c (K), m^d (K)],
    K = len(legs), maximizing sum_t dt*C_t*(p_dis_t - p_chg_t).  Row r is
    the equality that defines column 2T + r, with soe_0 = s_init:
    soe_t = rho*soe_{t-1} + dt*eta_c*p_chg_t - dt*p_dis_t/eta_d in [s_min, s_max]
    and, at each 1-based period t in legs, the level after the charge alone,
    m^c_t = rho*soe_{t-1} + dt*eta_c*p_chg_t in [rho*s_min, s_max], and after
    the discharge alone, m^d_t = rho*soe_{t-1} - dt*p_dis_t/eta_d in
    [rho*s_min, rho*s_max]."""
    if prices.dt != params.dt:
        raise ValueError(f"prices dt {prices.dt} differs from params dt {params.dt}")
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
    c = np.concatenate([-dt * prices.prices, dt * prices.prices, np.zeros(T + 2 * K)])
    lower = np.repeat([0.0, params.s_min, rho * params.s_min], [2 * T, T, 2 * K])
    upper = np.repeat(
        [params.p_chg_max, params.p_dis_max, params.s_max, rho * params.s_max], [T, T, T + K, K]
    )
    rhs = np.where(prev, 0.0, rho * params.s_init)
    return LpProblem(c=c, lower=lower, upper=upper, a=a, rhs=rhs)


def _duals_from_solution(T: int, y: np.ndarray, d: np.ndarray) -> DualVector:
    # bound multipliers read off the reduced costs; the pairing
    # (upper = max(d, 0), lower = max(-d, 0)) reproduces the stationarity
    # rows of the maximization KKT system exactly
    d_chg, d_dis, d_soe = d[:T], d[T : 2 * T], d[2 * T :]
    return DualVector(
        lam=y.copy(),
        sigma_lo=np.maximum(-d_soe, 0.0),
        sigma_hi=np.maximum(d_soe, 0.0),
        gamma_lo=np.maximum(-d_chg, 0.0),
        gamma_hi=np.maximum(d_chg, 0.0),
        delta_lo=np.maximum(-d_dis, 0.0),
        delta_hi=np.maximum(d_dis, 0.0),
    )


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


def solve_lp(problem: LpProblem, start=None, factor=None) -> SolveReport:
    """Solve a node LP: a problem from build_lp, possibly with tightened
    bounds.  The report gives the objective, schedule and SCD events, and
    in solution the simplex's record; no duals.  start is a basis to
    warm-start from, such as the solution.basis of an LP that differs only
    in its bounds, and factor optionally that solution's factor, which the
    solve then changes.  An infeasible report carries its solution too."""
    T = (problem.n - problem.m) // 2  # n = 3T + 2K columns, m = T + 2K rows
    if start is None:
        start = _duration_start(problem, T)
    sol = solve_bounded_lp(problem, start=start, factor=factor)
    if sol.status is not LpStatus.OPTIMAL:
        return SolveReport(status=sol.status, solution=sol)
    x = sol.x
    schedule = Schedule(p_chg=x[:T].copy(), p_dis=x[T : 2 * T].copy(), soe=x[2 * T : 3 * T].copy())
    return SolveReport(LpStatus.OPTIMAL, sol.objective, schedule, scd_events=detect_scd(schedule),
                       solution=sol)


def solve_storage_lp(params: StorageParams, prices: PriceSeries) -> SolveReport:
    """The LP answer: the storage LP's optimum with its duals, SCD netted by
    repair_scd when every event costs nothing (zero price or eta = 1; the
    vertex duals still certify it), and the KKT residual of that schedule.
    Raises InfeasibleStorage when no schedule meets the storage limits."""
    report = solve_lp(build_lp(params, prices))
    if report.status is not LpStatus.OPTIMAL:
        raise InfeasibleStorage("no schedule keeps the storage level within [s_min, s_max]")
    sol = report.solution
    sol.factor = None  # m x m floats that nothing reuses
    report.duals = _duals_from_solution(len(prices), sol.y, sol.reduced_costs)
    if report.scd_events:
        try:
            report.schedule, report.scd_events = repair_scd(params, prices, report.schedule), []
        except RepairNotApplicable:
            pass
    report.kkt_max_residual = kkt_verify(params, prices, report)
    return report


def kkt_verify(params: StorageParams, prices: PriceSeries, report: SolveReport) -> float:
    """Maximum absolute residual over the first-order optimality system:
    stationarity in p_dis / p_chg / soe, the balance equalities, dual
    nonnegativity, every complementarity pair, and the identity that at
    any SCD period dt*C_t*(1 - eta) + eta*delta_hi_t + gamma_hi_t = 0."""
    if report.duals is None or report.schedule is None:
        raise MissingDuals("report carries no duals")
    du = report.duals
    sch = report.schedule
    T = len(sch)
    dt = params.dt
    c = prices.prices
    lam_next = np.append(du.lam[1:], 0.0)  # free terminal level: lam_{T+1} = 0

    res = []
    # stationarity
    res.append(-dt * c + du.lam * dt / params.eta_d + du.delta_hi - du.delta_lo)
    res.append(dt * c - du.lam * dt * params.eta_c + du.gamma_hi - du.gamma_lo)
    res.append(du.lam - params.rho * lam_next + du.sigma_hi - du.sigma_lo)
    # primal balance rows
    prev = np.concatenate([[params.s_init], sch.soe[:-1]])
    res.append(sch.soe - params.rho * prev - dt * (params.eta_c * sch.p_chg - sch.p_dis / params.eta_d))
    # per bound: dual nonnegativity, primal feasibility, complementary slackness
    for mult, slack in (
        (du.sigma_lo, sch.soe - params.s_min), (du.sigma_hi, params.s_max - sch.soe),
        (du.gamma_lo, sch.p_chg), (du.gamma_hi, params.p_chg_max - sch.p_chg),
        (du.delta_lo, sch.p_dis), (du.delta_hi, params.p_dis_max - sch.p_dis),
    ):
        res += [np.minimum(mult, 0.0), np.minimum(slack, 0.0), mult * slack]
    # SCD dual identity at the schedule's SCD periods
    scd = scd_mask(sch)
    res.append(dt * c[scd] * (1 - params.eta) + params.eta * du.delta_hi[scd] + du.gamma_hi[scd])
    return float(max(np.abs(r).max(initial=0.0) for r in res))
