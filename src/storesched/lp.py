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
from .storage import (Schedule, ScaledInstance, StorageParams, detect_scd, flow, from_units,
                      net_exchange, objective, require_compatible, require_finite,
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


def build_lp(params: StorageParams, prices: PriceSeries, legs: tuple = ()) -> LpProblem:
    """Storage LP over [p_chg (T), p_dis (T), soe (T), m^c (K), m^d (K)],
    K = len(legs), maximizing sum_t dt*C_t*(p_dis_t - p_chg_t).  Row r is
    the equality that defines column 2T + r, with soe_0 = s_init:
    soe_t = rho*soe_{t-1} + dt*eta_c*p_chg_t - dt*p_dis_t/eta_d in [s_min, s_max]
    and, at each 1-based period t in legs, the level after the charge alone,
    m^c_t = rho*soe_{t-1} + dt*eta_c*p_chg_t in [rho*s_min, s_max], and after
    the discharge alone, m^d_t = rho*soe_{t-1} - dt*p_dis_t/eta_d in
    [rho*s_min, rho*s_max], with powers up to the ones the reaches imply.
    prices is a PriceSeries or, handed on, storage.require_compatible's record
    of it, in whose units the LP is (a is unitless)."""
    units = prices if isinstance(prices, ScaledInstance) else require_compatible(params, prices)
    dt, rho = params.dt, params.rho
    profit = dt * units.prices
    T, K = len(profit), len(legs)
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
    s_min, s_max, s_init = units.levels
    p_chg, p_dis = (from_units(v, -units.e) for v in units.powers)
    lower = np.array([0.0, s_min, rho * s_min]).repeat([2 * T, T, 2 * K])
    upper = np.array([p_chg, p_dis, s_max, rho * s_max]).repeat([T, T, T + K, K])
    rhs = np.where(prev, 0.0, rho * s_init)
    return LpProblem(c=c, lower=lower, upper=upper, a=a, rhs=rhs)


def _duration_start(problem: LpProblem) -> np.ndarray:
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
    T = (problem.n - problem.m) // 2  # n = 3T + 2K columns, m = T + 2K rows
    t = np.arange(T)
    a, c, lower, upper = problem.a, problem.c, problem.lower, problem.upper
    span = upper[2 * T : 3 * T] - lower[2 * T : 3 * T]
    chg = (c[:T] > 0) & (-a[t, t] * upper[:T] >= span)
    dis = (c[T : 2 * T] > 0) & (a[t, T + t] * upper[T : 2 * T] >= span)
    t_leg = (a[T : (problem.m + T) // 2, :T] != 0).nonzero()[1]  # each charge-leg row's period
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
    return solve_bounded_lp(problem, start=_duration_start(problem))


def solve_storage_lp(params: StorageParams, prices: PriceSeries) -> SolveReport:
    """The LP answer from its value function (value.py), not the simplex: a
    schedule with no costless SCD (at a zero price or eta = 1), its SCD
    events, duals from its bound statuses and their KKT residual, all formed
    in the price unit of storage.require_compatible's record and scaled back
    once.  Each bound multiplier is the part of one sign of the reduced cost of
    soe, p_chg or p_dis, which the stationarity rows give from lambda.  Storage's
    two gates refuse before any solve; a ValueError names an overflowing objective."""
    require_schedulable(params, len(prices))
    units = require_compatible(params, prices)
    p_chg, p_dis, soe, y = map(np.array, lp_optimum(params, units))  # Schedule checks by dtype
    schedule, dt, dt_c = Schedule(p_chg, p_dis, soe), params.dt, params.dt * units.prices
    with np.errstate(all="ignore"):  # an overflow shows as a nonfinite objective or residual
        report = SolveReport(objective(prices, schedule, dt), schedule, detect_scd(schedule))
        require_finite("lp objective", report.objective)
        # the upper bounds' rows take the reduced costs, the lower bounds' rows
        # their negations, and each multiplier is the part >= 0 of its row
        bounds = np.empty((6, len(y)))
        soe_rc, chg_rc, dis_rc = hi = bounds[1::2]
        soe_rc[:-1] = params.rho * y[1:]
        soe_rc[-1] = 0.0  # free terminal level: lam_{T+1} = 0
        soe_rc -= y
        y_dt = y * dt
        chg_rc[:] = y_dt * params.eta_c - dt_c
        dis_rc[:] = dt_c - y_dt / params.eta_d
        np.maximum(np.multiply(hi, -1.0, out=bounds[::2]), 0.0, out=bounds[::2])
        np.maximum(hi, 0.0, out=hi)
        report.duals = DualVector(*np.ldexp([y, *bounds], units.p))
        du = units, DualVector(y, *bounds)
        report.kkt_max_residual = kkt_verify(params, prices, report, du)
    return report


def kkt_verify(params: StorageParams, prices: PriceSeries, report: SolveReport, du=None) -> float:
    """Maximum residual, relative to the instance's energy scale e and
    largest price q, over the first-order optimality system: stationarity
    in p_dis / p_chg / soe, the balance equalities, dual nonnegativity,
    every complementarity pair, and the identity that at any SCD period
    dt*C_t*(1 - eta) + eta*delta_hi_t + gamma_hi_t = 0, in the price unit of
    storage.require_compatible's record, where q, q*dt and q*e neither round
    to 0 nor overflow: of report.duals scaled into it, or of du's multipliers
    as formed there, du a pair (that record, multipliers).  The residuals fill
    the rows of one block, and each row's largest |r| is divided by its unit."""
    if report.duals is None:
        raise MissingDuals("report carries no duals")
    units, du = du or (require_compatible(params, prices), None)
    du = du or DualVector(*(np.ldexp(v, -units.p) for v in vars(report.duals).values()))
    sch, dt, c = report.schedule, params.dt, units.prices
    e, q = params.energy_scale, units.q or 1.0  # all 0: any q will do
    lam, *bounds = vars(du).values()
    # each residual row beside its unit: stationarity in p_dis and p_chg in
    # q*dt, in soe in q, balance in e; each multiplier in q for soe and q*dt
    # for a power, its slack in e_u and e/dt, their product in q*e_u and q*e
    q_dt = q * dt
    res, unit = np.empty((22, len(c))), np.empty(23)  # unit[22]: the SCD identity's
    lam_dt = lam * dt
    res[0] = -dt * c + lam_dt / params.eta_d + du.delta_hi - du.delta_lo
    res[1] = dt * c - lam_dt * params.eta_c + du.gamma_hi - du.gamma_lo
    unit[0:2] = q_dt
    res[2, :-1] = params.rho * lam[1:]
    res[2, -1] = 0.0  # free terminal level: lam_{T+1} = 0
    res[2] = lam - res[2] + du.sigma_hi - du.sigma_lo
    unit[2] = q
    res[3] = net_exchange(params, sch.soe) - flow(params, sch.p_chg, sch.p_dis)
    unit[3] = e
    # per bound: dual nonnegativity, primal feasibility, complementary slackness
    mult, slack = res[4:10], res[10:16]
    mult[:] = bounds
    unit[4:10] = q, q, q_dt, q_dt, q_dt, q_dt
    slack[:] = (sch.soe - params.s_min, params.s_max - sch.soe, sch.p_chg,
                params.p_chg_max - sch.p_chg, sch.p_dis, params.p_dis_max - sch.p_dis)
    np.ldexp(slack[:2], -units.e, out=slack[:2])  # levels in the energy unit, where e is e_u
    e_dt, e_u = e * (q / q_dt), np.ldexp(e, -units.e)
    unit[10:16] = e_u, e_u, e_dt, e_dt, e_dt, e_dt
    np.multiply(mult, slack, out=res[16:])
    unit[16:22] = q * e_u, q * e_u, q * e, q * e, q * e, q * e
    np.minimum(res[4:16], 0.0, out=res[4:16])
    scd = scd_mask(sch.p_chg, sch.p_dis)  # the SCD dual identity at the SCD periods
    identity = dt * c[scd] * (1 - params.eta) + params.eta * du.delta_hi[scd] + du.gamma_hi[scd]
    unit[22] = q_dt
    # each residual's largest |r| over its unit: division rounds monotonically,
    # so that is its largest |r|/unit
    worst = np.empty(23)
    np.maximum.reduce(np.abs(res, out=res), axis=1, initial=0.0, out=worst[:22])
    worst[22] = np.maximum.reduce(np.abs(identity), initial=0.0)
    return np.maximum.reduce(np.divide(worst, unit, out=worst)).item()  # NaN anywhere reads NaN
