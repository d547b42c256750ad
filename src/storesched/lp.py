"""Storage scheduling LP: model construction, solving with dual
extraction, and verification of the stationarity / complementarity
system at the reported optimum.

Variable layout of the storage LP: [p_chg (T), p_dis (T), soe (T)], with
one state-of-energy balance row per period.
"""

from dataclasses import dataclass

import numpy as np

from .prices import PriceSeries
from .simplex import AT_LOWER, AT_UPPER, BASIC, LpProblem, LpStatus, SimplexFailure
from .simplex import solve_bounded_lp
from .storage import (
    DEFAULT_TOL,
    Schedule,
    StorageParams,
    detect_scd,
)


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
    status: LpStatus
    objective: float | None = None
    schedule: Schedule | None = None
    duals: DualVector | None = None
    scd_events: list | None = None
    kkt_max_residual: float | None = None
    x: np.ndarray | None = None  # raw solution for non-storage layouts
    basis: np.ndarray | None = None  # final simplex basis, a warm start for related LPs


def build_lp(params: StorageParams, prices: PriceSeries) -> LpProblem:
    """Problem instance with 3T variables and T balance equalities:
    soe_t - rho*soe_{t-1} - dt*eta_c*p_chg_t + (dt/eta_d)*p_dis_t = rhs,
    rhs = rho*s_init for t=1 and 0 otherwise; objective
    sum_t dt*C_t*(p_dis_t - p_chg_t)."""
    T = len(prices)
    dt = params.dt
    c = np.concatenate([-dt * prices.prices, dt * prices.prices, np.zeros(T)])
    lower = np.concatenate([np.zeros(2 * T), np.full(T, params.s_min)])
    upper = np.concatenate(
        [
            np.full(T, params.p_chg_max),
            np.full(T, params.p_dis_max),
            np.full(T, params.s_max),
        ]
    )
    t = np.arange(T)
    a = np.zeros((T, 3 * T))
    a[t, t] = -dt * params.eta_c
    a[t, T + t] = dt / params.eta_d
    a[t, 2 * T + t] = 1.0
    a[t[1:], 2 * T + t[:-1]] = -params.rho
    rhs = np.zeros(T)
    rhs[0] = params.rho * params.s_init
    return LpProblem(c=c, lower=lower, upper=upper, a=a, rhs=rhs, horizon=T)


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


def solve_lp(problem: LpProblem, tol: float = DEFAULT_TOL, start=None) -> SolveReport:
    """Solve the LP and return the schedule, duals and SCD diagnostics.
    The storage LP is always feasible (all-zero powers) and bounded, so
    Infeasible/Unbounded statuses signal malformed custom problems.
    start is a basis to warm-start from, such as the SolveReport.basis of
    an LP that differs only in its bounds."""
    T = problem.horizon
    if start is None and T is not None:
        # the columns from 2T on (soe, then the MILP's leg columns) form a
        # triangular basis with zero cost, so y = 0 and d = c: each power at
        # the bound its price prefers makes the start dual feasible
        start = np.where(problem.c > 0, AT_UPPER, AT_LOWER)
        start[2 * T :] = BASIC
    sol = solve_bounded_lp(problem, start=start)
    if sol.status is not LpStatus.OPTIMAL:
        return SolveReport(status=sol.status)
    report = SolveReport(LpStatus.OPTIMAL, sol.objective, x=sol.x, basis=sol.basis)
    if T is not None:
        schedule = Schedule(
            p_chg=sol.x[:T].copy(), p_dis=sol.x[T : 2 * T].copy(), soe=sol.x[2 * T : 3 * T].copy()
        )
        report.schedule = schedule
        if problem.m == T:  # the storage LP itself, without extra rows
            report.duals = _duals_from_solution(T, sol.y, sol.reduced_costs)
        report.scd_events = detect_scd(schedule, tol)
    return report


def solve_storage_lp(
    params: StorageParams, prices: PriceSeries, tol: float = DEFAULT_TOL
) -> SolveReport:
    """Convenience wrapper: build and solve the storage LP, attaching the
    verification residual."""
    report = solve_lp(build_lp(params, prices), tol)
    if report.status is not LpStatus.OPTIMAL:
        raise SimplexFailure(f"storage LP unexpectedly {report.status.value}")
    report.kkt_max_residual = kkt_verify(params, prices, report, tol)
    return report


def kkt_verify(
    params: StorageParams,
    prices: PriceSeries,
    report: SolveReport,
    tol: float = DEFAULT_TOL,
) -> float:
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
    # dual nonnegativity
    for mult in (du.sigma_lo, du.sigma_hi, du.gamma_lo, du.gamma_hi, du.delta_lo, du.delta_hi):
        res.append(np.minimum(mult, 0.0))
    # primal bound feasibility
    res.append(np.minimum(sch.soe - params.s_min, 0.0))
    res.append(np.minimum(params.s_max - sch.soe, 0.0))
    res.append(np.minimum(sch.p_chg, 0.0))
    res.append(np.minimum(params.p_chg_max - sch.p_chg, 0.0))
    res.append(np.minimum(sch.p_dis, 0.0))
    res.append(np.minimum(params.p_dis_max - sch.p_dis, 0.0))
    # complementary slackness
    res.append(du.sigma_lo * (sch.soe - params.s_min))
    res.append(du.sigma_hi * (params.s_max - sch.soe))
    res.append(du.gamma_lo * sch.p_chg)
    res.append(du.gamma_hi * (params.p_chg_max - sch.p_chg))
    res.append(du.delta_lo * sch.p_dis)
    res.append(du.delta_hi * (params.p_dis_max - sch.p_dis))
    # SCD dual identity at detected events
    for ev in detect_scd(sch, tol):
        k = ev.t - 1
        res.append(
            np.array([dt * c[k] * (1 - params.eta) + params.eta * du.delta_hi[k] + du.gamma_hi[k]])
        )
    return float(max(np.max(np.abs(r)) for r in res))
