"""MILP formulations of the scheduling problem and an exact
branch-and-bound solver over the LP relaxation.

The full variant carries charge/discharge exclusivity binaries on every
period; the refined variant only on strictly-negative-price periods,
which is sufficient because SCD at a nonnegative price is either
suboptimal or removable at equal objective.  Since the binaries never
enter the objective, branching is done directly on the exclusivity
disjunction: a child either forbids charging or forbids discharging at
the chosen period (equivalent to fixing u_t^C or u_t^D to zero with the
exact big-M links p <= u * p_max).

Each binary period t also carries two "each leg fits" columns, each
defined by one equality row: the level after the charge alone,
m^c_t = rho*s_{t-1} + dt*eta_c*p_chg_t in [rho*s_min, s_max], and the level
after the discharge alone, m^d_t = rho*s_{t-1} - dt*p_dis_t/eta_d in
[rho*s_min, rho*s_max], with s_0 = s_init.  Every exclusive schedule meets
them (0 <= s_min and rho <= 1).  For storage that fully charges and fully
discharges within one period (rho = 1, s_min = 0) they are the convex hull
of the two modes at t, so such MILPs often close at the root node.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .lp import SolveReport, build_lp, solve_lp
from .prices import PricePartition, PriceSeries
from .simplex import LpProblem, LpStatus, SimplexFailure
from .storage import DEFAULT_TOL, StorageParams, detect_scd, repair_scd


@dataclass
class MilpProblem:
    base: LpProblem
    binary_periods: tuple  # 1-based periods carrying u_t^C, u_t^D
    params: StorageParams  # p_chg_max / p_dis_max are the exact big-Ms
    prices: PriceSeries

    @property
    def num_binaries(self) -> int:
        return 2 * len(self.binary_periods)


@dataclass
class BnbStats:
    nodes: int = 0
    incumbent_updates: int = 0
    gap: float = float("inf")
    root_bound: float | None = None  # objective of the root node LP


def build_milp(
    params: StorageParams,
    prices: PriceSeries,
    refined: bool,
    part: PricePartition,
) -> MilpProblem:
    T = len(prices)
    binary_periods = part.t_neg if refined else tuple(range(1, T + 1))
    return MilpProblem(
        base=_with_legs(build_lp(params, prices), params, binary_periods),
        binary_periods=binary_periods,
        params=params,
        prices=prices,
    )


def _with_legs(lp: LpProblem, params: StorageParams, periods: tuple) -> LpProblem:
    """The storage LP plus the leg columns [m^c (K), m^d (K)] and their rows
    m^c_t - rho*s_{t-1} - dt*eta_c*p_chg_t = 0, m^d_t - rho*s_{t-1} +
    dt*p_dis_t/eta_d = 0, with rho*s_init on the right-hand side at t = 1."""
    T, K = lp.horizon, len(periods)
    t = np.asarray(periods, dtype=int) - 1
    legs = np.arange(2 * K)
    a = np.zeros((T + 2 * K, 3 * T + 2 * K))
    a[:T, : 3 * T] = lp.a
    a[T + legs, 3 * T + legs] = 1.0
    a[T + legs[:K], t] = -params.dt * params.eta_c
    a[T + legs[K:], T + t] = params.dt / params.eta_d
    prev = np.concatenate([t, t]) > 0
    a[T + legs[prev], 2 * T + np.concatenate([t, t])[prev] - 1] = -params.rho
    rhs = np.where(prev, 0.0, params.rho * params.s_init)
    return LpProblem(
        c=np.concatenate([lp.c, np.zeros(2 * K)]),
        lower=np.concatenate([lp.lower, np.full(2 * K, params.rho * params.s_min)]),
        upper=np.concatenate(
            [lp.upper, np.full(K, params.s_max), np.full(K, params.rho * params.s_max)]
        ),
        a=a,
        rhs=np.concatenate([lp.rhs, rhs]),
        horizon=T,
    )


def _node_lp(problem: MilpProblem, chg_off: frozenset, dis_off: frozenset) -> LpProblem:
    lp = copy.copy(problem.base)
    lp.upper = problem.base.upper.copy()
    T = problem.base.horizon
    for t in chg_off:
        lp.upper[t - 1] = 0.0
    for t in dis_off:
        lp.upper[T + t - 1] = 0.0
    return lp


def _branch_period(problem: MilpProblem, report: SolveReport, tol: float) -> int | None:
    """Binary period with SCD whose implied charge binary is most
    fractional; most negative price breaks ties."""
    events = {ev.t: ev for ev in detect_scd(report.schedule, tol)}
    best = None
    best_key = None
    for t in problem.binary_periods:
        ev = events.get(t)
        if ev is None:
            continue
        frac = ev.p_chg_t / problem.params.p_chg_max
        key = (-min(frac, 1 - frac), problem.prices.prices[t - 1], t)
        if best_key is None or key < best_key:
            best, best_key = t, key
    return best


def solve_milp(problem: MilpProblem, tol: float = DEFAULT_TOL):
    """Globally optimal solve; returns (SolveReport, BnbStats).  The final
    schedule is SCD-free everywhere: exclusivity is enforced by branching
    at binary periods, and any leftover SCD at a non-binary period must
    sit at a zero price, where the equal-objective repair applies."""
    stats = BnbStats()
    incumbent = None
    best_obj = -np.inf
    # DFS, children in a fixed order: deterministic optimum and schedule.
    # A child only tightens one upper bound, so its parent's optimal basis
    # stays dual feasible and warm-starts the child's LP.
    stack = [(frozenset(), frozenset(), None)]
    while stack:
        chg_off, dis_off, basis = stack.pop()
        report = solve_lp(_node_lp(problem, chg_off, dis_off), tol, start=basis)
        stats.nodes += 1
        if report.status is not LpStatus.OPTIMAL:
            raise SimplexFailure(f"node LP {report.status.value} in branch and bound")
        if stats.root_bound is None:
            stats.root_bound = report.objective
        if report.objective <= best_obj + 1e-12 * max(1.0, abs(best_obj)):
            continue
        t = _branch_period(problem, report, tol)
        if t is None:
            # integral-equivalent: no SCD at any binary period; repair any
            # residual zero-price SCD and promote to incumbent
            schedule = repair_scd(problem.params, problem.prices, report.schedule, tol)
            report.schedule = schedule
            report.scd_events = detect_scd(schedule, tol)
            incumbent = report
            best_obj = report.objective
            stats.incumbent_updates += 1
            continue
        stack.append((chg_off, dis_off | {t}, report.basis))
        stack.append((chg_off | {t}, dis_off, report.basis))
    stats.gap = 0.0
    incumbent.duals = None  # LP duals of a node are not MILP duals
    return incumbent, stats


def solve_storage_milp(
    params: StorageParams,
    prices: PriceSeries,
    part: PricePartition,
    refined: bool = True,
    tol: float = DEFAULT_TOL,
):
    problem = build_milp(params, prices, refined, part)
    return solve_milp(problem, tol)
