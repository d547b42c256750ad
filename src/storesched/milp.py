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

Both variants share one relaxation, build_lp(params, prices, part.t_neg),
and differ only in binary_periods, the periods where the search may
branch.  Its "each leg fits" columns, the level after the charge alone
and after the discharge alone at each negative-price period, hold for
every exclusive schedule (0 <= s_min and rho <= 1).  For storage that
fully charges and fully discharges within one period (rho = 1,
s_min = 0) they are the convex hull of the two modes at t, so such MILPs
often close at the root node.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .lp import InfeasibleStorage, SolveReport, build_lp, solve_lp
from .prices import PricePartition, PriceSeries
from .simplex import LpProblem, LpStatus
from .storage import StorageParams, detect_scd, repair_scd


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
    binary_periods = part.t_neg if refined else tuple(range(1, len(prices) + 1))
    return MilpProblem(
        base=build_lp(params, prices, part.t_neg),
        binary_periods=binary_periods,
        params=params,
        prices=prices,
    )


def _branch_period(problem: MilpProblem, report: SolveReport) -> int | None:
    """Binary period among the report's SCD events whose implied charge
    binary is most fractional; most negative price, then earliest t,
    breaks ties."""
    binary = set(problem.binary_periods)
    events = [ev for ev in report.scd_events if ev.t in binary]
    if not events:
        return None

    def rank(ev):
        frac = ev.p_chg_t / problem.params.p_chg_max
        return -min(frac, 1 - frac), problem.prices.prices[ev.t - 1], ev.t

    return min(events, key=rank).t


def solve_milp(problem: MilpProblem):
    """Globally optimal solve; returns (SolveReport, BnbStats).  The final
    schedule is SCD-free everywhere: exclusivity is enforced by branching
    at binary periods, and any leftover SCD at a non-binary period must
    sit at a zero price, where the equal-objective repair applies.  Raises
    InfeasibleStorage when no schedule meets the storage limits."""
    stats = BnbStats()
    incumbent = None
    best_obj = -np.inf
    T = len(problem.prices)
    node = copy.copy(problem.base)  # shares a, c and rhs; takes each node's upper bounds
    # DFS over upper bounds, children in a fixed order: deterministic
    # optimum and schedule.  Every node LP after the root starts from the
    # basis and the factor the previous node LP ended on: with every bound
    # finite, any basis is dual feasible once its nonbasic variables are
    # placed.  So a tree factorizes once, at its root, unless a residual
    # check or a proof of infeasibility asks for a fresh factor.
    stack = [problem.base.upper]
    basis = factor = None
    while stack:
        node.upper = stack.pop()
        report = solve_lp(node, start=basis, factor=factor)
        basis, factor, report.factor = report.basis, report.factor, None
        stats.nodes += 1
        if report.status is LpStatus.INFEASIBLE:
            continue
        if stats.root_bound is None:
            stats.root_bound = report.objective
        if report.objective <= best_obj + 1e-12 * max(1.0, abs(best_obj)):
            continue
        t = _branch_period(problem, report)
        if t is None:
            # integral-equivalent: no SCD at any binary period; repair any
            # residual zero-price SCD and promote to incumbent
            schedule = repair_scd(problem.params, problem.prices, report.schedule)
            report.schedule = schedule
            report.scd_events = detect_scd(schedule)
            incumbent = report
            best_obj = report.objective
            stats.incumbent_updates += 1
            continue
        chg_off, dis_off = node.upper.copy(), node.upper.copy()
        chg_off[t - 1] = 0.0
        dis_off[T + t - 1] = 0.0
        stack.append(dis_off)
        stack.append(chg_off)  # solved first
    if incumbent is None:
        raise InfeasibleStorage("no schedule keeps the storage level within [s_min, s_max]")
    stats.gap = 0.0
    incumbent.duals = None  # LP duals of a node are not MILP duals
    return incumbent, stats


def solve_storage_milp(
    params: StorageParams, prices: PriceSeries, part: PricePartition, refined: bool = True
):
    return solve_milp(build_milp(params, prices, refined, part))
