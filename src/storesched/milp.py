"""MILP formulations of the scheduling problem and an exact
branch-and-bound solver over the LP relaxation.

The full variant carries charge/discharge exclusivity binaries on every
period; the refined variant only on strictly-negative-price periods,
which is sufficient because SCD at a nonnegative price is either
suboptimal or removable at equal objective.  Since the binaries never
enter the objective, branching is done directly on the exclusivity
disjunction: a child either forbids charging or forbids discharging at
the chosen period (equivalent to fixing u_t^C or u_t^D to zero with the
exact big-M links p <= u * p_max).  The search branches at the SCD event
whose netting to one mode costs the LP most, dt*|C_t|*b_t*(1 - eta_c*eta_d)/eta_c
for the energy b_t = min(eta_c*p_chg_t, p_dis_t/eta_d) charged and discharged
at once, and first solves the child that keeps the mode the LP nets there.
Each child carries a bound from one dual simplex step on its parent's
final factor (Driebeek 1966; simplex.child_bound), valid because every
point on the first dual ray is dual feasible for the child; a child whose
bound cannot beat the incumbent is dropped without an LP.

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
from .simplex import LpProblem, LpStatus, child_bound
from .storage import ScdEvent, StorageParams, detect_scd, repair_scd


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


def _branch_period(problem: MilpProblem, report: SolveReport) -> ScdEvent | None:
    """The report's SCD event at a binary period with the largest |C_t|*b_t,
    earliest t on ties, where b_t = min(eta_c*p_chg_t, p_dis_t/eta_d) is the
    energy t charges and discharges at once: netting t to one mode costs the
    LP exactly dt*|C_t|*b_t*(1 - eta_c*eta_d)/eta_c.  solve_milp then dives
    into the child that keeps the mode the LP nets at t, the larger of the two."""
    binary = set(problem.binary_periods)
    events = [ev for ev in report.scd_events if ev.t in binary]
    if not events:
        return None
    eta_c, eta_d = problem.params.eta_c, problem.params.eta_d

    def rank(ev):
        both = min(eta_c * ev.p_chg_t, ev.p_dis_t / eta_d)
        return -abs(problem.prices.prices[ev.t - 1]) * both, ev.t

    return min(events, key=rank)


def solve_milp(problem: MilpProblem):
    """Globally optimal solve; returns (SolveReport, BnbStats).  The final
    schedule is SCD-free everywhere: exclusivity is enforced by branching
    at binary periods, and any leftover SCD at a non-binary period must
    sit at a zero price, where the equal-objective repair applies.  Raises
    InfeasibleStorage when no schedule meets the storage limits."""
    stats = BnbStats()
    incumbent = None
    cutoff = -np.inf  # a node LP at or below it cannot beat the incumbent
    T = len(problem.prices)
    node = copy.copy(problem.base)  # shares a, c and rhs; takes each node's upper bounds
    # DFS over upper bounds, children ordered by the node LP: deterministic
    # optimum and schedule.  Every node LP after the root starts from the
    # basis and the factor the previous node LP ended on: with every bound
    # finite, any basis is dual feasible once its nonbasic variables are
    # placed.  So a tree factorizes once, at its root, unless a residual
    # check or a proof of infeasibility asks for a fresh factor.
    stack = [(problem.base.upper, np.inf)]
    sol = None  # the simplex's record of the previous node LP
    while stack:
        node.upper, bound = stack.pop()
        if bound <= cutoff:
            continue
        report = solve_lp(node, start=sol and sol.basis, factor=sol and sol.factor)
        sol, report.solution = report.solution, None
        stats.nodes += 1
        if report.status is LpStatus.INFEASIBLE:
            continue
        if stats.root_bound is None:
            stats.root_bound = report.objective
        if report.objective <= cutoff:
            continue
        event = _branch_period(problem, report)
        if event is None:
            # integral-equivalent: no SCD at any binary period; repair any
            # residual zero-price SCD and promote to incumbent
            schedule = repair_scd(problem.params, problem.prices, report.schedule)
            report.schedule = schedule
            report.scd_events = detect_scd(schedule)
            incumbent = report
            cutoff = report.objective + 1e-12 * max(1.0, abs(report.objective))
            stats.incumbent_updates += 1
            continue
        children = []
        for j, xj in ((event.t - 1, event.p_chg_t), (T + event.t - 1, event.p_dis_t)):
            upper = node.upper.copy()
            upper[j] = 0.0
            children.append((upper, child_bound(node, sol, j, xj)))
        # dive: the child that keeps the mode the LP nets at t is solved first
        nets_charge = problem.params.eta_c * event.p_chg_t > event.p_dis_t / problem.params.eta_d
        stack += children if nets_charge else children[::-1]
    if incumbent is None:
        raise InfeasibleStorage("no schedule keeps the storage level within [s_min, s_max]")
    stats.gap = 0.0
    return incumbent, stats


def solve_storage_milp(
    params: StorageParams, prices: PriceSeries, part: PricePartition, refined: bool = True
):
    return solve_milp(build_milp(params, prices, refined, part))
