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
bound cannot beat the incumbent is dropped without an LP.  A period where
a power is fixed at 0 is never branched: each node first clips its powers
into its bounds, so that power reads 0, and K binary periods make at most
2^(K+1) - 1 nodes.

Both variants share one relaxation, build_lp(params, prices, part.t_neg),
and differ only in binary_mask, the periods where the search may
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

from .lp import SolveReport, build_lp, solve_lp
from .prices import PricePartition, PriceSeries
from .simplex import LpProblem, LpSolution, LpStatus, SimplexFailure, child_bound
from .storage import (Schedule, ScaledInstance, StorageParams, detect_scd, from_units, repair_scd,
                      require_compatible, require_finite, require_schedulable, scd_mask)


@dataclass
class MilpProblem:
    base: LpProblem
    binary_mask: np.ndarray  # the periods carrying u_t^C, u_t^D, over 0-based t
    params: StorageParams  # base's power bounds, the powers the reaches imply, are the exact big-Ms
    prices: PriceSeries
    units: ScaledInstance  # base's units (storage.require_compatible)

    @property
    def num_binaries(self) -> int:
        return 2 * int(self.binary_mask.sum())


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
    require_schedulable(params, len(prices))
    units = require_compatible(params, prices)
    binary_mask = np.full(len(prices), not refined)  # full: every period
    binary_mask[np.asarray(part.t_neg, dtype=int) - 1] = True
    return MilpProblem(
        base=build_lp(params, units, part.t_neg),
        binary_mask=binary_mask,
        params=params,
        prices=prices,
        units=units,
    )


def _branch_period(problem: MilpProblem, sol: LpSolution) -> int | None:
    """The 0-based binary period with SCD in sol.x and the largest |C_t|*b_t,
    earliest on ties, or None: b_t = min(eta_c*p_chg_t, p_dis_t/eta_d) is the
    energy t charges and discharges at once, and netting t to one mode costs
    the LP exactly dt*|C_t|*b_t*(1 - eta_c*eta_d)/eta_c.  solve_milp then
    dives into the child that keeps the mode the LP nets at t."""
    T = len(problem.prices)
    p_chg, p_dis = sol.x[:T], sol.x[T : 2 * T]
    # SCD within the binary periods' own power scale, which netting elsewhere keeps
    branchable = scd_mask(p_chg * problem.binary_mask, p_dis * problem.binary_mask)
    if not np.logical_or.reduce(branchable):
        return None
    both = np.minimum(problem.params.eta_c * p_chg, p_dis / problem.params.eta_d)
    cost = abs(problem.units.prices) * both
    cost[~branchable] = -np.inf
    return int(cost.argmax())


def solve_milp(problem: MilpProblem):
    """Globally optimal solve; returns (SolveReport, BnbStats).  The final
    schedule is SCD-free everywhere: exclusivity is enforced by branching
    at binary periods, and any leftover SCD at a non-binary period sits at
    a nonnegative price, where repair_scd nets it at no loss of profit (at
    C_t > 0 a gain within the simplex's tolerance; the objective stays the
    node LP's).  Ending with no incumbent is a SimplexFailure: build_milp
    ran require_schedulable.  It searches in base's units and scales the
    answer and root bound back once, to inf beyond double precision."""
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
        sol = solve_lp(node, sol)
        stats.nodes += 1
        if sol.status is LpStatus.INFEASIBLE:
            continue
        if stats.root_bound is None:
            stats.root_bound = sol.objective
        if sol.objective <= cutoff:
            continue
        # each power into the node's bounds: one fixed at 0 reads 0, never SCD
        np.minimum(np.maximum(sol.x[: 2 * T], 0.0), node.upper[: 2 * T], out=sol.x[: 2 * T])
        k = _branch_period(problem, sol)
        if k is None:  # integral-equivalent: no SCD at any binary period
            incumbent = sol
            cutoff = sol.objective + 1e-12 * abs(sol.objective)
            stats.incumbent_updates += 1
            continue
        children = []
        for j in (k, T + k):
            upper = node.upper.copy()
            upper[j] = 0.0
            children.append((upper, child_bound(node, sol, j)))
        # dive: the child that keeps the mode the LP nets at t is solved first
        eta_c, eta_d = problem.params.eta_c, problem.params.eta_d
        nets_charge = eta_c * sol.x.item(k) > sol.x.item(T + k) / eta_d
        stack += children if nets_charge else children[::-1]
    if incumbent is None:
        raise SimplexFailure("branch and bound found no schedule for a storage that has one")
    e, p = problem.units.e, problem.units.p
    sch = repair_scd(problem.params, problem.prices,  # nets any nonnegative-price SCD
                     Schedule(*np.ldexp(incumbent.x[: 3 * T], e).reshape(3, T)))
    stats.gap, stats.root_bound = 0.0, from_units(stats.root_bound, e + p)
    return SolveReport(from_units(incumbent.objective, e + p), sch, detect_scd(sch)), stats


def solve_storage_milp(
    params: StorageParams, prices: PriceSeries, part: PricePartition, refined: bool = True
):
    """solve_milp on build_milp's problem; a ValueError names an objective
    that overflows double precision."""
    report, stats = solve_milp(build_milp(params, prices, refined, part))
    require_finite(f"{'refined' if refined else 'milp'} objective", report.objective)
    return report, stats
