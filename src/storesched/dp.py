"""Independent brute-force oracles.

solve_dp: backward value iteration over a discretized state-of-energy
grid with charge/discharge exclusivity enforced by construction (each
period either charges, discharges, or idles).  Every action lands
exactly on a grid point, with the power computed from the endpoints, so
the DP solves the grid-restricted exclusive problem exactly: the value
is a true lower bound on the exclusive optimum and is exactly
nondecreasing across nested grid refinements.

exhaustive_micro_oracle: full enumeration of discretized action
sequences, an absolute ground truth at micro scale.
"""

from dataclasses import dataclass

import numpy as np

from .lp import InfeasibleStorage, SolveReport
from .prices import PriceSeries
from .simplex import LpStatus
from .storage import Schedule, StorageParams, objective


class GridTooCoarse(ValueError):
    """One full-rate charge step moves less than one grid spacing, or a
    level has no feasible grid transition although the storage has one."""


class HorizonTooLong(ValueError):
    """Exhaustive enumeration only supports T <= 4."""


_FEAS_SLACK = 1e-12
_IDX_SLACK = 1e-9  # index-space tolerance for on-grid states


@dataclass(frozen=True)
class DpConfig:
    """grid_points spans [s_min, s_max] inclusive.  The actions are the
    transitions to every reachable grid point, so the grid alone fixes
    the action set."""

    grid_points: int = 801

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("need grid_points >= 2")


def _action_table(params: StorageParams, grid: np.ndarray, s: np.ndarray):
    """Candidate (p_chg, p_dis, target_idx, valid) per action and state,
    arrays of shape (n_actions, len(s)).  Actions: charge to each grid
    point at or above the leaked level rho*s (offset 0 at an on-grid
    state is the idle action), and discharge to each grid point at or
    below it.  Power bounds prune the out-of-reach targets."""
    dt, eta_c, eta_d, rho = params.dt, params.eta_c, params.eta_d, params.rho
    h = grid[1] - grid[0]
    n = len(grid)
    base = rho * s
    fidx = (base - params.s_min) / h
    ceilk = np.ceil(fidx - _IDX_SLACK).astype(int)
    floork = np.floor(fidx + _IDX_SLACK).astype(int)

    reach_chg = int(np.floor(dt * eta_c * params.p_chg_max / h + _IDX_SLACK)) + 1
    reach_dis = int(np.floor(dt * params.p_dis_max / (eta_d * h) + _IDX_SLACK)) + 1
    n_chg = min(reach_chg + 1, n)
    n_dis = min(reach_dis + 1, n)

    # one row per action: charge offsets 0..n_chg-1 above the leaked
    # level, then discharge offsets 0..n_dis-1 below it
    j = np.arange(n_chg + n_dis)[:, None]
    chg = j < n_chg
    k = np.where(chg, ceilk + j, floork - (j - n_chg))
    ok = np.where(chg, k <= n - 1, k >= 0)
    k = np.clip(k, 0, n - 1)
    pc = np.where(chg, np.maximum((grid[k] - base) / (dt * eta_c), 0.0), 0.0)
    pd = np.where(chg, 0.0, np.maximum((base - grid[k]) * eta_d / dt, 0.0))
    ok &= (pc <= params.p_chg_max + _FEAS_SLACK) & (pd <= params.p_dis_max + _FEAS_SLACK)
    return np.minimum(pc, params.p_chg_max), np.minimum(pd, params.p_dis_max), k, ok


def _no_transition(params: StorageParams, T: int, s: float) -> ValueError:
    """The error for a level with no feasible grid transition: the storage
    is at fault if even a full charge every period, capped at s_max, drops
    below s_min (every reachable level lies at or below that trajectory,
    which is itself feasible otherwise); else the grid is."""
    top = params.s_init
    for _ in range(T):
        top = min(params.rho * top + params.dt * params.eta_c * params.p_chg_max, params.s_max)
        if top < params.s_min:
            return InfeasibleStorage("no schedule keeps the storage level within [s_min, s_max]")
    return GridTooCoarse(f"no feasible grid transition from level {s}")


def solve_dp(params: StorageParams, prices: PriceSeries, config: DpConfig) -> SolveReport:
    """Backward DP over the state grid, then greedy forward reconstruction
    from the exact initial level.  The objective is recomputed exactly on
    the reconstructed continuous schedule; it approaches the exclusive
    optimum from below as the grid is refined."""
    if prices.dt != params.dt:
        raise ValueError(f"prices dt {prices.dt} differs from params dt {params.dt}")
    T = len(prices)
    grid = np.linspace(params.s_min, params.s_max, config.grid_points)
    h = grid[1] - grid[0]
    if params.dt * params.eta_c * params.p_chg_max < h:
        raise GridTooCoarse(
            f"full-rate charge step {params.dt * params.eta_c * params.p_chg_max} "
            f"below grid spacing {h}"
        )

    pc_g, pd_g, idx_g, ok_g = _action_table(params, grid, grid)
    trade_g = pd_g - pc_g

    values = np.zeros((T + 1, config.grid_points))
    for t in range(T - 1, -1, -1):
        reward = params.dt * prices.prices[t] * trade_g
        cand = np.where(ok_g, reward + values[t + 1][idx_g], -np.inf)
        values[t] = cand.max(axis=0)

    # forward pass from the exact (possibly off-grid) initial level; after
    # one step the state sits exactly on the grid
    p_chg = np.empty(T)
    p_dis = np.empty(T)
    soe = np.empty(T)
    s = params.s_init
    for t in range(T):
        pc, pd, idx, ok = _action_table(params, grid, np.array([s]))
        pc, pd, idx, ok = pc[:, 0], pd[:, 0], idx[:, 0], ok[:, 0]
        cand = np.where(
            ok, params.dt * prices.prices[t] * (pd - pc) + values[t + 1][idx], -np.inf
        )
        a = int(np.argmax(cand))  # first maximizer: deterministic
        if not np.isfinite(cand[a]):
            raise _no_transition(params, T, s)
        p_chg[t], p_dis[t] = pc[a], pd[a]
        s = params.rho * s + params.dt * (params.eta_c * pc[a] - pd[a] / params.eta_d)
        soe[t] = s

    schedule = Schedule(p_chg=p_chg, p_dis=p_dis, soe=soe)
    return SolveReport(
        status=LpStatus.OPTIMAL,
        objective=objective(prices, schedule, params.dt),
        schedule=schedule,
        scd_events=[],
    )


def dp_value_error_bound(params: StorageParams, prices: PriceSeries, config: DpConfig) -> float:
    """Crude diagnostic bound on the discretization gap: one grid spacing
    of stranded energy per period valued at the worst price."""
    h = (params.s_max - params.s_min) / (config.grid_points - 1)
    worst = float(np.max(np.abs(prices.prices)))
    return len(prices) * worst * h / min(params.eta_c * params.eta_d, 1.0)


def exhaustive_micro_oracle(params: StorageParams, prices: PriceSeries, levels: int = 5) -> float:
    """Maximum profit over all exclusive discretized action sequences.
    Per period: idle, `levels` charge powers in (0, p_chg_max] plus the
    exact charge-to-ceiling power, and the discharge mirror image."""
    T = len(prices)
    if T > 4:
        raise HorizonTooLong(f"T={T} exceeds the micro-oracle limit of 4")
    if levels > 7:
        raise ValueError("levels must be <= 7")
    dt, eta_c, eta_d, rho = params.dt, params.eta_c, params.eta_d, params.rho

    def actions(s: float):
        out = [(0.0, 0.0)]
        to_max = min((params.s_max - rho * s) / (dt * eta_c), params.p_chg_max)
        to_min = min((rho * s - params.s_min) * eta_d / dt, params.p_dis_max)
        for p in np.linspace(params.p_chg_max / levels, params.p_chg_max, levels):
            out.append((min(p, max(to_max, 0.0)), 0.0))
        if to_max > 0:
            out.append((to_max, 0.0))
        for p in np.linspace(params.p_dis_max / levels, params.p_dis_max, levels):
            out.append((0.0, min(p, max(to_min, 0.0))))
        if to_min > 0:
            out.append((0.0, to_min))
        return out

    best = -np.inf

    def recurse(t: int, s: float, profit: float):
        nonlocal best
        if t == T:
            best = max(best, profit)
            return
        for pc, pd in actions(s):
            s_next = rho * s + dt * (eta_c * pc - pd / eta_d)
            if s_next < params.s_min - _FEAS_SLACK or s_next > params.s_max + _FEAS_SLACK:
                continue
            recurse(t + 1, s_next, profit + dt * prices.prices[t] * (pd - pc))

    recurse(0, params.s_init, 0.0)
    return float(best)
