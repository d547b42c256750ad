"""Independent brute-force oracles.

solve_dp: backward value iteration over a discretized state-of-energy
grid with charge/discharge exclusivity enforced by construction (each
period either charges, discharges, or idles).  Every action lands on a
grid point, within rounding that _IDX_SLACK absorbs, with the power
computed from the endpoints, so the DP solves the grid-restricted
exclusive problem exactly: the value is a true lower bound on the
exclusive optimum and is exactly nondecreasing across nested grid
refinements.  On n grid points a period costs O(n log n) backward (range
maxima); forward, four binary searches for the windows of its one level
plus one evaluation per target in them: a fixed handful of numpy calls.

exhaustive_micro_oracle: full enumeration of discretized action
sequences, an absolute ground truth at micro scale.
"""

from dataclasses import dataclass

import numpy as np

from .lp import SolveReport
from .prices import PriceSeries, require_int
from .storage import (EPS, Schedule, StorageParams, objective, require_compatible, require_finite,
                      require_schedulable)


class GridTooCoarse(ValueError):
    """A full-rate charge or discharge step moves less than one grid spacing,
    or a level has no feasible grid transition though require_schedulable passed."""


class HorizonTooLong(ValueError):
    """Exhaustive enumeration only supports T <= 4."""


_IDX_SLACK = 1e-9  # index-space tolerance for on-grid states and full-rate steps


@dataclass(frozen=True)
class DpConfig:
    """grid_points spans [s_min, s_max] inclusive.  The actions are the
    transitions to every reachable grid point, so the grid alone fixes
    the action set."""

    grid_points: int = 801

    def __post_init__(self):
        require_int("grid_points", self.grid_points, 2)


def _windows(params: StorageParams, grid: np.ndarray, s):
    """The grid targets of levels s (one or an array) as windows lo, hi,
    charge first and discharge second, -1 <= hi < lo if none.  Charging to
    grid[k] takes a power that grows with k, discharging one that falls with
    k, so a power bound cuts each kind at one searchsorted of grid; the other
    end is the grid point nearest rho*s on that side, one searchsorted of the
    index ramp; both reach _IDX_SLACK spacings further."""
    base = params.rho * s
    h = grid[1] - grid[0]
    fidx = (base - params.s_min) / h
    top = base + params.charge_step + _IDX_SLACK * h
    bottom = base - params.discharge_step - _IDX_SLACK * h
    ramp = np.arange(len(grid), dtype=float)
    return ((ramp.searchsorted(fidx - _IDX_SLACK), grid.searchsorted(bottom)),
            (grid.searchsorted(top, "right") - 1,
             ramp.searchsorted(fidx + _IDX_SLACK, "right") - 1))


def _values(params: StorageParams, prices: PriceSeries, grid: np.ndarray) -> np.ndarray:
    """values[t, i]: the best profit from period t on, from grid[i].  Going to
    grid[k] earns a*(rho*grid[i] - grid[k]), a = C_t/eta_c for a charge and
    C_t*eta_d for a discharge: a term in i plus the best of a term in k over
    a window of k.  Level j of a sparse table holds the maximum over 2**j
    entries from each index, so two reads of one level cover a window."""
    lo, hi = map(np.array, _windows(params, grid, grid))
    rows, n = lo.shape
    width = hi - lo + 1
    level = np.log2(np.maximum(width, 1)).astype(int)
    # a level holds row r from r*(n + 1) on, with -inf (no target) at its column n
    at = (level * rows + np.arange(rows)[:, None]) * (n + 1)
    first = at + np.where(width > 0, lo, n)
    second = at + np.where(width > 0, hi - (1 << level) + 1, n)
    table = np.full((level.max() + 1, rows * (n + 1)), -np.inf)
    row_c, row_d = table[0].reshape(rows, n + 1)[:, :n]
    flat, rho_grid = table.ravel(), params.rho * grid
    values = np.zeros((len(prices) + 1, n))
    for t in range(len(prices) - 1, -1, -1):
        a_c, a_d = prices.prices[t] / params.eta_c, prices.prices[t] * params.eta_d
        np.subtract(values[t + 1], a_c * grid, out=row_c)
        np.subtract(values[t + 1], a_d * grid, out=row_d)
        for j in range(1, len(table)):
            w = 1 << (j - 1)
            np.maximum(table[j - 1, :-w], table[j - 1, w:], out=table[j, :-w])
        best_c, best_d = np.maximum(flat[first], flat[second])
        np.maximum(best_c + a_c * rho_grid, best_d + a_d * rho_grid, out=values[t])
    return values


def solve_dp(params: StorageParams, prices: PriceSeries, config: DpConfig) -> SolveReport:
    """Backward DP over the n-point state grid, O(n log n) a period, then
    greedy forward steps from the exact initial level, each to the first
    best target in the windows of one level, charge upward, then discharge
    downward.  The objective is recomputed exactly on the reconstructed
    continuous schedule; it approaches the exclusive optimum from below as
    the grid is refined.  storage.require_schedulable and require_compatible
    refuse before any solve; an overflow of the profit is refused by name."""
    T = len(prices)
    require_schedulable(params, T)
    require_compatible(params, prices)
    try:
        grid = np.linspace(params.s_min, params.s_max, config.grid_points)
    except (IndexError, ValueError):  # numpy refuses counts near or past its index range
        raise ValueError(f"grid_points {config.grid_points} exceed numpy's largest array") from None
    h = grid[1] - grid[0]
    if not h > 0:  # a range of fewer than grid_points - 1 subnormal steps
        raise ValueError(f"grid spacing of {config.grid_points} points on [s_min, s_max] is 0")
    for side, step in (("charge", params.charge_step), ("discharge", params.discharge_step)):
        if step < h:
            raise GridTooCoarse(f"full-rate {side} step {step} below grid spacing {h}")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        values, costs = _values(params, prices, grid), params.dt * prices.prices
        require_finite("dp value table", values.max())  # values[T] = 0: never -inf

        # forward pass from the exact (possibly off-grid) initial level; after
        # one step the state sits on the grid within rounding, which
        # _IDX_SLACK absorbs
        dt, eta_c, eta_d = params.dt, params.eta_c, params.eta_d
        p_chg, p_dis, soe = np.empty((3, T))
        s, gain = params.s_init, np.empty(2 * len(grid))
        for t in range(T):
            (lo_c, lo_d), (hi_c, hi_d) = _windows(params, grid, s)
            base, cost, after = params.rho * s, costs[t], values[t + 1]
            # charge targets upward, then discharge targets downward: an
            # on-grid level meets its idle target first as a charge
            up, down = slice(lo_c, hi_c + 1), slice(lo_d, hi_d + 1)
            pc = ((grid[up] - base) / (dt * eta_c)).clip(0.0, params.p_chg_max)
            pd = ((base - grid[down][::-1]) * eta_d / dt).clip(0.0, params.p_dis_max)
            m, end = len(pc), len(pc) + len(pd)
            np.subtract(after[up], cost * pc, out=gain[:m])
            np.add(cost * pd, after[down][::-1], out=gain[m:end])
            # the first maximizer, for determinism; NaN or +inf is an overflow
            if not end or (best := gain[a := int(gain[:end].argmax())]) == -np.inf:
                raise GridTooCoarse(f"no feasible grid transition from level {s}")
            require_finite(f"dp gain at level {s}", best)
            p_chg[t], p_dis[t] = (pc[a], 0.0) if a < m else (0.0, pd[a - m])
            s = base + dt * (eta_c * p_chg[t] - p_dis[t] / eta_d)
            soe[t] = s
        schedule = Schedule(p_chg=p_chg, p_dis=p_dis, soe=soe)
        report = SolveReport(objective(prices, schedule, params.dt), schedule, [])
    require_finite("dp objective", report.objective)
    return report


def dp_value_error_bound(params: StorageParams, prices: PriceSeries, config: DpConfig) -> float:
    """Crude diagnostic bound on the discretization gap: one grid spacing
    of stranded energy per period valued at the worst price.  Raises a
    ValueError, by name, when it overflows double precision."""
    h = (params.s_max - params.s_min) / (config.grid_points - 1)
    worst = float(np.max(np.abs(prices.prices)))
    bound = len(prices) * worst * h / params.eta
    require_finite("dp discretization_bound", bound)
    return bound


def exhaustive_micro_oracle(params: StorageParams, prices: PriceSeries, levels: int = 5) -> float:
    """Maximum profit over all exclusive discretized action sequences.
    Per period: idle, `levels` charge powers in (0, p_chg_max] plus the
    exact charge-to-ceiling power, and the discharge mirror image."""
    T = len(prices)
    if T > 4:
        raise HorizonTooLong(f"T={T} exceeds the micro-oracle limit of 4")
    require_int("levels", levels, 1, 7)
    dt, eta_c, eta_d, rho = params.dt, params.eta_c, params.eta_d, params.rho
    tol = EPS * params.energy_scale

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
            if s_next < params.s_min - tol or s_next > params.s_max + tol:
                continue
            recurse(t + 1, s_next, profit + dt * prices.prices[t] * (pd - pc))

    recurse(0, params.s_init, 0.0)
    return float(best)
