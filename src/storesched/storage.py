"""Physical storage model: parameters, state-of-energy dynamics,
feasibility and simultaneous-charge-and-discharge (SCD) handling.

State of energy is stored per period end: soe[k] is the level at the end
of period k+1 (1-based period indices in all reports); the initial level
is a parameter, never part of a Schedule.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .prices import PriceSeries

#: The feasibility / SCD tolerance, in the units of the quantity checked
#: (MW or MWh).  One order above double-precision simplex residuals.
DEFAULT_TOL = 1e-7


class RepairNotApplicable(Exception):
    """SCD removal with equal objective is impossible (strictly negative
    price with round-trip losses)."""


@dataclass(frozen=True)
class StorageParams:
    """Physical description of the storage unit.

    Energies in MWh, powers in MW, dt in hours.  eta_c / eta_d are the
    charging / discharging efficiencies, rho the per-period self-discharge
    retention factor.
    """

    s_min: float
    s_max: float
    s_init: float
    p_chg_max: float
    p_dis_max: float
    eta_c: float = 1.0
    eta_d: float = 1.0
    rho: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        nonfinite = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if nonfinite:
            raise ValueError(f"parameters must be finite: {', '.join(nonfinite)}")
        if not 0 <= self.s_min < self.s_max:
            raise ValueError("need 0 <= s_min < s_max")
        if not self.s_min <= self.s_init <= self.s_max:
            raise ValueError("need s_min <= s_init <= s_max")
        if self.p_chg_max <= 0 or self.p_dis_max <= 0:
            raise ValueError("power limits must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name in ("eta_c", "eta_d", "rho"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1]")

    @property
    def eta(self) -> float:
        """Round-trip efficiency eta_c * eta_d."""
        return self.eta_c * self.eta_d

    @property
    def capacity(self) -> float:
        return self.s_max - self.s_min


@dataclass
class Schedule:
    """Per-period charge/discharge powers (MW) and end-of-period state of
    energy (MWh), all of length T >= 1."""

    p_chg: np.ndarray
    p_dis: np.ndarray
    soe: np.ndarray

    def __post_init__(self):
        self.p_chg = np.asarray(self.p_chg, dtype=float)
        self.p_dis = np.asarray(self.p_dis, dtype=float)
        self.soe = np.asarray(self.soe, dtype=float)
        if not self.p_chg.ndim == self.p_dis.ndim == self.soe.ndim == 1:
            raise ValueError("p_chg, p_dis and soe must be 1-D arrays")
        if not len(self.p_chg) == len(self.p_dis) == len(self.soe):
            raise ValueError("p_chg, p_dis and soe must share one length")
        if len(self.soe) < 1:
            raise ValueError("schedule must cover at least one period")

    def __len__(self) -> int:
        return len(self.soe)


@dataclass(frozen=True)
class ScdEvent:
    """Simultaneous charge and discharge at (1-based) period t."""

    t: int
    p_chg_t: float
    p_dis_t: float


@dataclass
class FeasibilityReport:
    """violations: list of (1-based period, constraint tag, magnitude)."""

    feasible: bool
    violations: list

    def __post_init__(self):
        assert self.feasible == (not self.violations)


def propagate_soe(params: StorageParams, p_chg, p_dis) -> np.ndarray:
    """State of energy at each period end given the power schedule:
    s_t = rho * s_{t-1} + dt * (eta_c * pC_t - pD_t / eta_d), s_0 = s_init.
    """
    p_chg = np.asarray(p_chg, dtype=float)
    p_dis = np.asarray(p_dis, dtype=float)
    if p_chg.shape != p_dis.shape or p_chg.ndim != 1 or len(p_chg) < 1:
        raise ValueError("p_chg and p_dis must be 1-D sequences of equal length >= 1")
    if np.any(p_chg < 0) or np.any(p_dis < 0):
        raise ValueError("power entries must be nonnegative")
    net = params.dt * (params.eta_c * p_chg - p_dis / params.eta_d)
    soe = np.empty(len(p_chg))
    level = params.s_init
    for t in range(len(p_chg)):
        level = params.rho * level + net[t]
        soe[t] = level
    return soe


def objective(prices: PriceSeries, schedule: Schedule, dt: float) -> float:
    """Arbitrage profit Z = sum_t dt * C_t * (pD_t - pC_t), in EUR."""
    c = prices.prices
    if len(c) != len(schedule):
        raise ValueError("price and schedule lengths differ")
    return float(np.sum(dt * c * (schedule.p_dis - schedule.p_chg)))


def feasibility_check(params: StorageParams, schedule: Schedule) -> FeasibilityReport:
    """Verify power bounds, state-of-energy bounds and the recursion
    consistency of the soe trajectory, within DEFAULT_TOL.  Reports every
    violation with its magnitude, and every NaN or infinite entry as a
    nonfinite_* violation; never raises on infeasibility."""
    violations = []
    prev = params.s_init
    for k in range(len(schedule)):
        t = k + 1
        pc, pd, s = schedule.p_chg[k], schedule.p_dis[k], schedule.soe[k]
        if not math.isfinite(pc):
            violations.append((t, "nonfinite_pc", abs(pc)))
        elif pc < -DEFAULT_TOL:
            violations.append((t, "bound_pc", -pc))
        elif pc > params.p_chg_max + DEFAULT_TOL:
            violations.append((t, "bound_pc", pc - params.p_chg_max))
        if not math.isfinite(pd):
            violations.append((t, "nonfinite_pd", abs(pd)))
        elif pd < -DEFAULT_TOL:
            violations.append((t, "bound_pd", -pd))
        elif pd > params.p_dis_max + DEFAULT_TOL:
            violations.append((t, "bound_pd", pd - params.p_dis_max))
        if not math.isfinite(s):
            violations.append((t, "nonfinite_soe", abs(s)))
        elif s < params.s_min - DEFAULT_TOL:
            violations.append((t, "bound_soe", params.s_min - s))
        elif s > params.s_max + DEFAULT_TOL:
            violations.append((t, "bound_soe", s - params.s_max))
        expected = params.rho * prev + params.dt * (params.eta_c * pc - pd / params.eta_d)
        if abs(s - expected) > DEFAULT_TOL:
            violations.append((t, "soe_recursion", abs(s - expected)))
        prev = s
    return FeasibilityReport(feasible=not violations, violations=violations)


def scd_mask(schedule: Schedule) -> np.ndarray:
    """Whether charge and discharge both exceed DEFAULT_TOL, per period."""
    return (schedule.p_chg > DEFAULT_TOL) & (schedule.p_dis > DEFAULT_TOL)


def detect_scd(schedule: Schedule) -> list:
    """Periods where charge and discharge both exceed DEFAULT_TOL, sorted by t."""
    scd = np.flatnonzero(scd_mask(schedule))
    return [ScdEvent(t=k + 1, p_chg_t=float(schedule.p_chg[k]), p_dis_t=float(schedule.p_dis[k]))
            for k in scd.tolist()]


def duration_of_charge(params: StorageParams) -> float:
    """Minimum time (h) to fill the storage from its minimum level at
    maximum rate, inefficiency-adjusted: (s_max - s_min) / (eta_c * Pc)."""
    return params.capacity / (params.eta_c * params.p_chg_max)


def duration_of_discharge(params: StorageParams) -> float:
    """Minimum time (h) to empty the storage from its maximum level:
    (s_max - s_min) / (p_dis_max / eta_d)."""
    return params.capacity / (params.p_dis_max / params.eta_d)


def check_assumption_leakage(params: StorageParams) -> bool:
    """Whether the quantity lost to leakage in one period can always be
    recovered by charging at full rate: (1 - rho) * s_max <= dt * eta_c * Pc."""
    return (1 - params.rho) * params.s_max <= params.dt * params.eta_c * params.p_chg_max


def repair_scd(params: StorageParams, prices: PriceSeries, schedule: Schedule) -> Schedule:
    """Replace each SCD period by the equal-objective single-mode powers
    that keep the soe trajectory unchanged.

    With beta_t = s_t - rho * s_{t-1} (recomputed from the stored soe, the
    invariant the construction preserves): if beta_t <= 0, discharge only;
    if beta_t >= 0, charge only.  Applicable only where C_t = 0 or the
    round-trip efficiency is 1; otherwise no equal-objective repair exists
    and RepairNotApplicable is raised.
    """
    c = prices.prices
    if len(c) != len(schedule):
        raise ValueError("price and schedule lengths differ")
    scd = scd_mask(schedule)
    costly = np.flatnonzero(scd & (c != 0)) if params.eta < 1 else ()
    if len(costly):
        k = costly[0]
        raise RepairNotApplicable(f"SCD at t={k + 1} with C_t={c[k]} and eta={params.eta} < 1")
    p_chg = schedule.p_chg.copy()
    p_dis = schedule.p_dis.copy()
    for k in np.flatnonzero(scd).tolist():
        prev = schedule.soe[k - 1] if k > 0 else params.s_init
        beta = schedule.soe[k] - params.rho * prev
        if beta <= 0:
            p_chg[k] = 0.0
            p_dis[k] = -params.eta_d * beta / params.dt
        else:
            p_chg[k] = beta / (params.eta_c * params.dt)
            p_dis[k] = 0.0
    return Schedule(p_chg=p_chg, p_dis=p_dis, soe=schedule.soe.copy())


def schedule_to_dict(schedule: Schedule, dt: float) -> dict:
    """Schedule JSON document: powers in MW, energies in MWh."""
    return {
        "dt_hours": float(dt),
        "p_chg": [float(v) for v in schedule.p_chg],
        "p_dis": [float(v) for v in schedule.p_dis],
        "soe": [float(v) for v in schedule.soe],
    }


def schedule_from_dict(doc: dict) -> tuple:
    """Parse the schedule JSON document; returns (schedule, dt_hours)."""
    try:
        dt = float(doc["dt_hours"])
        schedule = Schedule(
            p_chg=np.asarray(doc["p_chg"], dtype=float),
            p_dis=np.asarray(doc["p_dis"], dtype=float),
            soe=np.asarray(doc["soe"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid schedule document: {exc}") from None
    return schedule, dt
