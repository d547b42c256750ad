"""Physical storage model: parameters, state-of-energy dynamics,
feasibility and simultaneous-charge-and-discharge (SCD) handling.

State of energy is stored per period end: soe[k] is the level at the end
of period k+1 (1-based period indices in all reports); the initial level
is a parameter, never part of a Schedule.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .prices import PriceSeries, real_column, real_number

#: What counts as zero: an energy within EPS * energy_scale of a bound, or a
#: power within that over dt, is on it.  Two orders above simplex.TOL.
EPS = 1e-7


class RepairNotApplicable(Exception):
    """SCD at a strictly negative price with round-trip losses, where
    netting it to one mode loses profit."""


class InfeasibleStorage(ValueError):
    """No schedule keeps the level within [s_min, s_max] over the horizon,
    for example when leakage at s_min outruns the charge limit."""


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
        for f in fields(self):  # a numpy scalar would warn where a float overflows quietly
            object.__setattr__(self, f.name, real_number(f.name, getattr(self, f.name)))
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
        for name in ("charge_step", "discharge_step"):
            step = getattr(self, name)
            require_finite(name, step)
            if not step > 0:  # a power so small that a period at full rate moves no energy
                raise ValueError(f"{name} is {step}, below double precision")
        if not self.energy_scale >= np.finfo(float).tiny:  # no relative check holds below it
            raise ValueError(f"energy_scale is {self.energy_scale}, below the normal double range")

    @property
    def eta(self) -> float:
        """Round-trip efficiency eta_c * eta_d."""
        return self.eta_c * self.eta_d

    @property
    def capacity(self) -> float:
        return self.s_max - self.s_min

    @property
    def charge_step(self) -> float:
        """Energy (MWh) one period at full charge adds, dt * eta_c * Pc: the
        upper end beta_hi of a period's net exchange."""
        return self.dt * self.eta_c * self.p_chg_max

    @property
    def discharge_step(self) -> float:
        """Energy (MWh) one period at full discharge removes, dt * Pd / eta_d:
        minus the lower end beta_lo of a period's net exchange."""
        return self.dt * self.p_dis_max / self.eta_d

    @property
    def charge_reach(self) -> float:
        """Energy (MWh) one period can charge within the level range:
        charge_step, at most s_max - rho*s_min + discharge_step."""
        return min(self.charge_step, self.s_max - self.rho * self.s_min + self.discharge_step)

    @property
    def discharge_reach(self) -> float:
        """Energy (MWh) one period can discharge within the level range:
        discharge_step, at most rho*s_max - s_min + charge_step, at least 0."""
        room = self.rho * self.s_max - self.s_min + self.charge_step
        return max(min(self.discharge_step, room), 0.0)

    @property
    def energy_scale(self) -> float:
        """The unit of EPS (MWh): max(s_max, charge_reach, discharge_reach)."""
        return max(self.s_max, self.charge_reach, self.discharge_reach)


@dataclass
class Schedule:
    """Per-period charge/discharge powers (MW) and end-of-period state of
    energy (MWh), all of length T >= 1."""

    p_chg: np.ndarray
    p_dis: np.ndarray
    soe: np.ndarray

    def __post_init__(self):
        for name in ("p_chg", "p_dis", "soe"):
            setattr(self, name, real_column(name, getattr(self, name)))
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
    """violations: list of (1-based period, constraint tag, magnitude),
    ordered by period, then p_chg, p_dis, soe and the recursion.  A
    schedule is feasible exactly when the list is empty."""

    violations: list

    @property
    def feasible(self) -> bool:
        return not self.violations


def from_units(value: float, exponent: int) -> float:
    """value * 2^exponent; +-inf where that overflows, for require_finite to refuse by name."""
    overflows = value and math.frexp(value)[1] + exponent > 1024
    return math.copysign(math.inf, value) if overflows else math.ldexp(value, exponent)


def require_finite(name: str, value: float) -> None:
    """Refuse, by name, a quantity that overflowed double precision."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value}, beyond double precision")


@dataclass(frozen=True)
class ScaledInstance:
    """An instance in the units every LP and MILP solve computes in: 2^e MWh and
    2^e MW, 2^e the power of two just above energy_scale, and 2^p EUR/MWh, 2^p
    the one just above max|C_t| (p = 0 with every price 0).  These exact
    scalings keep the largest numbers near 1, so that nothing overflows and no
    slope from a subnormal price rounds to 0, and they move no pivot or tie."""

    e: int
    p: int
    prices: np.ndarray  # C_t in 2^p EUR/MWh
    q: float  # max|C_t| in 2^p EUR/MWh, in [1/2, 1) or 0
    levels: tuple  # s_min, s_max and s_init in 2^e MWh
    reaches: tuple  # charge_reach and discharge_reach in 2^e MWh
    powers: tuple  # the powers (MW) the reaches imply: each limit unless its reach clips it


def require_compatible(params: StorageParams, prices: PriceSeries) -> ScaledInstance:
    """Raise a ValueError unless every formulation can take the prices with this
    storage: the same dt, and each profit rate dt * C_t a double; else their record."""
    if prices.dt != params.dt:
        raise ValueError(f"prices dt {prices.dt} differs from params dt {params.dt}")
    largest = np.maximum.reduce(np.abs(prices.prices)).item()
    require_finite("dt * price", params.dt * largest)
    e, p = math.frexp(params.energy_scale)[1], math.frexp(largest)[1]
    dt, reach_c, reach_d = params.dt, params.charge_reach, params.discharge_reach
    return ScaledInstance(
        e, p, np.ldexp(prices.prices, -p), math.ldexp(largest, -p),
        tuple(math.ldexp(v, -e) for v in (params.s_min, params.s_max, params.s_init)),
        (math.ldexp(reach_c, -e), math.ldexp(reach_d, -e)),
        (params.p_chg_max if reach_c == params.charge_step else reach_c / (dt * params.eta_c),
         params.p_dis_max if reach_d == params.discharge_step else reach_d * params.eta_d / dt))


def require_schedulable(params: StorageParams, T: int) -> None:
    """Raise InfeasibleStorage unless some schedule keeps the level within
    [s_min, s_max] for T periods.  Every reachable level lies at or below a
    full charge each period, capped at s_max: a schedule while at or above
    s_min, moving monotonically from s_init toward f = charge_step/(1 - rho)."""
    rho, s_min = params.rho, params.s_min
    f = params.charge_step / (1 - rho) if rho < 1 else math.inf  # rho = 1: it never falls
    if f < s_min and f + rho**T * (params.s_init - f) < s_min:
        raise InfeasibleStorage("no schedule keeps the storage level within [s_min, s_max]")


def propagate_soe(params: StorageParams, p_chg, p_dis) -> np.ndarray:
    """State of energy at each period end given the power schedule:
    s_t = rho * s_{t-1} + flow_t, s_0 = s_init.
    """
    p_chg, p_dis = real_column("p_chg", p_chg), real_column("p_dis", p_dis)
    if p_chg.shape != p_dis.shape or p_chg.ndim != 1 or len(p_chg) < 1:
        raise ValueError("p_chg and p_dis must be 1-D sequences of equal length >= 1")
    if np.any(p_chg < 0) or np.any(p_dis < 0):
        raise ValueError("power entries must be nonnegative")
    net = flow(params, p_chg, p_dis)
    soe = np.empty(len(p_chg))
    level = params.s_init
    for t in range(len(p_chg)):
        level = params.rho * level + net[t]
        soe[t] = level
    return soe


def flow(params: StorageParams, p_chg, p_dis):
    """dt*eta_c * pC_t - dt/eta_d * pD_t (MWh): a power that fits its period cannot overflow."""
    return params.dt * params.eta_c * p_chg - params.dt / params.eta_d * p_dis


def objective(prices: PriceSeries, schedule: Schedule, dt: float) -> float:
    """Arbitrage profit Z = sum_t dt * C_t * (pD_t - pC_t), in EUR."""
    c = prices.prices
    if len(c) != len(schedule):
        raise ValueError("price and schedule lengths differ")
    return np.add.reduce(dt * c * (schedule.p_dis - schedule.p_chg)).item()


def net_exchange(params: StorageParams, soe) -> np.ndarray:
    """The net energy exchange beta_t = s_t - rho * s_{t-1} of each period,
    with s_0 = s_init: on a consistent schedule it equals the flow."""
    soe = np.asarray(soe, dtype=float)
    return soe - params.rho * np.concatenate(([params.s_init], soe[:-1]))


# the tag of a violation per column (p_chg, p_dis, soe, recursion), bound or nonfinite
_TAGS = (("bound_pc", "nonfinite_pc"), ("bound_pd", "nonfinite_pd"),
         ("bound_soe", "nonfinite_soe"), ("soe_recursion",))


def feasibility_check(params: StorageParams, schedule: Schedule) -> FeasibilityReport:
    """Verify power bounds, state-of-energy bounds and the recursion
    residual beta_t - flow_t of every period, within EPS of
    the energy scale (over dt for a power).  Reports every violation with
    its magnitude, and a NaN or infinite entry as a nonfinite_* violation
    in place of its bound check; never raises on infeasibility and never warns."""
    with np.errstate(all="ignore"):  # NaN and inf entries are reported, not warned about
        # the residual is a fourth value with bounds [0, 0], where NaN is no violation
        residual = net_exchange(params, schedule.soe) - flow(params, schedule.p_chg, schedule.p_dis)
        values = np.column_stack([schedule.p_chg, schedule.p_dis, schedule.soe, residual])
        lo = np.array([0.0, 0.0, params.s_min, 0.0])
        hi = np.array([params.p_chg_max, params.p_dis_max, params.s_max, 0.0])
        tol = EPS * params.energy_scale * np.array([1 / params.dt, 1 / params.dt, 1.0, 1.0])
        nonfinite = ~np.isfinite(values) & [True, True, True, False]
        below, above = values < lo - tol, values > hi + tol
        magnitude = np.where(nonfinite, np.abs(values), np.where(below, lo - values, values - hi))
    k, j = np.nonzero(nonfinite | below | above)  # row-major: by period, then column
    return FeasibilityReport([(t + 1, _TAGS[col][nf], m) for t, col, nf, m in zip(
        k.tolist(), j.tolist(), nonfinite[k, j].tolist(), magnitude[k, j])])


def scd_mask(p_chg: np.ndarray, p_dis: np.ndarray) -> np.ndarray:
    """Whether charge and discharge both exceed EPS times the largest finite
    power in the two arrays, per period: a schedule is its own power scale."""
    powers = np.concatenate([p_chg, p_dis])
    tol = EPS * np.maximum.reduce(powers, where=np.isfinite(powers), initial=0.0)  # NaN, inf aside
    return (p_chg > tol) & (p_dis > tol)


def detect_scd(schedule: Schedule) -> list:
    """Periods where charge and discharge both exceed EPS times the
    schedule's largest power (scd_mask), sorted by t."""
    k = scd_mask(schedule.p_chg, schedule.p_dis).nonzero()[0]
    events = zip(k.tolist(), schedule.p_chg[k].tolist(), schedule.p_dis[k].tolist())
    return [ScdEvent(t=t + 1, p_chg_t=pc, p_dis_t=pd) for t, pc, pd in events]


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
    recovered by charging at full rate: (1 - rho) * s_max <= charge_step."""
    return (1 - params.rho) * params.s_max <= params.charge_step


def repair_scd(params: StorageParams, prices: PriceSeries, schedule: Schedule) -> Schedule:
    """Replace each SCD period by the single-mode powers that keep the soe
    trajectory unchanged, all in one masked step.

    With beta_t from net_exchange (recomputed from the stored soe, the
    invariant the construction preserves): if beta_t <= 0, discharge only;
    if beta_t > 0, charge only.  The profit stays equal where C_t = 0 or the
    round-trip efficiency is 1, and rises by dt*C_t*b_t*(1 - eta)/eta_c at
    C_t > 0 (b_t the energy charged and discharged at once).  At C_t < 0
    with eta < 1 netting loses profit, and RepairNotApplicable is raised.
    """
    c = prices.prices
    if len(c) != len(schedule):
        raise ValueError("price and schedule lengths differ")
    scd = scd_mask(schedule.p_chg, schedule.p_dis)
    costly = (scd & (c < 0)).nonzero()[0] if params.eta < 1 else ()
    if len(costly):
        k = costly[0]
        raise RepairNotApplicable(f"SCD at t={k + 1} with C_t={c[k]} and eta={params.eta} < 1")
    p_chg, p_dis = schedule.p_chg.copy(), schedule.p_dis.copy()
    beta = net_exchange(params, schedule.soe)[scd]
    discharge = beta <= 0
    p_chg[scd] = np.where(discharge, 0.0, beta / (params.eta_c * params.dt))
    p_dis[scd] = np.where(discharge, -params.eta_d * beta / params.dt, 0.0)
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
        dt = real_number("dt_hours", doc["dt_hours"])
        schedule = Schedule(p_chg=doc["p_chg"], p_dis=doc["p_dis"], soe=doc["soe"])
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: a document that is no object
        raise ValueError(f"invalid schedule document: {exc}") from None
    return schedule, dt
