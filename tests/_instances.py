"""Shared random-instance generators and checks for the test suite.

All generators take an explicit numpy Generator so every test is
reproducible from its seed alone.
"""

import math

import numpy as np
from hypothesis import strategies as st

from storesched import (
    PriceSeries,
    Recommendation,
    StorageParams,
    advise,
    corollary2_inexact,
    partition,
)
from storesched.lp import DualVector, SolveReport
from storesched.simplex import AT_LOWER, AT_UPPER, BASIC
from storesched.storage import Schedule, detect_scd, net_exchange, require_compatible, scd_mask
from storesched.value import lp_optimum


def lp_answer(sol, params, prices):
    """The answer at an optimal LpSolution of build_lp(params, prices), back
    from the LP's units in EUR, MW and MWh: its objective, its schedule and
    that schedule's SCD events."""
    units = require_compatible(params, prices)
    e, p, T = units.e, units.p, len(prices)
    schedule = Schedule(*np.ldexp(sol.x[: 3 * T], e).reshape(3, T))  # p_chg, p_dis, soe
    return SolveReport(math.ldexp(sol.objective, e + p), schedule, detect_scd(schedule))


def random_params(rng, eta_one=False, dt=1.0):
    s_min = float(rng.choice([0.0, 0.2]))
    s_max = s_min + float(rng.uniform(0.5, 2.0))
    cap = s_max - s_min
    if eta_one:
        eta_c = eta_d = 1.0
    else:
        eta_c = float(rng.uniform(0.8, 0.99))
        eta_d = float(rng.uniform(0.8, 0.99))
    return StorageParams(
        s_min=s_min,
        s_max=s_max,
        s_init=float(rng.uniform(s_min, s_max)),
        p_chg_max=float(rng.uniform(0.1, 0.9)) * cap / dt,
        p_dis_max=float(rng.uniform(0.1, 0.9)) * cap / dt,
        eta_c=eta_c,
        eta_d=eta_d,
        rho=float(rng.choice([1.0, 0.999, 0.995])),
        dt=dt,
    )


def random_prices(rng, T, dt=1.0, mean=15.0, spread=55.0):
    return PriceSeries(rng.normal(mean, spread, T), dt)


def mixed_sign_prices(rng, T, dt=1.0):
    """Prices guaranteed to contain both signs."""
    prices = rng.normal(10.0, 60.0, T)
    if not (prices < 0).any():
        prices[int(rng.integers(T))] = -float(rng.uniform(1.0, 80.0))
    if not (prices > 0).any():
        prices[int(rng.integers(T))] = float(rng.uniform(1.0, 80.0))
    return PriceSeries(prices, dt)


def fast_params(rng, dt=1.0):
    """Storage able to fully charge and fully discharge within one period
    (the one-period full-cycle inexactness regime)."""
    s_min = 0.0
    s_max = float(rng.uniform(0.5, 1.5))
    cap = s_max - s_min
    eta_c = float(rng.uniform(0.8, 0.97))
    eta_d = float(rng.uniform(0.8, 0.97))
    params = StorageParams(
        s_min=s_min,
        s_max=s_max,
        s_init=float(rng.uniform(s_min, s_max)),
        p_chg_max=cap / (dt * eta_c) * float(rng.uniform(1.05, 2.0)),
        p_dis_max=cap * eta_d / dt * float(rng.uniform(1.05, 2.0)),
        eta_c=eta_c,
        eta_d=eta_d,
        rho=1.0,
        dt=dt,
    )
    assert corollary2_inexact(params)
    return params


def slow_params(rng, n_bar, dt=1.0):
    """Storage whose full charge takes longer than the longest negative
    run, biased toward the exactness regime."""
    s_max = float(rng.uniform(0.5, 1.5))
    eta_c = float(rng.uniform(0.85, 0.99))
    eta_d = float(rng.uniform(0.85, 0.99))
    horizon_factor = float(rng.uniform(1.5, 4.0))
    return StorageParams(
        s_min=0.0,
        s_max=s_max,
        s_init=float(rng.uniform(0.0, 0.2 * s_max)),
        p_chg_max=s_max / (dt * eta_c * n_bar * horizon_factor),
        p_dis_max=s_max * eta_d / dt * float(rng.uniform(0.3, 0.8)),
        eta_c=eta_c,
        eta_d=eta_d,
        rho=1.0,
        dt=dt,
    )


def blocky_prices(rng, blocks, dt=1.0):
    """Prices realizing the given (nonneg_run, neg_run) block pattern."""
    chunks = []
    for p, n in blocks:
        chunks.append(rng.uniform(1.0, 80.0, p))
        chunks.append(-rng.uniform(1.0, 60.0, n))
    return PriceSeries(np.concatenate(chunks), dt)


def lp_safe_instance(rng):
    """An instance for which the advisor clears the relaxation, drawn from
    the regimes where that happens: perfect round-trip efficiency, no
    negative prices, or slow storage against one or more negative runs."""
    while True:
        kind = int(rng.integers(4))
        if kind == 0:
            params = random_params(rng, eta_one=True)
            prices = mixed_sign_prices(rng, int(rng.integers(6, 30)))
        elif kind == 1:
            params = random_params(rng)
            prices = PriceSeries(rng.uniform(0.5, 90.0, int(rng.integers(6, 30))), 1.0)
        elif kind == 2:
            n_bar = int(rng.integers(2, 6))
            params = slow_params(rng, n_bar)
            prices = blocky_prices(rng, [(int(rng.integers(4, 10)), n_bar),
                                         (int(rng.integers(2, 8)), 0)])
        else:
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            params = slow_params(rng, max(n1, n2) * 2)
            prices = blocky_prices(
                rng,
                [(int(rng.integers(3, 8)), n1), (int(rng.integers(3, 8)), n2),
                 (int(rng.integers(2, 6)), 0)],
            )
        part = partition(prices)
        advice = advise(params, part)
        if advice.recommendation is Recommendation.SOLVE_LP:
            return params, prices, part, advice


def inexact_instance(rng):
    """A one-period-full-cycle instance with at least one negative price,
    for which the relaxation is provably inexact."""
    params = fast_params(rng)
    prices = mixed_sign_prices(rng, int(rng.integers(4, 16)))
    part = partition(prices)
    assert part.t_neg
    return params, prices, part


def leaky_instance(rng):
    """Storage that leaks toward a floor it must stay above, against mostly
    negative prices: forbidding a charge can leave a branch-and-bound node
    with no schedule that keeps the level above s_min."""
    s_min = float(rng.uniform(0.2, 0.6))
    s_max = s_min + float(rng.uniform(0.3, 1.0))
    params = StorageParams(
        s_min=s_min,
        s_max=s_max,
        s_init=float(rng.uniform(s_min, s_max)),
        p_chg_max=float(rng.uniform(0.05, 0.5)),
        p_dis_max=float(rng.uniform(0.05, 0.5)),
        eta_c=float(rng.uniform(0.8, 0.99)),
        eta_d=float(rng.uniform(0.8, 0.99)),
        rho=float(rng.uniform(0.7, 0.95)),
        dt=1.0,
    )
    prices = PriceSeries(rng.normal(-5.0, 40.0, int(rng.integers(4, 13))), 1.0)
    return params, prices, partition(prices)


def criterion_4_draws(count):
    """The first count (params, prices, partition) draws of acceptance
    criterion 4."""
    rng = np.random.default_rng(2026)  # the criterion-4 stream
    for _ in range(count):
        params = random_params(rng)
        prices = mixed_sign_prices(rng, int(rng.integers(6, 49)))
        yield params, prices, partition(prices)


def level_start(problem, T):
    """The storage LP's state-of-energy start: every power at its lower
    bound, every level and leg column basic."""
    start = np.full(problem.n, AT_LOWER)
    start[2 * T :] = BASIC
    return start


def assert_lp_certificate(problem, sol):
    """The optimality certificate of an OPTIMAL bounded LP solution: x
    within its bounds and rows, zero reduced costs on basic columns, and on
    each movable nonbasic column a reduced cost whose sign its bound allows."""
    x, d, basis = sol.x, sol.reduced_costs, sol.basis
    assert np.all(x >= problem.lower - 1e-9) and np.all(x <= problem.upper + 1e-9)
    np.testing.assert_allclose(problem.a @ x, problem.rhs, rtol=0, atol=1e-8)
    assert np.all(np.abs(d[basis == BASIC]) <= 1e-9)
    movable = problem.lower < problem.upper
    assert np.all(d[movable & (basis == AT_LOWER)] <= 1e-9)
    assert np.all(d[movable & (basis == AT_UPPER)] >= -1e-9)


def edge_draw(rng):
    """Storage and prices at the edges the value function must keep: eta = 1,
    strong leakage, a start at either bound, a floor the leakage presses
    against, zero prices, prices x1000 with energies /1000, dt = 1/6."""
    dt = float(rng.choice([1 / 6, 0.25, 1.0]))
    if rng.random() < 0.3:
        base = fast_params(rng, dt)
    else:
        base = random_params(rng, eta_one=bool(rng.random() < 0.2), dt=dt)
    kw = {f: getattr(base, f) for f in ("s_min", "s_max", "s_init", "p_chg_max", "p_dis_max",
                                        "eta_c", "eta_d", "rho")}
    if rng.random() < 0.3:
        kw["rho"] = float(rng.uniform(0.3, 1.0))
    if rng.random() < 0.3:
        kw["s_init"] = kw["s_min"] if rng.random() < 0.5 else kw["s_max"]
    if rng.random() < 0.1:
        kw["s_min"] = kw["s_init"] = float(rng.uniform(0.2, 0.9)) * kw["s_max"]
        kw["p_chg_max"] *= 0.2
    prices = rng.normal(10.0, 60.0, int(rng.integers(1, 80)))
    prices[rng.random(len(prices)) < 0.3] = 0.0
    if rng.random() < 0.2:
        prices *= 1000.0
        for key in ("s_min", "s_max", "s_init", "p_chg_max", "p_dis_max"):
            kw[key] /= 1000.0
    return StorageParams(dt=dt, **kw), PriceSeries(prices, dt)


@st.composite
def milp_inputs(draw):
    """(storage, prices) with energies and each power at its own scale from
    1e-3 to 1e3, and 1 to 48 prices from 0 to +-1e3."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    dt = draw(st.sampled_from([1 / 6, 0.25, 1.0, 10.0]))
    params = StorageParams(
        s_min=draw(st.sampled_from([0.0, scale / 4])), s_max=scale,
        s_init=draw(st.sampled_from([scale / 4, scale / 2, scale])),
        p_chg_max=draw(st.sampled_from([1e-3, 1.0, 1e3])), p_dis_max=draw(st.sampled_from([1e-3, 1.0, 1e3])),
        eta_c=draw(st.sampled_from([0.5, 0.9, 1.0])), eta_d=draw(st.sampled_from([0.9, 1.0])),
        rho=draw(st.sampled_from([1.0, 0.999, 0.5, 1e-20])), dt=dt)
    prices = draw(st.lists(st.sampled_from([0.0, 35.0, -35.0, 1e-3, -1e-3, 1e3, -1e3]),
                           min_size=1, max_size=48))
    return params, PriceSeries(prices, dt)


def reference_duals(params, prices, lam):
    """solve_storage_lp's bound multipliers from the balance-row duals lam, one
    reduced cost and one sign at a time, lam and they in the price unit of
    storage.require_compatible's record: sigma, gamma and delta, each lower
    then upper."""
    dt, c = params.dt, np.ldexp(prices.prices, -require_compatible(params, prices).p)
    reduced = (params.rho * np.append(lam[1:], 0.0) - lam, lam * dt * params.eta_c - dt * c,
               dt * c - lam * dt / params.eta_d)
    return [np.maximum(s * d, 0.0) for d in reduced for s in (-1, 1)]


def reference_kkt_verify(params, prices, du, sch):
    """lp.kkt_verify with one array and one reduction per residual, from
    multipliers du in the price unit of storage.require_compatible's record
    and schedule sch; the level slacks in the record's energy unit."""
    units = require_compatible(params, prices)
    dt, c = params.dt, np.ldexp(prices.prices, -units.p)
    e, q = params.energy_scale, np.abs(c).max() or 1.0
    lam_next = np.append(du.lam[1:], 0.0)
    res = []  # (residual, its unit)
    res.append((-dt * c + du.lam * dt / params.eta_d + du.delta_hi - du.delta_lo, q * dt))
    res.append((dt * c - du.lam * dt * params.eta_c + du.gamma_hi - du.gamma_lo, q * dt))
    res.append((du.lam - params.rho * lam_next + du.sigma_hi - du.sigma_lo, q))
    flow = dt * params.eta_c * sch.p_chg - dt / params.eta_d * sch.p_dis
    res.append((net_exchange(params, sch.soe) - flow, e))
    for mult, slack, unit, shift in (
        (du.sigma_lo, sch.soe - params.s_min, q, -units.e),
        (du.sigma_hi, params.s_max - sch.soe, q, -units.e),
        (du.gamma_lo, sch.p_chg, q * dt, 0), (du.gamma_hi, params.p_chg_max - sch.p_chg, q * dt, 0),
        (du.delta_lo, sch.p_dis, q * dt, 0), (du.delta_hi, params.p_dis_max - sch.p_dis, q * dt, 0),
    ):
        slack, e_row = np.ldexp(slack, shift), np.ldexp(e, shift)
        res += [(np.minimum(mult, 0.0), unit), (np.minimum(slack, 0.0), e_row * (q / unit)),
                (mult * slack, q * e_row)]
    scd = scd_mask(sch.p_chg, sch.p_dis)
    res.append((dt * c[scd] * (1 - params.eta) + params.eta * du.delta_hi[scd] + du.gamma_hi[scd],
                q * dt))
    # a NaN in any residual makes the maximum NaN
    return float(np.maximum.reduce([np.abs(r).max(initial=0.0) / unit for r, unit in res]))


def assert_lp_certificate_as_reference(params, prices, report):
    """The duals and KKT residual of a solve_storage_lp report equal, bit for
    bit, their per-residual reference forms, all formed in the price unit of
    storage.require_compatible's record from the value function's lambda
    there (a NaN equals a NaN)."""
    units = require_compatible(params, prices)
    lam = np.array(lp_optimum(params, units)[3])
    with np.errstate(all="ignore"):  # at the edges of double precision they overflow
        duals = reference_duals(params, prices, lam)
        kkt = reference_kkt_verify(params, prices, DualVector(lam, *duals), report.schedule)
        in_eur = [np.ldexp(ref, units.p) for ref in (lam, *duals)]
    for name, ref in zip(("lam", "sigma_lo", "sigma_hi", "gamma_lo", "gamma_hi", "delta_lo",
                          "delta_hi"), in_eur):
        np.testing.assert_array_equal(getattr(report.duals, name).view(np.int64),
                                      ref.view(np.int64))
    got = report.kkt_max_residual
    assert got == kkt or (got != got and kkt != kkt)
