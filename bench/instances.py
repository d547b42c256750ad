"""Seeded instance generators owned by the benchmark.

They mirror the distributions of the acceptance-criterion generators but
live here, so that edits to the test suite cannot change benchmark data.
Every generator takes an explicit numpy Generator.
"""

import numpy as np

from storesched import (
    PriceSeries,
    Recommendation,
    StorageParams,
    advise,
    corollary2_inexact,
    partition,
)

LADDER_HORIZONS = (24, 48, 96, 168)


def lossy_params(rng):
    """Random lossy storage (the criterion-4 distribution, dt = 1 h)."""
    s_min = float(rng.choice([0.0, 0.2]))
    s_max = s_min + float(rng.uniform(0.5, 2.0))
    cap = s_max - s_min
    eta_c = float(rng.uniform(0.8, 0.99))
    eta_d = float(rng.uniform(0.8, 0.99))
    return StorageParams(
        s_min=s_min,
        s_max=s_max,
        s_init=float(rng.uniform(s_min, s_max)),
        p_chg_max=float(rng.uniform(0.1, 0.9)) * cap,
        p_dis_max=float(rng.uniform(0.1, 0.9)) * cap,
        eta_c=eta_c,
        eta_d=eta_d,
        rho=float(rng.choice([1.0, 0.999, 0.995])),
        dt=1.0,
    )


def mixed_sign_prices(rng, T):
    """Hourly prices N(10, 60) EUR/MWh holding both signs."""
    prices = rng.normal(10.0, 60.0, T)
    if not (prices < 0).any():
        prices[int(rng.integers(T))] = -float(rng.uniform(1.0, 80.0))
    if not (prices > 0).any():
        prices[int(rng.integers(T))] = float(rng.uniform(1.0, 80.0))
    return PriceSeries(prices, 1.0)


def fast_params(rng):
    """Storage that fully charges and fully discharges within one hour, so
    Corollary 2 declares the relaxation inexact."""
    s_max = float(rng.uniform(0.5, 1.5))
    eta_c = float(rng.uniform(0.8, 0.97))
    eta_d = float(rng.uniform(0.8, 0.97))
    params = StorageParams(
        s_min=0.0,
        s_max=s_max,
        s_init=float(rng.uniform(0.0, s_max)),
        p_chg_max=s_max / eta_c * float(rng.uniform(1.05, 2.0)),
        p_dis_max=s_max * eta_d * float(rng.uniform(1.05, 2.0)),
        eta_c=eta_c,
        eta_d=eta_d,
        rho=1.0,
        dt=1.0,
    )
    if not corollary2_inexact(params):
        raise RuntimeError("fast storage draw is not Corollary-2 inexact")
    return params


def slow_params(rng, n_bar):
    """Storage whose full charge takes longer than the longest negative run."""
    s_max = float(rng.uniform(0.5, 1.5))
    eta_c = float(rng.uniform(0.85, 0.99))
    eta_d = float(rng.uniform(0.85, 0.99))
    return StorageParams(
        s_min=0.0,
        s_max=s_max,
        s_init=float(rng.uniform(0.0, 0.2 * s_max)),
        p_chg_max=s_max / (eta_c * max(n_bar, 1) * float(rng.uniform(1.5, 4.0))),
        p_dis_max=s_max * eta_d * float(rng.uniform(0.3, 0.8)),
        eta_c=eta_c,
        eta_d=eta_d,
        rho=1.0,
        dt=1.0,
    )


def bnb_instance(rng):
    """(params, prices) with T in [6, 48], in the criterion-4 draw order."""
    params = lossy_params(rng)
    return params, mixed_sign_prices(rng, int(rng.integers(6, 49)))


def ladder_pair(rng, T):
    """An hourly price series of length T with one fast (Corollary-2
    inexact) and one slow, advisor-cleared storage."""
    prices = mixed_sign_prices(rng, T)
    part = partition(prices)
    fast = fast_params(rng)
    for _ in range(1000):
        slow = slow_params(rng, part.n_bar)
        if advise(slow, part).recommendation is Recommendation.SOLVE_LP:
            return prices, fast, slow
    raise RuntimeError(f"no advisor-cleared slow storage found for T={T}")


def jitter(prices, rng, scale):
    """Multiply every price by exp(scale * N(0, 1)).  The sign pattern, and
    with it the partition and the advisor's verdict, is unchanged."""
    factors = np.exp(scale * rng.standard_normal(len(prices)))
    return PriceSeries(prices.prices * factors, prices.dt)
