"""Bit-identity of storesched's answers between two source checkouts.

    python3 tests/identity.py CHECKOUT

imports storesched from CHECKOUT/src, draws every instance with the
generators beside this file (so both checkouts see the same inputs) and
prints one sha256 per recipe line, each with its count of calls and of
refusals.  Run this copy against both checkouts, on the same host, and
compare the lines: a change that claims to move no answer must print the
same hashes.

Every hash covers each answer's numbers bit for bit (float64 bytes) and
each refusal's exception type and message; warnings are raised as
errors, so a new warning moves a hash too.  The hashes depend on the
numpy build and the host's floating point, so they compare two checkouts
on one host and are no gate to check against a recorded value elsewhere.
pytest does not collect this file.
"""

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from _instances import edge_draw, fast_params, mixed_sign_prices, random_params  # noqa: E402
from test_robustness import edge_recipe  # noqa: E402

import storesched  # noqa: E402
from storesched import (DpConfig, DualVector, PriceSeries, Schedule, build_lp,  # noqa: E402
                        exhaustive_micro_oracle, kkt_verify, partition, propagate_soe,
                        repair_scd, solve_dp, solve_storage_lp, solve_storage_milp)


class Digest:
    """sha256 over float64 bytes and refusal texts, with a count of calls."""

    def __init__(self):
        self.sha, self.count, self.refused = hashlib.sha256(), 0, 0

    def call(self, fn, *args):
        self.count += 1
        try:
            out = fn(*args)
        except Exception as exc:  # a refusal is part of the answer
            self.refused += 1
            self.sha.update(f"{type(exc).__name__}: {exc}".encode())
            return None
        return out

    def numbers(self, *values):
        for v in values:
            self.sha.update(np.asarray(v, dtype=float).tobytes())

    def report(self, report):
        if report is not None:
            sch = report.schedule
            self.numbers(report.objective, sch.p_chg, sch.p_dis, sch.soe,
                         [e.t for e in report.scd_events])
            if report.duals is not None:
                self.numbers(*vars(report.duals).values(), report.kkt_max_residual)


def ordinary(rng, T):
    """Fast or lossy storage (a fair coin) and prices of both signs, an hour or less a period."""
    dt = float(rng.choice([1 / 6, 0.25, 1.0]))
    params = fast_params(rng, dt) if rng.random() < 0.5 else random_params(rng, dt=dt)
    return params, mixed_sign_prices(rng, T, dt)


def lp_answers(draws):
    d = Digest()
    for params, prices in draws:
        d.report(d.call(solve_storage_lp, params, prices))
    return d


def lp_random():
    rng = np.random.default_rng(2024)
    return lp_answers(ordinary(rng, int(rng.integers(1, 200))) for _ in range(3000))


def lp_edge_draw():
    rng = np.random.default_rng(7)
    return lp_answers(edge_draw(rng) for _ in range(3000))


def kkt_perturbed():
    """kkt_verify on LP answers whose multipliers are not the LP's own: lambda
    scaled by up to 1% a period, each bound multiplier raised by up to 1% of
    max|C_t|*dt; every other draw an edge_draw."""
    rng, d = np.random.default_rng(11), Digest()
    for i in range(800):
        params, prices = edge_draw(rng) if i % 2 else ordinary(rng, int(rng.integers(1, 60)))
        report = d.call(solve_storage_lp, params, prices)
        if report is not None:
            T, top = len(prices), float(np.abs(prices.prices).max()) * params.dt
            lam, *bounds = vars(report.duals).values()
            with np.errstate(all="ignore"):  # raising a multiplier near the double range
                report.duals = DualVector(lam * (1 + rng.uniform(-0.01, 0.01, T)),
                                          *(b + rng.random(T) * 0.01 * top for b in bounds))
            d.numbers(d.call(kkt_verify, params, prices, report))
    return d


def build_lp_arrays():
    rng, d = np.random.default_rng(31), Digest()
    draws = [ordinary(rng, int(rng.integers(1, 60))) for _ in range(200)]
    for params, prices in draws + list(edge_recipe(31, 260))[:200]:
        for legs in ((), tuple(partition(prices).t_neg)):
            lp = d.call(build_lp, params, prices, legs)
            if lp is not None:
                d.numbers(lp.c, lp.lower, lp.upper, lp.a, lp.rhs)
    return d


def milps():
    rng, d = np.random.default_rng(77), Digest()
    for i in range(250):
        T, dt = int(rng.integers(4, 33)), float(rng.choice([1 / 6, 0.25, 1.0]))
        params = fast_params(rng, dt) if i % 3 == 0 else random_params(rng, dt=dt)
        prices = mixed_sign_prices(rng, T, dt)
        for refined in (False, True):
            out = d.call(solve_storage_milp, params, prices, partition(prices), refined)
            if out is not None:
                report, stats = out
                d.report(report)
                d.numbers(stats.nodes, stats.incumbent_updates, stats.root_bound, stats.gap)
    return d


def dps():
    rng, d = np.random.default_rng(1), Digest()
    for i in range(240):
        params, prices = ordinary(rng, int(rng.integers(3, 40)))
        for n in (101, 801):
            d.report(d.call(solve_dp, params, prices, DpConfig(grid_points=n)))
    return d


def micro_oracles():
    rng, d = np.random.default_rng(5), Digest()
    for _ in range(150):
        params, prices = ordinary(rng, int(rng.integers(1, 4)))
        d.numbers(d.call(exhaustive_micro_oracle, params, prices, int(rng.integers(1, 6))))
    return d


def repairs():
    rng, d = np.random.default_rng(9), Digest()
    for i in range(300):
        T, dt = int(rng.integers(1, 30)), float(rng.choice([1 / 6, 0.25, 1.0]))
        params = random_params(rng, eta_one=i % 4 == 0, dt=dt)
        prices = PriceSeries(rng.normal(10.0, 60.0, T) * (rng.random(T) < 0.8), dt)
        # both modes at random fractions of their limits, each off at a third of the periods
        p_chg = params.p_chg_max * rng.random(T) * (rng.random(T) < 2 / 3) / 2
        p_dis = params.p_dis_max * rng.random(T) * (rng.random(T) < 2 / 3) / 2
        soe = d.call(propagate_soe, params, p_chg, p_dis)
        if soe is not None:
            sch = d.call(repair_scd, params, prices, Schedule(p_chg, p_dis, soe))
            if sch is not None:
                d.numbers(sch.p_chg, sch.p_dis, sch.soe)
    return d


RECIPES = {
    "lp_random_3000": lp_random,
    "lp_edge_draw_3000": lp_edge_draw,
    "lp_edge_recipe_5": lambda: lp_answers(edge_recipe(5, 3000)),
    "lp_edge_recipe_7": lambda: lp_answers(edge_recipe(7, 5000)),
    "kkt_perturbed_800": kkt_perturbed,
    "build_lp_400x2": build_lp_arrays,
    "milp_250x2": milps,
    "dp_240x2": dps,
    "micro_oracle_150": micro_oracles,
    "repair_scd_300": repairs,
}


def main():
    warnings.simplefilter("error")
    print(f"storesched from {Path(storesched.__file__).parent}")
    for name, recipe in RECIPES.items():
        d = recipe()
        print(f"{name} calls {d.count} refused {d.refused} sha256 {d.sha.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
