"""Metamorphic scale tests: the same storage written in other units.

Multiplying every energy and power by k and every price by q describes
the same storage and market in other units (Wh instead of MWh, cents
instead of euros).  So every answer must follow: each objective scales by
k*q and each schedule by k, while verdicts, SCD periods and check results
stay as they are (metamorphic testing: Chen, Cheung & Yiu 1998,
HKUST-CS98-01; Segura et al. 2016, IEEE TSE 42(9))."""

import csv
import json
import re

import numpy as np
import pytest

from _instances import fast_params, mixed_sign_prices, random_params
from storesched import (
    Advice,
    DpConfig,
    PriceSeries,
    Recommendation,
    Schedule,
    StorageParams,
    advise,
    partition,
    schedule_to_dict,
    solve_dp,
    solve_storage_lp,
    solve_storage_milp,
    write_price_csv,
)
from storesched import cli
from storesched.cli import PARAM_KEYS, main

# (energy and power factor k, price factor q)
SCALES = [(1e-6, 1.0), (1e-3, 1e3), (1e3, 1.0), (1e6, 1e-3), (1.0, 1e6)]
REL = 1e-9


def draws(count=150):
    """fast_params every third draw, else random_params; mixed-sign prices
    over 6 to 39 hours."""
    rng = np.random.default_rng(42)
    out = []
    for i in range(count):
        T = int(rng.integers(6, 40))
        params = fast_params(rng) if i % 3 == 0 else random_params(rng)
        out.append((params, mixed_sign_prices(rng, T)))
    return out


DRAWS = draws()


def scaled(params, prices, k, q):
    energy = {name: getattr(params, name) * k
              for name in ("s_min", "s_max", "s_init", "p_chg_max", "p_dis_max")}
    return (StorageParams(**energy, eta_c=params.eta_c, eta_d=params.eta_d, rho=params.rho,
                          dt=params.dt),
            PriceSeries(prices.prices * q, prices.dt))


def answers(params, prices):
    """The advice and the LP, refined MILP, full MILP and 201-point DP reports."""
    part = partition(prices)
    return {
        "advice": advise(params, part).recommendation,
        "lp": solve_storage_lp(params, prices),
        "refined": solve_storage_milp(params, prices, part, True)[0],
        "full": solve_storage_milp(params, prices, part, False)[0],
        "dp": solve_dp(params, prices, DpConfig(201)),
    }


def energies(schedule, dt):
    """The schedule's powers as the energies they move in a period, and its levels."""
    return np.stack([schedule.p_chg * dt, schedule.p_dis * dt, schedule.soe])


@pytest.fixture(scope="module")
def unit():
    return [answers(params, prices) for params, prices in DRAWS]


@pytest.mark.parametrize("k, q", SCALES)
def test_solvers_follow_the_scale(unit, k, q):
    for i, ((params, prices), want) in enumerate(zip(DRAWS, unit)):
        got = answers(*scaled(params, prices, k, q))
        assert got["advice"] is want["advice"], i
        e = params.energy_scale
        for name in ("lp", "refined", "full", "dp"):
            g, w = got[name], want[name]
            assert g.objective / (k * q) == pytest.approx(w.objective, rel=REL), (i, name)
            assert [ev.t for ev in g.scd_events] == [ev.t for ev in w.scd_events], (i, name)
            np.testing.assert_allclose(energies(g.schedule, params.dt) / k,
                                       energies(w.schedule, params.dt), rtol=REL,
                                       atol=REL * e, err_msg=f"{i} {name}")
        assert got["lp"].kkt_max_residual <= 1e-7, i


def write_instance(directory, params, prices, schedule):
    directory.mkdir()
    (directory / "params.txt").write_text("".join(
        f"{key} = {getattr(params, 'dt' if key == 'dt_hours' else key)!r}\n" for key in PARAM_KEYS))
    write_price_csv(directory / "prices.csv", prices)
    (directory / "schedule.json").write_text(json.dumps(schedule_to_dict(schedule, params.dt)))
    return directory


def check_output(directory, capsys):
    """The exit code and printed lines of check, with every magnitude
    (which follows the scale) cut out."""
    code = main(["check", "--params", str(directory / "params.txt"), "--prices",
                 str(directory / "prices.csv"), "--schedule", str(directory / "schedule.json")])
    out = capsys.readouterr().out
    return code, re.sub(r"(magnitude|p_chg|p_dis|beta)=[^ )\n]+", r"\1", out)


@pytest.mark.parametrize("k, q", SCALES)
def test_check_and_compare_follow_the_scale(tmp_path, monkeypatch, capsys, k, q):
    # every tenth draw through the CLI; check judges each LP schedule and
    # the same schedule written in the scaled units, and compare flags
    # every LP/MILP gap (the advice is forced to solve_lp)
    monkeypatch.setattr(cli, "advise", lambda params, part: Advice(Recommendation.SOLVE_LP, ()))
    rows = {"unit": [], "scaled": []}
    for i in range(0, len(DRAWS), 10):
        params, prices = DRAWS[i]
        schedule = solve_storage_lp(params, prices).schedule
        big = Schedule(schedule.p_chg * k, schedule.p_dis * k, schedule.soe * k)
        want = check_output(write_instance(tmp_path / f"u{i}", params, prices, schedule), capsys)
        got = check_output(write_instance(tmp_path / f"s{i}", *scaled(params, prices, k, q), big),
                           capsys)
        assert got == want, i
        for side in rows:
            rows[side].append(f"{side[0]}{i}/params.txt,{side[0]}{i}/prices.csv,{i}")
    tables = {}
    for side, lines in rows.items():
        manifest = tmp_path / f"{side}.csv"
        manifest.write_text("params_path,prices_path,label\n" + "\n".join(lines) + "\n")
        assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / side),
                     "--grid", "201"]) == 0
        with open(tmp_path / side, encoding="utf-8", newline="") as fh:
            tables[side] = [(r["label"], r["lp_scd_events"], r["flag"]) for r in csv.DictReader(fh)]
    capsys.readouterr()
    assert tables["scaled"] == tables["unit"]
    assert any(flag for _, _, flag in tables["unit"])  # the threshold is exercised
