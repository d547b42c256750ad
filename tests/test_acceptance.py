"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s or look at captured output).  Criterion 10 needs the
DK1-2023 market dataset and is skipped when it is not present.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from _instances import (
    assert_lp_certificate_as_reference,
    inexact_instance,
    lp_safe_instance,
    mixed_sign_prices,
    random_params,
)
from storesched import (
    DpConfig,
    Lemma1Class,
    PriceSeries,
    StorageParams,
    detect_scd,
    duration_of_charge,
    duration_of_discharge,
    exhaustive_micro_oracle,
    feasibility_check,
    kkt_verify,
    lemma1_classify,
    partition,
    repair_scd,
    solve_dp,
    solve_storage_lp,
    solve_storage_milp,
    theorem1_condition1,
    theorem2_check,
    theorem3_shat,
)

DATASET = Path(__file__).parent / "data" / "dk1_2023_prices.csv"


def report(criterion: int, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def unit_storage(p_chg, p_dis, eta=0.9, rho=1.0, s_init=0.0):
    return StorageParams(
        s_min=0.0, s_max=1.0, s_init=s_init,
        p_chg_max=p_chg, p_dis_max=p_dis,
        eta_c=eta, eta_d=eta, rho=rho, dt=1.0,
    )


def neg_run_series(pre, n, post):
    return PriceSeries([10.0] * pre + [-10.0] * n + [10.0] * post, 1.0)


@pytest.fixture(scope="module")
def lp_safe_batch():
    """200 advisor-cleared instances with their LP and refined-MILP solves."""
    rng = np.random.default_rng(2024)
    batch = []
    for _ in range(200):
        params, prices, part, advice = lp_safe_instance(rng)
        lp = solve_storage_lp(params, prices)
        milp, _ = solve_storage_milp(params, prices, part, refined=True)
        batch.append((params, prices, part, lp, milp))
    return batch


@pytest.fixture(scope="module")
def inexact_batch():
    """100 provably inexact instances with their LP and refined-MILP solves."""
    rng = np.random.default_rng(2025)
    batch = []
    for _ in range(100):
        params, prices, part = inexact_instance(rng)
        lp = solve_storage_lp(params, prices)
        milp, _ = solve_storage_milp(params, prices, part, refined=True)
        batch.append((params, prices, part, lp, milp))
    return batch


def test_criterion_1_duration_formulas():
    cases = [
        # (p_chg, p_dis, expected charge h, expected discharge h)
        (2.0, 2.0, 0.56, 0.45),
        (0.4, 0.4, 2.77, 2.25),
        (0.036, 0.036, 30.86, 25.0),
        (0.034, 0.028, 32.68, 32.14),
        (0.036, 0.00396, 30.86, 227.27),
        (0.27, 0.27, 4.12, 3.33),
        (0.27, 0.08, 4.12, 11.25),
        (0.28, 0.27, 3.97, 3.33),
        (0.2, 0.2, 5.56, 4.5),
        (0.1, 0.1, 11.11, 9.0),
    ]
    params_list = [unit_storage(pc, pd) for pc, pd, _, _ in cases]
    t0 = time.perf_counter()
    got = [(duration_of_charge(p), duration_of_discharge(p)) for p in params_list]
    elapsed = time.perf_counter() - t0
    worst = max(
        max(abs(gc - ec), abs(gd - ed))
        for (gc, gd), (_, _, ec, ed) in zip(got, cases)
    )
    ok = worst <= 0.01 and elapsed < 1e-3
    report(1, ok, f"max duration error {worst:.4f} h, runtime {elapsed * 1e6:.0f} us")


def test_criterion_2_shat_recurrence():
    blocks = [(13, 2), (19, 8), (16, 8), (6, 0)]
    chunks = []
    for p, n in blocks:
        chunks.extend([10.0] * p + [-10.0] * n)
    part = partition(PriceSeries(chunks, 1.0))

    fast = theorem3_shat(unit_storage(0.2, 0.2), part)
    slow = theorem3_shat(unit_storage(0.1, 0.1), part)
    checks = [
        abs(fast.values[0] - 0.36) <= 0.01,
        abs(fast.values[1] - 1.44) <= 0.01,
        fast.first_violation == 2,
        slow.first_violation is None,
    ]
    for got, want in zip(slow.values, [0.18, 0.72, 0.72, 0.0533]):
        checks.append(abs(got - want) <= 0.01)
    ok = all(checks)
    report(2, ok, f"fast blocks {fast.values[:2]}, slow blocks {slow.values}")


def test_criterion_3_critical_thresholds():
    part32 = partition(neg_run_series(2, 32, 2))
    crit1 = 1 / (32 * 0.9)
    above1 = theorem1_condition1(unit_storage(crit1 + 1e-4, 0.1), part32)
    below1 = theorem1_condition1(unit_storage(crit1 - 1e-4, 0.1), part32)

    part4 = partition(neg_run_series(10, 4, 10))
    crit2 = 1 / (4 * 0.9)
    below2 = theorem2_check(unit_storage(crit2 - 1e-4, 0.27), part4)
    above2 = theorem2_check(unit_storage(crit2 + 1e-4, 0.27), part4)

    ok = above1 and not below1 and below2 and not above2
    report(
        3,
        ok,
        f"thresholds at {crit1:.4f} MW (fires above only: {above1}/{not below1}) "
        f"and {crit2:.4f} MW (holds below only: {below2}/{not above2})",
    )


def test_criterion_4_full_refined_equivalence():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = random_params(rng)
        prices = mixed_sign_prices(rng, int(rng.integers(6, 49)))
        part = partition(prices)
        full, _ = solve_storage_milp(params, prices, part, refined=False)
        refined, _ = solve_storage_milp(params, prices, part, refined=True)
        rel = abs(full.objective - refined.objective) / max(1.0, abs(full.objective))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60
    report(4, ok, f"100 instances, worst relative gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_advisor_soundness(lp_safe_batch):
    failures = 0
    worst = 0.0
    for params, prices, part, lp, milp in lp_safe_batch:
        repaired = repair_scd(params, prices, lp.schedule)
        rel = abs(lp.objective - milp.objective) / max(1.0, abs(lp.objective))
        worst = max(worst, rel)
        if (
            detect_scd(repaired)
            or not feasibility_check(params, repaired).feasible
            or rel > 1e-8
        ):
            failures += 1
    ok = failures == 0
    report(5, ok, f"200 cleared instances, {failures} counterexamples, worst gap {worst:.2e}")


def test_criterion_6_inexactness_detection(inexact_batch):
    failures = 0
    min_margin = np.inf
    for params, prices, part, lp, milp in inexact_batch:
        margin = lp.objective - milp.objective
        min_margin = min(min_margin, margin)
        if not lp.scd_events or margin <= 1e-9:
            failures += 1
    ok = failures == 0
    report(6, ok, f"100 inexact instances, {failures} failures, min margin {min_margin:.2e}")


def test_criterion_7_lemma1_consistency(lp_safe_batch, inexact_batch):
    # the classification characterizes optima of lossy storage only, so
    # perfect-round-trip instances are out of scope
    checked = mismatches = 0
    for params, prices, part, lp, _ in list(lp_safe_batch) + list(inexact_batch):
        if params.eta >= 1:
            continue
        scd_periods = {ev.t for ev in lp.scd_events}
        for t in part.t_neg:
            verdict = lemma1_classify(params, prices, lp.schedule, t)
            is_scd = verdict.classification is Lemma1Class.SCD_OPTIMAL
            checked += 1
            if is_scd != (t in scd_periods):
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    report(7, ok, f"{checked} negative-price periods classified, {mismatches} mismatches")


def test_criterion_8_kkt_verification(lp_safe_batch, inexact_batch):
    worst = 0.0
    worst_identity = 0.0
    for params, prices, part, lp, _ in list(lp_safe_batch) + list(inexact_batch):
        worst = max(worst, kkt_verify(params, prices, lp))
        for ev in lp.scd_events:
            k = ev.t - 1
            identity = abs(
                params.dt * prices.prices[k] * (1 - params.eta)
                + params.eta * lp.duals.delta_hi[k]
                + lp.duals.gamma_hi[k]
            )
            worst_identity = max(worst_identity, identity)
    ok = worst <= 1e-7 and worst_identity <= 1e-7
    report(8, ok, f"max KKT residual {worst:.2e}, max SCD identity residual {worst_identity:.2e}")


def test_lp_certificates_equal_their_reference(lp_safe_batch, inexact_batch):
    # the stacked duals and residuals of criteria 5 and 6's LPs, bit for bit
    # against one array and one reduction per residual
    for params, prices, _, lp, _ in list(lp_safe_batch) + list(inexact_batch):
        assert_lp_certificate_as_reference(params, prices, lp)


def test_criterion_9_oracle_sandwich():
    rng = np.random.default_rng(2027)
    t0 = time.perf_counter()
    sandwich_ok = ladder_ok = gap_ok = micro_ok = True
    worst_gap = 0.0
    micro_checked = 0
    for _ in range(30):
        T = int(rng.integers(3, 13))
        params = random_params(rng)
        prices = mixed_sign_prices(rng, T)
        part = partition(prices)
        lp = solve_storage_lp(params, prices)
        milp, _ = solve_storage_milp(params, prices, part, refined=True)
        dp = solve_dp(params, prices, DpConfig(801))
        sandwich_ok &= dp.objective <= milp.objective + 1e-9
        sandwich_ok &= milp.objective <= lp.objective + 1e-9
        gap = (milp.objective - dp.objective) / max(1e-9, abs(milp.objective))
        worst_gap = max(worst_gap, gap)
        gap_ok &= gap <= 0.01
        values = [
            solve_dp(params, prices, DpConfig(n)).objective
            for n in (101, 201, 401, 801)
        ]
        for coarse, fine in zip(values, values[1:]):
            ladder_ok &= fine >= coarse - 1e-12
        if T <= 4:
            micro = exhaustive_micro_oracle(params, prices, levels=5)
            micro_ok &= micro <= milp.objective + 1e-9
            micro_checked += 1
    elapsed = time.perf_counter() - t0
    ok = sandwich_ok and ladder_ok and gap_ok and micro_ok and elapsed < 120
    report(
        9,
        ok,
        f"30 instances ({micro_checked} micro-checked), worst dp gap {worst_gap:.4%}, "
        f"ladder monotone: {ladder_ok}, {elapsed:.1f} s",
    )


@pytest.mark.skipif(not DATASET.exists(), reason="DK1-2023 price dataset not available")
def test_criterion_10_dataset_regressions():
    from storesched import read_price_csv

    prices = read_price_csv(DATASET)
    day = PriceSeries(prices.prices[(146 - 1) * 24 : 146 * 24], 1.0)  # 26 May 2023
    params = unit_storage(2.0, 2.0)
    lp = solve_storage_lp(params, day)
    ok = abs(lp.objective - 131.76) <= 0.01
    part = partition(day)
    scd_ok = all(day.prices[ev.t - 1] <= 0 for ev in lp.scd_events)
    report(10, ok and scd_ok, f"26-May-2023 LP profit {lp.objective:.2f} EUR")
