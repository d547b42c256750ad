"""The brute-force oracles: a state-grid dynamic program (exclusivity by
construction) sandwiches the MILP from below and the LP from above, and
improves monotonically as the grid is refined.

Run: python3 demos/05_dp_oracle.py
"""

import numpy as np

from storesched import (
    DpConfig,
    PriceSeries,
    StorageParams,
    exhaustive_micro_oracle,
    partition,
    solve_dp,
    solve_storage_lp,
    solve_storage_milp,
)

rng = np.random.default_rng(8)
params = StorageParams(
    s_min=0.0, s_max=1.0, s_init=0.3,
    p_chg_max=0.35, p_dis_max=0.35,
    eta_c=0.92, eta_d=0.92, rho=0.998, dt=1.0,
)
prices = PriceSeries(rng.normal(20.0, 55.0, 12), 1.0)
part = partition(prices)

lp = solve_storage_lp(params, prices)
milp, _ = solve_storage_milp(params, prices, part)

print(f"LP   objective: {lp.objective:10.4f} EUR")
print(f"MILP objective: {milp.objective:10.4f} EUR")

print("\ngrid refinement ladder (monotone from below):")
for n in (101, 201, 401, 801):
    dp = solve_dp(params, prices, DpConfig(grid_points=n))
    gap = milp.objective - dp.objective
    print(f"  N={n:4d}: {dp.objective:10.4f} EUR (gap to MILP {gap:.4f})")

# at micro scale, exhaustive enumeration is an absolute ground truth
tiny = PriceSeries(prices.prices[:4], 1.0)
micro = exhaustive_micro_oracle(params, tiny, levels=7)
milp4, _ = solve_storage_milp(params, tiny, partition(tiny))
print(f"\nT=4 exhaustive enumeration: {micro:.4f} EUR")
print(f"T=4 MILP:                   {milp4.objective:.4f} EUR")
