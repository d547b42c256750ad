"""LP relaxation against the exclusivity-enforcing MILPs on an instance
where the relaxation is genuinely inexact: a fast lossy battery facing
negative prices earns extra (phantom) profit by charging and discharging
simultaneously to burn energy it is being paid to absorb.

Run: python3 demos/04_lp_vs_milp.py
"""

import numpy as np

from storesched import (
    PriceSeries,
    StorageParams,
    partition,
    solve_storage_lp,
    solve_storage_milp,
)

params = StorageParams(
    s_min=0.0, s_max=1.0, s_init=0.0,
    p_chg_max=2.0, p_dis_max=2.0,
    eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0,
)

values = np.full(24, 30.0)
values[10:14] = [-5.0, -25.0, -18.0, -3.0]
prices = PriceSeries(values, 1.0)
part = partition(prices)

lp = solve_storage_lp(params, prices)
print(f"LP objective:           {lp.objective:10.2f} EUR")
print(f"KKT residual:           {lp.kkt_max_residual:10.2e}")
print("simultaneous charge/discharge events:")
for ev in lp.scd_events:
    print(
        f"  hour {ev.t:2d} (price {prices.prices[ev.t - 1]:6.1f}): "
        f"charging {ev.p_chg_t:.2f} MW while discharging {ev.p_dis_t:.2f} MW"
    )

full, full_stats = solve_storage_milp(params, prices, part, refined=False)
refined, refined_stats = solve_storage_milp(params, prices, part, refined=True)


def nodes(stats):
    return f"{stats.nodes} node{'' if stats.nodes == 1 else 's'}"


print(f"\nfull MILP objective:    {full.objective:10.2f} EUR ({nodes(full_stats)})")
print(f"refined MILP objective: {refined.objective:10.2f} EUR "
      f"({nodes(refined_stats)}, binaries only at the "
      f"{len(part.t_neg)} negative hours)")
print(f"phantom LP profit:      {lp.objective - refined.objective:10.2f} EUR")
assert not refined.scd_events

print("\nhonest schedule during the negative hours:")
for t in part.t_neg:
    k = t - 1
    print(
        f"  hour {t:2d}: charge {refined.schedule.p_chg[k]:.2f} MW, "
        f"discharge {refined.schedule.p_dis[k]:.2f} MW, "
        f"level {refined.schedule.soe[k]:.2f} MWh"
    )
