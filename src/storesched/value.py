"""The storage LP solved by its value function, in plain Python lists.

With beta_t = s_t - rho*s_{t-1} in [-discharge_step, charge_step], the best
profit from level s before period t is V_{t-1}(s) = max over beta of
g_t(beta) + V_t(rho*s + beta), with V_T = 0 on [s_min, s_max].  g_t, the
best profit of period t at net exchange beta, is concave with two linear
pieces, so each V_t is concave and piecewise linear, and one period is a
sup-convolution (Rockafellar 1970, Convex Analysis, section 5): merge g_t's
pieces into V_t's segments by falling slope, rescale by rho and clip to
[s_min, s_max].  The backward pass keeps where g_t's pieces sit in each
merged list, so the forward pass reads each period's beta off in O(1).
"""

from bisect import bisect_left, bisect_right

_INF = float("inf")
_TOL = 1e-11  # numbers closer than _TOL times the magnitudes in play are equal


class InfeasibleStorage(ValueError):
    """No schedule keeps the level within [s_min, s_max] over the horizon,
    for example when leakage at s_min outruns the charge limit."""


def lp_optimum(params, prices) -> tuple:
    """An optimal schedule of the storage LP and balance-row multipliers
    that certify it: lists (p_chg, p_dis, soe, lam).  Where C_t >= 0 or
    eta = 1 a period charges or discharges, never both: simultaneous charge
    and discharge costs nothing there.  Raises InfeasibleStorage when no
    schedule keeps the level within [s_min, s_max]."""
    c = prices.prices.tolist()
    T = len(c)
    rho, eta_c, eta_d, dt = params.rho, params.eta_c, params.eta_d, params.dt
    s_min, s_max = params.s_min, params.s_max
    hi, dis = params.charge_step, params.discharge_step  # beta_hi and -beta_lo
    y_min, y_max = rho * s_min, rho * s_max
    infeasible = InfeasibleStorage("no schedule keeps the storage level within [s_min, s_max]")

    # backward: V_t on [start, end] as segments, keys (minus the slope,
    # rising) and lengths.  g_t's piece beta in [mid, hi_b] has key k1, the
    # piece [lo_b, mid] k2; at C_t < 0 the LP charges at full rate and burns
    # the surplus by discharge, so the two slopes swap
    start, end, keys, lens = s_min, s_max, [0.0], [s_max - s_min]
    pieces = [None] * T
    for t in range(T - 1, -1, -1):
        ct = c[t]
        if ct >= 0:
            k1, k2, knot = -ct / eta_c, -ct * eta_d, 0.0
        else:
            k1, k2, knot = -ct * eta_d, -ct / eta_c, hi - dis
        lo_b, hi_b = start - y_max, end - y_min  # the exchanges that reach [start, end]
        lo_b, hi_b = -dis if lo_b < -dis else lo_b, hi if hi_b > hi else hi_b
        if lo_b > hi_b:
            if lo_b > hi_b + _TOL * (end + y_max):
                raise infeasible
            lo_b = hi_b
        mid = lo_b if knot < lo_b else hi_b if knot > hi_b else knot
        l1, l2 = hi_b - mid, mid - lo_b
        # a tie with V keeps beta nearest g's knot: at C_t = 0 the level idles
        i1, i2 = bisect_left(keys, k1), bisect_right(keys, k2)
        a1 = sum(lens[:i1])
        y0 = start - hi_b  # the merged list starts at rho*s = y0, with beta = hi_b
        pieces[t] = (y0, a1, l1, a1 + l1 + sum(lens[i1:i2]), l2, start, end)
        for i, k, v in ((i2, k2, l2), (i1, k1, l1)):
            if v > 0:
                keys.insert(i, k)
                lens.insert(i, v)
        # y_end from the lengths, so that their rounding is not scaled by 1/rho
        y_end = y0 + sum(lens)
        for i, cut in ((0, y_min - y0), (-1, y_end - y_max)):  # clip to [y_min, y_max]
            while cut > 0 and len(lens) > 1 and lens[i] <= cut:
                cut -= lens.pop(i)
                keys.pop(i)
            if cut > 0:
                lens[i] = max(lens[i] - cut, 0.0)
        if rho != 1.0:
            keys, lens = [k * rho for k in keys], [v / rho for v in lens]
        start = s_min if y0 <= y_min else min(y0 / rho, s_max)
        end = s_max if y_end >= y_max else max(y_end / rho, start)

    s = params.s_init
    if not start - _TOL * end <= s <= end + _TOL * end:
        raise infeasible
    # forward: walk the merged list of each period to rho*s
    p_chg, p_dis, soe, allowed = [], [], [], []
    single = [ct >= 0 or params.eta == 1.0 for ct in c]
    for t in range(T):
        y0, a1, l1, a2, l2, start, end = pieces[t]
        y = rho * s
        g1, g2 = y - y0 - a1, y - y0 - a2  # how far the walk went into g's pieces
        g = (0.0 if g1 < 0 else l1 if g1 > l1 else g1) + (0.0 if g2 < 0 else l2 if g2 > l2 else g2)
        u = start + (y - y0 - g)
        u = start if u < start else end if u > end else u
        tol = _TOL * (y + abs(y0) + start)  # a level or energy this near a bound is on it
        at_min, at_max = u <= s_min + tol, u >= s_max - tol
        u = s_max if at_max else s_min if at_min else u
        beta = u - y
        # the energy charged, one mode or a full-rate charge whose surplus burns
        add = beta if single[t] else beta + dis
        add = 0.0 if add <= tol else hi if add >= hi - tol else add
        burn = add - beta
        burn = 0.0 if burn <= tol else dis if burn >= dis - tol else burn
        p_chg.append(params.p_chg_max if add == hi else add / (dt * eta_c))
        p_dis.append(params.p_dis_max if burn == dis else burn * eta_d / dt)
        soe.append(u)
        # the balance multipliers the power statuses allow: lambda_t >= C_t/eta_c
        # unless p_chg = 0 and <= unless p_chg = Pc; <= eta_d*C_t unless p_dis
        # = 0 and >= unless p_dis = Pd
        xc, xd = c[t] / eta_c, eta_d * c[t]
        lo, up = (xc if add else -_INF), (_INF if add == hi else xc)
        allowed.append((lo if burn == dis or xd < lo else xd, up if not burn or xd > up else xd,
                        at_min, at_max))
        s = u
    return p_chg, p_dis, soe, _multipliers(rho, allowed)


def _multipliers(rho, allowed) -> list:
    """Balance multipliers lambda_t in the intervals allowed[t] = (lo, up,
    at_min, at_max).  lambda_t equals rho*lambda_{t+1} where s_t is interior,
    is at most that at s_max and at least at s_min, with lambda_{T+1} = 0.
    Backward, F_t is the interval of lambda_t that a continuation allows;
    forward, lambda_1 = clip(0, F_1), lambda_{t+1} = clip(lambda_t/rho, F_{t+1})."""
    f_lo = f_up = 0.0
    for t in range(len(allowed) - 1, -1, -1):
        lo, up, at_min, at_max = allowed[t]
        if not at_max and rho * f_lo > lo:
            lo = rho * f_lo
        if not at_min and rho * f_up < up:
            up = rho * f_up
        allowed[t] = f_lo, f_up = lo, up
    lam, x = [], 0.0
    for lo, up in allowed:
        x = lo if x < lo else up if x > up else x
        lam.append(x)
        x /= rho
    return lam
