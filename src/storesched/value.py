"""The storage LP solved by its value function, in plain Python lists.

With beta_t = s_t - rho*s_{t-1} in [-discharge_reach, charge_reach], the best
profit from level s before period t is V_{t-1}(s) = max over beta of
g_t(beta) + V_t(rho*s + beta), with V_T = 0 on [s_min, s_max].  g_t, the
best profit of period t at net exchange beta, is concave with two linear
pieces, so each V_t is concave and piecewise linear, and one period is a
sup-convolution (Rockafellar 1970, Convex Analysis, section 5): merge g_t's
pieces into V_t's segments by falling slope, rescale by rho and clip to
[s_min, s_max].  The backward pass keeps where g_t's pieces sit in each
merged list, so the forward pass reads each period's beta off in O(1).  It
computes and answers in storage.require_compatible's record by +, -, *, /,
comparisons and bisect alone, with which its power-of-two units commute.
"""

from bisect import bisect_left, bisect_right

import numpy as np

_INF = float("inf")
_TOL = 1e-11  # numbers closer than _TOL times the magnitudes in play are equal


def lp_optimum(params, units) -> tuple:
    """An optimal schedule of the storage LP, each energy bounded by its reach as
    in lp.build_lp, and balance-row multipliers that certify it, in units,
    storage.require_compatible's record: lists of the energy each period charges
    and burns and of the levels in its energy unit, and of lam in its price unit.
    Where C_t >= 0 or eta = 1 a period charges or discharges, never both:
    simultaneous charge and discharge costs nothing there.  Some schedule fits
    (storage.require_schedulable): an empty window is rounding."""
    rho, (s_min, s_max, s_init), (hi, dis) = params.rho, units.levels, units.reaches
    y_min, y_max = rho * s_min, rho * s_max
    # g_t of each period: the keys (minus the slopes) k1 of its piece beta in
    # [mid, hi_b] and k2 of [lo_b, mid], its knot and spill, and lambda_t's
    # bounds xc and xd.  At C_t < 0 the LP charges at full rate and burns the
    # surplus by discharge (spill, where eta < 1), so the two slopes swap
    (xc, xd), neg, T = units.slopes, units.prices < 0, len(units.prices)
    k1, k2, knot, spill = -xc, -xd, np.zeros(T), neg * (0.0 if params.eta == 1.0 else dis)
    k1[neg], k2[neg], knot[neg] = k2[neg], k1[neg], hi - dis
    g = [*zip(k1.tolist(), k2.tolist(), knot.tolist(), spill.tolist(), xc.tolist(), xd.tolist())]

    # backward: V_t on [start, end] as segments, keys (rising) and lengths
    start, end, keys, lens = s_min, s_max, [0.0], [s_max - s_min]
    pieces = [None] * T
    for t in range(T - 1, -1, -1):
        k1, k2, knot, spill, _, _ = g[t]
        lo_b, hi_b = start - y_max, end - y_min  # the exchanges that reach [start, end]
        lo_b, hi_b = -dis if lo_b < -dis else lo_b, hi if hi_b > hi else hi_b
        lo_b = hi_b if lo_b > hi_b else lo_b
        mid = lo_b if knot < lo_b else hi_b if knot > hi_b else knot
        l1, l2 = hi_b - mid, mid - lo_b
        # a tie with V keeps beta nearest g's knot: at C_t = 0 the level idles
        i1, i2 = bisect_left(keys, k1), bisect_right(keys, k2)
        a1 = sum(lens[:i1]) if i1 else 0
        y0 = start - hi_b  # the merged list starts at rho*s = y0, with beta = hi_b
        a2 = a1 + l1 + (sum(lens[i1:i2]) if i2 > i1 else 0)
        pieces[t] = (y0, a1, l1, a2, l2, start, end)
        if l2 > 0:  # i2 first, so that i1 <= i2 still points at its place
            keys.insert(i2, k2)
            lens.insert(i2, l2)
        if l1 > 0:
            keys.insert(i1, k1)
            lens.insert(i1, l1)
        # y_end from the lengths, so that their rounding is not scaled by 1/rho
        y_end = y0 + sum(lens)
        cut = y_min - y0  # clip to [y_min, y_max], the front first
        while cut > 0 and len(lens) > 1 and lens[0] <= cut:
            cut -= lens.pop(0)
            keys.pop(0)
        if cut > 0:
            lens[0] = max(lens[0] - cut, 0.0)
        if y_end > y_max:
            # the back by the window's width, measured from the front: a cut of
            # y_end - y_max carries the rounding of the list's far end, and the
            # rescale by 1/rho blows it up
            i, room = 0, y_max - (y0 if y0 > y_min else y_min)
            while i < len(lens) - 1 and lens[i] < room:
                room -= lens[i]
                i += 1
            lens[i] = 0.0 if room < 0 else room if room < lens[i] else lens[i]
            if i + 1 < len(lens):
                del lens[i + 1 :], keys[i + 1 :]
        if rho != 1.0:
            keys, lens = [k * rho for k in keys], [v / rho for v in lens]
        start = s_min if y0 <= y_min else min(y0 / rho, s_max)
        end = s_max if y_end >= y_max else max(y_end / rho, start)

    # forward: walk the merged list of each period to rho*s
    s, schedule, allowed = s_init, [], []
    for t in range(T):
        y0, a1, l1, a2, l2, start, end = pieces[t]
        _, _, _, spill, xc, xd = g[t]
        y = rho * s
        walk = y - y0
        g1, g2 = walk - a1, walk - a2  # how far the walk went into g's pieces
        gi = (0.0 if g1 < 0 else l1 if g1 > l1 else g1) + (0.0 if g2 < 0 else l2 if g2 > l2 else g2)
        u = start + (walk - gi)
        u = start if u < start else end if u > end else u
        tol = _TOL * (y + abs(y0) + start)  # a level or energy this near a bound is on it
        at_min, at_max = u <= s_min + tol, u >= s_max - tol
        u = s_max if at_max else s_min if at_min else u
        beta = u - y
        # the energy charged, one mode or a full-rate charge whose surplus burns
        add = beta + spill
        add = 0.0 if add <= tol else hi if add >= hi - tol else add
        burn = add - beta
        burn = 0.0 if burn <= tol else dis if burn >= dis - tol else burn
        schedule.append((add, burn, u))
        # the balance multipliers the energy statuses allow: lambda_t >= C_t/eta_c
        # unless the period charges nothing, <= unless it charges its whole reach;
        # <= eta_d*C_t unless it burns nothing, >= unless it burns its whole reach
        lo, up = (xc if add else -_INF), (_INF if add == hi else xc)
        allowed.append((lo if burn == dis or xd < lo else xd,
                        up if not burn or xd > up else xd, at_min, at_max))
        s = u
    return (*zip(*schedule), _multipliers(rho, allowed))


def _multipliers(rho, allowed) -> list:
    """Balance multipliers lambda_t in the intervals allowed[t] = (lo, up,
    at_min, at_max).  lambda_t equals rho*lambda_{t+1} where s_t is interior,
    is at most that at s_max and at least at s_min, with lambda_{T+1} = 0.
    Backward, F_t is the interval of lambda_t that a continuation allows;
    forward, lambda_1 = clip(0, F_1) and lambda_{t+1} = clip(x, F_{t+1}), with
    x = lambda_t where s_t's bound allows it, else lambda_t/rho: at a tiny rho
    1/rho a period along levels at a bound would overflow."""
    f_lo = f_up = 0.0
    for t in range(len(allowed) - 1, -1, -1):
        lo, up, at_min, at_max = allowed[t]
        if not at_max and rho * f_lo > lo:
            lo = rho * f_lo
        if not at_min and rho * f_up < up:
            up = rho * f_up
        f_lo, f_up = lo, up
        allowed[t] = lo, up, at_min, at_max
    lam, x = [], 0.0
    for lo, up, at_min, at_max in allowed:
        x = lo if x < lo else up if x > up else x
        lam.append(x)
        y = x / rho
        x = x if at_min and x <= y or at_max and x >= y else y
    return lam
