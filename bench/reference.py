"""A fixed calibration kernel that tells how fast the host runs right now.

Other tenants of a shared machine slow every process on it by up to half,
in phases that last from a fraction of a second to minutes.  A pass runs
this kernel after its set-up and before every op; run.py divides
NOMINAL_S by the mean kernel time around an op and scales the op's time
by that factor, so that a phase in which the whole host is slow does not
read as slower code.

The kernel mixes the kinds of work the package does (interpreted loops,
many calls on small arrays as in the simplex, passes over arrays the size
of the DP's value table) and calls nothing of the package, so no change
to the package can move it.
"""

import math
import time

import numpy as np

NOMINAL_S = 0.010  # mean kernel time in a quiet phase of the reference machine
SAMPLES_PER_ROUND = 60  # kernel runs before the ops of one pass over the whole pool
SETUP_SAMPLES = 30  # kernel runs right after set-up
WARM_UP = 3
# An op's factor averages the samples taken within half its own duration,
# and at least PAD_S, before it starts and after it ends: a short op is
# judged by the samples next to it, a long one by the host's speed over a
# stretch as long as itself.
PAD_S = 0.05


def kernel() -> int:
    s = 0
    for i in range(40_000):
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(400):
        a = np.abs(a - a.mean()) + 1.0
    m = np.tile(np.linspace(0.0, 1.0, 801), (64, 1))
    for _ in range(30):
        m = np.where(m > 0.5, m * 0.9, m + 0.01)
        m.max(axis=0)
    return s


def samples(n) -> list:
    """n kernel runs as [midpoint, seconds] pairs on the perf_counter clock."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        out.append([(t0 + t1) / 2, t1 - t0])
    return out


def warm_up():
    for _ in range(WARM_UP):
        kernel()


def per_op(pool_size) -> int:
    """Kernel runs before each op: about SAMPLES_PER_ROUND over the pool,
    so that the speed factor of a small pool is not left to a few short
    samples."""
    return max(1, math.ceil(SAMPLES_PER_ROUND / pool_size))


def speed(seconds) -> float:
    """Factor that turns wall seconds into seconds at the nominal speed,
    from the durations of some kernel runs."""
    return NOMINAL_S / (sum(seconds) / len(seconds))


def op_speeds(ops) -> list:
    """The factor of each op of one pass, from the samples around it.  ops
    are records with "start", "seconds" and "ref" ([midpoint, seconds]
    pairs taken before the op)."""
    refs = [r for op in ops for r in op["ref"]]
    factors = []
    for op in ops:
        pad = max(PAD_S, op["seconds"] / 2)
        lo, hi = op["start"] - pad, op["start"] + op["seconds"] + pad
        window = [s for t, s in refs if lo <= t <= hi] or [s for t, s in op["ref"]]
        factors.append(speed(window))
    return factors
