"""Dense bounded-variable simplex, dual and primal, on one basis inverse.

Maximizes c'x subject to A x = b and l <= x <= u (lower bounds finite,
upper bounds finite or +inf).  Returns row duals and reduced costs for
KKT verification, and the final basis as a warm start for related LPs.

Every solve runs a bounded dual simplex, then the primal simplex.  The
start basis is the given one when it has m independent basic columns
(the storage LP's state-of-energy basis, or a branch-and-bound child's
parent optimum: tightening a bound leaves every reduced cost unchanged),
else one artificial column per row, fixed at zero.  Each nonbasic
variable starts at the bound its reduced cost prefers; where that bound
is +inf, the dual pass shifts its cost.  So the dual pass starts dual
feasible and finds a feasible basis or proves there is none, with no
phase 1.  The primal pass, on the true costs, uses Dantzig pricing with
a Bland's-rule fallback against cycling on the highly degenerate
storage LPs (many active bounds).

Each pivot applies a rank-1 product-form update to an explicit basis
inverse.  The inverse is refactored every REFACTOR_EVERY pivots and
before optimality is declared, so x, y and d come from a fresh inverse.
"""

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
TOL = 1e-9  # primal and dual feasibility tolerance
ITERS_PER_DIM = 200  # a phase may take ITERS_PER_DIM * (n + m + 10) iterations
REFACTOR_EVERY = 50  # pivots between two factorizations of the basis inverse

# basis codes, one per variable: the bound a nonbasic variable sits at, or BASIC
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SimplexFailure(RuntimeError):
    """Internal invariant breach (iteration limit, singular basis)."""


@dataclass
class LpProblem:
    """Equality-form LP with variable bounds, to maximize: a x = rhs
    with a dense constraint matrix a of shape (len(rhs), len(c)).
    """

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = len(self.c)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match the variable count")
        for name in ("c", "lower", "a", "rhs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not np.all(self.lower <= self.upper):  # upper may be +inf, not NaN
            raise ValueError("need lower <= upper for every variable")
        if self.a.shape != (len(self.rhs), n):
            raise ValueError(
                f"constraint matrix shape {self.a.shape} does not match "
                f"{len(self.rhs)} rows and {n} variables"
            )

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.rhs)


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    y: np.ndarray | None = None  # equality-row duals
    reduced_costs: np.ndarray | None = None  # c - y'A, structural variables
    objective: float | None = None
    iterations: int = 0  # pivots and bound flips over both passes
    basis: np.ndarray | None = None  # final basis code of each structural variable


class _Factor:
    """Basic columns in row order and the explicit inverse of their matrix."""

    def __init__(self, a, basis):
        self.a = a
        self.basis = np.array(basis, dtype=int)
        self.refactor()

    def refactor(self):
        self.inv = None  # free the old inverse before allocating the new one
        try:
            self.inv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexFailure("singular basis") from exc
        self.age = 0  # pivots since the last factorization

    def pivot(self, r, q, w):
        """Column q replaces the basic column of row r; w = inv @ a[:, q]."""
        row = self.inv[r] / w[r]
        self.inv -= np.outer(w, row)
        self.inv[r] = row
        self.basis[r] = q
        self.age += 1
        if self.age >= REFACTOR_EVERY:
            self.refactor()

    def point(self, b, c, lower, upper, state):
        """Basic solution x, row duals y and reduced costs d."""
        x = np.where(state == AT_UPPER, upper, lower)
        x[self.basis] = 0.0
        x[self.basis] = self.inv @ (b - self.a @ x)
        y = c[self.basis] @ self.inv
        return x, y, c - y @ self.a


def _primal(f, b, c, lower, upper, state, max_iter):
    """Primal simplex from a primal feasible basis to optimality of max
    c'x.  Mutates f and state; returns (status, x, y, d, pivots)."""
    m, n = f.a.shape
    stall = 0
    stall_limit = 5 * (n + m)
    bland = False
    last_obj = -np.inf
    pivots = 0
    while True:
        x, y, d = f.point(b, c, lower, upper, state)
        obj = float(c @ x)
        if obj > last_obj + TOL:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
        last_obj = obj

        # entering variable: nonbasic at lower with positive reduced cost
        # may increase; nonbasic at upper with negative reduced cost may
        # decrease
        incr = (state == AT_LOWER) & (d > TOL)
        decr = (state == AT_UPPER) & (d < -TOL)
        candidates = np.flatnonzero(incr | decr)
        if len(candidates) == 0:
            if f.age == 0:
                return LpStatus.OPTIMAL, x, y, d, pivots
            f.refactor()
            continue
        if pivots >= max_iter:
            raise SimplexFailure(f"iteration limit {max_iter} exceeded")
        pivots += 1
        if bland:
            q = int(candidates[0])
        else:
            q = int(candidates[np.argmax(np.abs(d[candidates]))])
        increasing = bool(incr[q])

        # entering moves by delta >= 0 from its bound; basic values move by
        # step * delta, each toward the bound in its direction.  ratio[0] is
        # the entering variable's own bound flip; the first minimum wins.
        w = f.inv @ f.a[:, q]
        step = -w if increasing else w
        xb = x[f.basis]
        bound = np.where(step > 0, upper[f.basis], lower[f.basis])
        moves = np.abs(step) > PIVOT_TOL
        ratio = np.full(m + 1, np.inf)
        ratio[0] = upper[q] - lower[q]
        ratio[1:][moves] = (bound[moves] - xb[moves]) / step[moves]
        r = int(np.argmin(ratio)) - 1
        if r >= 0:
            state[f.basis[r]] = AT_UPPER if step[r] > 0 else AT_LOWER
            state[q] = BASIC
            f.pivot(r, q, w)
        elif np.isfinite(ratio[0]):
            state[q] = AT_UPPER if increasing else AT_LOWER
        else:
            return LpStatus.UNBOUNDED, x, y, d, pivots


def _dual(f, b, c, lower, upper, state, max_iter):
    """Bounded dual simplex from a dual feasible basis: the most
    infeasible basic variable leaves at the bound it violates, and the
    nonbasic variable whose reduced cost first reaches zero enters.
    Mutates f and state; returns (status, pivots)."""
    movable = lower < upper
    violation = np.zeros(len(b) + 1)  # a zero sentinel: with no rows nothing is violated
    pivots = 0
    while True:
        x, _, d = f.point(b, c, lower, upper, state)
        xb = x[f.basis]
        below = lower[f.basis] - xb
        np.maximum(below, xb - upper[f.basis], out=violation[:-1])
        r = int(np.argmax(violation))
        candidates = []
        if violation[r] > TOL:
            # alpha_j: how fast raising x_j pushes x_B[r] back toward its
            # bound; a nonbasic variable moves only away from its own bound
            alpha = f.inv[r] @ f.a
            if below[r] > 0:
                alpha = -alpha
            candidates = np.flatnonzero(movable & np.where(
                state == AT_LOWER, alpha > PIVOT_TOL, (state == AT_UPPER) & (alpha < -PIVOT_TOL)
            ))
        if len(candidates) == 0:
            if f.age == 0:
                feasible = violation[r] <= TOL
                return (LpStatus.OPTIMAL if feasible else LpStatus.INFEASIBLE), pivots
            f.refactor()
            continue
        if pivots >= max_iter:
            raise SimplexFailure(f"iteration limit {max_iter} exceeded")
        pivots += 1
        q = int(candidates[np.argmin(np.abs(d[candidates] / alpha[candidates]))])
        state[f.basis[r]] = AT_LOWER if below[r] > 0 else AT_UPPER
        state[q] = BASIC
        f.pivot(r, q, f.inv @ f.a[:, q])


def solve_bounded_lp(problem: LpProblem, start: np.ndarray | None = None) -> LpSolution:
    """Bounded-variable simplex.  Deterministic for identical inputs.
    start optionally gives a basis code per variable (AT_LOWER, AT_UPPER
    or BASIC, as in LpSolution.basis).  A start without m independent
    basic columns still places the nonbasic variables; artificial
    columns stand in for its basic ones."""
    n, m = problem.n, problem.m
    max_iter = ITERS_PER_DIM * (n + m + 10)
    a, b, c, lower, upper = problem.a, problem.rhs, problem.c, problem.lower, problem.upper
    state = np.full(n, AT_LOWER) if start is None else np.asarray(start)
    if state.shape != (n,):
        raise ValueError("start must give one basis code per variable")
    if not np.all((state == AT_LOWER) | (state == AT_UPPER) | (state == BASIC)):
        raise ValueError("start codes must be AT_LOWER, AT_UPPER or BASIC")
    state = state.astype(np.int8)
    basis = np.flatnonzero(state == BASIC)
    try:
        f = _Factor(a, basis) if len(basis) == m else None
    except SimplexFailure:
        f = None
    if f is None:
        # artificial basis: one column per row, fixed at zero
        state[basis] = AT_LOWER
        state = np.concatenate([state, np.full(m, BASIC, dtype=np.int8)])
        f = _Factor(np.hstack([a, np.eye(m)]), np.arange(n, n + m))
        c, lower, upper = (np.concatenate([v, np.zeros(m)]) for v in (c, lower, upper))

    # each movable nonbasic variable at the bound its reduced cost
    # prefers, or at lower when its upper bound is infinite; there a
    # positive reduced cost is shifted away, so the dual pass starts dual
    # feasible
    d = c - c[f.basis] @ f.inv @ f.a
    movable = (state != BASIC) & (lower < upper)
    inf = np.isinf(upper)
    state[movable & ((d < -TOL) | inf)] = AT_LOWER
    up = movable & (d > TOL)
    state[up & ~inf] = AT_UPPER
    shift = np.where(up & inf, d, 0.0)
    status, it1 = _dual(f, b, c - shift, lower, upper, state, max_iter)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, iterations=it1)
    status, x, y, d, it2 = _primal(f, b, c, lower, upper, state, max_iter)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, iterations=it1 + it2)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x[:n].copy(),
        y=y,
        reduced_costs=d[:n].copy(),
        objective=float(problem.c @ x[:n]),
        iterations=it1 + it2,
        basis=state[:n].copy(),
    )
