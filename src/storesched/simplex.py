"""Dense bounded dual simplex on one basis inverse.

Maximizes c'x subject to A x = b and l <= x <= u, every bound finite.
Returns row duals and reduced costs for KKT verification, and the final
basis as a warm start for related LPs.

The start basis is the given one when it has m independent basic
columns (the storage LP's state-of-energy basis, or a branch-and-bound
child's parent optimum: tightening a bound leaves every reduced cost
unchanged), else one artificial column per row, fixed at zero.  With
every bound finite, any basis is dual feasible once each nonbasic
variable sits at the bound its reduced cost prefers.  So no phase 1 is
needed, and a dual pass that ends primal feasible ends optimal.

The ratio test flips bounds (Maros 2003; Koberstein 2005): the entering
candidates are passed in order of the dual step at which their reduced
costs reach zero, and each one whose move to its other bound still leaves
the leaving row violated flips there instead of entering.  So a boxed
variable that must cross from one bound to the other costs no pivot.  A
flip is not a pivot; LpSolution counts the two apart.

Each pivot is a revised-simplex step on an explicit basis inverse: a
rank-1 product-form update of the inverse rows that the entering column
touches, and updates of x and d along the step.  The inverse is
refactored every REFACTOR_EVERY pivots and before optimality or
infeasibility is declared.  Each fresh factor recomputes y and d, places
the nonbasic variables, then recomputes x, so the answer always comes
from a fresh inverse, placed against its own reduced costs.  A solve may
start from the final factor of a related LP with the same matrix and
basis (a branch-and-bound child from its parent's) instead of inverting
again.

A refactor inverts only a kernel: the basic columns with one nonzero
(the storage LP's leg columns and many powers) form a diagonal block,
and LAPACK inverts the rest (see _Factor).  A basis is singular when two
such columns share a row or the kernel is singular; a singular start
basis gives way to the artificial one.
"""

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
TOL = 1e-9  # primal and dual feasibility tolerance
ITERS_PER_DIM = 200  # a solve may take ITERS_PER_DIM * (n + m + 10) pivots
REFACTOR_EVERY = 50  # pivots between two factorizations of the basis inverse

# basis codes, one per variable: the bound a nonbasic variable sits at, or BASIC
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class SimplexFailure(RuntimeError):
    """Internal invariant breach (iteration limit, singular basis)."""


@dataclass
class LpProblem:
    """Equality-form LP to maximize: a x = rhs, lower <= x <= upper, with
    a dense constraint matrix a of shape (len(rhs), len(c))."""

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("c", "lower", "upper", "a", "rhs"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, value)
        n = len(self.c)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match the variable count")
        if not np.all(self.lower <= self.upper):
            raise ValueError("need lower <= upper for every variable")
        if self.a.shape != (len(self.rhs), n):
            raise ValueError(f"constraint matrix shape {self.a.shape}, need ({len(self.rhs)}, {n})")

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
    iterations: int = 0  # dual simplex pivots
    flips: int = 0  # nonbasic variables the ratio test moved to their other bound
    basis: np.ndarray | None = None  # final basis code of each structural variable
    factor: "_Factor | None" = None  # final factor of that basis, a warm start with it


class _Factor:
    """Basic columns in row order and the explicit inverse of their matrix.

    A column of a with one nonzero is a singleton.  The basic singletons
    form a diagonal block D on their rows; the other basic columns on the
    remaining rows form the kernel K, and only K goes through LAPACK:
    with rows and columns ordered singletons first, the basis matrix is
    [[D, B12], [0, K]] and its inverse [[D^-1, -D^-1 B12 K^-1], [0, K^-1]].
    The basis is singular when two basic singletons share a row or K is
    singular (a zero column lands in K)."""

    def __init__(self, a, basis):
        self.a = a
        nonzero = a != 0
        # the row of each column's only nonzero, or -1 (argmax needs a row)
        self.singleton_row = (np.where(nonzero.sum(axis=0) == 1, nonzero.argmax(axis=0), -1)
                              if len(a) else np.full(a.shape[1], -1))
        self.basis = np.array(basis, dtype=int)
        self.refactor()

    def refactor(self):
        self.inv = None  # free the old inverse before allocating the new one
        m = len(self.basis)
        rows = self.singleton_row[self.basis]
        is_single = rows >= 0
        single, kernel = np.flatnonzero(is_single), np.flatnonzero(~is_single)  # basis positions
        srows = rows[single]
        free = np.ones(m, dtype=bool)
        free[srows] = False
        krows = np.flatnonzero(free)
        if len(krows) != len(kernel):  # a row taken twice leaves K with more rows than columns
            raise SimplexFailure("singular basis: two singleton columns share a row")
        ak = self.a[:, self.basis[kernel]]
        try:
            kinv = np.linalg.inv(ak[krows])
        except np.linalg.LinAlgError as exc:
            raise SimplexFailure("singular basis") from exc
        dinv = 1.0 / self.a[srows, self.basis[single]]
        self.inv = np.zeros((m, m))
        self.inv[single, srows] = dinv
        self.inv[kernel[:, None], krows] = kinv
        self.inv[single[:, None], krows] = -dinv[:, None] * (ak[srows] @ kinv)
        self.age = 0  # pivots since the last factorization

    def pivot(self, r, q, w):
        """Column q replaces the basic column of row r; w = inv @ a[:, q].
        Only the rows where w is nonzero change."""
        row = self.inv[r] / w[r]
        nz = np.flatnonzero(w)
        self.inv[nz] -= np.outer(w[nz], row)
        self.inv[r] = row
        self.basis[r] = q
        self.age += 1

    def primal(self, b, lower, upper, state):
        """Basic solution x, each nonbasic variable at its bound."""
        x = np.where(state == AT_UPPER, upper, lower)
        x[self.basis] = 0.0
        x[self.basis] = self.inv @ (b - self.a @ x)
        return x

    def dual(self, c):
        """Row duals y and reduced costs d."""
        y = c[self.basis] @ self.inv
        return y, c - y @ self.a


def _dual(f, b, c, lower, upper, state, max_iter):
    """Bounded dual simplex: the most infeasible basic variable leaves at
    the bound it violates.  The ratio test flips bounds: the candidates are
    walked in order of the ratio |d_j / alpha_j| at which their reduced
    costs reach zero, and each one whose flip to its other bound still
    leaves the leaving row violated flips; the first whose flip would not,
    or else the last, enters.  Each fresh factor recomputes y and d, places
    each movable nonbasic variable at the bound its reduced cost prefers
    (after a pivot that only undoes rounding), then recomputes x; each pivot
    updates x and d.  Mutates f and state; returns (status, x, y, d, pivots,
    flips) from a fresh factor."""
    movable = lower < upper
    violation = np.zeros(len(b) + 1)  # a zero sentinel: with no rows nothing is violated
    pivots = flips = 0
    while True:  # one round per fresh factor
        y, d = f.dual(c)
        wrong = movable & np.where(state == AT_LOWER, d > TOL, (state == AT_UPPER) & (d < -TOL))
        state[wrong] = np.where(d[wrong] > 0, AT_UPPER, AT_LOWER)
        x = f.primal(b, lower, upper, state)
        while f.age < REFACTOR_EVERY:
            xb = x[f.basis]
            below = lower[f.basis] - xb
            np.maximum(below, xb - upper[f.basis], out=violation[:-1])
            r = int(np.argmax(violation))
            candidates = []
            if violation[r] > TOL:
                # alpha_j: how fast raising x_j pushes x_B[r] back toward its
                # bound; a nonbasic variable moves only away from its own bound
                raw = f.inv[r] @ f.a
                alpha = -raw if below[r] > 0 else raw
                candidates = np.flatnonzero(movable & np.where(
                    state == AT_LOWER, alpha > PIVOT_TOL, (state == AT_UPPER) & (alpha < -PIVOT_TOL)
                ))
            if len(candidates) == 0:
                break
            if pivots >= max_iter:
                raise SimplexFailure(f"iteration limit {max_iter} exceeded")
            pivots += 1
            # flipping x_j to its other bound repairs |alpha_j| (u_j - l_j) of
            # the violation; candidates flip in ratio order (a stable sort:
            # ties by index) until the next one's span reaches what is left,
            # and that one enters.  Most pivots (69-76% on the benchmark's
            # workloads) stop at the min-ratio candidate, so it is tested
            # before any sort; the sort alone would pick the same pivot
            ratio = np.abs(d[candidates] / alpha[candidates])
            q = int(candidates[np.argmin(ratio)])
            flip = candidates[:0]
            if abs(alpha[q]) * (upper[q] - lower[q]) < violation[r]:
                order = candidates[np.argsort(ratio, kind="stable")]
                reach = np.cumsum(np.abs(alpha[order]) * (upper[order] - lower[order]))
                k = min(int(np.searchsorted(reach, violation[r])), len(order) - 1)
                flip, q = order[:k], int(order[k])
            p = f.basis[r]
            w = f.inv @ f.a[:, q]
            if len(flip):
                to_upper = state[flip] == AT_LOWER
                step = np.where(to_upper, upper[flip] - lower[flip], lower[flip] - upper[flip])
                state[flip] = np.where(to_upper, AT_UPPER, AT_LOWER)
                x[flip] = np.where(to_upper, upper[flip], lower[flip])
                x[f.basis] -= f.inv @ (f.a[:, flip] @ step)
                flips += len(flip)
            # primal step: x_q moves by t until x_p reaches the bound it
            # violated; dual step: d_q reaches zero, and each flipped d_j
            # changes sign.  Until the next fresh factor, only x of basic
            # columns and d are read, so x_p and y stay as they are.
            state[p] = AT_LOWER if below[r] > 0 else AT_UPPER
            t = (x[p] - (lower[p] if below[r] > 0 else upper[p])) / w[r]
            x[f.basis] -= t * w
            x[q] += t
            d -= d[q] / raw[q] * raw
            state[q] = BASIC
            f.pivot(r, q, w)
        if f.age == 0:
            status = LpStatus.OPTIMAL if violation[r] <= TOL else LpStatus.INFEASIBLE
            return status, x, y, d, pivots, flips
        f.refactor()


def solve_bounded_lp(problem: LpProblem, start: np.ndarray | None = None,
                     factor: _Factor | None = None) -> LpSolution:
    """Bounded dual simplex, deterministic for identical inputs.  start
    optionally gives a basis code per variable (AT_LOWER, AT_UPPER or
    BASIC, as in LpSolution.basis); where it lacks m independent basic
    columns, artificial columns stand in for its basic ones.  factor
    optionally is the LpSolution.factor of an LP with the same matrix
    whose basis is start's: the solve takes it over instead of inverting
    the start basis again."""
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
    if factor is not None:
        order = np.argsort(factor.basis)
        if factor.a is not a or not np.array_equal(factor.basis[order], basis):
            raise ValueError("factor must be of the start basis and the same matrix")
        # rows in column order, as a fresh factor has them, so that ties
        # between rows break the same way
        factor.basis, factor.inv = basis, factor.inv[order]
        f = factor
    else:
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

    status, x, y, d, pivots, flips = _dual(f, b, c, lower, upper, state, max_iter)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, iterations=pivots, flips=flips)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x[:n].copy(),
        y=y,
        reduced_costs=d[:n].copy(),
        objective=float(problem.c @ x[:n]),
        iterations=pivots,
        flips=flips,
        basis=state[:n].copy(),
        factor=f if f.a is a else None,  # not with artificial columns
    )
