"""Dense bounded dual simplex on one basis inverse.

Maximizes c'x subject to A x = b and l <= x <= u, every bound finite.
Returns row duals and reduced costs for KKT verification, and the final
basis as a warm start for related LPs.

The start basis is the given one when it has m independent basic
columns, else one artificial column per row, fixed at zero; the storage
LP's start rule is lp._duration_start's.  With every bound finite, any
basis is dual feasible once each nonbasic variable sits at the bound its
reduced cost prefers.  So no phase 1 is needed, and a dual pass that ends
primal feasible ends optimal.

The ratio test flips bounds (Maros 2003; Koberstein 2005): the entering
candidates are passed in order of the dual step at which their reduced
costs reach zero, and each one whose move to its other bound still leaves
the leaving row violated flips there instead of entering.  So a boxed
variable that must cross from one bound to the other costs no pivot.  A
flip is not a pivot; LpSolution counts the two apart.

Each pivot is a revised-simplex step on an explicit basis inverse: a
rank-1 product-form update of the inverse rows that the entering column
touches, and updates of x and d along the step.  The pivot row and the
entering column are products through nonzeros only: the inverse is
hypersparse (Hall & McKinnon 2005; at the refined root of an hourly
fast-storage week 1-5% of its entries are nonzero, and a pivot row has
4-16 of them on average), and a storage LP column has at most four
nonzeros.  An update stores an entry that cancels below DROP_TOL as 0
(Huangfu & Hall 2018), so the inverse stays as sparse as a fresh factor.
Each round recomputes y and d, places the nonbasic variables, recomputes
x, then makes at most RECOMPUTE_EVERY pivots.  A round on an aged factor
goes on only if its x solves a x = b within TOL times the largest bound
or right-hand side and its basic reduced costs vanish within TOL times
the largest cost, else the basis is refactored and priced again: a solve
is mostly one factorization.  A round without a pivot ends the solve;
infeasibility is declared only from a fresh factor.  A solve may take
over the final factor of an LP with the same matrix and basis, optimal or
infeasible, as it is, rows in that LP's order: a branch-and-bound tree
inverts once, at its root, unless a residual check or a proof of
infeasibility asks for a fresh factor.

A refactor peels the basis by singleton levels, the preassigned-pivot
triangularization that sparse LP codes run before any numerical LU
(Hellerman & Rarick 1971; Suhl & Suhl 1990), and LAPACK inverts only the
bump that no level takes (see _Factor).  The refined root of an hourly
fast-storage week peels completely in three levels and needs no LAPACK
call; a day-scale or slow-storage basis peels one level, the leg columns
and many powers, and leaves a chain of levels, which LAPACK inverts as
one bump.  A basis is singular when two columns of one level share a row
or the bump is singular; a singular start basis gives way to the
artificial one.

At day-ahead sizes a node LP costs what its numpy calls cost, not their
arithmetic: on 60 floats np.argmax takes about 2.2 us against 0.4 us for
ndarray.argmax, np.flatnonzero 3.7 us against 1.8 us for .nonzero()[0], and
one product of two numpy scalars 0.24 us against 0.03 us for Python floats
(numpy 2.4, one BLAS thread).  So every per-pivot, per-round and per-node
step here calls ndarray methods (argmax, nonzero, take, item, cumsum,
searchsorted) and ufuncs, ufunc reductions in place of ndarray.max and .all,
never numpy's functions written in Python, and reads a pivot's scalars once
as Python floats with .item.  test_api pins the rule.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .prices import real_column

PIVOT_TOL = 1e-9
TOL = 1e-9  # primal and dual feasibility tolerance, relative to the LP's scale
ITERS_PER_DIM = 200  # a solve may take ITERS_PER_DIM * (n + m + 10) pivots
RECOMPUTE_EVERY = 50  # pivots between two recomputations of y, d and x
# an updated inverse entry below DROP_TOL is stored as 0 (HiGHS's kHighsTiny);
# the storage LP's matrix entries are 1, -1 and -rho, all unitless
DROP_TOL = 1e-14

# basis codes, one per variable: the bound a nonbasic variable sits at, or BASIC
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2
MOVE = np.array([1.0, -1.0, 0.0])  # the way a variable of each code may move; 0 if basic


def _absmax(v):
    """The largest |v_i|, 0 if v is empty."""
    return np.maximum.reduce(np.abs(v), axis=None, initial=0.0)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class SimplexFailure(RuntimeError):
    """Internal invariant breach (iteration limit, singular basis, empty B&B tree)."""


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
            value = real_column(name, getattr(self, name))
            if not np.logical_and.reduce(np.isfinite(value), axis=None):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, value)
        n = len(self.c)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match the variable count")
        if not np.logical_and.reduce(self.lower <= self.upper):
            raise ValueError("need lower <= upper for every variable")
        if self.a.shape != (len(self.rhs), n):
            raise ValueError(f"constraint matrix shape {self.a.shape}, need ({len(self.rhs)}, {n})")
        # the primal and dual tolerances of its solves, kept by node LPs copied from it
        bound = max(_absmax(self.lower), _absmax(self.upper), _absmax(self.rhs))
        self.tols = TOL * bound, TOL * _absmax(self.c)

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
    factorizations: int = 0  # bases inverted, start included; 0 if a handed-over factor sufficed
    basis: np.ndarray | None = None  # final basis code of each structural variable
    factor: "_Factor | None" = None  # final factor of that basis, a warm start with it


class _Factor:
    """Basic columns in row order and the explicit inverse of their matrix.

    The start factor peels singleton levels.  Level 1 is the basic columns
    with one nonzero in a.  Each further level is the columns with one
    nonzero among the rows no earlier level took, each pivoting on that
    row; the columns left form the bump, and only the bump goes through
    LAPACK.  Ordered level by level, bump last, the basis matrix is block
    upper triangular: a level's column has nonzeros only on its pivot row
    and on earlier levels' rows.  So the inverse is back-substituted level
    by level, last level first: the row of the column pivoting on row r is
    (e_r - sum of a[r, c] times the inverse's row of column c) / a[r, its
    column], summed over the nonzeros of row r in later columns.  The bump's
    columns enter by one dense product with the bump's inverse (for level 1
    and a bump alone, the block formula [[D^-1, -D^-1 B12 K^-1], [0, K^-1]]),
    the later levels' through the nonzeros of their rows of the inverse.

    The peel goes on after level 1 only while a level takes at least half
    of the columns left.  The rule reads only the peel's own counts, never
    the basis's size, and needs no size threshold: levels that each halve
    what is left cost at most about twice the first, while a chain, which
    levels would peel one column at a time, stops at once and goes to
    LAPACK whole.  The basis is singular when two columns of one level
    share a row or the bump is singular (a column left empty by the levels
    lands in the bump)."""

    def __init__(self, a, basis):
        self.a = a
        # the nonzeros of a in row order, read once per matrix, and the row of
        # each column's only nonzero, or -1
        self.nz_rows, self.nz_cols = divmod((a != 0).ravel().nonzero()[0], max(a.shape[1], 1))
        self.singleton_row = np.zeros(a.shape[1], dtype=int)
        self.singleton_row[self.nz_cols] = self.nz_rows  # right where a column has one nonzero
        self.singleton_row[np.bincount(self.nz_cols, minlength=a.shape[1]) != 1] = -1
        self.basis = np.array(basis, dtype=int)
        self.factorizations = 0  # since the factor was built or a solve took it over
        self.refactor()

    def refactor(self):
        self.inv = None  # free the old inverse before allocating the new one
        a, basis, m = self.a, self.basis, len(self.basis)
        rows = self.singleton_row[basis]  # the pivot row of each peeled column, else -1
        is_single = rows >= 0
        single, kernel = is_single.nonzero()[0], (~is_single).nonzero()[0]  # basis positions
        srows = rows[single]
        taken = np.zeros(m, dtype=bool)
        taken[srows] = True
        krows = (~taken).nonzero()[0]
        if len(krows) != len(kernel):  # a row taken twice leaves K with more rows than columns
            raise SimplexFailure("singular basis: two singleton columns share a row")
        ak = a[:, basis[kernel]]
        levels = [single]  # the basis positions of each level
        bump, brows, sub = kernel, krows, ak[krows]  # what no level has taken
        while len(bump):
            nonzero = sub != 0
            is_one = np.add.reduce(nonzero, 0, dtype=np.int32) == 1
            one = is_one.nonzero()[0]
            if 2 * len(one) < len(bump):
                break
            pivot_rows = np.logical_or.reduce(nonzero[:, one], 1)
            if np.add.reduce(pivot_rows) < len(one):
                raise SimplexFailure("singular basis: two singleton columns share a row")
            rows[bump[one]] = brows[nonzero[:, one].argmax(axis=0)]
            levels.append(bump[one])
            keep, keep_r = ~is_one, ~pivot_rows
            bump, brows, sub = bump[keep], brows[keep_r], sub[keep_r][:, keep]
        try:
            kinv = np.linalg.inv(sub) if len(bump) else sub
        except np.linalg.LinAlgError as exc:
            raise SimplexFailure("singular basis") from exc
        if len(levels) > 1:
            single = (rows >= 0).nonzero()[0]
            srows, ak = rows[single], a[:, basis[bump]]
        dinv = 1.0 / a[srows, basis[single]]
        self.inv = np.zeros((m, m))
        self.inv[single, srows] = dinv
        self.inv[bump[:, None], brows] = kinv
        self.inv[single[:, None], brows] = -dinv[:, None] * (ak[srows] @ kinv)
        if len(levels) > 1:  # the nonzeros of a level's row in a later level's column
            level, level_col = np.full(m, -1), np.full(a.shape[1], -1)  # -1: bump or nonbasic
            for j, pos in enumerate(levels):
                level[pos] = j
            posr, posc = np.empty(m, dtype=int), np.empty(a.shape[1], dtype=int)
            posr[srows], posr[brows], level_col[basis] = single, bump, level
            posc[basis] = np.arange(m)
            r, c = self.nz_rows, self.nz_cols
            row_level = level[posr[r]]
            later = row_level < level_col[c]
            r, c, row_level = r[later], c[later], row_level[later]
            scale = a[r, c] / a[r, basis[posr[r]]]
            for j in range(len(levels) - 2, -1, -1):
                # inv[posr[r]] -= scale * inv[posc[c]], through the nonzeros of inv[posc[c]]
                at = row_level == j
                src = self.inv[posc[c[at]]]
                i, k = divmod(src.reshape(-1).nonzero()[0], m)
                np.add.at(self.inv.reshape(-1), posr[r[at]][i] * m + k, -scale[at][i] * src[i, k])
        self.age = 0  # pivots since the last factorization
        self.factorizations += 1

    def pivot(self, r, q, w):
        """Column q replaces the basic column of row r; w = inv @ a[:, q].
        Only entries in rows where w is nonzero and columns where inv[r] is
        nonzero change: row r is divided by w[r], and in the other rows a
        cancellation's residue below DROP_TOL is stored as 0."""
        rows, inv_r = w.nonzero()[0][:, None], self.inv[r]
        cols = inv_r.nonzero()[0]
        row = inv_r.take(cols) / w.item(r)
        new = self.inv[rows, cols] - w[rows] * row
        new[np.abs(new) < DROP_TOL] = 0.0
        self.inv[rows, cols] = new
        inv_r[cols] = row
        self.basis[r] = q
        self.age += 1

    def row(self, r):
        """The pivot row inv[r] @ a, through the nonzeros of inv[r]."""
        inv_r = self.inv[r]
        nz = inv_r.nonzero()[0]
        return inv_r.take(nz) @ self.a.take(nz, axis=0)

    def column(self, q):
        """The entering column inv @ a[:, q], through the nonzeros of a[:, q]."""
        a_q = self.a[:, q]
        rows = a_q.nonzero()[0]
        return self.inv[:, rows] @ a_q.take(rows)

    def primal(self, b, lower, upper, state):
        """Basic solution x, each nonbasic variable at its bound."""
        x, up = lower.copy(), state == AT_UPPER
        x[up] = upper[up]
        x[self.basis] = 0.0
        x[self.basis] = self.inv @ (b - self.a @ x)
        return x

    def dual(self, c):
        """Row duals y and reduced costs d."""
        y = c.take(self.basis) @ self.inv
        return y, c - y @ self.a


def _entering(raw, move, below, tol):
    """Entering candidates of a row whose x_B[r] is below its lower bound
    (below) or above its upper: raising x_j pushes x_B[r] back at rate
    alpha_j = -raw_j or raw_j, and x_j moves by move_j: alpha_j move_j > tol."""
    return (raw * move < -tol if below else raw * move > tol).nonzero()[0]


def _dual(f, b, c, lower, upper, state, max_iter, tols):
    """Bounded dual simplex: the most infeasible basic variable leaves at
    the bound it violates.  The ratio test flips bounds: the candidates are
    walked in order of the ratio |d_j / alpha_j| at which their reduced
    costs reach zero, and each one whose flip to its other bound still
    leaves the leaving row violated flips; the first whose flip would not,
    or else the last, enters.  Each round recomputes y and d, places each
    movable nonbasic variable at the bound its reduced cost prefers (after a
    pivot that only undoes rounding), then recomputes x; a round on an aged
    factor goes on only if a x - b and d_B are within tols = (ptol, dtol), else
    the basis is refactored and priced again.  A round's pass makes at most
    RECOMPUTE_EVERY pivots, each updating x_B and d.  A round without a
    pivot ends the solve.  Mutates f and state; returns
    (status, x, y, d, pivots, flips), INFEASIBLE only from a fresh factor."""
    movable, span = lower < upper, upper - lower
    ptol, dtol = tols
    violation = np.zeros(len(b) + 1)  # a zero sentinel: with no rows nothing is violated
    row_violation = violation[:-1]
    pivots = flips = 0
    while True:  # one round: y, d, placement, x, then a dual pass
        y, d = f.dual(c)
        wrong = movable & ((state == AT_LOWER) & (d > dtol) | (state == AT_UPPER) & (d < -dtol))
        state[wrong] = AT_LOWER + AT_UPPER - state[wrong]  # the other bound
        x = f.primal(b, lower, upper, state)
        # an aged factor answers only while it still solves its basis
        if f.age and (_absmax(f.a @ x - b) > ptol or _absmax(d[f.basis]) > dtol):
            f.refactor()
            continue
        # x_B and its bounds in row order; move is +1 up from lower, -1 down from upper
        xb, lb, ub = x[f.basis], lower[f.basis], upper[f.basis]
        move = MOVE[state] * movable
        start = pivots
        while pivots - start < RECOMPUTE_EVERY:
            below = lb - xb
            np.maximum(below, xb - ub, out=row_violation)
            r = int(violation.argmax())
            excess = violation.item(r)
            if excess <= ptol:
                break
            low = below.item(r) > 0  # x_B[r] violates its lower bound
            raw = f.row(r)
            candidates = _entering(raw, move, low, PIVOT_TOL)
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
            ratio = np.abs(d.take(candidates) / raw.take(candidates))
            q = candidates.item(ratio.argmin())
            flip = candidates[:0]
            if abs(raw.item(q)) * span.item(q) < excess:
                order = candidates.take(ratio.argsort(kind="stable"))
                reach = (np.abs(raw.take(order)) * span.take(order)).cumsum()
                k = min(int(reach.searchsorted(excess)), len(order) - 1)
                flip, q = order[:k], order.item(k)
            p = f.basis.item(r)
            w = f.column(q)
            if len(flip):
                xb -= f.inv @ (f.a[:, flip] @ (move[flip] * span[flip]))
                state[flip] = AT_LOWER + AT_UPPER - state[flip]
                move[flip] = -move[flip]
                flips += len(flip)
            # primal step: x_q moves by t from its bound until x_p reaches
            # the bound it violated; dual step: d_q reaches zero, and each
            # flipped d_j changes sign.  Until the next round, only x_B and
            # d are read, so the full x and y stay as they are.
            lq, uq = lower.item(q), upper.item(q)
            t = (xb.item(r) - (lb.item(r) if low else ub.item(r))) / w.item(r)
            xq = (lq if move.item(q) > 0 else uq) + t
            xb -= t * w
            xb[r], lb[r], ub[r] = xq, lq, uq
            state[p] = code = AT_LOWER if low else AT_UPPER
            move[p] = MOVE.item(code) * movable.item(p)
            state[q], move[q] = BASIC, 0.0
            d -= d.item(q) / raw.item(q) * raw
            f.pivot(r, q, w)
        if pivots > start:
            continue
        feasible = excess <= ptol
        if feasible or f.age == 0:
            return (LpStatus.OPTIMAL if feasible else LpStatus.INFEASIBLE), x, y, d, pivots, flips
        f.refactor()


def child_bound(problem, sol, j):
    """Upper bound on problem's LP optimum once x_j's upper bound drops to 0,
    its lower bound: one dual simplex step (Driebeek 1966) from the optimal
    LpSolution sol (its objective, x_j, basis codes, reduced costs d and
    final factor).  Nonbasic x_j loses d_j x_j.  Basic x_j in row r leaves
    above its new bound: along the dual ray the dual objective falls at
    rate x_j until the first entering candidate (_dual's rule, no
    tolerance) reaches d_k = 0, at min |d_k / alpha_rk|.  Each point of that
    ray is dual feasible for the child, so by weak duality it bounds the
    child's optimum.  No candidate: an aged factor proves no infeasibility."""
    basis, d, factor, xj = sol.basis, sol.reduced_costs, sol.factor, sol.x.item(j)
    if basis[j] != BASIC:
        return sol.objective - d.item(j) * xj
    raw = factor.row(int((factor.basis == j).argmax()))
    k = _entering(raw, MOVE[basis] * (problem.lower < problem.upper), False, 0.0)
    if not len(k):
        return sol.objective
    return sol.objective - xj * np.minimum.reduce(np.abs(d.take(k) / raw.take(k)))


def solve_bounded_lp(problem: LpProblem, start: np.ndarray | None = None,
                     factor: _Factor | None = None) -> LpSolution:
    """Bounded dual simplex, deterministic for identical inputs.  start
    optionally gives a basis code per variable (AT_LOWER, AT_UPPER or
    BASIC, as in LpSolution.basis); where it lacks m independent basic
    columns, artificial columns stand in for its basic ones.  factor
    optionally is the LpSolution.factor of an LP with the same matrix
    whose basis is start's, optimal or infeasible: the solve takes it over
    as it is, and changes it, instead of inverting the start basis again."""
    n, m = problem.n, problem.m
    max_iter = ITERS_PER_DIM * (n + m + 10)
    a, b, c, lower, upper = problem.a, problem.rhs, problem.c, problem.lower, problem.upper
    state = np.full(n, AT_LOWER) if start is None else np.asarray(start)
    if state.shape != (n,):
        raise ValueError("start must give one basis code per variable")
    if not np.logical_and.reduce((state == AT_LOWER) | (state == AT_UPPER) | (state == BASIC)):
        raise ValueError("start codes must be AT_LOWER, AT_UPPER or BASIC")
    state = state.astype(np.int8)
    basis = (state == BASIC).nonzero()[0]
    if factor is not None:
        # a factor's basic columns are distinct: the same count, all basic in start
        if (factor.a is not a or len(factor.basis) != len(basis)
                or not np.logical_and.reduce(state[factor.basis] == BASIC)):
            raise ValueError("factor must be of the start basis and the same matrix")
        factor.factorizations = 0
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

    status, x, y, d, pivots, flips = _dual(f, b, c, lower, upper, state, max_iter, problem.tols)
    sol = LpSolution(status, iterations=pivots, flips=flips, factorizations=f.factorizations,
                     basis=state[:n].copy(),
                     factor=f if f.a is a else None)  # not with artificial columns
    if status is LpStatus.OPTIMAL:
        sol.x, sol.y, sol.reduced_costs = x[:n].copy(), y, d[:n].copy()
        sol.objective = float(problem.c @ sol.x)
    return sol
