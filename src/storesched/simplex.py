"""Dense bounded-variable primal simplex.

Maximizes c'x subject to A x = b and l <= x <= u (lower bounds finite,
upper bounds finite or +inf).  Two phases with artificial variables;
Dantzig pricing with a Bland's-rule fallback against cycling on the
highly degenerate storage LPs (many active bounds).  Row duals and
reduced costs are returned for KKT verification.

Desk scale only (a few hundred variables): the basis system is
refactorized every iteration, which keeps the code simple and the duals
exact to machine precision.
"""

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9


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
    horizon: int | None = None  # T when laid out as [p_chg, p_dis, soe]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = len(self.c)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match the variable count")
        if np.any(~np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
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
    iterations: int = 0


_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


def _run_phase(a, b, c, lower, upper, basis, state, tol, max_iter):
    """Iterate to optimality of max c'x over the current basis. Mutates
    basis/state; returns (status, x, y, d, iterations)."""
    m, n = a.shape
    stall = 0
    stall_limit = 5 * (n + m)
    bland = False
    last_obj = -np.inf
    x = np.where(state == _AT_UPPER, upper, lower).astype(float)

    for it in range(1, max_iter + 1):
        basis_arr = np.asarray(basis, dtype=int)
        bmat = a[:, basis_arr]
        nonbasic_mask = state != _BASIC
        x = np.where(state == _AT_UPPER, upper, lower).astype(float)
        x[basis_arr] = 0.0
        try:
            xb = np.linalg.solve(bmat, b - a @ x)
            y = np.linalg.solve(bmat.T, c[basis_arr])
        except np.linalg.LinAlgError as exc:
            raise SimplexFailure(f"singular basis at iteration {it}") from exc
        x[basis_arr] = xb
        d = c - y @ a

        obj = float(c @ x)
        if obj > last_obj + tol:
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
        incr = nonbasic_mask & (state == _AT_LOWER) & (d > tol)
        decr = nonbasic_mask & (state == _AT_UPPER) & (d < -tol)
        candidates = np.flatnonzero(incr | decr)
        if len(candidates) == 0:
            return LpStatus.OPTIMAL, x, y, d, it - 1
        if bland:
            q = int(candidates[0])
        else:
            q = int(candidates[np.argmax(np.abs(d[candidates]))])
        increasing = bool(incr[q])

        w = np.linalg.solve(bmat, a[:, q])
        # entering moves by delta >= 0 from its bound; basic values move by
        # -sign * delta * w
        sign = 1.0 if increasing else -1.0
        limit = upper[q] - lower[q]  # bound flip
        leaving = -1
        leaving_to_upper = False
        for i in range(m):
            step = -sign * w[i]
            if step > PIVOT_TOL:  # basic variable increases toward its upper bound
                if np.isfinite(upper[basis[i]]):
                    ratio = (upper[basis[i]] - xb[i]) / step
                    if ratio < limit:
                        limit, leaving, leaving_to_upper = ratio, i, True
            elif step < -PIVOT_TOL:  # decreases toward its lower bound
                ratio = (lower[basis[i]] - xb[i]) / step
                if ratio < limit:
                    limit, leaving, leaving_to_upper = ratio, i, False
        if not np.isfinite(limit):
            return LpStatus.UNBOUNDED, x, y, d, it
        limit = max(limit, 0.0)
        if leaving < 0:
            # bound flip: entering runs to its opposite bound
            state[q] = _AT_UPPER if increasing else _AT_LOWER
        else:
            out = basis[leaving]
            state[out] = _AT_UPPER if leaving_to_upper else _AT_LOWER
            basis[leaving] = q
            state[q] = _BASIC
    raise SimplexFailure(f"iteration limit {max_iter} exceeded")


def solve_bounded_lp(
    problem: LpProblem,
    tol: float = 1e-9,
    max_iter: int | None = None,
    start_basis: list | None = None,
) -> LpSolution:
    """Two-phase bounded-variable simplex.  Deterministic for identical
    inputs.  start_basis optionally names m structural variables to try
    as the initial basis; when the implied basic solution is within its
    bounds, phase 1 is skipped entirely."""
    n, m = problem.n, problem.m
    if max_iter is None:
        max_iter = 200 * (n + m) + 2000
    a = problem.a
    b = problem.rhs.copy()
    lower = problem.lower.copy()
    upper = problem.upper.copy()

    if m == 0:
        if np.any((problem.c > tol) & ~np.isfinite(upper)):
            return LpSolution(status=LpStatus.UNBOUNDED)
        x = np.where(problem.c > 0, upper, lower)
        return LpSolution(LpStatus.OPTIMAL, x, np.zeros(0), problem.c.copy(),
                          float(problem.c @ x))

    # start: structural variables at their lower bounds, artificial basis
    x0 = lower.copy()
    resid = b - a @ x0
    art_sign = np.where(resid >= 0, 1.0, -1.0)
    a_full = np.hstack([a, np.diag(art_sign)])
    lower_full = np.concatenate([lower, np.zeros(m)])
    upper_full = np.concatenate([upper, np.full(m, np.inf)])
    state = np.full(n + m, _AT_LOWER, dtype=int)

    basis = None
    it1 = 0
    if start_basis is not None and len(start_basis) == m:
        try:
            xb = np.linalg.solve(a[:, start_basis], b - a @ x0 + a[:, start_basis] @ x0[start_basis])
            within = np.all(xb >= lower[start_basis] - tol) and np.all(
                xb <= upper[start_basis] + tol
            )
        except np.linalg.LinAlgError:
            within = False
        if within:
            basis = list(start_basis)
            for j in basis:
                state[j] = _BASIC

    if basis is None:
        basis = list(range(n, n + m))
        for j in basis:
            state[j] = _BASIC
        # phase 1: drive the artificials to zero
        c1 = np.concatenate([np.zeros(n), -np.ones(m)])
        status, x, _, _, it1 = _run_phase(a_full, b, c1, lower_full, upper_full,
                                          basis, state, tol, max_iter)
        if status is not LpStatus.OPTIMAL or float(x[n:].sum()) > 1e-7:
            return LpSolution(status=LpStatus.INFEASIBLE, iterations=it1)

    # phase 2: pin artificials at zero and optimize the real objective
    upper_full[n:] = 0.0
    c2 = np.concatenate([problem.c, np.zeros(m)])
    status, x, y, d, it2 = _run_phase(a_full, b, c2, lower_full, upper_full,
                                      basis, state, tol, max_iter)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, iterations=it1 + it2)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x[:n].copy(),
        y=y.copy(),
        reduced_costs=d[:n].copy(),
        objective=float(problem.c @ x[:n]),
        iterations=it1 + it2,
    )
