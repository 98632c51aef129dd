"""Dense two-phase primal simplex.

Minimizes c @ x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0.  A
pivot only swaps the basis; the tableau is then refactorized from the
original data, so pivot decisions always see fresh numbers and the basis
cannot drift into silent singularity.  Default pricing is Dantzig's
most-negative reduced cost with the leaving row picked among
minimum-ratio rows by largest pivot element; after a long run of
degenerate pivots both choices switch to Bland's smallest-index
anti-cycling rule, whose finiteness guarantee breaks any cycle, and
revert once the objective moves again.  Feasibility and optimality
tolerances are 1e-9.

A caller that knows a feasible basis passes it as ``start``: one distinct
column index per row, counted over the structural columns followed by
one slack per inequality row.  The solver then skips the artificials
and phase 1 and runs phase 2 from there; a singular or infeasible start
raises NumericalError.  The result carries the row duals c_B B^-1 of
the optimal basis in the caller's row signs, so they are <= 0 on the
inequality rows and b @ duals equals the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_TOL = 1e-9
_MAX_PIVOTS = 200_000
_DEGENERATE_STALL = 64  # consecutive zero-step pivots before Bland mode


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    value: float
    iterations: int
    duals: np.ndarray


class _Tableau:
    """Pivoting state over fixed column data (including artificials)."""

    def __init__(self, columns: np.ndarray, rhs: np.ndarray,
                 basis: np.ndarray):
        self.columns = columns          # m x N, immutable
        self.rhs = rhs                  # m, immutable, >= 0
        self.basis = basis.copy()
        self.in_basis = np.zeros(columns.shape[1], dtype=bool)
        self.in_basis[basis] = True
        self.t: np.ndarray | None = None
        self.cost: np.ndarray | None = None

    def refactor(self, cost_full: np.ndarray) -> None:
        b = self.columns[:, self.basis]
        try:
            body = np.linalg.solve(b, np.column_stack([self.columns,
                                                       self.rhs]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular simplex basis: {exc}")
        self.t = body
        cb = cost_full[self.basis]
        self.cost = np.concatenate([cost_full, [0.0]]) - cb @ body

    def objective(self) -> float:
        return float(-self.cost[-1])

    def solution(self, nvars: int) -> np.ndarray:
        x = np.zeros(self.columns.shape[1])
        x[self.basis] = np.maximum(self.t[:, -1], 0.0)
        return x[:nvars]

    def pivot(self, row: int, col: int, cost_full: np.ndarray) -> None:
        self.in_basis[self.basis[row]] = False
        self.in_basis[col] = True
        self.basis[row] = col
        self.refactor(cost_full)


def _entering(tab: _Tableau, ncols: int, bland: bool) -> int:
    cost = tab.cost[:ncols]
    candidates = np.nonzero((cost < -_TOL) & ~tab.in_basis[:ncols])[0]
    if candidates.size == 0:
        return -1
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(cost[candidates])])


def _leaving(tab: _Tableau, entering: int, bland: bool) -> int:
    col = tab.t[:, entering]
    rhs = tab.t[:, -1]
    eligible = np.nonzero(col > _TOL)[0]
    if eligible.size == 0:
        return -1
    ratios = np.maximum(rhs[eligible], 0.0) / col[eligible]
    theta = ratios.min()
    ties = eligible[ratios <= theta + _TOL]
    if bland:
        return int(ties[np.argmin(tab.basis[ties])])
    return int(ties[np.argmax(col[ties])])


def _run_phase(tab: _Tableau, cost_full: np.ndarray, ncols: int,
               iterations: int) -> int:
    tab.refactor(cost_full)
    degenerate_run = 0
    while True:
        bland = degenerate_run >= _DEGENERATE_STALL
        entering = _entering(tab, ncols, bland)
        if entering < 0:
            return iterations
        leave = _leaving(tab, entering, bland)
        if leave < 0:
            raise NumericalError("LP is unbounded")
        step = max(tab.t[leave, -1], 0.0) / tab.t[leave, entering]
        degenerate_run = degenerate_run + 1 if step <= 1e-12 else 0
        tab.pivot(leave, entering, cost_full)
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise NumericalError("simplex pivot cap exceeded")


def _feasible_start(a: np.ndarray, b: np.ndarray, start) -> _Tableau:
    start = np.asarray(start, dtype=int)
    try:
        level = np.linalg.solve(a[:, start], b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular start basis: {exc}")
    if level.min() < -_TOL:
        raise NumericalError(
            f"infeasible start basis (basic level {level.min():.3e})")
    return _Tableau(a, b, start)


def solve_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
             start=None) -> LpResult:
    c = np.asarray(c, dtype=float)
    nvars = c.size
    rows_a, rhs_parts = [], []
    if a_eq is not None and len(np.atleast_2d(a_eq)):
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        rows_a.append(a_eq)
        rhs_parts.append(np.asarray(b_eq, dtype=float))
        n_eq = a_eq.shape[0]
    else:
        n_eq = 0
    if a_ub is not None and len(np.atleast_2d(a_ub)):
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        rows_a.append(a_ub)
        rhs_parts.append(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
    else:
        n_ub = 0
    if not rows_a:
        raise NumericalError("LP without constraints")
    a = np.vstack(rows_a)
    b = np.concatenate(rhs_parts)
    m = a.shape[0]

    # Slack columns turn the inequality block into equalities.
    slack = np.zeros((m, n_ub))
    if n_ub:
        slack[n_eq:, :] = np.eye(n_ub)
    a = np.hstack([a, slack])
    ncols = nvars + n_ub

    neg = b < 0
    a[neg] *= -1.0
    b = np.where(neg, -b, b)

    if start is None:
        # Crash basis: a slack with +1 coefficient starts basic wherever
        # its inequality row kept its sign; artificials cover equality
        # rows and sign-flipped rows, and phase 1 minimizes their sum.
        columns = np.hstack([a, np.eye(m)])
        crash = np.empty(m, dtype=int)
        for i in range(m):
            if i >= n_eq and not neg[i]:
                crash[i] = nvars + (i - n_eq)
            else:
                crash[i] = ncols + i
        tab = _Tableau(columns, b, crash)
        phase1_cost = np.zeros(ncols + m)
        phase1_cost[ncols:] = 1.0
        iterations = _run_phase(tab, phase1_cost, ncols + m, 0)
        if tab.objective() > 1e-7:
            raise NumericalError(
                f"LP infeasible (phase-1 objective {tab.objective():.3e})")

        # Drive artificials out of the basis; unremovable ones sit in
        # redundant rows at level zero and stay priced out of phase 2.
        for i in range(m):
            if tab.basis[i] >= ncols:
                row = tab.t[i, :ncols]
                free = np.nonzero((np.abs(row) > 1e-7)
                                  & ~tab.in_basis[:ncols])[0]
                if free.size:
                    tab.pivot(i, int(free[0]), phase1_cost)
    else:
        tab, iterations = _feasible_start(a, b, start), 0

    cost = np.zeros(tab.columns.shape[1])
    cost[:nvars] = c
    iterations = _run_phase(tab, cost, ncols, iterations)
    x = tab.solution(nvars)
    duals = np.linalg.solve(tab.columns[:, tab.basis].T, cost[tab.basis])
    duals[neg] *= -1.0
    return LpResult(x, float(c @ x), iterations, duals)
