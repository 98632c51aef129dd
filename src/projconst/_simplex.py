"""Dense primal simplex from a feasible basis.

Minimizes c @ x subject to a x = b, x >= 0, from the caller's feasible
basis ``start``: one distinct column index per row, with B = a[:, start]
nonsingular and B^-1 b >= 0.  The simplex keeps B^-1 explicitly and
updates it by one rank-one (product-form) step per pivot.  It factorizes
B afresh from the original data at the start, every 64 pivots and
whenever the updated inverse prices no column negative; it stops only
when a fresh factorization prices none negative, so the reported x and
duals always come from one.  A fresh factorization that is singular, or
that has a basic level below -1e-9, raises NumericalError.
Each pivot forms the duals y = c_B B^-1, the reduced costs c - A^T y and
[x_B | d_e] = B^-1 [b | a_e] by products with B^-1.  Pricing is Dantzig's
most-negative reduced cost, with the leaving row picked among
minimum-ratio rows by largest pivot element; after a long run of
degenerate pivots both choices switch to Bland's smallest-index
anti-cycling rule, which breaks any cycle, and revert once the
objective moves again.  Tolerances are 1e-9; more than 200,000 pivots
raise ResourceExhausted.  The result carries the duals y of the optimal
basis, so b @ duals equals the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceExhausted

_TOL = 1e-9
_MAX_PIVOTS = 200_000
_DEGENERATE_STALL = 64  # consecutive zero-step pivots before Bland mode
_REFACTOR_EVERY = 64  # pivots between fresh factorizations of B


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    value: float
    iterations: int
    duals: np.ndarray
    refactorizations: int


def _entering(cost: np.ndarray, bland: bool) -> int:
    candidates = np.nonzero(cost < -_TOL)[0]
    if candidates.size == 0:
        return -1
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(cost[candidates])])


def _leaving(col: np.ndarray, level: np.ndarray, basis: np.ndarray,
             bland: bool) -> int:
    eligible = np.nonzero(col > _TOL)[0]
    if eligible.size == 0:
        return -1
    ratios = np.maximum(level[eligible], 0.0) / col[eligible]
    ties = eligible[ratios <= ratios.min() + _TOL]
    if bland:
        return int(ties[np.argmin(basis[ties])])
    return int(ties[np.argmax(col[ties])])


def solve_lp(c, a, b, start) -> LpResult:
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    a_t = np.ascontiguousarray(np.asarray(a, dtype=float).T)
    basis = np.array(start, dtype=int)
    iterations = degenerate_run = refactorizations = 0
    stale = _REFACTOR_EVERY  # pivots since B^-1 was factorized; due now
    while True:
        where = "simplex" if iterations else "start"
        if stale == _REFACTOR_EVERY:
            try:
                binv = np.linalg.inv(a_t[basis].T)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular {where} basis: {exc}")
            refactorizations += 1
            stale = 0
        bland = degenerate_run >= _DEGENERATE_STALL
        duals = c[basis] @ binv
        cost = c - a_t @ duals
        cost[basis] = 0.0  # basic columns never enter
        entering = _entering(cost, bland)
        level = binv @ b
        if stale == 0 and level.min() < -_TOL:
            raise NumericalError(
                f"infeasible {where} basis (basic level {level.min():.3e})")
        if entering < 0:
            if stale == 0:
                break
            stale = _REFACTOR_EVERY  # confirm the optimum on a fresh B^-1
            continue
        col = binv @ a_t[entering]
        leave = _leaving(col, level, basis, bland)
        if leave < 0:
            raise NumericalError("LP is unbounded")
        step = max(level[leave], 0.0) / col[leave]
        degenerate_run = degenerate_run + 1 if step <= 1e-12 else 0
        # B^-1 <- E B^-1 with the eta matrix E that maps col to e_leave
        pivot_row = binv[leave] / col[leave]
        col[leave] -= 1.0
        binv -= np.outer(col, pivot_row)
        basis[leave] = entering
        iterations += 1
        stale += 1
        if iterations > _MAX_PIVOTS:
            raise ResourceExhausted("simplex pivot cap exceeded")
    x = np.zeros(c.size)
    x[basis] = np.maximum(level, 0.0)
    return LpResult(x, float(c @ x), iterations, duals, refactorizations)
