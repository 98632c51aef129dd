"""Dense primal simplex from a feasible basis.

Minimizes c @ x subject to a x = b, x >= 0, from the caller's feasible
basis ``start``: one distinct column index per row, with B = a[:, start]
nonsingular and B^-1 b >= 0; a singular or infeasible start raises
NumericalError.  Each pivot refactorizes B from the original data, so
the basis cannot drift into silent singularity, and does one solve
B^T y = c_B, one product c - A^T y for the reduced costs and one
two-column solve B [x_B | d_e] = [b | a_e].  Pricing is Dantzig's
most-negative reduced cost, with the leaving row picked among
minimum-ratio rows by largest pivot element; after a long run of
degenerate pivots both choices switch to Bland's smallest-index
anti-cycling rule, which breaks any cycle, and revert once the
objective moves again.  Tolerances are 1e-9.  The result carries the
duals y of the optimal basis, so b @ duals equals the optimal value.
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
    a_t = np.ascontiguousarray(np.asarray(a, dtype=float).T)
    basis = np.array(start, dtype=int)
    iterations = degenerate_run = 0
    while True:
        b_t = a_t[basis]  # B^T, gathered row by row
        bland = degenerate_run >= _DEGENERATE_STALL
        try:
            duals = np.linalg.solve(b_t, c[basis])
            cost = c - a_t @ duals
            cost[basis] = 0.0  # basic columns never enter
            entering = _entering(cost, bland)
            # B [x_B | d_e] = [b | a_e]; d_e is unused at the optimum
            level, col = np.linalg.solve(
                b_t.T, np.column_stack([b, a_t[entering]])).T
        except np.linalg.LinAlgError as exc:
            where = "simplex" if iterations else "start"
            raise NumericalError(f"singular {where} basis: {exc}")
        if iterations == 0 and level.min() < -_TOL:
            raise NumericalError(
                f"infeasible start basis (basic level {level.min():.3e})")
        if entering < 0:
            break
        leave = _leaving(col, level, basis, bland)
        if leave < 0:
            raise NumericalError("LP is unbounded")
        step = max(level[leave], 0.0) / col[leave]
        degenerate_run = degenerate_run + 1 if step <= 1e-12 else 0
        basis[leave] = entering
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise NumericalError("simplex pivot cap exceeded")
    x = np.zeros(c.size)
    x[basis] = np.maximum(level, 0.0)
    return LpResult(x, float(c @ x), iterations, duals)
