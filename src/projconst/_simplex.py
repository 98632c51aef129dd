"""Dense primal simplex from a feasible basis.

Minimizes c @ x subject to a x = b, x >= 0, from the caller's feasible
basis ``start``: one distinct column index per row, with B = a[:, start]
nonsingular and B^-1 b >= 0; a singular or infeasible start raises
NumericalError.  A pivot only swaps the basis, and the tableau is then
refactorized from the original data, so pivot decisions always see
fresh numbers and the basis cannot drift into silent singularity.
Pricing is Dantzig's most-negative reduced cost, with the leaving row
picked among minimum-ratio rows by largest pivot element; after a long
run of degenerate pivots both choices switch to Bland's smallest-index
anti-cycling rule, which breaks any cycle, and revert once the
objective moves again.  Tolerances are 1e-9.  The result carries the
row duals c_B B^-1 of the optimal basis, so b @ duals equals the
optimal value.
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


def _leaving(t: np.ndarray, basis: np.ndarray, entering: int,
             bland: bool) -> int:
    col = t[:, entering]
    eligible = np.nonzero(col > _TOL)[0]
    if eligible.size == 0:
        return -1
    ratios = np.maximum(t[eligible, -1], 0.0) / col[eligible]
    ties = eligible[ratios <= ratios.min() + _TOL]
    if bland:
        return int(ties[np.argmin(basis[ties])])
    return int(ties[np.argmax(col[ties])])


def solve_lp(c, a, b, start) -> LpResult:
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    basis = np.array(start, dtype=int)
    body = np.column_stack([a, np.asarray(b, dtype=float)])
    iterations = degenerate_run = 0
    while True:
        try:
            t = np.linalg.solve(a[:, basis], body)
        except np.linalg.LinAlgError as exc:
            where = "simplex" if iterations else "start"
            raise NumericalError(f"singular {where} basis: {exc}")
        if iterations == 0 and t[:, -1].min() < -_TOL:
            raise NumericalError(
                f"infeasible start basis (basic level {t[:, -1].min():.3e})")
        cost = np.append(c, 0.0) - c[basis] @ t
        cost[basis] = 0.0  # basic columns never enter
        bland = degenerate_run >= _DEGENERATE_STALL
        entering = _entering(cost[:-1], bland)
        if entering < 0:
            break
        leave = _leaving(t, basis, entering, bland)
        if leave < 0:
            raise NumericalError("LP is unbounded")
        step = max(t[leave, -1], 0.0) / t[leave, entering]
        degenerate_run = degenerate_run + 1 if step <= 1e-12 else 0
        basis[leave] = entering
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise NumericalError("simplex pivot cap exceeded")
    x = np.zeros(c.size)
    x[basis] = np.maximum(t[:, -1], 0.0)
    duals = np.linalg.solve(a[:, basis].T, c[basis])
    return LpResult(x, float(c @ x), iterations, duals)
