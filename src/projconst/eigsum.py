"""Partial eigenvalue sums and their maximizers.

For a symmetric matrix the sum of the n largest eigenvalues equals the
maximum of Tr(A P) over rank-n orthogonal projections P, attained by the
projector onto the top-n eigenvectors.  For a general square matrix the
analogous quantity maximizes the sum of real parts over size-n eigenvalue
subsets that are closed under complex conjugation (sup over the empty
feasible set is -inf).

Also provides the equality-case diagnostic (a maximizer commutes with A)
and the spectral-gap bound lambda2/lambda1 < sqrt(n)/lambda1 -
lambda1/(2 sqrt(n)) valid once lambda1 > (sqrt(3)-1) sqrt(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .matcore import (OrthoProjection, _as_square_array, _check_rank, _eigh,
                      _kyfan)

# Classification tolerances for general spectra: eigenvalues with |Im| at
# most _REAL_AXIS_TOL count as real; a returned selection must be closed
# under conjugation within 10 * _PAIRING_TOL.
_REAL_AXIS_TOL = 1e-8
_PAIRING_TOL = 1e-8

_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class CuccSelection:
    """A size-n eigenvalue selection closed under complex conjugation."""

    indices: tuple[int, ...]
    eigenvalues: tuple[complex, ...]
    value: float

    def __post_init__(self):
        chosen = sorted(self.eigenvalues, key=lambda z: (z.real, z.imag))
        conj = sorted((z.conjugate() for z in self.eigenvalues),
                      key=lambda z: (z.real, z.imag))
        worst = max((abs(a - b) for a, b in zip(chosen, conj)), default=0.0)
        if worst > 10 * _PAIRING_TOL:
            raise NumericalError(
                f"selection not closed under conjugation (defect {worst:.3e})")


def kyfan_sum(a, n: int) -> tuple[float, OrthoProjection]:
    """Sum of the n largest eigenvalues of a symmetric matrix together
    with the maximizing projection onto the top-n eigenvectors."""
    m = _as_square_array(a, "kyfan_sum input")
    _check_rank(n, m.shape[0])
    w, p = _kyfan(m, n)
    return float(np.sum(w[:n])), OrthoProjection(p, n)


def cucc_selection(m, n: int) -> CuccSelection | None:
    """Best size-n conjugation-closed eigenvalue selection of a general
    square matrix, or None when no such selection exists.

    LAPACK's ``dgeev`` returns each complex pair of a real matrix as
    adjacent exact conjugates, positive imaginary part first.  So an
    eigenvalue with |Im| <= _REAL_AXIS_TOL is a real item, and one with
    Im > _REAL_AXIS_TOL starts a pair item whose partner is the next
    eigenvalue.  A selection of size n takes n - 2j reals and j pairs for
    some j; for a fixed j, exchanging a chosen item for a larger unchosen
    one of the same kind cannot lower the sum, so the largest items of
    each kind are optimal and only j is searched.  The value sums the
    chosen reals by index, then the chosen pairs by index, left to right.
    """
    a = _as_square_array(m, "cucc_selection input")
    _check_rank(n, a.shape[0])
    if np.array_equal(a, a.T):
        top = _eigh(a)[0][::-1][:n].copy()
        return CuccSelection(tuple(range(n)), tuple(map(complex, top)),
                             float(np.sum(top)))
    evals = np.linalg.eigvals(a)
    real = evals.real
    reals = np.flatnonzero(np.abs(evals.imag) <= _REAL_AXIS_TOL)
    pairs = np.flatnonzero(evals.imag > _REAL_AXIS_TOL)
    reals = reals[np.argsort(-real[reals], kind="stable")]
    pairs = pairs[np.argsort(-real[pairs], kind="stable")]
    top_reals = np.cumsum(np.concatenate(([0.0], real[reals])))
    top_pairs = np.cumsum(np.concatenate(([0.0],
                                          real[pairs] + real[pairs + 1])))
    totals = {j: top_reals[n - 2 * j] + top_pairs[j]
              for j in range(n // 2 + 1)
              if n - 2 * j < top_reals.size and j < top_pairs.size}
    if not totals:
        return None
    j = max(totals, key=totals.get)
    reals, pairs = np.sort(reals[:n - 2 * j]), np.sort(pairs[:j])
    value = 0.0  # a plain loop: sum() compensates from Python 3.12 on
    for x in [*real[reals], *(real[pairs] + real[pairs + 1])]:
        value += float(x)
    idx = sorted([*reals, *pairs, *(pairs + 1)])
    return CuccSelection(tuple(int(i) for i in idx),
                         tuple(complex(evals[i]) for i in idx), value)


def pi_n_general(m, n: int) -> float:
    """Maximum sum of real parts over size-n conjugation-closed eigenvalue
    subsets; -inf when no feasible subset exists.

    On (exactly) symmetric input this equals the Ky Fan sum computed from
    the same spectrum.
    """
    sel = cucc_selection(m, n)
    return -np.inf if sel is None else sel.value


@dataclass(frozen=True)
class EqualityCase:
    commutes: bool
    is_maximizer: bool


def equality_case(a, p: OrthoProjection) -> EqualityCase:
    """Diagnose whether Tr(AP) attains the Ky Fan sum and whether A and P
    commute (maximizers always commute), both within 1e-9."""
    am = _as_square_array(a, "equality_case input")
    pm = p.entries
    if am.shape != pm.shape:
        raise PreconditionError("dimension mismatch between A and P")
    commutes = float(np.abs(am @ pm - pm @ am).max()) <= _EQUALITY_TOL
    value = float(np.trace(am @ pm))
    target = float(np.sum(_eigh(am)[0][::-1][:p.n].copy()))
    return EqualityCase(commutes, abs(value - target) <= _EQUALITY_TOL)


@dataclass(frozen=True)
class GapBound:
    applicable: bool
    bound: float
    c: float


def spectral_gap_bound(p: OrthoProjection) -> GapBound:
    """Upper bound on lambda2/lambda1 for the entrywise absolute value of
    a rank-n projection with strictly positive |P|.

    Applicable once lambda1 > (sqrt(3)-1) sqrt(n); then
    0 < lambda2/lambda1 < sqrt(n)/lambda1 - lambda1/(2 sqrt(n)) < 1.
    The argument degenerates at n = 1, which is rejected.
    """
    if p.n < 2:
        raise PreconditionError("spectral gap bound requires rank n >= 2")
    if not p.abs_is_positive():
        raise PreconditionError("spectral gap bound requires positive |P|")
    lam2, lam1 = map(float, _eigh(p.abs_entries())[0][-2:])
    sqrt_n = float(np.sqrt(p.n))
    applicable = lam1 > (np.sqrt(3.0) - 1.0) * sqrt_n
    bound = sqrt_n / lam1 - lam1 / (2.0 * sqrt_n)
    return GapBound(bool(applicable), bound, lam2 / lam1)
