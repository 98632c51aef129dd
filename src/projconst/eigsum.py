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
from .matcore import (OrthoProjection, _as_square_array, _entries_of, _kyfan,
                      eig_sym)

# Classification tolerances for general spectra: eigenvalues with |Im| at
# most _REAL_AXIS_TOL count as real; conjugate partners must match within
# _PAIRING_TOL.
_REAL_AXIS_TOL = 1e-8
_PAIRING_TOL = 1e-8


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
    m = _as_square_array(_entries_of(a), "kyfan_sum input")
    d = m.shape[0]
    if not (1 <= n <= d):
        raise PreconditionError(f"n={n} out of range 1..{d}")
    w, p = _kyfan(m, n)
    return float(np.sum(w[:n])), OrthoProjection(p, n)


def _conjugate_items(evals: np.ndarray) -> list[tuple[int, float, tuple[int, ...]]]:
    """Partition eigenvalues into unit items (real) and conjugate-pair
    items; returns (size, value, indices) triples."""
    items: list[tuple[int, float, tuple[int, ...]]] = []
    pos = [i for i in range(evals.size) if evals[i].imag > _REAL_AXIS_TOL]
    neg = [i for i in range(evals.size) if evals[i].imag < -_REAL_AXIS_TOL]
    for i in range(evals.size):
        if abs(evals[i].imag) <= _REAL_AXIS_TOL:
            items.append((1, float(evals[i].real), (i,)))
    used = [False] * len(neg)
    for i in pos:
        best, best_err = -1, np.inf
        for t, j in enumerate(neg):
            if used[t]:
                continue
            err = abs(evals[i] - evals[j].conjugate())
            if err < best_err:
                best, best_err = t, err
        if best < 0 or best_err > _PAIRING_TOL:
            raise NumericalError(
                f"unpaired complex eigenvalue {evals[i]:.6g} "
                f"(best partner defect {best_err:.3e})")
        used[best] = True
        j = neg[best]
        items.append((2, float(evals[i].real + evals[j].real), (i, j)))
    if not all(used):
        raise NumericalError("conjugate pairing left negative-part residue")
    return items


def cucc_selection(m, n: int) -> CuccSelection | None:
    """Best size-n conjugation-closed eigenvalue selection of a general
    square matrix, or None when no such selection exists.

    Solved as an exact-cardinality selection over items of size 1 (real
    eigenvalues) and size 2 (conjugate pairs) by dynamic programming.
    """
    a = np.asarray(_entries_of(m), dtype=float)
    d = a.shape[0]
    if not (1 <= n <= d):
        raise PreconditionError(f"n={n} out of range 1..{d}")
    if np.array_equal(a, a.T):
        spec = eig_sym(a)
        value = float(np.sum(spec.eigenvalues[:n]))
        return CuccSelection(tuple(range(n)),
                             tuple(complex(x) for x in spec.eigenvalues[:n]),
                             value)
    evals = np.linalg.eigvals(a)
    items = _conjugate_items(evals)
    table = np.full((len(items) + 1, n + 1), -np.inf)
    take = np.zeros((len(items) + 1, n + 1), dtype=bool)
    table[0, 0] = 0.0
    for t, (size, value, _) in enumerate(items, start=1):
        for k in range(n + 1):
            table[t, k] = table[t - 1, k]
            if k >= size and table[t - 1, k - size] + value > table[t, k]:
                table[t, k] = table[t - 1, k - size] + value
                take[t, k] = True
    if not np.isfinite(table[len(items), n]):
        return None
    idx: list[int] = []
    k = n
    for t in range(len(items), 0, -1):
        if take[t, k]:
            size, _, ind = items[t - 1]
            idx.extend(ind)
            k -= size
    idx.sort()
    return CuccSelection(tuple(idx),
                         tuple(complex(evals[i]) for i in idx),
                         float(table[len(items), n]))


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


def equality_case(a, p: OrthoProjection, tol: float = 1e-9) -> EqualityCase:
    """Diagnose whether Tr(AP) attains the Ky Fan sum and whether A and P
    commute (maximizers always commute)."""
    am = _entries_of(a)
    pm = p.entries
    if am.shape != pm.shape:
        raise PreconditionError("dimension mismatch between A and P")
    commutes = float(np.abs(am @ pm - pm @ am).max()) <= tol
    value = float(np.trace(am @ pm))
    target = float(np.sum(eig_sym(am).eigenvalues[:p.n]))
    return EqualityCase(commutes, abs(value - target) <= tol)


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
    absp = p.abs_entries()
    if not np.all(absp > 0):
        raise PreconditionError("spectral gap bound requires positive |P|")
    evals = eig_sym(absp).eigenvalues
    lam1, lam2 = float(evals[0]), float(evals[1])
    sqrt_n = float(np.sqrt(p.n))
    applicable = lam1 > (np.sqrt(3.0) - 1.0) * sqrt_n
    bound = sqrt_n / lam1 - lam1 / (2.0 * sqrt_n)
    return GapBound(bool(applicable), bound, lam2 / lam1)
