"""Simultaneous rational approximation of Perron weights.

Dirichlet's theorem guarantees, for any target quality k, a denominator
q < k^(m-1) with |q * w_i - round(q * w_i)| <= 1/k for the first m-1
weights.  The smallest such q is found by a scan over chunks of q whose
size doubles from 2^8 to 2^17, so a small q costs a small chunk; when the
cap runs out, ResourceExhausted reports the first q of least error.  The last
multiplicity is defined residually so the p_i sum to q exactly.  The
resulting multiplicities feed the blow-up construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceExhausted
from .matcore import _int_sqrt

DEFAULT_Q_CAP = 10**6
_FIRST_CHUNK = 1 << 8
_SCAN_CHUNK = 1 << 17


@dataclass(frozen=True)
class RationalWeights:
    """Positive integer multiplicities p with sum q approximating a weight
    vector to quality 1/k (on the first m-1 coordinates)."""

    p: tuple[int, ...]
    q: int
    k: int
    max_err: float    # max_i |w_i - p_i/q| over i < m
    total_err: float  # sum_i |w_i - p_i/q| over all i

    def __post_init__(self):
        if sum(self.p) != self.q:
            raise PreconditionError("multiplicities must sum to q")
        if any(x < 1 for x in self.p):
            raise PreconditionError("multiplicities must be >= 1")


def choose_k(n: int, m: int, eps: float, eps0: float) -> int:
    """Smallest integer k strictly above 4 (m-1) sqrt(n) / (eps * eps0).

    sqrt(n) is a valid upper bound for the maximal projection constant of
    order n, which makes the quality parameter computable.
    """
    if n < 1 or m < 1:
        raise PreconditionError("n and m must be positive")
    if not all(math.isfinite(x) and x > 0 for x in (eps, eps0)):
        raise PreconditionError("eps and eps0 must be finite and positive")
    denom = eps * eps0
    bound = 4.0 * (m - 1) * _int_sqrt(n, "n") / denom if denom else math.inf
    if not math.isfinite(bound):
        raise PreconditionError(
            f"eps * eps0 = {denom!r} is too small for a finite k")
    return max(1, int(math.floor(bound)) + 1)


def dirichlet_approx(weights, k: int, q_cap: int | None = None) -> RationalWeights:
    """Smallest denominator q <= q_cap with
    max_{i<m} |q w_i - round(q w_i)| <= 1/k, together with the rounded
    multiplicities (the last one residual).

    Ties in round() go to even.  Raises ResourceExhausted (reporting the
    best q seen) when the cap runs out, and a precondition error when some
    multiplicity comes out nonpositive, which signals that k is too small
    for these weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise PreconditionError("weights must be a nonempty vector")
    if not np.all(np.isfinite(w)):
        raise PreconditionError("weights must be finite")
    if np.any(w <= 0):
        raise PreconditionError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise PreconditionError("weights must sum to one within 1e-12")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k >= 2**1024 - 2**970:  # the scan's threshold 1.0 / k needs float(k)
        raise PreconditionError("k must round to a finite float")
    m = w.size
    if q_cap is None:
        q_cap = min(k ** (m - 1), DEFAULT_Q_CAP)
    q_cap = int(q_cap)
    if q_cap < 1:
        raise PreconditionError("q_cap must be >= 1")

    head = w[:-1]
    best = (np.inf, 0)  # (error, q) of the first least error
    lo, size = 1, _FIRST_CHUNK
    while lo <= q_cap:
        hi = min(lo + size, q_cap + 1)
        qs = np.arange(lo, hi, dtype=float)
        lo, size = hi, min(2 * size, _SCAN_CHUNK)
        prod = qs[:, None] * head[None, :]
        errs = np.abs(prod - np.round(prod)).max(axis=1, initial=0.0)
        hit = np.flatnonzero(errs <= 1.0 / k)
        if hit.size:
            q = int(qs[hit[0]])
            break
        i = int(np.argmin(errs))
        best = min(best, (float(errs[i]), int(qs[i])))
    else:
        raise ResourceExhausted(
            f"no q <= {q_cap} reaches quality 1/{k} "
            f"(best q={best[1]} with error {best[0]!r})")

    p_head = [int(x) for x in np.round(q * head)]
    p_last = q - sum(p_head)
    p = tuple(p_head + [p_last])
    if any(x < 1 for x in p):
        raise PreconditionError(
            f"rounded multiplicity nonpositive at q={q}: {p} "
            "(k too small for these weights)")
    approx = np.asarray(p, dtype=float) / q
    max_err = float(np.abs(head - approx[:-1]).max(initial=0.0))
    total_err = float(np.abs(w - approx).sum())
    return RationalWeights(p, q, k, max_err, total_err)
