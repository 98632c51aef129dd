"""Lower bounds and small-dimension exact values of the maximal relative
projection constant.

The objective is pi_n(sqrt(D) S sqrt(D)) over sign matrices S and simplex
weights D.  Both searches run the alternating ascent from a list of
(S, D) starts and keep the best run.  Exhaustive search starts from one
representative per graph isomorphism class of sign matrices (the
objective is invariant under simultaneous row/column permutation) with a
fixed set of weight restarts; alternating search starts from seeded
random sign matrices and weights.  The ascent:

  (i)   P  <- Ky Fan maximizer of sqrt(D) S sqrt(D),
  (ii)  S  <- sign pattern of P with zeros replaced by +1,
  (iii) D  <- squared Perron vector of |P| when |P| is strictly positive.

Each step maximizes the same bilinear functional, so the objective never
decreases; fixed points are reported as converged.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GuardRefusal, PreconditionError
from .eigsum import kyfan_sum
from .matcore import (OrthoProjection, SignMatrix, WeightVector,
                      matrix_to_json, perron, sign_matrix_of)

EXHAUSTIVE_MAX_D = 7
_RESTART_SEED = 20240913
_RESTART_WEIGHT_FLOOR = 1e-3
_EXHAUSTIVE_MAX_ITER = 100
_ALTERNATING_MAX_ITER = 200
_VALUE_TOL = 1e-11
_FIXED_POINT_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best (S, D) pair found, with the Ky Fan maximizer P of
    sqrt(D) S sqrt(D), the objective value, and convergence data."""

    S: SignMatrix
    D: WeightVector
    value: float
    P: OrthoProjection
    iterations: int
    converged: bool
    history: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "S": matrix_to_json(self.S)["rows"],
            "D": list(map(float, self.D.w)),
            "P": matrix_to_json(self.P)["rows"],
            "iterations": self.iterations,
            "converged": self.converged,
        }


def gruenbaum_floor(n: int) -> float:
    """Strict lower bound sqrt(2/pi) * sqrt(n) on the maximal projection
    constant of order n (the Euclidean space already exceeds it)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return float(np.sqrt(2.0 / np.pi) * np.sqrt(n))


def _weighted(s: SignMatrix, w: np.ndarray) -> np.ndarray:
    sq = np.sqrt(w)
    return s.entries * sq[:, None] * sq[None, :]


def alternate_maximize(n: int, s0: SignMatrix, d0: WeightVector,
                       max_iter: int = 200) -> SearchResult:
    """Alternating ascent from (s0, d0); see the module docstring for the
    update steps.  Non-convergence within max_iter is reported via
    converged=False, never raised."""
    if not (1 <= n <= s0.d):
        raise PreconditionError(f"n={n} out of range 1..{s0.d}")
    if d0.d != s0.d:
        raise PreconditionError("weight dimension does not match sign matrix")
    if not d0.is_strictly_positive():
        raise PreconditionError("initial weights must be strictly positive")
    if max_iter < 1:
        raise PreconditionError("max_iter must be >= 1")

    s, w = s0, np.asarray(d0.w, dtype=float)
    history: list[float] = []
    prev_value = -np.inf
    converged = False
    iterations = 0
    value, p = 0.0, None
    for iterations in range(1, max_iter + 1):
        value, p = kyfan_sum(_weighted(s, w), n)
        history.append(value)
        s_next = sign_matrix_of(p)
        if p.abs_is_positive():
            _, v = perron(p.abs_entries())
            w_next = v * v
            w_next = w_next / w_next.sum()
        else:
            w_next = w
        same_signs = np.array_equal(s_next.entries, s.entries)
        same_weights = float(np.abs(w_next - w).max()) <= _FIXED_POINT_WEIGHT_TOL
        if same_signs and same_weights:
            converged = True
            break
        if abs(value - prev_value) <= _VALUE_TOL:
            converged = True
            break
        s, w, prev_value = s_next, w_next, value
    return SearchResult(s, WeightVector(w), value, p, iterations, converged,
                        tuple(history))


# ---------------------------------------------------------------------------
# Enumeration of sign matrices up to graph isomorphism.
#
# The upper triangle of S is encoded as an integer with the (0,1) slot as
# the most significant bit and bit 1 meaning entry +1; with this encoding
# integer order coincides with lexicographic order on upper-triangle sign
# vectors (-1 < +1), so the minimum over all vertex permutations is both a
# canonical form and the lexicographically smallest class member.

def _slots(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


@lru_cache(maxsize=None)
def _perm_weights(d: int) -> np.ndarray:
    """Row p holds, per source slot e, the weight 2^(L-1-target(p, e))."""
    slots = _slots(d)
    index = {slot: e for e, slot in enumerate(slots)}
    length = len(slots)
    perms = list(itertools.permutations(range(d)))
    weights = np.zeros((len(perms), length))
    for pi, sigma in enumerate(perms):
        for e, (i, j) in enumerate(slots):
            a, b = sigma[i], sigma[j]
            target = index[(a, b) if a < b else (b, a)]
            weights[pi, e] = float(2 ** (length - 1 - target))
    return weights


@lru_cache(maxsize=None)
def _canonical_reps(d: int) -> tuple[int, ...]:
    """Sorted canonical encodings, one per isomorphism class of graphs on
    d vertices.

    A mask represents its class iff no vertex permutation maps it to a
    smaller encoding, so the full space is filtered by one permutation at
    a time against a shrinking survivor set; the first few permutations
    disqualify almost everything, which keeps d = 7 (2^21 masks, 5040
    permutations) at desk scale.
    """
    length = d * (d - 1) // 2
    if length == 0:
        return (0,)
    weights = _perm_weights(d)[1:]  # identity row filters nothing
    shifts = np.arange(length - 1, -1, -1, dtype=np.uint32)
    survivors = np.arange(1 << length, dtype=np.int64)
    for row in weights:
        bits = ((survivors[None, :].astype(np.uint32) >> shifts[:, None])
                & 1).astype(float)
        images = (row @ bits).astype(np.int64)
        survivors = survivors[images >= survivors]
    return tuple(int(x) for x in survivors)


def _decode(code: int, d: int) -> SignMatrix:
    s = np.ones((d, d))
    slots = _slots(d)
    length = len(slots)
    for e, (i, j) in enumerate(slots):
        if not (code >> (length - 1 - e)) & 1:
            s[i, j] = s[j, i] = -1.0
    return SignMatrix(s)


def _floored_dirichlet(rng: np.random.Generator, d: int) -> WeightVector:
    """Flat Dirichlet draw lifted off the simplex boundary by a floor, so
    every weight is strictly positive."""
    w = rng.dirichlet(np.ones(d))
    w = (w + _RESTART_WEIGHT_FLOOR) / (1.0 + d * _RESTART_WEIGHT_FLOOR)
    return WeightVector(w / w.sum())


def restart_weights(d: int, count: int) -> list[WeightVector]:
    """Deterministic weight restarts: uniform plus count-1 strictly
    positive pseudo-random simplex points from a fixed seed."""
    rng = np.random.default_rng(_RESTART_SEED)
    uniform = WeightVector(np.full(d, 1.0 / d))
    return [uniform] + [_floored_dirichlet(rng, d) for _ in range(count - 1)]


def _best_run(n: int, starts: Iterable[tuple[SignMatrix, WeightVector]],
              max_iter: int) -> SearchResult:
    """Best ascent over the (sign matrix, weights) starts.  Only a strict
    improvement replaces the incumbent, so ties go to the earliest start."""
    best: SearchResult | None = None
    for s0, d0 in starts:
        run = alternate_maximize(n, s0, d0, max_iter=max_iter)
        if best is None or run.value > best.value:
            best = run
    return best


def exhaustive_pi(n: int, d: int, restarts: int = 5) -> SearchResult:
    """Maximize pi_n(sqrt(D) S sqrt(D)) over all sign matrices S of size d
    (one representative per isomorphism class) with the weights optimized
    per representative by restarted alternation.

    Refuses d above 7: the candidate space has 2^(d(d-1)/2) members.
    """
    if d > EXHAUSTIVE_MAX_D:
        raise GuardRefusal(
            f"exhaustive search refused for d={d}: "
            f"2^{d * (d - 1) // 2} = {2 ** (d * (d - 1) // 2)} candidate "
            f"sign matrices exceeds the d<={EXHAUSTIVE_MAX_D} guard",
            candidates=2 ** (d * (d - 1) // 2))
    if not (1 <= n <= d):
        raise PreconditionError(f"n={n} out of range 1..{d}")
    if restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    # Representatives come in ascending canonical order, which is
    # lexicographic on sign vectors, so the earliest-start tie-break of
    # _best_run picks the lexicographically smallest candidate.
    reps = [_decode(code, d) for code in _canonical_reps(d)]
    starts = itertools.product(reps, restart_weights(d, restarts))
    return _best_run(n, starts, _EXHAUSTIVE_MAX_ITER)


def alternating_pi(n: int, d: int, restarts: int = 5) -> SearchResult:
    """Maximize pi_n(sqrt(D) S sqrt(D)) by alternation from ``restarts``
    pseudo-random starts: a uniform random sign matrix of size d and
    strictly positive simplex weights, drawn from a fixed seed.

    A lower bound at any d; exhaustive_pi gives the exact value up to d = 7.
    """
    if restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    rng = np.random.default_rng(_RESTART_SEED)
    starts = []
    for _ in range(restarts):
        upper = rng.integers(0, 2, size=(d, d))
        s = np.triu(2.0 * upper - 1.0, 1)
        starts.append((SignMatrix(s + s.T + np.eye(d)),
                       _floored_dirichlet(rng, d)))
    return _best_run(n, starts, _ALTERNATING_MAX_ITER)
