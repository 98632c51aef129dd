"""Lower bounds and small-dimension exact values of the maximal relative
projection constant.

The objective is pi_n(sqrt(D) S sqrt(D)) over sign matrices S and simplex
weights D.  Both searches run the alternating ascent from a list of
(S, D) starts and keep the best run.  The objective is invariant under
simultaneous row/column permutation and under Seidel switching
S -> ESE with E diagonal +-1: sqrt(D) ESE sqrt(D) = E sqrt(D) S sqrt(D) E
has the same spectrum, its maximizer is EPE, and |EPE| = |P| has the
same Perron weights.  Exhaustive search therefore starts once per
two-graph (switching class up to permutation) on d vertices, from a sign
matrix whose row and column 0 are all +1 and whose lower (d-1) x (d-1)
block is the smallest canonical graph on d - 1 vertices left by switching
one vertex's row to +1 and deleting that vertex, with a fixed set of
weight restarts; alternating search starts from seeded random sign
matrices and weights.  The ascent:

  (i)   P  <- Ky Fan maximizer of sqrt(D) S sqrt(D),
  (ii)  S  <- sign pattern of P with zeros replaced by +1,
  (iii) D  <- squared Perron vector of |P| when |P| is strictly positive.

Each step maximizes the same bilinear functional, so the objective never
decreases; fixed points are reported as converged.

One batched kernel, ``_ascend``, runs the ascent for all B starts of a
search at once: the signs are a (B, d, d) stack and the weights a (B, d)
stack, plain arrays.  An iteration makes one batched Ky Fan step, one
batched Perron-weight step on the lanes whose value did not stall and
whose |P| is strictly positive (a stalled lane stops with the weights
it stepped from, so it never reads the Perron step), and a vectorized
sign update; lanes that converge leave the batch.  Both
steps are matcore's ``_kyfan`` and ``_perron_weights``, which kyfan_sum
and the almost-minimal pipeline apply to one matrix, and every lane gets
the same bits as its start run alone, so results do not depend on the
batch.  ``alternate_maximize`` is the kernel at B = 1.

Validation happens once, at the boundary: the kernel trusts its
callers, ``alternate_maximize`` checks the start it is given, the
drivers check n and restarts before they draw starts that are valid by
construction, and the lane a search returns becomes a ``SearchResult``
through the ``SignMatrix``, ``WeightVector`` and ``OrthoProjection``
constructors.  The iterates in between are plain arrays, unchecked,
except that a failed Perron solve raises ``NumericalError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .matcore import (SIGN_ZERO_TOL, OrthoProjection, SignMatrix, WeightVector,
                      _check_entries, _check_rank, _int_sqrt, _kyfan,
                      _perron_weights, _signs, matrix_to_json)

_RESTART_SEED = 20240913
_RESTART_WEIGHT_FLOOR = 1e-3
_EXHAUSTIVE_MAX_ITER = 100
_ALTERNATING_MAX_ITER = 200
_VALUE_TOL = 1e-11
_FIXED_POINT_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SearchResult:
    """The (S, D) pair the best run last stepped from, with the Ky Fan
    maximizer P of sqrt(D) S sqrt(D), its objective value, iteration count
    and convergence flag.  Value and P belong to this (S, D) whether the
    run converged (reached a fixed point or stopped improving) or ran out
    of iterations."""

    S: SignMatrix
    D: WeightVector
    value: float
    P: OrthoProjection
    iterations: int
    converged: bool
    # Counted over every start of the search that produced this result.
    runs: int
    ascent_iterations: int
    nonconverged: int

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
    return math.sqrt(2.0 / math.pi) * _int_sqrt(n, "n")


def etf_bound(n: int, d: int) -> float:
    """Upper bound n/d + sqrt(n(d-1)(d-n))/d on Pi(n, d), attained exactly
    when d equiangular unit vectors form a tight frame of R^n (Koenig,
    Lewis and Lin 1983)."""
    _check_rank(n, d)
    return n / d + _int_sqrt(n * (d - 1) * (d - n), "n(d-1)(d-n)") / d


def alternate_maximize(n: int, s0: SignMatrix,
                       d0: WeightVector) -> SearchResult:
    """Alternating ascent from (s0, d0); see the module docstring for the
    update steps.  Non-convergence within 200 iterations is reported via
    converged=False, never raised."""
    _check_rank(n, s0.d)
    if d0.d != s0.d:
        raise PreconditionError("weight dimension does not match sign matrix")
    if not np.all(d0.w > 0):
        raise PreconditionError("initial weights must be strictly positive")
    return _ascend(n, s0.entries[None], d0.w[None],
                   _ALTERNATING_MAX_ITER).result(0)


class _Lanes(NamedTuple):
    """Per-lane outcome of :func:`_ascend`: the (S, D) of the last step,
    its value and maximizer P, its iteration count and convergence."""

    n: int
    value: np.ndarray        # (B,)
    s: np.ndarray            # (B, d, d)
    w: np.ndarray            # (B, d)
    p: np.ndarray            # (B, d, d)
    iterations: np.ndarray   # (B,)
    converged: np.ndarray    # (B,)

    def result(self, i: int) -> SearchResult:
        """Lane i as a checked result, with the counters of all lanes."""
        return SearchResult(
            SignMatrix(self.s[i]), WeightVector(self.w[i]),
            float(self.value[i]), OrthoProjection(self.p[i], self.n),
            int(self.iterations[i]), bool(self.converged[i]),
            runs=len(self.value), ascent_iterations=int(self.iterations.sum()),
            nonconverged=int(np.count_nonzero(~self.converged)))

    def best(self) -> SearchResult:
        """The first lane of maximal value, so ties go to the earliest."""
        return self.result(int(np.argmax(self.value)))


def _ascend(n: int, s: np.ndarray, w: np.ndarray, max_iter: int) -> _Lanes:
    """Run the alternating ascent from every lane of the (B, d, d) sign
    stack ``s`` and the (B, d) weight stack ``w`` together.

    Each iteration takes one batched step for the lanes still running
    and drops those that reached a fixed point or stopped improving.
    The steps are the stack steps of kyfan_sum, sign_matrix_of and the
    pipeline's Perron weights, so every lane gets the bits it gets alone.
    The kernel checks nothing: its callers pass 1 <= n <= d, strictly
    positive weights and max_iter >= 1, and each lane is checked as it
    becomes a SearchResult.
    """
    b, d = s.shape[0], s.shape[-1]
    out = _Lanes(n, np.empty(b), np.empty((b, d, d)), np.empty((b, d)),
                 np.empty((b, d, d)), np.zeros(b, int), np.zeros(b, bool))
    lanes = np.arange(b)
    prev = np.full(b, -np.inf)
    for it in range(max_iter):
        sq = np.sqrt(w)
        evals, p = _kyfan(s * sq[:, :, None] * sq[:, None, :], n)
        value = evals[:, :n].sum(axis=1)

        s_next = _signs(p, SIGN_ZERO_TOL)
        # A stalled lane stops here with w, so it takes no Perron step.
        stalled = np.abs(value - prev) <= _VALUE_TOL
        a = np.abs(p)
        step = ~stalled & np.all(a > SIGN_ZERO_TOL, axis=(1, 2))
        w_next = w.copy()
        w_next[step] = _perron_weights(a[step])

        fixed = (np.all(s_next == s, axis=(1, 2))
                 & (np.abs(w_next - w).max(axis=1)
                    <= _FIXED_POINT_WEIGHT_TOL))
        done = fixed | stalled
        stop = done | (it == max_iter - 1)
        # Every stopping lane reports the (S, D) it stepped from, the one
        # its value and P belong to.
        fin = lanes[stop]
        out.value[fin] = value[stop]
        out.s[fin] = s[stop]
        out.w[fin] = w[stop]
        out.p[fin] = p[stop]
        out.iterations[fin] = it + 1
        out.converged[fin] = done[stop]

        go = ~stop
        lanes, s, w, prev = lanes[go], s_next[go], w_next[go], value[go]
        if not lanes.size:
            break
    return out


# ---------------------------------------------------------------------------
# Enumeration of sign matrices up to graph isomorphism and switching.
#
# The upper triangle of S is encoded as an integer with the (0,1) slot as
# the most significant bit and bit 1 meaning entry +1; with this encoding
# integer order coincides with lexicographic order on upper-triangle sign
# vectors (-1 < +1), so the minimum over all vertex permutations is both a
# canonical form and the lexicographically smallest class member.
#
# A vertex permutation moves each bit of a code to another bit, so it maps
# codes to codes through integer lookups: split the code into 7-bit chunks
# and OR together one 128-entry table per chunk.  At d = 7 that is three
# tables per permutation, about 8 MB of int32 for all 5039 non-identity
# permutations, and codes stay int32 up to d = 8.  Exhaustive search at
# d needs the tables and graph classes of d - 1 vertices only, each built
# once per process and shared by the graph-class and two-graph filters.

_CHUNK_BITS = 7
# Entries of the (permutations x survivors) image block filtered at once.
_IMAGE_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _image_tables(d: int) -> np.ndarray:
    """Read-only (d! - 1, chunks, 128) int32 tables, one row per vertex
    permutation but the identity, most fixed points first.  Entry c of
    table k is the image of the code whose chunk k holds c, the others 0."""
    slots = np.transpose(np.triu_indices(d, 1))
    length = len(slots)
    index = np.zeros((d, d), dtype=np.int64)
    index[slots[:, 0], slots[:, 1]] = np.arange(length)
    index += index.T
    perms = np.array(list(itertools.permutations(range(d))), dtype=int)
    fixed = np.count_nonzero(perms == np.arange(d), axis=1)
    perms = perms[np.argsort(-fixed, kind="stable")[1:]]  # identity first
    # Slot e sits at bit length-1-e; weight[p, b] is the image of bit b.
    target = index[perms[:, slots[:, 0]], perms[:, slots[:, 1]]]
    chunks = -(-length // _CHUNK_BITS)
    weight = np.zeros((len(perms), chunks * _CHUNK_BITS), dtype=np.int32)
    weight[:, :length] = (1 << (length - 1 - target))[:, ::-1]
    weight = weight.reshape(len(perms), chunks, _CHUNK_BITS)
    tables = np.zeros((len(perms), chunks, 1 << _CHUNK_BITS), dtype=np.int32)
    for t in range(_CHUNK_BITS):  # entry c + 2^t is entry c | image of t
        tables[..., 1 << t:2 << t] = (tables[..., :1 << t]
                                      | weight[..., t, None])
    tables.flags.writeable = False
    return tables


def _survivors(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The rows of the (K, G) code array ``codes``, in order, that no
    vertex permutation, the identity included, maps to a code below the
    row's first code.

    The permutations are the rows of ``tables`` (see _image_tables), taken
    in order and filtered against the surviving rows in turn.  A step
    takes max(1, _IMAGE_BLOCK // codes.size) permutations, which keeps the
    image block near _IMAGE_BLOCK = 2^16 entries: one at a time while
    more than 2^15 codes survive, more as the survivors thin out.  The
    order and grouping cannot change the result.
    """
    codes = codes[codes.min(axis=1) >= codes[:, 0]]
    mask = (1 << _CHUNK_BITS) - 1
    start = 0
    while start < len(tables) and codes.size:
        block = tables[start:start + max(1, _IMAGE_BLOCK // codes.size)]
        start += len(block)
        images = block[:, 0, codes & mask]
        for k in range(1, block.shape[1]):
            images |= block[:, k, (codes >> k * _CHUNK_BITS) & mask]
        codes = codes[images.min(axis=(0, 2)) >= codes[:, 0]]
    return codes


@lru_cache(maxsize=None)
def _canonical_reps(d: int) -> tuple[int, ...]:
    """Sorted canonical encodings, one per isomorphism class of graphs on
    d vertices.

    All 2^(d(d-1)/2) codes are filtered against the permutations, the
    ones with the most fixed points first: the d(d-1)/2 transpositions
    leave about 3,000 of the 2^21 codes at d = 7.  From d = 8 on the
    codes exceed the entry budget: ResourceExhausted before allocating,
    decided on the exponent, so a refusal builds nothing at any d.
    """
    length = d * (d - 1) // 2
    _check_entries(1 << min(length, 25),
                   f"search refused: the 2^{length} codes of the graphs on "
                   f"{d} vertices")
    codes = np.arange(1 << length, dtype=np.int32)[:, None]
    return tuple(map(int, _survivors(_image_tables(d), codes)[:, 0]))


@lru_cache(maxsize=None)
def _two_graph_reps(d: int) -> tuple[int, ...]:
    """Sorted lower-block codes on d - 1 vertices, one per two-graph
    (switching class of sign matrices) on d vertices.

    A sign matrix with row 0 all +1 and a canonical lower block L is
    kept iff L is the smallest key of its two-graph.  Switching row v to
    +1 and deleting v gives a graph on d - 1 vertices for each vertex v;
    v = 0 gives L itself, so the start is kept iff no permutation maps
    the graph of any v below L.  Both filters share the classes and image
    tables of d - 1 vertices, each built once per process.
    """
    m = d - 1
    length = m * (m - 1) // 2
    lower = _canonical_reps(m)
    s = np.ones((len(lower), d, d))
    s[:, 1:, 1:] = _decode(lower, m)
    # Switching row v to +1 makes entry (x, y) s[v, x] s[x, y] s[v, y];
    # rest[v] are the vertices left after deleting v, in order.
    v = np.arange(d)[:, None]
    rest = np.array([np.delete(np.arange(d), k) for k in range(d)])
    i, j = np.triu_indices(m, 1)
    x, y = rest[:, i], rest[:, j]
    bits = (s[:, v, x] * s[:, x, y] * s[:, v, y] > 0).astype(np.int32)
    codes = (bits << np.arange(length - 1, -1, -1, dtype=np.int32)).sum(
        axis=2, dtype=np.int32)
    return tuple(map(int, _survivors(_image_tables(m), codes)[:, 0]))


def _decode(codes, d: int) -> np.ndarray:
    """(C, d, d) stack of the sign matrices with the upper-triangle codes
    ``codes``, in the encoding above."""
    length = d * (d - 1) // 2
    bits = (np.asarray(codes, dtype=np.int64)[:, None]
            >> np.arange(length - 1, -1, -1)) & 1
    i, j = np.triu_indices(d, 1)
    s = np.ones((len(bits), d, d))
    s[:, i, j] = s[:, j, i] = 2.0 * bits - 1.0
    return s


def _floored_dirichlet(rng: np.random.Generator, d: int,
                       count: int) -> np.ndarray:
    """(count, d) flat Dirichlet draws from one call, each row lifted off
    the simplex boundary by a floor and normalized on its own."""
    w = rng.dirichlet(np.ones(d), size=count)
    w = (w + _RESTART_WEIGHT_FLOOR) / (1.0 + d * _RESTART_WEIGHT_FLOOR)
    return w / w.sum(axis=1, keepdims=True)


def restart_weights(d: int, count: int) -> np.ndarray:
    """Deterministic weight restarts as a (count, d) array: uniform on top
    of count-1 strictly positive simplex points drawn at once from a fixed
    seed.  Plain rows, valid by construction; the weights a search
    reports are checked once, as its result's WeightVector."""
    rng = np.random.default_rng(_RESTART_SEED)
    return np.vstack([np.full((1, d), 1.0 / d),
                      _floored_dirichlet(rng, d, count - 1)])


def _check_lanes(lanes: int, d: int) -> None:
    """Refuse a search whose lanes x d x d sign stack exceeds the entry
    budget, before anything is drawn or allocated."""
    _check_entries(lanes * d * d, f"search refused: {lanes} ascent lanes of "
                                  f"{d} x {d} sign matrices")


def exhaustive_pi(n: int, d: int, restarts: int = 5) -> SearchResult:
    """Maximize pi_n(sqrt(D) S sqrt(D)) over all sign matrices S of size d
    with the weights optimized per start by restarted alternation.

    Every sign matrix is switched and permuted to a start whose row 0 is
    all +1 and whose lower block is the smallest key of its two-graph, so
    there is one start per two-graph (243 starts at d = 8).  The result
    is the best start's ascent, so its S is one representative of a
    switching class of maximizers.

    Raises ResourceExhausted before anything is allocated when d is
    above 8, whose graph classes on d - 1 vertices are enumerated from
    more than 2^24 codes (at any d, the refusal builds nothing), or when
    starts x restarts x d^2 exceeds 2^24: 1078 restarts at d = 8.
    """
    _check_rank(n, d)
    if restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    # Lower-block codes ascend, and so do the full codes, whose leading
    # bits are the +1 entries of row 0, so the earliest-start tie-break of
    # _Lanes.best picks the lexicographically smallest start.
    lower = _two_graph_reps(d)
    _check_lanes(len(lower) * restarts, d)
    reps = np.ones((len(lower), d, d))
    reps[:, 1:, 1:] = _decode(lower, d - 1)
    return _ascend(n, np.repeat(reps, restarts, axis=0),
                   np.tile(restart_weights(d, restarts), (len(reps), 1)),
                   _EXHAUSTIVE_MAX_ITER).best()


def alternating_pi(n: int, d: int, restarts: int = 5) -> SearchResult:
    """Maximize pi_n(sqrt(D) S sqrt(D)) by alternation from ``restarts``
    pseudo-random starts drawn from a fixed seed: uniform random sign
    matrices of size d, all in one draw, then strictly positive simplex
    weights, all in one draw.

    A lower bound at any d; exhaustive_pi gives the exact value up to d = 8.
    Raises ResourceExhausted before any draw when restarts x d^2 (the
    sign stack) exceeds 2^24 entries.
    """
    if restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    _check_rank(n, d)
    _check_lanes(restarts, d)
    rng = np.random.default_rng(_RESTART_SEED)
    upper = np.triu(2.0 * rng.integers(0, 2, size=(restarts, d, d)) - 1.0, 1)
    s = upper + upper.transpose(0, 2, 1) + np.eye(d)
    return _ascend(n, s, _floored_dirichlet(rng, d, restarts),
                   _ALTERNATING_MAX_ITER).best()
