"""Graph blow-ups of sign matrices and of orthogonal projections.

Replacing vertex i of the graph encoded by a sign matrix S (edge iff entry
-1) with p_i mutually non-adjacent copies yields the blown-up sign matrix
S' = Z S Z^t, where Z is the block indicator.  The nonzero eigenvalues of
S' equal those of sqrt(P) S sqrt(P) with P = diag(p_i); consequently
pi_n(S') = d * pi_n(sqrt(L) S sqrt(L)) for L = diag(p_i / d), d = sum p_i.
When the top n eigenvalues of the small weighted matrix are positive,
the Ky Fan maximizer of S' is the blow-up of an m x m projection.  With
J = Z W^(-1), W = diag(sqrt(p_i)) and U the top-n eigenvectors of the
weighted matrix, P = J Pi J^t for the rank-n projection Pi = U U^t, so
block (i, j) of P is constantly Pi_ij / sqrt(p_i p_j); J^t J = I, so P
is an orthogonal projection exactly when Pi is.  Everything a
certificate needs is read off Pi and W in O(m^3), in the frame of the
core, where no entry shrinks as d grows, so absolute tolerances hold at
any d:

- the absolute row (and column) sums of P in block i are
  sum_j |Pi_ij| sqrt(p_j / p_i);
- |P| = J |Pi| J^t, so rho(|P|) = rho(|Pi|), the Perron vector of |P|
  is J v for the Perron vector v of |Pi|, and |P| is positive exactly
  when |Pi| is;
- Sgn(P) is the blow-up of Sgn(Pi) with the same p (the diagonal
  blocks are +1 since Pi_ii >= 0);
- a block-constant A with block values alpha has
  nu1(A) = sum_i p_i max_j |alpha_ij| (l1) and A = J A~ J^t with
  A~ = W alpha W, so AP = PAP iff A~ Pi = Pi A~ Pi, and
  Tr(AP) = Tr(A~ Pi).

A dense projection is the case p = (1, ..., 1), W = I, whose core is
itself.  ``blow_up`` and ``BlockProjection.dense`` build their d x d
matrices through ``_dense``, which refuses d above 4096 before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matcore import OrthoProjection, SignMatrix, SymMatrix, _check_entries


def _dense(values: np.ndarray, p: tuple[int, ...]) -> np.ndarray:
    """The d x d matrix, d = sum(p), whose block (i, j) is constantly
    values[i, j]; refuses d above 4096 before allocating."""
    d = sum(p)
    _check_entries(d * d, f"the {d * d} entries of a dense {d} x {d} "
                          f"matrix (d <= 4096; the block form has no cap)")
    p = np.asarray(p)
    return np.repeat(np.repeat(values, p, axis=0), p, axis=1)


def _multiplicities(p, m: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in p)
    if len(p) != m:
        raise PreconditionError(f"need {m} multiplicities, got {len(p)}")
    if any(x < 1 for x in p):
        raise PreconditionError("multiplicities must be >= 1")
    return p


@dataclass(frozen=True, eq=False)
class BlowupSpec:
    """A base sign matrix together with one positive multiplicity per
    vertex."""

    base: SignMatrix
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", _multiplicities(
            self.multiplicities, self.base.d))

    @property
    def m(self) -> int:
        return self.base.d

    @property
    def d(self) -> int:
        return sum(self.multiplicities)


def blow_up(spec: BlowupSpec) -> SignMatrix:
    """The blown-up d x d sign matrix.

    Block (i, j) is constantly s_ij for i != j; diagonal blocks are
    constantly +1 because copies of a vertex are non-adjacent.
    """
    # s_ii = +1 already, so diagonal blocks come out all +1.
    return SignMatrix(_dense(spec.base.entries, spec.multiplicities))


def weighted_equivalent(spec: BlowupSpec) -> SymMatrix:
    """sqrt(L) S sqrt(L) with L = diag(p_i / d); satisfies
    pi_n(blow_up(spec)) = d * pi_n(weighted_equivalent(spec)) for all n."""
    p = np.asarray(spec.multiplicities, dtype=float)
    sq = np.sqrt(p / p.sum())
    return SymMatrix(spec.base.entries * sq[:, None] * sq[None, :])


@dataclass(frozen=True, eq=False)
class BlockProjection:
    """The blow-up P = J Pi J^t of a rank-n orthogonal projection Pi on
    R^m by the multiplicities p: a rank-n orthogonal projection on R^d,
    d = sum p_i, whose block (i, j) is constantly Pi_ij / sqrt(p_i p_j).

    ``core`` is Pi, validated by its own constructor, and is the only
    representation: nothing of size d is stored, and the module docstring
    lists what is read off Pi and p.
    """

    core: OrthoProjection
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.core, OrthoProjection):
            raise PreconditionError("core must be an OrthoProjection")
        object.__setattr__(self, "multiplicities", _multiplicities(
            self.multiplicities, self.core.d))

    @classmethod
    def of(cls, p) -> "BlockProjection":
        """``p`` itself, or a dense projection as its own blow-up with all
        multiplicities 1."""
        if isinstance(p, cls):
            return p
        if isinstance(p, OrthoProjection):
            return cls(p, (1,) * p.d)
        raise PreconditionError(
            "p must be the OrthoProjection onto E or a BlockProjection")

    @property
    def n(self) -> int:
        return self.core.n

    @property
    def m(self) -> int:
        return self.core.d

    @property
    def d(self) -> int:
        return sum(self.multiplicities)

    @property
    def sizes(self) -> np.ndarray:
        """The multiplicities as floats, the diagonal of D = W^2."""
        return np.asarray(self.multiplicities, dtype=float)

    def dense(self) -> OrthoProjection:
        """The d x d projection P, validated; O(d^2) memory and O(d^3)
        time."""
        values = self.core.entries / np.sqrt(np.outer(self.sizes,
                                                      self.sizes))
        return OrthoProjection(_dense(values, self.multiplicities), self.n)
