"""Graph blow-ups of sign matrices and of orthogonal projections.

Replacing vertex i of the graph encoded by a sign matrix S (edge iff entry
-1) with p_i mutually non-adjacent copies yields the blown-up sign matrix
S' = Z S Z^t, where Z is the block indicator.  The nonzero eigenvalues of
S' equal those of sqrt(P) S sqrt(P) with P = diag(p_i); consequently
pi_n(S') = d * pi_n(sqrt(L) S sqrt(L)) for L = diag(p_i / d), d = sum p_i.
Eigenvectors of the small weighted matrix lift to block-constant
eigenvectors of S', which lets callers form Ky Fan maximizers of huge
blow-ups without dense d x d eigensolves.

Such a maximizer is the blow-up of an m x m projection.  With
J = Z D^(-1/2), D = diag(p) and U the top-n eigenvectors of the weighted
matrix, P = J Pi J^t for the rank-n projection Pi = U U^t, so block
(i, j) of P is constantly beta_ij = Pi_ij / sqrt(p_i p_j); J^t J = I, so
P is an orthogonal projection exactly when Pi is.  Everything a
certificate needs is read off (beta, p) in O(m^3):

- the absolute row (and column) sums of P in block i are
  sum_j p_j |beta_ij| = sum_j |Pi_ij| sqrt(p_j / p_i);
- |P| = J |Pi| J^t, so rho(|P|) = rho(|Pi|) and the Perron vector of |P|
  is J v for the Perron vector v of |Pi|;
- Sgn(P) is block-constant with +1 diagonal blocks (beta_ii >= 0): the
  blow-up of Sgn(beta) with the same p;
- a block-constant A with block values alpha has
  nu1(A) = sum_i p_i max_j |alpha_ij| (l1), AP - PAP has the block values
  alpha D beta - beta D alpha D beta, and Tr(AP) = sum_i p_i
  (alpha D beta)_ii.

A dense projection is the case p = (1, ..., 1), whose block values are
its entries bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .matcore import (SIGN_ZERO_TOL, OrthoProjection, SignMatrix, SymMatrix,
                      _freeze, sign_matrix_of)


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
    p = np.asarray(spec.multiplicities)
    s = spec.base.entries
    big = np.repeat(np.repeat(s, p, axis=0), p, axis=1)
    # s_ii = +1 already, so diagonal blocks come out all +1.
    return SignMatrix(big)


def weighted_equivalent(spec: BlowupSpec) -> SymMatrix:
    """sqrt(L) S sqrt(L) with L = diag(p_i / d); satisfies
    pi_n(blow_up(spec)) = d * pi_n(weighted_equivalent(spec)) for all n."""
    p = np.asarray(spec.multiplicities, dtype=float)
    sq = np.sqrt(p / p.sum())
    return SymMatrix(spec.base.entries * sq[:, None] * sq[None, :])


def lift_eigenvectors(spec: BlowupSpec, vectors: np.ndarray) -> np.ndarray:
    """Lift eigenvectors of sqrt(P) S sqrt(P) (equivalently of
    weighted_equivalent, which has the same eigenvectors) to block-constant
    eigenvectors of the blow-up.

    An orthonormal input stays orthonormal; an eigenvector with eigenvalue
    mu of sqrt(P) S sqrt(P) lifts to eigenvalue mu of the blow-up (which is
    d * the corresponding eigenvalue of weighted_equivalent).
    """
    u = np.asarray(vectors, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[0] != spec.m:
        raise PreconditionError(
            f"vectors have {u.shape[0]} rows, base has {spec.m} vertices")
    p = np.asarray(spec.multiplicities)
    scaled = u / np.sqrt(p.astype(float))[:, None]
    return np.repeat(scaled, p, axis=0)


@dataclass(frozen=True, eq=False)
class BlockProjection:
    """The blow-up P = J Pi J^t of a rank-n orthogonal projection Pi on
    R^m by the multiplicities p: a rank-n orthogonal projection on R^d,
    d = sum p_i, whose block (i, j) is constantly
    ``values[i, j]`` = Pi_ij / sqrt(p_i p_j).

    ``core`` is Pi, validated by its own constructor; nothing of size d
    is stored.  See the module docstring for what is read off the block
    values.
    """

    core: OrthoProjection
    multiplicities: tuple[int, ...]
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.core, OrthoProjection):
            raise PreconditionError("core must be an OrthoProjection")
        p = _multiplicities(self.multiplicities, self.core.d)
        object.__setattr__(self, "multiplicities", p)
        # sqrt(1 * 1) = 1 and x / 1 = x: the all-ones values are the
        # entries of the core bit for bit.
        sizes = np.asarray(p, dtype=float)
        object.__setattr__(self, "values", _freeze(
            self.core.entries / np.sqrt(np.outer(sizes, sizes))))

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
        """The multiplicities as floats, the diagonal of D."""
        return np.asarray(self.multiplicities, dtype=float)

    def abs_is_positive(self) -> bool:
        """True when every entry of |P| exceeds SIGN_ZERO_TOL; see
        :meth:`OrthoProjection.abs_is_positive`."""
        return bool(np.all(np.abs(self.values) > SIGN_ZERO_TOL))

    def signs(self, tau: float = SIGN_ZERO_TOL) -> BlowupSpec:
        """Sgn(P) as the blow-up of Sgn(values) with the same
        multiplicities: off-diagonal blocks carry the sign of their value
        and diagonal blocks are +1, because beta_ii = Pi_ii / p_i >= 0."""
        return BlowupSpec(sign_matrix_of(self.values, tau),
                          self.multiplicities)

    def dense(self) -> OrthoProjection:
        """The d x d projection P, validated; O(d^2) memory and O(d^3)
        time."""
        p = np.asarray(self.multiplicities)
        big = np.repeat(np.repeat(self.values, p, axis=0), p, axis=1)
        return OrthoProjection(big, self.n)
