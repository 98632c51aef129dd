"""Exact relative projection constants via linear programming.

The minimal operator norm of a projection of l1^d (or linf^d) onto a
subspace E = range(V) is a linear program: every projection with range E
is the orthogonal projection P plus a correction, Q = P + U Y K^T, with
U and K orthonormal bases of E and of its complement and Y free.  The
LP carries the residual Q split into positive and negative parts, whose
column (row) sums are bounded by a single variable, and starts from the
feasible point Q = P, so it needs no phase 1.  Trace duality supplies
certified lower bounds: any A with nu1(A) = 1 and AP = PAP (P the
orthogonal projection onto E) proves Tr(AP) <= Pi(E, F).  The LP's own
duals are such an A with Tr(AP) equal to the LP value, so every
minimal projection norm comes with a two-sided certificate,
||Q|| >= Pi(E, F) >= Tr(AP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simplex import solve_lp
from .blowup import BlockProjection
from .errors import (InvariantViolation, NumericalError, PreconditionError,
                     WitnessConstraintError, WitnessNormalizationError)
from .eigsum import kyfan_sum
from .matcore import (OrthoProjection, SignMatrix, _as_square_array,
                      _entries_of, _freeze, _json_array, _json_int, eig_sym)

_SPACES = ("l1", "linf")
_ATTAINMENT_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An n-dimensional subspace of R^d given by linearly independent
    basis columns."""

    V: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.V, dtype=float)
        if v.ndim != 2 or v.shape[0] < v.shape[1] or v.shape[1] == 0:
            raise PreconditionError(
                f"basis must be d x n with d >= n >= 1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise PreconditionError("basis contains non-finite entries")
        smin = float(np.linalg.svd(v, compute_uv=False).min())
        if smin <= 1e-10:
            raise InvariantViolation("basis linear independence", smin,
                                     detail="smallest singular value")
        object.__setattr__(self, "V", _freeze(v))

    @property
    def d(self) -> int:
        return self.V.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def orthogonal_projection(self) -> OrthoProjection:
        q, _ = np.linalg.qr(self.V)
        return OrthoProjection(q @ q.T, self.n)

    def to_json(self) -> dict:
        return {"d": self.d, "n": self.n,
                "columns": [list(map(float, self.V[:, j]))
                            for j in range(self.n)]}

    @classmethod
    def from_json(cls, obj: dict) -> "SubspaceBasis":
        if not isinstance(obj, dict) or "columns" not in obj:
            raise PreconditionError('basis JSON must have key "columns"')
        cols = _json_array(obj["columns"], "basis columns")
        if cols.ndim != 2:
            raise PreconditionError("basis columns must form a 2-d array")
        v = cols.T
        if "d" in obj and _json_int(obj["d"], "basis JSON d") != v.shape[0]:
            raise PreconditionError("basis JSON d does not match columns")
        if "n" in obj and _json_int(obj["n"], "basis JSON n") != v.shape[1]:
            raise PreconditionError("basis JSON n does not match columns")
        return cls(v)


@dataclass(frozen=True, eq=False)
class DualityWitness:
    """A validated trace-duality witness: nu1(A) = 1 and AP = PAP, so
    value = Tr(AP) is a certified lower bound for the projection
    constant."""

    A: np.ndarray
    space: str
    value: float


def _check_space(space: str) -> str:
    if space not in _SPACES:
        raise PreconditionError(f"space must be one of {_SPACES}")
    return space


def nu1(a, space: str) -> float:
    """1-nuclear norm: sum of column-wise max-abs entries for linf,
    sum of row-wise max-abs entries for l1."""
    m = _as_square_array(_entries_of(a), "nu1 input")
    _check_space(space)
    return _block_nu1(m, np.ones(m.shape[0]), space)


def _block_nu1(alpha: np.ndarray, sizes: np.ndarray, space: str) -> float:
    """nu1 of the block-constant matrix with block values ``alpha`` and
    block sizes ``sizes``; all sizes 1 is the dense case."""
    axis = 0 if space == "linf" else 1
    return float((sizes * np.abs(alpha).max(axis=axis)).sum())


def operator_norm(q, space: str) -> float:
    """Induced operator norm on l1 (max column abs-sum) or linf (max row
    abs-sum)."""
    m = np.abs(np.asarray(_entries_of(q), dtype=float))
    _check_space(space)
    return float(m.sum(axis=0).max() if space == "l1" else m.sum(axis=1).max())


@dataclass(frozen=True, eq=False)
class LpProjection:
    """A minimal projection with both sides of its certificate.

    ``Q`` is a projection onto E with operator norm ``value``, so
    value >= Pi(E); ``witness`` comes from the LP duals and certifies
    Tr(AP) = value <= Pi(E).  ``pivots`` counts simplex pivots and
    ``refactorizations`` the fresh factorizations of the simplex basis.
    """

    value: float
    Q: np.ndarray
    witness: DualityWitness
    pivots: int
    refactorizations: int


def min_projection_norm(basis: SubspaceBasis, space: str) -> LpProjection:
    """Minimal operator norm among projections of the overspace onto the
    subspace, with a minimizing projection Q and a trace-duality witness
    that certifies the value from below.

    With U and K orthonormal bases of E and of its complement and
    P = U U^T, the projections onto E are exactly Q = P + U Y K^T for a
    free n x (d - n) matrix Y.  The LP is in residual form: over
    (Y+, Y-, R+, R-, t) it has the equality rows
    R+ - R- - vec(U (Y+ - Y-) K^T) = vec(P), so that R+ + R- >= |Q|, and
    the column (l1) or row (linf) sums of R+ + R- plus a slack equal to
    t, and it minimizes t.  Y = 0 with R = |P| is feasible, so the simplex
    starts from that basis at ||P||.  The duals of the first d^2 rows,
    reshaped to d x d and transposed, are the witness A: the dual
    constraints give nu1(A) <= 1 and AP = PAP, and strong duality gives
    Tr(AP) = value.
    """
    _check_space(space)
    v = basis.V
    d, n = basis.d, basis.n
    nb = d * d
    basis_q, _ = np.linalg.qr(v, mode="complete")
    u, k = basis_q[:, :n], basis_q[:, n:]
    p = u @ u.T
    g = np.kron(u, k)                   # vec(U Y K^T), row-major
    ny = g.shape[1]
    sums = (np.kron(np.ones((1, d)), np.eye(d)) if space == "l1"
            else np.kron(np.eye(d), np.ones((1, d))))
    eye = np.eye(nb)
    a = np.block([[-g, g, eye, -eye, np.zeros((nb, 1 + d))],
                  [np.zeros((d, 2 * ny)), sums, sums, -np.ones((d, 1)),
                   np.eye(d)]])
    t_col = 2 * ny + 2 * nb
    c = np.zeros(t_col + 1 + d)
    c[t_col] = 1.0
    # Start basis: R+ or R- at |P_ij| for each entry, t in the row of the
    # largest absolute sum of P and the slacks in the other sum rows.
    pv = p.ravel()
    sum_cols = t_col + 1 + np.arange(d)
    sum_cols[np.argmax(sums @ np.abs(pv))] = t_col
    start = np.concatenate([2 * ny + np.arange(nb) + nb * (pv < 0), sum_cols])
    res = solve_lp(c, a, np.concatenate([pv, np.zeros(d)]), start)

    y = (res.x[:ny] - res.x[ny:2 * ny]).reshape(n, d - n)
    q = p + u @ y @ k.T
    if float(np.abs(q @ v - v).max()) > 1e-8:
        raise NumericalError("LP projection does not fix the subspace")
    if float(np.abs(q @ q - q).max()) > 1e-8:
        raise NumericalError("LP projection is not idempotent")
    value = operator_norm(q, space)
    if abs(value - res.value) > 1e-7:
        raise NumericalError(
            f"LP bound {res.value:.12g} inconsistent with achieved norm "
            f"{value:.12g}")
    try:
        witness = trace_certificate(res.duals[:nb].reshape(d, d).T,
                                    OrthoProjection(p, n), space)
    except (WitnessNormalizationError, WitnessConstraintError) as exc:
        raise NumericalError(f"LP duals are not a duality witness: {exc}")
    if abs(witness.value - value) > 1e-9:
        raise NumericalError(
            f"dual bound {witness.value:.12g} does not certify the LP "
            f"value {value:.12g}")
    return LpProjection(value, q, witness, res.iterations,
                        res.refactorizations)


def trace_certificate(a, p, space: str) -> DualityWitness:
    """Validate a trace-duality witness and return its certified value.

    ``p`` is the orthogonal projection P onto the subspace E (for a basis,
    ``SubspaceBasis.orthogonal_projection()``), dense or as a
    :class:`BlockProjection` with core Pi and W = diag(sqrt(p)); for the
    latter ``a`` holds the block values alpha of a block-constant witness,
    and everything is checked in the frame of the core with
    A~ = W alpha W (see the ``blowup`` module docstring).  Requires finite
    entries, nu1(A) = 1 within 1e-9 and A~ Pi = Pi A~ Pi (AP = PAP)
    within 1e-8; the value Tr(A~ Pi) = Tr(AP), the correctly rounded sum
    of the diagonal of A~ Pi, is then <= Pi(E).  A dense P has W = I.
    """
    m = _as_square_array(_entries_of(a), "witness")
    _check_space(space)
    blocks = BlockProjection.of(p)
    core, sizes = blocks.core.entries, blocks.sizes
    if m.shape != core.shape:
        raise PreconditionError(
            f"witness has shape {m.shape}, expected {core.shape}: the "
            f"subspace lives in dimension d={blocks.d}")
    norm = _block_nu1(m, sizes, space)
    if abs(norm - 1.0) > 1e-9:
        raise WitnessNormalizationError(
            f"nu1(A) = {norm:.12g}, expected 1 within 1e-9")
    # A~ Pi; multiplying by sqrt(1) = 1 is exact.
    w = np.sqrt(sizes)
    mp = (w[:, None] * m * w) @ core
    defect = float(np.abs(mp - core @ mp).max())
    if defect > 1e-8:
        raise WitnessConstraintError(
            f"AP = PAP violated by {defect:.3e} (tolerance 1e-8)")
    return DualityWitness(m, space, math.fsum(np.diagonal(mp)))


@dataclass(frozen=True, eq=False)
class AttainmentResult:
    attained: bool
    equalities_hold: bool
    E: SubspaceBasis
    value: float
    op_norm_l1: float
    lp_value: float
    rho: float
    mean_abs_sum: float


def attainment_check(s: SignMatrix, n: int,
                     reference: float | None = None) -> AttainmentResult:
    """Check whether a sign matrix realizes its normalized Ky Fan value as
    a relative projection constant.

    Builds the Ky Fan maximizer P of S at rank n, takes E = range(P) in
    l1^d, and tests the equality chain
    op_norm_l1(P) = min_projection_norm(E, l1) = rho(|P|) = mean abs sum.
    ``value`` is pi_n(S) / d.  When ``reference`` is given (a known or
    searched maximal value for the same (n, d)), attainment additionally
    requires value >= reference - 1e-7; the equalities hold within 1e-7.
    """
    d = s.d
    ky_value, p = kyfan_sum(s, n)
    value = ky_value / d
    basis = SubspaceBasis(eig_sym(s.entries).eigenvectors[:, :n])
    op = operator_norm(p.entries, "l1")
    lp_value = min_projection_norm(basis, "l1").value
    rho = float(eig_sym(p.abs_entries()).eigenvalues[0])
    mean_abs = float(np.abs(p.entries).sum()) / d
    quantities = (op, lp_value, rho, mean_abs)
    equalities = max(quantities) - min(quantities) <= _ATTAINMENT_TOL
    attained = equalities and (reference is None
                               or value >= reference - _ATTAINMENT_TOL)
    return AttainmentResult(bool(attained), bool(equalities), basis, value,
                            op, lp_value, rho, mean_abs)
