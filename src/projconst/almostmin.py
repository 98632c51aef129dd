"""Construction of almost-minimal orthogonal projections with a
posteriori certificates.

Starting from a candidate maximizer P0 with strictly positive |P0|, the
pipeline rationalizes the Perron weights of |P0| (Dirichlet approximation
at quality eta = min(1, (eps/32)^2) / sqrt(n)), blows up the sign pattern
of P0 with the resulting multiplicities, takes the Ky Fan maximizer of
the blown-up sign matrix at rank n (via block-constant eigenvector
lifting), and polishes it with the sign fixed-point iteration until the
sign pattern stabilizes.  The certificate is read off P alone: the
Perron value rho(|P|), the extreme absolute row sums r and R, the l1
operator norm, and the trace-duality lower bound Tr(AP) for a witness A
with AP = PAP; gap_rows = R - r measures how far |P| is from a multiple
of a doubly stochastic matrix and gap_minimality bounds the distance of
||P|| from the minimal projection norm onto range(P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blowup import BlowupSpec, blow_up, lift_eigenvectors, weighted_equivalent
from .errors import (PreconditionError, ResourceExhausted,
                     WitnessConstraintError)
from .eigsum import kyfan_sum
from .matcore import (OrthoProjection, SignMatrix, eig_sym, matrix_to_json,
                      perron, row_sum_stats, sign_matrix_of,
                      validate_projection)
from .rationalize import choose_k, dirichlet_approx
from .relproj import operator_norm, trace_certificate

_DENSE_SIZE_LIMIT = 4096
_MAX_REFINE = 64


def eta_of_eps(n: int, eps: float) -> float:
    """Internal approximation budget min(1, (eps/32)^2) / sqrt(n)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not (math.isfinite(eps) and eps > 0):
        raise PreconditionError("eps must be positive and finite")
    return min(1.0, (eps / 32.0) ** 2) / math.sqrt(n)


@dataclass(frozen=True)
class Certificate:
    """Row-sum / spectral-radius / duality bundle for a projection.

    Fields requiring strict positivity of |P| (rho, lower_bound) are None
    when |P| has zero entries or no valid duality witness exists;
    witness_kind records which witness certified lower_bound ("perron" for
    D Sgn(P) with D the squared Perron weights, "uniform" for Sgn(P)/d).
    """

    rho: float | None
    r: float
    R: float
    op_norm_l1: float
    lower_bound: float | None
    gap_rows: float
    gap_minimality: float | None
    witness_kind: str | None

    def to_json(self) -> dict:
        return {"rho": self.rho, "r": self.r, "R": self.R,
                "op_norm_l1": self.op_norm_l1,
                "lower_bound": self.lower_bound,
                "gap_rows": self.gap_rows,
                "gap_minimality": self.gap_minimality}


@dataclass(frozen=True, eq=False)
class PipelineResult:
    d: int
    P: OrthoProjection
    S: SignMatrix
    cert: Certificate
    eta: float
    eps: float
    converged: bool
    iterations: int

    def to_json(self, include_matrices: bool = False) -> dict:
        out = {"d": self.d, "eta": self.eta, "eps": self.eps,
               "certificate": self.cert.to_json(),
               "converged": self.converged,
               "iterations": self.iterations}
        if include_matrices:
            out["P"] = matrix_to_json(self.P)["rows"]
            out["S"] = matrix_to_json(self.S)["rows"]
        return out


def certify(p: OrthoProjection) -> Certificate:
    """Certificate for a projection: Perron radius of |P| (when positive),
    extreme absolute row sums, l1 operator norm, and a trace-duality lower
    bound for the minimal projection norm onto range(P).

    The duality witness is A = D Sgn(P) with D the squared Perron weights
    of |P|; when it fails AP = PAP against P itself, the uniform witness
    Sgn(P)/d is tried instead.  An invalid witness leaves lower_bound
    absent rather than reporting an uncertified number.
    """
    stats = row_sum_stats(p.entries)
    op = operator_norm(p.entries, "l1")
    rho: float | None = None
    lower: float | None = None
    kind: str | None = None
    if p.abs_is_positive():
        rho, v = perron(p.abs_entries())
        signs = sign_matrix_of(p)
        weights = v * v
        weights = weights / weights.sum()
        candidates = (
            ("perron", weights[:, None] * signs.entries),
            ("uniform", signs.entries / p.d),
        )
        for name, witness in candidates:
            try:
                cert = trace_certificate(witness, p, "l1")
            except WitnessConstraintError:
                continue
            lower, kind = cert.value, name
            break
    gap_min = None if lower is None else op - lower
    return Certificate(rho, stats.r, stats.R, op, lower, stats.gap,
                       gap_min, kind)


def _kyfan_via_lifting(spec: BlowupSpec, n: int) -> OrthoProjection | None:
    """Rank-n Ky Fan maximizer of the blown-up sign matrix from the m x m
    weighted problem; None when the top-n eigenvalues are not all positive
    (the blow-up kernel would then enter the maximizer).  The projection
    constructor is its only check."""
    small = eig_sym(weighted_equivalent(spec).entries)
    if small.eigenvalues[n - 1] <= 0:
        return None
    lifted = lift_eigenvectors(spec, small.eigenvectors[:, :n])
    return validate_projection(lifted @ lifted.T, n)


def almost_minimal(n: int, eps: float, seed: OrthoProjection) -> PipelineResult:
    """Build a dimension d and a rank-n projection P in l1^d with nearly
    equal absolute row sums from the candidate maximizer ``seed``, and
    certify the result.

    Pipeline: eta budget, Perron weights of |seed|, Dirichlet
    rationalization into multiplicities, blow-up of Sgn(seed), Ky Fan
    maximizer of the blow-up (lifted from the small weighted problem),
    sign fixed-point refinement, certificate.  Oscillating refinements are
    reported with converged=False and the best iterate.
    """
    eta = eta_of_eps(n, eps)
    if not seed.abs_is_positive():
        raise PreconditionError(
            "pipeline seed must have strictly positive |P|")
    if not (1 <= n <= seed.d) or seed.n != n:
        raise PreconditionError(
            f"seed has rank {seed.n}, expected n={n}")
    m = seed.d
    _, v = perron(seed.abs_entries())
    weights = v * v
    weights = weights / weights.sum()
    eps0 = float(weights.min())
    k = choose_k(n, m, eta, eps0)
    rational = dirichlet_approx(weights, k)
    d = rational.q
    if d > _DENSE_SIZE_LIMIT:
        raise ResourceExhausted(
            f"blow-up dimension d={d} exceeds the dense materialization "
            f"cap {_DENSE_SIZE_LIMIT}; increase eps or supply a closer "
            f"rational seed", best_q=d)

    base = sign_matrix_of(seed)
    spec = BlowupSpec(base, rational.p)
    s = blow_up(spec)
    p = _kyfan_via_lifting(spec, n)
    if p is None:
        _, p = kyfan_sum(s.entries, n)

    converged = False
    iterations = 0
    for iterations in range(1, _MAX_REFINE + 1):
        s_next = sign_matrix_of(p)
        if np.array_equal(s_next.entries, s.entries):
            converged = True
            break
        s = s_next
        _, p = kyfan_sum(s.entries, n)

    cert = certify(p)
    return PipelineResult(d, p, s, cert, eta, eps, converged, iterations)
