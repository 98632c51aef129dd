"""Construction of almost-minimal orthogonal projections with a
posteriori certificates.

Starting from a candidate maximizer P0 with strictly positive |P0|, the
pipeline rationalizes the Perron weights of |P0| (Dirichlet approximation
at quality eta = min(1, (eps/32)^2) / sqrt(n)), blows up the sign pattern
of P0 with the resulting multiplicities, takes the Ky Fan maximizer of the
blown-up sign matrix at rank n (the blow-up of the maximizer of the small
weighted problem), and polishes it with the sign fixed-point iteration
until the sign pattern stabilizes.  The certificate is read off P alone:
the Perron value rho(|P|), the extreme absolute row sums r and R, the l1
operator norm, and the trace-duality lower bound Tr(AP) for a witness A
with AP = PAP; gap_rows = R - r measures how far |P| is from a multiple of
a doubly stochastic matrix and gap_minimality bounds the distance of ||P||
from the minimal projection norm onto range(P).

Everything after the Dirichlet step runs on the block form of P (a
:class:`~projconst.blowup.BlockProjection`): the multiplicities p and the
m x m rank-n projection Pi = U U^t of the weighted problem.  The
certificate and the sign refinement are read off Pi and p by the
identities in the ``blowup`` module docstring, in O(m^3) and with O(1)
thresholds whatever d is.  Dense d x d matrices are built only on
request (``PipelineResult.P`` and ``.S``), behind the d <= 4096 cap of
``blowup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blowup import BlockProjection, BlowupSpec, blow_up
from .errors import PreconditionError, WitnessConstraintError
from .matcore import (SIGN_ZERO_TOL, OrthoProjection, SignMatrix, _kyfan,
                      _perron_weights, _signs, matrix_to_json, perron,
                      sign_matrix_of)
from .rationalize import choose_k, dirichlet_approx
from .relproj import trace_certificate

_MAX_REFINE = 64
# Half-width of the band around 0 in which _lift counts the positive
# eigenvalues of the sign matrix exactly.  _lift's weights sum to 1, so
# sqrt(w) s sqrt(w) has Frobenius norm 1 and eigh's rounding error, a
# small multiple of m * 2.2e-16, stays far inside the band for any m a
# dense seed can have.
_INERTIA_BAND = 1e-9


def eta_of_eps(n: int, eps: float) -> float:
    """Internal approximation budget min(1, (eps/32)^2) / sqrt(n)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not (math.isfinite(eps) and eps > 0):
        raise PreconditionError("eps must be positive and finite")
    eta = min(1.0, (eps / 32.0) ** 2) / math.sqrt(n)
    if eta == 0.0:
        raise PreconditionError(f"eps {eps!r} is too small: eta underflows")
    return eta


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
    """The projection ``blocks`` and the sign matrix ``spec`` whose Ky Fan
    maximizer it is, both in block form, with the certificate of the
    projection.  ``P`` and ``S`` build the dense d x d matrices on first
    access, up to d = 4096.

    ``seed_gap`` checks the premise of the construction: the largest
    entry of |P0 - Q|, with Q the rank-n Ky Fan maximizer of
    sqrt(D) Sgn(P0) sqrt(D) and D the squared Perron weights of |P0|.
    It is 0 up to rounding when the seed P0 is a Perron-weighted Ky Fan
    maximizer; only then do the certificate gaps shrink with eps."""

    blocks: BlockProjection
    spec: BlowupSpec
    cert: Certificate
    eta: float
    eps: float
    converged: bool
    iterations: int
    seed_gap: float

    @property
    def d(self) -> int:
        return self.blocks.d

    @cached_property
    def P(self) -> OrthoProjection:
        return self.blocks.dense()

    @cached_property
    def S(self) -> SignMatrix:
        return blow_up(self.spec)

    def to_json(self, include_matrices: bool = False) -> dict:
        out = {"d": self.d, "eta": self.eta, "eps": self.eps,
               "certificate": self.cert.to_json(),
               "converged": self.converged,
               "iterations": self.iterations}
        if include_matrices:
            out["P"] = matrix_to_json(self.P)["rows"]
            out["S"] = matrix_to_json(self.S)["rows"]
        return out


def certify(p: OrthoProjection | BlockProjection) -> Certificate:
    """Certificate for a projection: Perron radius of |P| (when positive),
    extreme absolute row sums r and R, the norm of P on l1^d (its largest
    absolute column sum, which is R because P is exactly symmetric), and
    a trace-duality lower bound for the minimal projection norm onto
    range(P).

    A dense P is the blow-up of itself with all multiplicities 1, so
    every step runs on the core Pi and W = diag(sqrt(p)) (see the
    ``blowup`` module docstring) and costs O(m^3) for a
    :class:`BlockProjection` of an m x m core.  The duality witness is
    A = D Sgn(P) with D the squared Perron weights of |P|; when it fails
    AP = PAP against P itself (the 1e-8 tolerance of ``trace_certificate``
    applies to A~ Pi - Pi A~ Pi, A~ = W alpha W for block values alpha),
    the uniform witness Sgn(P)/d is tried instead.  An invalid witness
    leaves lower_bound absent rather than reporting an uncertified
    number.
    """
    blocks = BlockProjection.of(p)
    sizes = blocks.sizes
    w = np.sqrt(sizes)
    a = blocks.core.abs_entries()
    # Absolute row sums of P per block; sqrt(1) = 1 is exact.
    rows = (a * w).sum(axis=1) / w
    r, big_r = float(rows.min()), float(rows.max())
    rho: float | None = None
    lower: float | None = None
    kind: str | None = None
    if blocks.core.abs_is_positive():
        rho, v = perron(a)
        signs = sign_matrix_of(blocks.core).entries
        # Perron vector J v of |P|: block i holds v_i / sqrt(p_i).
        weights = v * v / sizes
        weights = weights / (sizes * weights).sum()
        candidates = (
            ("perron", weights[:, None] * signs),
            ("uniform", signs / blocks.d),
        )
        for name, witness in candidates:
            try:
                cert = trace_certificate(witness, blocks, "l1")
            except WitnessConstraintError:
                continue
            lower, kind = cert.value, name
            break
    gap_min = None if lower is None else big_r - lower
    return Certificate(rho, r, big_r, big_r, lower, big_r - r, gap_min, kind)


def _positive_eigenvalues(s: np.ndarray) -> int:
    """The number of positive eigenvalues of the symmetric integer matrix
    ``s``, exactly: the coefficients of its characteristic polynomial in
    Python ints (Faddeev-LeVerrier, whose divisions are exact), and their
    sign changes, which Descartes' rule counts exactly as positive roots
    because every root is real."""
    a = s.astype(np.int64).astype(object)
    eye = np.identity(len(a), dtype=np.int64).astype(object)
    coeffs, m = [1], 0 * eye
    for k in range(1, len(a) + 1):
        m = a @ m + coeffs[-1] * eye
        coeffs.append(-np.trace(a @ m) // k)
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _lift(s: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The core Pi of the rank-n Ky Fan maximizer of the blow-up of the
    m x m sign matrix ``s`` with multiplicities proportional to the
    positive ``weights`` (summing to 1): the projector onto the top-n
    eigenvectors of sqrt(w) s sqrt(w).

    Its blow-up is the maximizer only when the n-th of those eigenvalues
    is positive.  By Sylvester's law of inertia that holds for all
    positive weights at once exactly when ``s`` has n positive
    eigenvalues, so no choice of multiplicities can help otherwise.
    Outside [-_INERTIA_BAND, _INERTIA_BAND] the sign of the computed n-th
    eigenvalue decides; inside it, the exact count for ``s`` does, so
    two seeds whose signs are permutations of each other are decided
    alike."""
    sq = np.sqrt(weights)
    w, core = _kyfan(s * sq[:, None] * sq[None, :], n)
    if (_positive_eigenvalues(s) < n if abs(w[n - 1]) <= _INERTIA_BAND
            else w[n - 1] <= 0):
        raise PreconditionError(
            f"the sign matrix has fewer than n={n} positive eigenvalues, so "
            f"the Ky Fan maximizer of its blow-up is not block-constant")
    return core


def almost_minimal(n: int, eps: float, seed: OrthoProjection) -> PipelineResult:
    """Build a dimension d and a rank-n projection P in l1^d with nearly
    equal absolute row sums from the candidate maximizer ``seed``, and
    certify the result.

    Pipeline: eta budget, Perron weights of |seed|, Dirichlet
    rationalization into multiplicities, blow-up of Sgn(seed), Ky Fan
    maximizer of the blow-up (lifted from the small weighted problem),
    sign fixed-point refinement, certificate, all in block form.
    Oscillating refinements are reported with converged=False and the
    last iterate.  A seed whose Sgn has fewer than n positive
    eigenvalues raises PreconditionError before the Dirichlet step.

    ``converged`` means only that the sign refinement reached a fixed
    point.  The certificate gaps shrink with eps only when ``seed`` is a
    Ky Fan maximizer for the Perron weights of |seed|, which
    ``seed_gap`` reports: for ``perturbed_hex3(default_rng(3))``
    (seed_gap 0.142), eps 32, 16 and 8 (d = 646, 27,207, 69,110) all
    converge and stay at gap_minimality 0.0561 and gap_rows 0.1188.
    """
    eta = eta_of_eps(n, eps)
    if not seed.abs_is_positive():
        raise PreconditionError(
            "pipeline seed must have strictly positive |P|")
    if seed.n != n:
        raise PreconditionError(
            f"seed has rank {seed.n}, expected n={n}")
    m = seed.d
    weights = _perron_weights(seed.abs_entries()[None])[0]
    s = sign_matrix_of(seed).entries
    seed_gap = float(np.abs(_lift(s, weights, n) - seed.entries).max())
    eps0 = float(weights.min())
    k = choose_k(n, m, eta, eps0)
    rational = dirichlet_approx(weights, k)

    # Sgn of a block-constant P is the blow-up of Sgn of its core with the
    # same multiplicities, so the refinement runs on m x m arrays.
    sizes = np.asarray(rational.p, dtype=float)
    block_weights = sizes / sizes.sum()
    core = _lift(s, block_weights, n)
    converged = False
    for iterations in range(1, _MAX_REFINE + 1):
        s_next = _signs(core, SIGN_ZERO_TOL)
        if np.array_equal(s_next, s):
            converged = True
            break
        s, core = s_next, _lift(s_next, block_weights, n)

    blocks = BlockProjection(OrthoProjection(core, n), rational.p)
    spec = BlowupSpec(SignMatrix(s), rational.p)
    return PipelineResult(blocks, spec, certify(blocks), eta, eps, converged,
                          iterations, seed_gap)
