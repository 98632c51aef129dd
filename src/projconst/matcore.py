"""Dense symmetric linear algebra and Perron-Frobenius utilities.

Provides the matrix classes used everywhere else (symmetric matrices, sign
matrices, simplex weight vectors, rank-n orthogonal projections, spectra)
together with the spectral primitives: a deterministic symmetric
eigensolver wrapper, Perron pairs of positive matrices, sign matrices of
thresholded signs, projection validation, and absolute row-sum statistics.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvariantViolation, NumericalError, PreconditionError

# Zero threshold for sign patterns.  The exact-arithmetic notion of a zero
# entry needs a cutoff in floating point; overridable per call.
SIGN_ZERO_TOL = 1e-9

DEFAULT_TOL = 1e-9

# Above this dimension the Perron pair switches from a full eigensolve to
# power iteration.
_DENSE_SPECTRUM_LIMIT = 512

_POWER_RESIDUAL_TOL = 1e-12
_POWER_MAX_ITER = 100_000


def _as_square_array(entries, name: str = "matrix") -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric d x d matrix; construction symmetrizes exactly."""

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square_array(self.entries, "SymMatrix")
        # (a + a.T)/2 is exactly symmetric in floating point.
        object.__setattr__(self, "entries", _freeze(0.5 * (a + a.T)))

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Symmetric matrix with entries in {-1,+1} and ones on the diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square_array(self.entries, "SignMatrix")
        if not np.array_equal(a, a.T):
            raise InvariantViolation("sign matrix symmetry")
        if not np.all(np.abs(a) == 1.0):
            raise InvariantViolation("sign matrix entries in {-1,+1}")
        if not np.all(np.diag(a) == 1.0):
            raise InvariantViolation("sign matrix unit diagonal")
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative diagonal weights summing to one (a simplex point)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise PreconditionError("weights must be a nonempty vector")
        if np.any(w < 0):
            raise InvariantViolation("weight nonnegativity", float(-w.min()))
        s = float(w.sum())
        if abs(s - 1.0) > 1e-12:
            raise InvariantViolation("weights sum to one", abs(s - 1.0))
        object.__setattr__(self, "w", _freeze(w))

    @property
    def d(self) -> int:
        return self.w.size

    def is_strictly_positive(self) -> bool:
        return bool(np.all(self.w > 0))


@dataclass(frozen=True, eq=False)
class OrthoProjection:
    """Symmetric idempotent d x d matrix of rank n.

    The constructor is the single check of the projection invariants; it
    raises :class:`InvariantViolation` naming the worst violation.
    Symmetry, idempotence and trace are checked on the input at ``tol``;
    eigenvalue proximity to {0, 1} at ``10 * tol`` (matching the
    1e-9 / 1e-8 default split) on the symmetrized input, which is what
    is stored.
    """

    entries: np.ndarray
    n: int
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        a = _as_square_array(self.entries, "projection candidate")
        n = self.n
        if not (0 <= n <= a.shape[0]):
            raise PreconditionError(f"rank {n} out of range for d={a.shape[0]}")
        sym = 0.5 * (a + a.T)
        evals = np.linalg.eigvalsh(sym)
        eig_dev = float(np.abs(evals - np.round(evals)).max())
        on_01 = float(np.max(np.minimum(np.abs(evals), np.abs(evals - 1.0))))
        checks = [
            ("symmetry", float(np.abs(a - a.T).max()), tol),
            ("idempotence", float(np.abs(a @ a - a).max()), tol),
            ("trace equals rank", abs(float(np.trace(a)) - n), tol),
            ("eigenvalues in {0,1}", max(eig_dev, on_01), 10 * tol),
        ]
        worst = max(checks, key=lambda c: c[1] / c[2])
        if worst[1] > worst[2]:
            raise InvariantViolation(worst[0], worst[1],
                                     detail=f"tolerance {worst[2]:g}")
        object.__setattr__(self, "entries", _freeze(sym))

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def abs_entries(self) -> np.ndarray:
        return np.abs(self.entries)

    def abs_is_positive(self) -> bool:
        """True when every entry of |P| is strictly positive.

        Entries at or below SIGN_ZERO_TOL count as zeros, consistent with
        the sign-pattern threshold; matrices that are positive only at
        roundoff scale behave like reducible ones and must not reach the
        Perron machinery.
        """
        return bool(np.all(np.abs(self.entries) > SIGN_ZERO_TOL))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted descending with matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, eigenvectors[:, i] for eigenvalues[i]

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise PreconditionError("spectrum shape mismatch")
        if np.any(np.diff(w) > 0):
            raise InvariantViolation("eigenvalues sorted descending")
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def _entries_of(m) -> np.ndarray:
    if isinstance(m, (SymMatrix, SignMatrix, OrthoProjection)):
        return m.entries
    return np.asarray(m, dtype=float)


def eig_sym(a) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix.

    Eigenvalues are returned in descending order.  Each eigenvector is
    normalized so that its first coordinate of magnitude above 1e-9 is
    positive, which makes every downstream search reproducible.
    """
    m = _as_square_array(_entries_of(a), "eig_sym input")
    m = 0.5 * (m + m.T)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}")
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # Deterministic sign convention: first sufficiently-nonzero coordinate
    # of each eigenvector is positive.
    lead = np.argmax(np.abs(v) > 1e-9, axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return Spectrum(w, v)


def _power_iteration(m: np.ndarray) -> tuple[float, np.ndarray]:
    d = m.shape[0]
    v = np.full(d, 1.0 / np.sqrt(d))
    rho = 0.0
    for _ in range(_POWER_MAX_ITER):
        mv = m @ v
        nv = float(np.linalg.norm(mv))
        if nv == 0.0:
            raise NumericalError("power iteration collapsed to zero vector")
        v = mv / nv
        rho = float(v @ (m @ v))
        if float(np.linalg.norm(m @ v - rho * v)) <= _POWER_RESIDUAL_TOL:
            return rho, v
    raise NumericalError(
        f"power iteration did not reach residual {_POWER_RESIDUAL_TOL:g} "
        f"within {_POWER_MAX_ITER} iterations")


def perron(m) -> tuple[float, np.ndarray]:
    """Perron pair (spectral radius, positive unit eigenvector) of a
    strictly positive matrix.

    Uses the full spectrum for d <= 512 (robust near degenerate gaps) and
    power iteration with a Rayleigh-quotient stopping rule above.
    """
    a = _as_square_array(_entries_of(m), "perron input")
    if not np.all(a > 0):
        raise PreconditionError("perron requires a strictly positive matrix")
    d = a.shape[0]
    if d <= _DENSE_SPECTRUM_LIMIT:
        if np.array_equal(a, a.T):
            spec = eig_sym(a)
            rho = float(spec.eigenvalues[0])
            v = spec.eigenvectors[:, 0].copy()
        else:
            w, vs = np.linalg.eig(a)
            i = int(np.argmax(w.real))
            rho = float(w[i].real)
            v = vs[:, i].real.copy()
        if v.sum() < 0:
            v = -v
    else:
        rho, v = _power_iteration(a)
    if np.any(v <= 0):
        # One application of the positive matrix makes any nonnegative
        # nonzero eigenvector strictly positive without changing it.
        v = a @ v
    v = v / float(np.linalg.norm(v))
    residual = float(np.linalg.norm(a @ v - rho * v))
    if residual > 1e-10:
        raise NumericalError(f"Perron residual {residual:.3e} exceeds 1e-10")
    if np.any(v <= 0):
        raise NumericalError("Perron vector is not strictly positive")
    return rho, _freeze(v)


def sign_matrix_of(a, tau: float = SIGN_ZERO_TOL) -> SignMatrix:
    """Sgn(a) as a sign matrix: +1 above tau and -1 below -tau, zeros
    (entries within [-tau, tau]) replaced by +1, the diagonal set to +1.

    An asymmetric input keeps the smaller sign of each pair, so the
    result is symmetric.
    """
    m = np.asarray(_entries_of(a), dtype=float)
    s = _as_square_array(np.where(m < -tau, -1.0, 1.0), "sign matrix input")
    s = np.minimum(s, s.T)
    np.fill_diagonal(s, 1.0)
    return SignMatrix(s)


def validate_projection(p, n: int, tol: float = DEFAULT_TOL) -> OrthoProjection:
    """Check all orthogonal-projection invariants of ``p`` at tolerance
    ``tol`` and return the typed value; see :class:`OrthoProjection`."""
    return OrthoProjection(_entries_of(p), n, tol)


@dataclass(frozen=True)
class RowSumStats:
    r: float
    R: float
    gap: float


def row_sum_stats(p) -> RowSumStats:
    """Smallest and largest absolute row sums of a matrix, and their gap."""
    a = np.abs(_entries_of(p))
    sums = a.sum(axis=1)
    r = float(sums.min())
    big = float(sums.max())
    return RowSumStats(r, big, big - r)


# ---------------------------------------------------------------------------
# Matrix JSON format: {"d": int, "rows": [[...], ...]}.  Python's float
# repr round-trips bit-exactly, so writers emit full precision.

def matrix_to_json(a) -> dict:
    m = _as_square_array(_entries_of(a), "matrix")
    return {"d": int(m.shape[0]), "rows": [list(map(float, row)) for row in m]}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "d" not in obj or "rows" not in obj:
        raise PreconditionError('matrix JSON must have keys "d" and "rows"')
    d = int(obj["d"])
    a = np.asarray(obj["rows"], dtype=float)
    if a.shape != (d, d):
        raise PreconditionError(
            f'matrix JSON rows have shape {a.shape}, expected ({d}, {d})')
    return a
