"""Dense symmetric linear algebra and Perron-Frobenius utilities.

Provides the matrix classes used everywhere else (symmetric matrices, sign
matrices, simplex weight vectors, rank-n orthogonal projections, spectra)
together with the spectral primitives: a deterministic symmetric
eigensolver wrapper, Perron pairs of positive matrices, sign matrices of
thresholded signs, and projection validation.
Every spectral primitive takes the same dense LAPACK path at every d.
The search and the almost-minimal pipeline share two stack steps, the
rank-n Ky Fan maximizer and the Perron weights, implemented once here.

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


def _as_square_array(entries, name: str = "matrix") -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return a


def _check_tol(tol: float, name: str) -> None:
    if not 0.0 <= tol < np.inf:
        raise PreconditionError(f"{name} must be finite and >= 0, got {tol!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Spectral steps on stacks: each takes a (..., d, d) stack, so kyfan_sum,
# perron and the pipeline apply them to one matrix and the batched search
# ascent to all of its lanes at once.  Stacked matmul and LAPACK loops
# give every matrix the same bits it gets on its own.  The invariant
# checks live in the constructors of the matrix classes, which see each
# value once, as it is returned; inside the ascent only the Perron steps
# check their output, so that a failed eigensolve raises NumericalError.

def _eigh_descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetrized stack ``m``, eigenvalues descending,
    eigenvectors as columns with their first coordinate of magnitude
    above 1e-9 positive."""
    m = 0.5 * (m + m.swapaxes(-1, -2))
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}")
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    lead = np.argmax(np.abs(v) > 1e-9, axis=-2)
    first = np.take_along_axis(v, lead[..., None, :], axis=-2)
    v *= np.where(first < 0, -1.0, 1.0)
    return w, v


def _perron_vectors(a: np.ndarray, rho: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    """Turn the eigenpairs (rho, v) of the strictly positive (B, d, d)
    stack ``a`` into Perron vectors: flip each v to a positive sum, repair
    entries that are not positive, normalize, and check the residual and
    strict positivity."""
    v = np.where(v.sum(axis=-1, keepdims=True) < 0, -v, v)
    # One application of the positive matrix makes any nonnegative
    # nonzero eigenvector strictly positive without changing it.
    repair = np.any(v <= 0, axis=-1)
    if repair.any():
        v = np.where(repair[:, None], (a @ v[..., None])[..., 0], v)
    v = v / np.sqrt(v[:, None, :] @ v[..., None])[..., 0]
    r = (a @ v[..., None])[..., 0] - rho[:, None] * v
    residual = np.sqrt(r[:, None, :] @ r[..., None])[:, 0, 0]
    failed = np.flatnonzero(~(residual <= 1e-10))
    if failed.size:
        raise NumericalError(
            f"Perron residual {residual[failed[0]]:.3e} exceeds 1e-10")
    if np.any(v <= 0):
        raise NumericalError("Perron vector is not strictly positive")
    return v


def _perron_pairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron pairs of the strictly positive, symmetric (B, d, d) stack
    ``a`` from its full spectra, at every d."""
    w, vs = _eigh_descending(a)
    return w[:, 0], _perron_vectors(a, w[:, 0], vs[..., 0])


def _kyfan(m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of the symmetrized stack ``m`` and the
    exactly symmetric projector onto its top-n eigenvectors, the rank-n
    Ky Fan maximizer."""
    w, v = _eigh_descending(m)
    top = v[..., :n]
    p = top @ top.swapaxes(-1, -2)
    return w, 0.5 * (p + p.swapaxes(-1, -2))


def _perron_weights(a: np.ndarray) -> np.ndarray:
    """Squared Perron vectors of the strictly positive, symmetric
    (B, d, d) stack ``a``, normalized to sum 1."""
    _, v = _perron_pairs(a)
    v = v * v
    return v / v.sum(axis=-1, keepdims=True)


def _signs(m: np.ndarray, tau: float) -> np.ndarray:
    """Sgn on a square stack; see :func:`sign_matrix_of`."""
    s = np.where(m < -tau, -1.0, 1.0)
    s = np.minimum(s, s.swapaxes(-1, -2))
    diag = np.arange(s.shape[-1])
    s[..., diag, diag] = 1.0
    return s


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
        if not np.all(np.diagonal(a) == 1.0):
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
        if not np.all(np.isfinite(w)):
            raise PreconditionError("weights contain non-finite entries")
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


_PROJECTION_CHECKS = ("symmetry", "idempotence", "trace equals rank",
                      "eigenvalues in {0,1}")


@dataclass(frozen=True, eq=False)
class OrthoProjection:
    """Symmetric idempotent d x d matrix of rank n.

    The constructor is the single check of the projection invariants; it
    raises :class:`InvariantViolation` naming the worst violation.
    Symmetry, idempotence and trace are checked on the input at ``tol``
    (finite and >= 0); eigenvalue proximity to {0, 1} at ``10 * tol``
    (matching the 1e-9 / 1e-8 default split) on the symmetrized input,
    which is what is stored.
    """

    entries: np.ndarray
    n: int
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        a = _as_square_array(self.entries, "projection candidate")
        _check_tol(tol, "tol")
        n = self.n
        if not (0 <= n <= a.shape[0]):
            raise PreconditionError(f"rank {n} out of range for d={a.shape[0]}")
        with np.errstate(over="ignore", invalid="ignore"):
            sym = 0.5 * (a + a.T)
            evals = np.linalg.eigvalsh(sym)
            measures = np.array([
                np.abs(a - a.T).max(),
                np.abs(a @ a - a).max(),
                abs(np.trace(a) - n),
                max(np.abs(evals - np.round(evals)).max(),
                    np.minimum(np.abs(evals), np.abs(evals - 1.0)).max()),
            ])
        tols = np.array([tol, tol, tol, 10 * tol])
        ok = measures <= tols  # a non-finite measure fails and ranks worst
        if not ok.all():
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = np.where(ok, -np.inf, measures / tols)
            k = int(np.argmax(np.nan_to_num(worst, nan=np.inf, posinf=np.inf)))
            raise InvariantViolation(_PROJECTION_CHECKS[k], float(measures[k]),
                                     detail=f"tolerance {tols[k]:g}")
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
    return Spectrum(*_eigh_descending(m))


def perron(m) -> tuple[float, np.ndarray]:
    """Perron pair (spectral radius, positive unit eigenvector) of a
    strictly positive matrix.

    Uses the full spectrum at every d: ``eigh`` for symmetric input,
    ``eig`` (the eigenvalue of largest real part) otherwise.
    """
    a = _as_square_array(_entries_of(m), "perron input")
    if not np.all(a > 0):
        raise PreconditionError("perron requires a strictly positive matrix")
    if not np.array_equal(a, a.T):
        w, vs = np.linalg.eig(a)
        i = int(np.argmax(w.real))
        rho = w[i:i + 1].real
        v = _perron_vectors(a[None], rho, vs[None, :, i].real)
    else:
        rho, v = _perron_pairs(a[None])
    return float(rho[0]), _freeze(v[0])


def sign_matrix_of(a, tau: float = SIGN_ZERO_TOL) -> SignMatrix:
    """Sgn(a) as a sign matrix: +1 above tau and -1 below -tau (tau finite
    and >= 0), zeros (entries within [-tau, tau]) replaced by +1, the
    diagonal set to +1.

    An asymmetric input keeps the smaller sign of each pair, so the
    result is symmetric.
    """
    m = _as_square_array(_entries_of(a), "sign matrix input")
    _check_tol(tau, "tau")
    return SignMatrix(_signs(m, tau))


def validate_projection(p, n: int, tol: float = DEFAULT_TOL) -> OrthoProjection:
    """Check all orthogonal-projection invariants of ``p`` at tolerance
    ``tol`` and return the typed value; see :class:`OrthoProjection`."""
    return OrthoProjection(_entries_of(p), n, tol)


# ---------------------------------------------------------------------------
# Matrix JSON format: {"d": int, "rows": [[...], ...]}.  Python's float
# repr round-trips bit-exactly, so writers emit full precision.

def matrix_to_json(a) -> dict:
    m = _as_square_array(_entries_of(a), "matrix")
    return {"d": int(m.shape[0]), "rows": [list(map(float, row)) for row in m]}


def _json_array(value, name: str) -> np.ndarray:
    """A JSON value as a float array; PreconditionError unless it is a
    number or a regular nested list of numbers, booleans excluded."""
    stack = [value]
    while stack:
        leaf = stack.pop()
        if isinstance(leaf, list):
            stack.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise PreconditionError(
                f"{name} must hold JSON numbers only, got {leaf!r}")
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, ValueError):
        raise PreconditionError(f"{name} is not a float array") from None


def _json_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "d" not in obj or "rows" not in obj:
        raise PreconditionError('matrix JSON must have keys "d" and "rows"')
    d = _json_int(obj["d"], "matrix JSON d")
    a = _json_array(obj["rows"], "matrix JSON rows")
    if a.shape != (d, d):
        raise PreconditionError(
            f'matrix JSON rows have shape {a.shape}, expected ({d}, {d})')
    return a
