import json

import numpy as np
import pytest

from projconst import (InvariantViolation, OrthoProjection,
                       PreconditionError, SignMatrix, SymMatrix,
                       WeightVector, eig_sym, matrix_from_json,
                       matrix_to_json, perron, row_sum_stats, sign_matrix_of,
                       validate_projection)
from projconst.matcore import _check_projections
from projconst.seeds import icosa6

J3 = np.ones((3, 3))


def hex_projection():
    return validate_projection(np.eye(3) - J3 / 3, 2)


class TestTypes:
    def test_sym_matrix_symmetrizes_exactly(self):
        a = np.array([[1.0, 0.3], [0.1, 2.0]])
        m = SymMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)

    def test_sym_matrix_rejects_nonsquare(self):
        with pytest.raises(PreconditionError):
            SymMatrix(np.ones((2, 3)))

    def test_sign_matrix_validation(self):
        SignMatrix(2 * np.eye(3) - J3)
        with pytest.raises(InvariantViolation):
            SignMatrix(np.eye(3))  # zeros off-diagonal
        with pytest.raises(InvariantViolation):
            SignMatrix(-(2 * np.eye(3) - J3))  # -1 diagonal

    def test_weight_vector_validation(self):
        WeightVector([0.5, 0.5])
        with pytest.raises(InvariantViolation):
            WeightVector([0.5, 0.6])
        with pytest.raises(InvariantViolation):
            WeightVector([1.5, -0.5])

    def test_values_are_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigSym:
    def test_identity(self):
        spec = eig_sym(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1, 1, 1])

    def test_2i_minus_j(self):
        # characteristic polynomial of 2I - J factors as (2-t)^2 (-1-t)
        spec = eig_sym(2 * np.eye(3) - J3)
        assert np.allclose(spec.eigenvalues, [2, 2, -1], atol=1e-12)

    def test_all_ones(self):
        spec = eig_sym(J3)
        assert np.allclose(spec.eigenvalues, [3, 0, 0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        for d in (2, 5, 17, 50):
            a = rng.standard_normal((d, d))
            a = a + a.T
            spec = eig_sym(a)
            assert np.abs(spec.reconstruct() - a).max() <= 1e-9
            assert np.abs(spec.eigenvectors.T @ spec.eigenvectors
                          - np.eye(d)).max() <= 1e-9

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        v1 = eig_sym(a).eigenvectors
        v2 = eig_sym(a.copy()).eigenvectors
        assert np.array_equal(v1, v2)
        lead = np.argmax(np.abs(v1) > 1e-9, axis=0)
        assert np.all(v1[lead, np.arange(6)] > 0)


class TestPerron:
    def test_constant_row_sum(self):
        rho, v = perron((np.eye(3) + J3) / 3)
        assert abs(rho - 4 / 3) <= 1e-12
        assert np.allclose(v, np.full(3, 1 / np.sqrt(3)))

    def test_rank_one(self):
        for d in (2, 4, 9):
            rho, v = perron(np.ones((d, d)) / d)
            assert abs(rho - 1.0) <= 1e-12
            assert np.all(v > 0)

    def test_icosahedral_abs_projection(self):
        absp = icosa6().abs_entries()
        rho, v = perron(absp)
        assert abs(rho - (1 + np.sqrt(5)) / 2) <= 1e-12
        # cross-check against a direct eigendecomposition
        assert abs(rho - eig_sym(absp).eigenvalues[0]) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            perron(np.eye(2))

    def test_residual_and_positivity(self):
        rng = np.random.default_rng(11)
        for d in (3, 8, 20):
            m = rng.random((d, d)) + 0.1
            rho, v = perron(m)
            assert np.linalg.norm(m @ v - rho * v) <= 1e-10
            assert np.all(v > 0)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_large_symmetric(self):
        # d > 512 takes the same eigh path as every smaller d
        rng = np.random.default_rng(12)
        d = 520
        m = (rng.random((d, d)) + 0.01) / d
        m = 0.5 * (m + m.T)
        rho, v = perron(m)
        assert abs(rho - eig_sym(m).eigenvalues[0]) <= 1e-12
        assert np.linalg.norm(m @ v - rho * v) <= 1e-10
        assert np.all(v > 0)


class TestSignPattern:
    """Sgn(a) as built by sign_matrix_of."""

    def test_hex(self):
        s = sign_matrix_of(np.eye(3) - J3 / 3)
        assert np.array_equal(s.entries, 2 * np.eye(3) - J3)

    def test_zero_matrix(self):
        assert np.all(sign_matrix_of(np.zeros((2, 2))).entries == 1)

    def test_threshold(self):
        a = np.array([[0.0, -1e-12], [-1e-12, 0.0]])
        assert sign_matrix_of(a, tau=1e-9).entries[0, 1] == 1
        assert sign_matrix_of(a, tau=1e-13).entries[0, 1] == -1

    def test_zero_completion(self):
        s = sign_matrix_of(np.diag([1.0, -2.0]))
        assert np.array_equal(s.entries, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_asymmetric_input_keeps_smaller_sign(self):
        s = sign_matrix_of(np.array([[1.0, -0.5], [0.5, 1.0]]))
        assert np.array_equal(s.entries, 2 * np.eye(2) - np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            sign_matrix_of(np.array([[1.0, bad], [bad, 1.0]]))


class TestValidateProjection:
    def test_accepts_hexagon(self):
        p = hex_projection()
        assert p.n == 2 and p.d == 3

    def test_accepts_rank_one_mean(self):
        validate_projection(J3 / 3, 1)

    def test_rejects_trace_mismatch(self):
        with pytest.raises(InvariantViolation) as err:
            validate_projection(J3 / 3, 2)
        assert "trace" in str(err.value)

    def test_constructor_checks_invariants(self):
        with pytest.raises(InvariantViolation) as err:
            OrthoProjection(J3 / 3, 2)
        assert "trace" in str(err.value)

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvariantViolation):
            validate_projection(0.5 * np.eye(3), 1)

    def test_stack_reports_first_failing_lane(self):
        # lanes: a valid rank-2 projection, then diag(1, 1/2, 1/2) (trace
        # 2, symmetric, idempotence its worst violation), then the identity
        # (trace 3); the earliest failing lane names the invariant
        good = np.eye(3) - J3 / 3
        lazy = np.diag([1.0, 0.5, 0.5])
        full = np.eye(3)
        sym = _check_projections(np.stack([good, good]), 2, 1e-9)
        assert np.array_equal(sym[1], hex_projection().entries)
        with pytest.raises(InvariantViolation) as err:
            _check_projections(np.stack([good, lazy, full]), 2, 1e-9)
        assert err.value.invariant == "idempotence"
        assert err.value.violation == 0.25
        with pytest.raises(InvariantViolation) as err:
            _check_projections(np.stack([good, full, lazy]), 2, 1e-9)
        assert err.value.invariant == "trace equals rank"

    def test_trace_equals_eigenvalue_one_multiplicity(self):
        rng = np.random.default_rng(5)
        for d, n in ((4, 2), (7, 3), (10, 5)):
            q, _ = np.linalg.qr(rng.standard_normal((d, n)))
            p = validate_projection(q @ q.T, n)
            evals = eig_sym(p.entries).eigenvalues
            assert int((evals > 0.5).sum()) == n


class TestRowSums:
    def test_hexagon(self):
        stats = row_sum_stats(hex_projection())
        assert abs(stats.r - 4 / 3) <= 1e-12
        assert abs(stats.R - 4 / 3) <= 1e-12
        assert stats.gap <= 1e-12

    def test_icosa(self):
        stats = row_sum_stats(icosa6())
        phi = (1 + np.sqrt(5)) / 2
        assert abs(stats.r - phi) <= 1e-12 and abs(stats.R - phi) <= 1e-12

    def test_rank_one_diag(self):
        stats = row_sum_stats(np.diag([1.0, 0.0]))
        assert stats.r == 0.0 and stats.R == 1.0


class TestPerronRowSumBounds:
    def test_r_le_rho_le_R(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d))
            q, _ = np.linalg.qr(rng.standard_normal((d, n)))
            p = q @ q.T
            if not np.all(np.abs(p) > 0):
                continue
            rho, _ = perron(np.abs(p))
            stats = row_sum_stats(p)
            assert stats.r - 1e-9 <= rho <= stats.R + 1e-9


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    blob = json.dumps(matrix_to_json(a))
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, a)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(PreconditionError):
        matrix_from_json({"d": 3, "rows": [[1.0, 2.0], [3.0, 4.0]]})
